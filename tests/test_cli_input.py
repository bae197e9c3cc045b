"""Bad input reaches the documented exit code, never a traceback.

Malformed flags, environment variables and config values exit 2; parameter
values outside a family's domain exit 3.
"""

import pytest

from tailbound.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


def test_malformed_seed_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("TAILBOUND_SEED", "abc")
    code, err = run_cli(capsys, "classify", "--mu", "1", "--lambda", "2", "--eps", "0.5",
                        "--simulate", "1000")
    assert code == 2
    assert "TAILBOUND_SEED" in err


def test_malformed_fault_scale_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("TAILBOUND_FAULT_LOWER_SCALE", "x")
    code, err = run_cli(capsys, "verify", "--families", "binomial")
    assert code == 2
    assert "TAILBOUND_FAULT_LOWER_SCALE" in err


def test_malformed_quantiles_exit_2(capsys):
    code, err = run_cli(capsys, "verify", "--quantiles", "abc")
    assert code == 2
    assert "--quantiles" in err


def test_malformed_weights_exit_2(capsys):
    code, err = run_cli(capsys, "extreme", "--base", '{"family":"normal","params":{"sigma2":1}}',
                        "--k", "4", "--weights", "1,x", "--reps", "100")
    assert code == 2
    assert "--weights" in err


def test_malformed_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "conf"
    cfg.write_text("seed = many\n")
    code, err = run_cli(capsys, "classify", "--mu", "1", "--lambda", "2", "--eps", "0.5",
                        "--simulate", "1000", "--config", str(cfg))
    assert code == 2
    assert "seed" in err


@pytest.mark.parametrize("dist", [
    '{"family":"normal","params":{"sigma2":Infinity}}',
    '{"family":"poisson","params":{"lambda":Infinity}}',
    '{"family":"chisq","params":{"k":2.5}}',
    '{"family":"gamma","params":{"alpha":"abc"}}',
    '{"family":"weighted_chisq","params":{"weights":5}}',
    '{"family":"chisq","params":{"k":1e400}}',
], ids=["inf-sigma2", "inf-lambda", "fractional-k", "string-alpha", "scalar-weights", "huge-k"])
def test_bad_parameter_exits_3(capsys, dist):
    code, err = run_cli(capsys, "bound", "--dist", dist, "--side", "upper", "--x", "1")
    assert code == 3
    assert err.startswith("error: ")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # the engines run first
def test_huge_gamma_shape_exits_3_with_message(capsys):
    code, err = run_cli(capsys, "bound", "--dist", '{"family":"gamma","params":{"alpha":1e308}}',
                        "--side", "upper", "--x", "1")
    assert code == 3
    assert "incomplete gamma" in err


def test_non_converging_gamma_shape_exits_3(capsys):
    code, err = run_cli(capsys, "bound", "--dist", '{"family":"gamma","params":{"alpha":1e20}}',
                        "--side", "upper", "--x", "1")
    assert code == 3
    assert "converge" in err


def test_overflowing_beta_prefactor_exits_3(capsys):
    code, err = run_cli(capsys, "quantile", "--dist",
                        '{"family":"beta","params":{"alpha":3037.0158219566874,'
                        '"beta":3.5230349934220878e+19}}', "--side", "lower", "--q", "0.3")
    assert code == 3
    assert "incomplete beta" in err


@pytest.mark.parametrize("flags", [
    ("--rate-c", "-1"), ("--rate-c", "0"), ("--rate-c", "nan"), ("--rate-c", "inf"),
    ("--rate-C", "0"), ("--rate-C", "inf"),
], ids=["negative-c", "zero-c", "nan-c", "inf-c", "zero-C", "inf-C"])
def test_bad_rate_constant_exits_3(capsys, flags):
    code, err = run_cli(capsys, "bound", "--dist", '{"family":"gamma","params":{"alpha":2}}',
                        "--side", "upper", "--x", "1", "--tier", "rate", *flags)
    assert code == 3
    assert "rate constants" in err


@pytest.mark.parametrize("flags", [
    ("--c", "nan"), ("--c", "0"), ("--C", "inf"), ("--C", "nan"), ("--c", "2", "--C", "1"),
], ids=["nan-c", "zero-c", "inf-C", "nan-C", "c-above-C"])
def test_bad_extreme_constant_exits_3(capsys, flags):
    code, err = run_cli(capsys, "extreme", "--base", '{"family":"normal","params":{"sigma2":1}}',
                        "--k", "4", "--reps", "100", *flags)
    assert code == 3
    assert "0 < c <= C < inf" in err


def test_verify_has_no_threads_flag(capsys):
    code, err = run_cli(capsys, "verify", "--threads", "8")
    assert code == 2
    assert "--threads" in err
