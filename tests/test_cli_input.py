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


@pytest.mark.parametrize("dist", [
    '{"family":"binomial","params":{"k":4194305,"p":0.3}}',
    '{"family":"binomial","params":{"k":1e12,"p":0.3}}',
    '{"family":"rademacher","params":{"k":4194305}}',
    '{"family":"rademacher","params":{"k":1e12}}',
    '{"family":"irwin_hall","params":{"k":4194305}}',
    '{"family":"irwin_hall","params":{"k":1e12}}',
    '{"family":"irwin_hall","params":{"k":1e20}}',
], ids=["binomial-2^22+1", "binomial-1e12", "rademacher-2^22+1", "rademacher-1e12",
        "irwin-hall-2^22+1", "irwin-hall-1e12", "irwin-hall-1e20"])
def test_huge_count_exits_3(capsys, dist):
    code, err = run_cli(capsys, "bound", "--dist", dist, "--side", "upper", "--x", "1")
    assert code == 3
    assert "count must be at most 4194304" in err


def test_largest_count_constructs():
    from tailbound import Binomial, ChiSq, IrwinHall, RademacherSum
    assert Binomial(2**22, 0.3).k == RademacherSum(2**22).k == IrwinHall(2**22).k == 2**22
    assert ChiSq(10**12).k == 10**12  # nothing a chi-square runs loops over its count


def test_underflowing_weights_exit_3(capsys):
    code, err = run_cli(capsys, "bound", "--dist",
                        '{"family":"weighted_chisq","params":{"weights":[1e-170]}}',
                        "--side", "lower", "--x", "1e-180")
    assert code == 3
    assert "squared norm underflows" in err


_OUT_COMMANDS = {
    "bound": ("bound", "--dist", '{"family":"gamma","params":{"alpha":2.5}}',
              "--side", "upper", "--x", "1"),
    "verify": ("verify", "--families", "binomial", "--quantiles", "0.1"),
    "quantile": ("quantile", "--dist", '{"family":"chisq","params":{"k":4}}',
                 "--side", "upper", "--q", "0.01"),
    "extreme": ("extreme", "--base", '{"family":"normal","params":{"sigma2":1}}',
                "--k", "4", "--reps", "100"),
    "classify": ("classify", "--mu", "1", "--lambda", "2", "--eps", "0.5", "--simulate", "1000"),
}


@pytest.mark.parametrize("command", list(_OUT_COMMANDS))
def test_config_out_key_is_honoured_by_every_command(tmp_path, capsys, command):
    import json
    out = tmp_path / "r.json"
    cfg = tmp_path / "conf"
    cfg.write_text(f"out = {out}\nseed = 5\nunknown_key = 1\n")
    code = main([*_OUT_COMMANDS[command], "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == ""
    assert json.loads(out.read_text())


def test_config_value_outside_the_flag_choices_exits_2(tmp_path, capsys):
    cfg = tmp_path / "conf"
    cfg.write_text("tier = bogus\n")
    code, err = run_cli(capsys, *_OUT_COMMANDS["bound"], "--config", str(cfg))
    assert code == 2
    assert "tier" in err


def test_config_fills_a_flag_with_a_default(tmp_path, capsys):
    import json
    cfg = tmp_path / "conf"
    cfg.write_text("tier = rate\nrate_C = 2.0\n")
    assert main([*_OUT_COMMANDS["bound"], "--config", str(cfg), "--json"]) == 0
    lower = json.loads(capsys.readouterr().out)["lower"]
    assert lower["method"] == "rate_form" and lower["params_used"]["C"] == 2.0
