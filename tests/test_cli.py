import json
import math
import os

import pytest

from tailbound.cli import main
from tailbound.dist_model import Poisson, Side
from tailbound.oracle import exact_tail


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_poisson_boundary(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--dist", '{"family":"poisson","params":{"lambda":0.5}}',
        "--side", "upper", "--x", "0.3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["lower"]["value"] - 0.39346934) < 1e-8
    assert payload["lower"]["certified"]
    assert payload["upper"]["value"] >= payload["exact"]["value"]


def test_bound_poisson_lower_edge_certifies_without_overflow(capsys):
    # P(X <= lam - x) = P(X = 0) = e^{-lam}; a search step once overflowed math.exp here
    lam, x = 99.3477322794792, 99.34773163693232
    code, out, _ = run_cli(
        capsys, "bound", "--dist", json.dumps({"family": "poisson", "params": {"lambda": lam}}),
        "--side", "lower", "--x", repr(x), "--json", "--no-exact")
    assert code == 0
    lower = json.loads(out)["lower"]
    assert lower["certified"]
    assert lower["log_value"] <= exact_tail(Poisson(lam), Side.LOWER, x).log_value


def test_bound_raw_threshold(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--dist", '{"family":"gamma","params":{"alpha":2.5}}',
        "--side", "upper", "--raw-x", "4.0", "--json", "--no-exact")
    assert code == 0
    assert json.loads(out)["x"] == pytest.approx(1.5)


def test_bound_malformed_json_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--dist", '{"family":"gamma"', "--side", "upper", "--x", "1")
    assert code == 2
    assert "malformed" in err


def test_bound_rate_window_exits_3(capsys):
    # beta rate form outside its window, but inside the support
    code, _, err = run_cli(
        capsys, "bound", "--dist", '{"family":"beta","params":{"alpha":2,"beta":5}}',
        "--side", "upper", "--x", "0.4", "--tier", "rate", "--no-exact")
    assert code == 3
    assert "eta" in err or "window" in err or "rate form" in err


def test_bound_beta_small_shape_exits_3(capsys):
    # bound routines need alpha, beta >= 1 even at the certified tier
    code, _, err = run_cli(
        capsys, "bound", "--dist", '{"family":"beta","params":{"alpha":0.5,"beta":5}}',
        "--side", "upper", "--x", "0.1", "--no-exact")
    assert code == 3
    assert "alpha" in err


def test_quantile_command(capsys):
    code, out, _ = run_cli(
        capsys, "quantile", "--dist", '{"family":"normal","params":{"sigma2":1}}',
        "--side", "upper", "--q", "0.5", "--json")
    assert code == 0
    assert abs(json.loads(out)["x"]) < 1e-8


def test_verify_default_exit_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "verify", "--families", "binomial,poisson", "--seed", "11",
        "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["n_fail"] == 0
    fams = {row["spec"]["family"] for row in report["rows"]}
    assert fams == {"binomial", "poisson"}


def test_verify_unknown_family_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--families", "cauchy")
    assert code == 2
    assert "unknown" in err


def test_verify_fault_injection_exits_1(tmp_path, capsys):
    out = tmp_path / "report.json"
    os.environ["TAILBOUND_FAULT_LOWER_SCALE"] = "10.0"
    try:
        code, _, _ = run_cli(
            capsys, "verify", "--families", "gamma", "--seed", "11", "--out", str(out))
    finally:
        del os.environ["TAILBOUND_FAULT_LOWER_SCALE"]
    assert code == 1
    assert json.loads(out.read_text())["summary"]["n_fail"] > 0


def test_classify_simulate(tmp_path, capsys):
    out = tmp_path / "cls.json"
    code, _, _ = run_cli(
        capsys, "classify", "--mu", "1", "--lambda", "2", "--eps", "0.5",
        "--simulate", "20000", "--seed", "5", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["theta_tilde"] - 1.0 / math.log(2.0)) < 1e-9
    assert abs(payload["expected_misid"] - 0.3351234836834768) < 1e-9
    assert payload["mc_misid"]["error"]["n"] == 20000


def test_classify_eps_out_of_range_exits_2(capsys):
    code, _, _ = run_cli(capsys, "classify", "--mu", "1", "--lambda", "2",
                         "--eps", "1.0", "--simulate", "1000")
    assert code == 2


def test_classify_mu_ge_lambda_exits_3(capsys):
    code, _, _ = run_cli(capsys, "classify", "--mu", "2", "--lambda", "2",
                         "--eps", "0.5", "--simulate", "1000")
    assert code == 3


def test_classify_counts_file(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text("count\n0\n1\n2\n5\n")
    out = tmp_path / "cls.json"
    flags = tmp_path / "flags.csv"
    code, _, _ = run_cli(
        capsys, "classify", "--mu", "1", "--lambda", "2", "--eps", "0.5",
        "--input", str(counts), "--out", str(out), "--flags-out", str(flags))
    assert code == 0
    lines = flags.read_text().strip().splitlines()
    assert lines[0] == "index,flag"
    assert [l.split(",")[1] for l in lines[1:]] == ["0", "0", "1", "1"]
    assert json.loads(out.read_text())["n_flagged"] == 2


def test_classify_negative_count_exits_2_with_line(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text("3\n-1\n2\n")
    code, _, err = run_cli(
        capsys, "classify", "--mu", "1", "--lambda", "2", "--eps", "0.5",
        "--input", str(counts))
    assert code == 2
    assert "line 2" in err


def test_extreme_command(capsys):
    code, out, _ = run_cli(
        capsys, "extreme", "--base", '{"family":"normal","params":{"sigma2":1}}',
        "--k", "16", "--reps", "5000", "--seed", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["bracket"]["rate"] - math.sqrt(math.log(16.0))) < 1e-12
    assert abs(payload["mc"]["mean"] - 1.766) < 0.1


def test_env_seed_and_flag_precedence(tmp_path, capsys):
    os.environ["TAILBOUND_SEED"] = "123"
    try:
        _, out_env, _ = run_cli(
            capsys, "classify", "--mu", "1", "--lambda", "2", "--eps", "0.5",
            "--simulate", "5000", "--json")
        _, out_flag, _ = run_cli(
            capsys, "classify", "--mu", "1", "--lambda", "2", "--eps", "0.5",
            "--simulate", "5000", "--seed", "123", "--json")
        _, out_other, _ = run_cli(
            capsys, "classify", "--mu", "1", "--lambda", "2", "--eps", "0.5",
            "--simulate", "5000", "--seed", "7", "--json")
    finally:
        del os.environ["TAILBOUND_SEED"]
    assert json.loads(out_env) == json.loads(out_flag)
    assert json.loads(out_other) != json.loads(out_env)


def test_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "conf.toml"
    cfg.write_text("seed = 99\nmc_reps = 2000\n")
    _, out_cfg, _ = run_cli(
        capsys, "classify", "--mu", "1", "--lambda", "2", "--eps", "0.5",
        "--simulate", "5000", "--config", str(cfg), "--json")
    _, out_direct, _ = run_cli(
        capsys, "classify", "--mu", "1", "--lambda", "2", "--eps", "0.5",
        "--simulate", "5000", "--seed", "99", "--json")
    assert json.loads(out_cfg) == json.loads(out_direct)
    _, out_win, _ = run_cli(
        capsys, "classify", "--mu", "1", "--lambda", "2", "--eps", "0.5",
        "--simulate", "5000", "--config", str(cfg), "--seed", "7", "--json")
    assert json.loads(out_win) != json.loads(out_cfg)


_WCHISQ = '{"family":"weighted_chisq","params":{"weights":[1.0,0.5]}}'


def test_quantile_monte_carlo_family_uses_seed(capsys, monkeypatch):
    from tailbound import Side, bisect_quantile, spec_from_json

    def quantile_x(*extra):
        code, out, _ = run_cli(capsys, "quantile", "--dist", _WCHISQ, "--side", "upper",
                               "--q", "0.01", "--json", *extra)
        assert code == 0
        return json.loads(out)["x"]

    x1, x2, x0 = quantile_x("--seed", "1"), quantile_x("--seed", "2"), quantile_x("--seed", "0")
    assert x1 != x2
    assert x0 == bisect_quantile(spec_from_json(json.loads(_WCHISQ)), Side.UPPER, 0.01)
    monkeypatch.setenv("TAILBOUND_SEED", "1")
    assert quantile_x() == x1
    monkeypatch.setenv("TAILBOUND_SEED", "2")
    assert quantile_x() == x2
