"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -v to see them).  Tolerances are pinned here
and must not be loosened to make a run green.
"""

import json
import math
import time

import numpy as np

import tailbound as tb
from tailbound import specfun as sf
from tailbound.cli import main as cli_main
from tailbound.dist_bounds import gamma_small_shape_upper_end, poisson_limit_check
from tailbound.dist_model import Side, log_mgf
from tailbound.engine_lower import ReverseChernoffParams, reverse_chernoff_objective
from tailbound.engine_upper import MgfSandwich
from tailbound.oracle import exact_tail


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_sandwich_certification():
    """Full default verify sweep: 9 families x 2 sides x 8 depths, zero failures."""
    t0 = time.time()
    rep = tb.run_grid(seed=42)
    wall = time.time() - t0
    n_rows = len(rep.rows)
    ok = rep.summary["n_fail"] == 0 and n_rows == 9 * 2 * 8 and wall < 180.0
    _report("criterion 1: sandwich certification sweep", ok,
            f"{n_rows} rows, {rep.summary['n_fail']} failures, {wall:.1f}s")


def test_criterion_02_gamma_small_shape_bracket():
    """Explicit small-shape bracket encloses the incomplete-gamma tails, 1e-12."""
    t0 = time.time()
    worst = 0.0
    for a in np.arange(0.1, 0.95, 0.1):
        spec = tb.Gamma(float(a))
        for x in np.linspace(0.0, 5.0, 20):
            exact = exact_tail(spec, Side.UPPER, float(x)).value
            lo = tb.lower_bound(spec, Side.UPPER, float(x)).value
            hi = gamma_small_shape_upper_end(float(a), float(x))
            worst = max(worst, lo - exact, exact - hi)
    wall = time.time() - t0
    _report("criterion 2: gamma small-shape explicit bracket",
            worst <= 1e-12 and wall < 1.0, f"worst violation {worst:.2e}, {wall:.2f}s")


def test_criterion_03_binomial_boundary_exactness():
    """50 random boundary cases: lower bound equals 1-(1-p)^k and the oracle."""
    rng = np.random.default_rng(2203)
    ok = True
    detail = ""
    for _ in range(50):
        k = int(rng.integers(1, 80))
        p = float(rng.uniform(1e-4, 0.95)) / k
        x = float(rng.uniform(0.0, max(1e-9, 1.0 - k * p - 1e-12)))
        lo = tb.lower_bound(tb.Binomial(k, p), Side.UPPER, x)
        ex = exact_tail(tb.Binomial(k, p), Side.UPPER, x)
        ref_log = math.log1p(-math.exp(k * math.log1p(-p)))
        if not (lo.value == ex.value and lo.log_value == ex.log_value):
            ok, detail = False, f"bit mismatch at k={k}, p={p}, x={x}"
            break
        if abs(lo.log_value - ref_log) > 1e-15 * max(1.0, abs(ref_log)):
            ok, detail = False, f"log-space mismatch at k={k}, p={p}, x={x}"
            break
    _report("criterion 3: binomial boundary exactness", ok, detail)


def test_criterion_04_reverse_chernoff_soundness():
    """1000 random feasible parameter points never beat the exact tail.

    Half the points are uniform over the search box; half perturb the
    optimized certificate, where the objective is positive and the
    comparison against the exact tail is sharp.
    """
    t0 = time.time()
    cases = [(tb.Binomial(200, 0.3), 40.0), (tb.Poisson(3.0), 4.0), (tb.Normal(1.0), 2.0)]
    setups = []
    for spec, x in cases:
        mgf = log_mgf(spec)
        best = tb.reverse_chernoff_lower(mgf, x)
        setups.append((mgf, x, exact_tail(spec, Side.UPPER, x).value, best.params_used))
    rng = np.random.default_rng(404)
    worst = -math.inf
    n_positive = 0
    for i in range(1000):
        mgf, x, exact, best = setups[i % 3]
        if i % 2 == 0:
            t = float(rng.uniform(0.005, 1.5))
            theta = float(rng.uniform(1.001, 3.5))
            delta = float(rng.uniform(1.001, 10.0))
            t_prime = t * float(rng.uniform(0.0, 1.0))
        else:
            t = best["t"] * float(rng.uniform(0.9, 1.1))
            theta = max(1.0 + 1e-6, best["theta"] * float(rng.uniform(0.95, 1.05)))
            delta = max(1.0 + 1e-6, best["delta"] * float(rng.uniform(0.95, 1.05)))
            t_prime = min(t, best["t_prime"] * float(rng.uniform(0.9, 1.1)))
        v = reverse_chernoff_objective(
            mgf, x, ReverseChernoffParams(t, t_prime, theta, delta))
        if v > 0.0:
            n_positive += 1
        worst = max(worst, v - exact)
    spec = tb.Binomial(200, 0.3)
    cert = tb.reverse_chernoff_lower(log_mgf(spec), 40.0)
    pmf_tail = exact_tail(spec, Side.UPPER, 40.0).value
    wall = time.time() - t0
    ok = worst <= 1e-9 and n_positive >= 100 \
        and cert.certified and 0.0 < cert.value <= pmf_tail and wall < 30.0
    _report("criterion 4: reverse-Chernoff soundness", ok,
            f"worst slack {worst:.2e}, {n_positive}/1000 positive certificates, "
            f"cert {cert.value:.3e} <= {pmf_tail:.3e}, {wall:.1f}s")


def test_criterion_05_paley_zygmund_gaussian():
    """Gaussian-constants engine: positive, below the true tail, exact at x=1."""
    s = MgfSandwich(0.5, 0.5, 1.0, 1.0, 1.0, math.inf)
    ok = True
    detail = ""
    for x in np.linspace(0.0, 3.0, 13):
        r = tb.pz_lower(s, float(x))
        if not (r.certified and 0.0 < r.value <= sf.normal_tail(float(x)) + 1e-12):
            ok, detail = False, f"violation at x={x}"
            break
    want = (1.0 - math.exp(-1.0)) ** 2 * math.exp(-(1.0 + math.sqrt(3.0)) ** 2)
    got = tb.pz_lower(s, 1.0, lam=1.0).value
    if abs(got - want) > 1e-12:
        ok, detail = False, f"closed form mismatch {got} vs {want}"
    _report("criterion 5: Paley-Zygmund Gaussian check", ok, detail)


def test_criterion_06_poisson_limit():
    """Binomial KL at n=1e6 lands within 1e-3 of the Bennett exponent."""
    worst = 0.0
    for lam in (1.0, 3.0, 10.0):
        for x in (0.5, 2.0, 3.0 * lam):
            worst = max(worst, abs(poisson_limit_check(lam, x, 10**6)))
    _report("criterion 6: Poisson limit reduction", worst <= 1e-3,
            f"worst |gap| {worst:.2e}")


def test_criterion_07_mixture_classifier():
    """Threshold formulas, exact misid, MC coverage, and optimality grid."""
    t0 = time.time()
    spec = tb.MixtureSpec(1.0, 2.0, 0.5)
    rep = tb.derive_classifier(spec)
    ok = abs(rep.theta_tilde - 1.0 / math.log(2.0)) <= 1e-12
    ok &= abs(rep.eps_plus - 1.0 / (2.0 / math.e + 1.0)) <= 1e-12
    ok &= abs(rep.eps_minus - 1.0 / (4.0 / math.e + 1.0)) <= 1e-12
    # independent oracle: truncated pmf sums
    pm, pl = math.exp(-1.0), math.exp(-2.0)
    misid = 0.0
    for j in range(200):
        if j > rep.theta_tilde:
            misid += 0.5 * pm
        else:
            misid += 0.5 * pl
        pm *= 1.0 / (j + 1.0)
        pl *= 2.0 / (j + 1.0)
    exact = tb.exact_expected_misid(spec)
    ok &= abs(exact - misid) <= 1e-12
    hits = 0
    for s in range(100):
        est = tb.mc_misid(spec, 100_000, seed=s)
        if est.error.ci_lo <= exact <= est.error.ci_hi:
            hits += 1
    ok &= hits >= 98
    grid_ok = all(
        tb.verify_optimality(tb.MixtureSpec(mu, mu * ratio, eps), j_max=100)
        for mu in (1.0, 2.0, 4.0)
        for ratio in (1.5, 2.5, 4.0)
        for eps in (0.05, 0.5, 0.95))
    ok &= grid_ok
    wall = time.time() - t0
    ok &= wall < 60.0
    _report("criterion 7: mixture classifier", ok,
            f"exact misid {exact:.6f}, MC coverage {hits}/100, "
            f"optimality grid {'ok' if grid_ok else 'BROKEN'}, {wall:.1f}s")


def test_criterion_08_extreme_value_rates():
    """Gaussian and chi-square maxima track their bracket rates."""
    t0 = time.time()
    reps = 100_000
    ratios = []
    for k in (4, 16, 64, 256):
        espec = tb.ExtremeSpec(tb.Normal(1.0), tb.WeightVector((1.0,)), k,
                               tb.mgf_sandwich(tb.Normal(1.0)))
        mean, _ = tb.mc_extreme_mean(espec, reps, seed=8)
        ratios.append(mean / math.sqrt(math.log(k)))
    gauss_spread = max(ratios) / min(ratios)

    espec = tb.ExtremeSpec(tb.Normal(1.0), tb.WeightVector((1.0,)), 16,
                           tb.mgf_sandwich(tb.Normal(1.0)))
    mean16, se16 = tb.mc_extreme_mean(espec, reps, seed=8)
    n_pts = 24001
    zs = np.linspace(-12.0, 12.0, n_pts)
    h = zs[1] - zs[0]
    phi = np.exp(-0.5 * zs * zs) / math.sqrt(2.0 * math.pi)
    big_phi = np.array([0.5 * math.erfc(-z / math.sqrt(2.0)) for z in zs])
    ys = 16.0 * zs * phi * big_phi ** 15
    oracle16 = h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())

    chi_ratios = []
    for n in (2, 8):
        for k in (4, 64, 1024):
            espec = tb.ExtremeSpec(tb.ChiSq(n), tb.WeightVector((1.0,)), k,
                                   tb.mgf_sandwich(tb.ChiSq(n)))
            mean, _ = tb.mc_extreme_mean(espec, reps, seed=8)
            chi_ratios.append(mean / max(math.sqrt(n * math.log(k)), math.log(k)))
    chi_spread = max(chi_ratios) / min(chi_ratios)
    wall = time.time() - t0
    ok = gauss_spread <= 2.0 and abs(mean16 - oracle16) <= 3.0 * se16 \
        and chi_spread <= 2.5 and wall < 120.0
    _report("criterion 8: extreme-value rate stability", ok,
            f"gauss spread {gauss_spread:.3f}, |mc-quad| {abs(mean16 - oracle16):.4f} "
            f"<= {3 * se16:.4f}, chi spread {chi_spread:.3f}, {wall:.1f}s")


def test_criterion_09_special_function_cross_checks():
    """Dual-route special functions agree at their stated tolerances."""
    worst_gamma = 0.0
    for a in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 120.0):
        for y in np.linspace(a + 1.0, a + 30.0, 50):
            worst_gamma = max(worst_gamma, abs(
                sf.reg_inc_gamma_upper_series(a, float(y))
                - sf.reg_inc_gamma_upper_cf(a, float(y))))
    from tailbound.oracle import binom_upper_tail
    rng = np.random.default_rng(909)
    worst_binom = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 80))
        p = float(rng.uniform(0.05, 0.95))
        m = int(rng.integers(1, k + 1))
        worst_binom = max(worst_binom, abs(
            binom_upper_tail(k, p, m)[0] - sf.reg_inc_beta(m, k - m + 1, p)))
    cut = 1e-4
    worst_psi = 0.0
    for t in (cut * (1 - 1e-9), cut * (1 + 1e-9), -cut * (1 - 1e-9), -cut * (1 + 1e-9)):
        direct = ((1.0 + t) * math.log1p(t) - t) / (0.5 * t * t)
        worst_psi = max(worst_psi, abs(sf.bennett_psi(t) - direct))
    ok = worst_gamma <= 1e-12 and worst_binom <= 1e-10 and worst_psi <= 1e-10
    _report("criterion 9: special-function cross-checks", ok,
            f"gamma routes {worst_gamma:.2e}, binomial-beta {worst_binom:.2e}, "
            f"bennett crossover {worst_psi:.2e}")


def test_criterion_10_determinism(tmp_path):
    """Reports are byte-identical (modulo timestamp) across two runs with the same seed."""
    outs = []
    for run in ("a", "b"):
        path = tmp_path / f"rep_{run}.json"
        code = cli_main(["verify", "--seed", "42", "--out", str(path)])
        assert code == 0
        obj = json.loads(path.read_text())
        obj.pop("timestamp")
        outs.append(json.dumps(obj, sort_keys=True))
    ok = outs[0] == outs[1]
    # a second command family: classification with a fixed seed
    a = tb.mc_misid(tb.MixtureSpec(1.0, 2.0, 0.5), 50_000, seed=9)
    b = tb.mc_misid(tb.MixtureSpec(1.0, 2.0, 0.5), 50_000, seed=9)
    ok &= a == b
    _report("criterion 10: byte-identical reports across two runs with the same seed", ok)
