import json
import math

import numpy as np
import pytest

from tailbound.dist_bounds import NUMERIC, RATE, lower_bound
from tailbound.dist_model import (
    Binomial, ChiSq, Gamma, Normal, Poisson, Side, WeightedChiSq, WeightVector,
    spec_from_json,
)
from tailbound.errors import DomainError
from tailbound.harness import (
    AbsoluteGrid, DEFAULT_FAMILIES, DEFAULT_QUANTILES,
    _sorted_quantile, bisect_quantile, run_grid,
)
from tailbound.oracle import exact_tail


def test_quantile_normal_median():
    assert abs(bisect_quantile(Normal(1.0), Side.UPPER, 0.5)) < 1e-9


def test_quantile_chisq2_exponential():
    # chi^2_2 upper tail is exp(-(k+x)/2 + ...) = exp(-x/2 - 1): q = e^-2 at x = 2
    x = bisect_quantile(ChiSq(2), Side.UPPER, math.exp(-2.0))
    assert abs(x - 2.0) < 1e-7
    assert abs(exact_tail(ChiSq(2), Side.UPPER, x).value - math.exp(-2.0)) < 1e-9


def test_quantile_binomial_attained_point():
    # nearest attained tail in log space around q = 0.17 is P(Y >= 7) = 0.171875
    x = bisect_quantile(Binomial(10, 0.5), Side.UPPER, 0.17)
    assert x == 2.0
    assert exact_tail(Binomial(10, 0.5), Side.UPPER, x).value == 0.171875


def test_quantile_rejects_bad_q():
    with pytest.raises(DomainError):
        bisect_quantile(Normal(1.0), Side.UPPER, 1.5)


@pytest.mark.parametrize("xs", [(), (-1.0,), (1.0, math.nan), (math.inf,)],
                         ids=["empty", "negative", "nan", "inf"])
def test_absolute_grid_refuses_a_point_outside_0_to_inf(xs):
    with pytest.raises(DomainError, match="finite x >= 0"):
        AbsoluteGrid(xs)


def test_quantile_unattainable_boundary():
    # gamma upper tail at x=0 is below 0.5: boundary comes back (flag recorded by the grid)
    x = bisect_quantile(Gamma(2.5), Side.UPPER, 0.5)
    assert x == 0.0


def test_run_grid_small_all_pass():
    rep = run_grid(families=[Binomial(10, 0.5)],
                   x_policy=AbsoluteGrid((0.0, 1.0, 2.0, 3.0, 4.0, 5.0)), seed=1)
    assert rep.summary["n_fail"] == 0
    assert rep.summary["n_pass"] == len(rep.rows) == 12


def test_run_grid_zero_region_row_passes():
    rep = run_grid(families=[Gamma(2.0)], x_policy=AbsoluteGrid((3.0,)), seed=1)
    row = [r for r in rep.rows if r.side is Side.LOWER][0]
    assert row.exact.value == 0.0
    assert row.lower.value == 0.0
    assert row.passed


def test_run_grid_deterministic_same_seed():
    a = run_grid(families=[Poisson(3.0), WeightedChiSq(WeightVector((1.0, 0.5)))],
                 seed=7, mc_n=50_000)
    b = run_grid(families=[Poisson(3.0), WeightedChiSq(WeightVector((1.0, 0.5)))],
                 seed=7, mc_n=50_000)
    ja, jb = a.to_json(), b.to_json()
    ja.pop("timestamp"), jb.pop("timestamp")
    assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)


def test_run_grid_repeats_exact_discrete_and_mc_rows():
    fams = [Gamma(2.5), Binomial(25, 0.3), WeightedChiSq(WeightVector((1.0, 0.5)))]
    a = run_grid(families=fams, seed=3, mc_n=50_000)
    b = run_grid(families=fams, seed=3, mc_n=50_000)
    ja, jb = a.to_json(), b.to_json()
    ja.pop("timestamp"), jb.pop("timestamp")
    assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)


def test_run_grid_fault_injection_fails():
    # the small-shape gamma bracket is tight within e^2/(e-1) < 10, so
    # inflating certified lower bounds tenfold must break certification
    rep = run_grid(families=[Gamma(0.5)], seed=3, fault_lower_scale=10.0)
    assert rep.summary["n_fail"] > 0
    clean = run_grid(families=[Gamma(0.5)], seed=3)
    assert clean.summary["n_fail"] == 0


def test_run_grid_rate_tier_rows_skip_outside_window():
    rep = run_grid(families=[Binomial(25, 0.3)],
                   x_policy=AbsoluteGrid((0.5, 16.0)), tiers=(RATE,), seed=1)
    skipped = [r for r in rep.rows if r.skip]
    assert skipped  # x=16 is outside the rate window but inside the support
    assert all(r.passed for r in skipped)
    # placeholder constants are not certificates: shallow rate rows may fail
    assert any(not r.passed and r.lower is not None and not r.lower.certified
               for r in rep.rows)


def test_report_schema_and_round_trip():
    rep = run_grid(families=[Binomial(10, 0.5)],
                   x_policy=AbsoluteGrid((0.0, 2.0)), seed=5)
    text = rep.dumps()
    obj = json.loads(text)
    assert json.dumps(obj, sort_keys=True, separators=(",", ":")) == text
    assert set(obj) >= {"rows", "summary", "seed", "tool_version", "timestamp"}
    for r in obj["rows"]:
        spec_from_json(r["spec"])
    row = obj["rows"][0]
    assert set(row) >= {"spec", "side", "x", "exact", "upper", "lower", "pass",
                        "slack_upper", "slack_lower"}
    assert obj["summary"]["n_pass"] + obj["summary"]["n_fail"] == len(obj["rows"])


def test_default_grid_shapes():
    assert len(DEFAULT_QUANTILES) == 8
    assert len(DEFAULT_FAMILIES) == 9


def test_run_grid_rows_in_family_side_x_tier_order():
    fams = (Gamma(2.5), Poisson(3.0))
    xs = (0.5, 1.0)
    tiers = (NUMERIC, RATE)
    rep = run_grid(families=fams, x_policy=AbsoluteGrid(xs), tiers=tiers, seed=1)
    expected = [(spec, side, x, tier) for spec in fams for side in (Side.UPPER, Side.LOWER)
                for x in xs for tier in tiers]
    assert len(rep.rows) == len(expected)
    for row, (spec, side, x, tier) in zip(rep.rows, expected):
        assert (row.spec, row.side, row.x) == (spec, side, x)
        assert row.lower == lower_bound(spec, side, x, tier=tier)
    # the tiers give different lower bounds, so the comparison above pins their order
    assert rep.rows[0].lower != rep.rows[1].lower


def _linear_quantile_cases():
    rng = np.random.default_rng(20)
    big = np.sort(rng.standard_normal(10**6))
    n = len(big)
    ps = [1.0 - q for q in DEFAULT_QUANTILES]  # the sweep's Monte Carlo depths
    ps += [k / (n - 1) for k in (1, 2, 999, 500_000, n - 2)]  # integer h
    ps += [0.0, 1.0, 1.0 - 1e-20]  # h = 0 and h = n - 1
    ps += rng.uniform(0.0, 1.0, 50).tolist()
    yield from ((big, p) for p in ps)
    ties = np.sort(rng.integers(-3, 3, 101).astype(float))  # equal neighbours, signed zeros
    ties[ties == 0.0] = -0.0
    for s in (ties, np.array([2.5]), np.array([-1.0, 4.0])):
        yield from ((s, p) for p in (0.0, 0.25, 0.5, 0.75, 1.0, 0.123, 0.999))
    # h = k + 1/2 exactly, between far-apart neighbours, where numpy's two lerp forms differ
    nine = np.sort(rng.choice([-1.0, 1.0], 9) * 10.0 ** rng.uniform(-3.0, 3.0, 9))
    for k in range(8):
        p = (k + 0.5) / 8.0
        yield from ((nine, v) for v in (math.nextafter(p, 0.0), p, math.nextafter(p, 1.0)))


def test_sorted_quantile_is_numpy_linear_quantile_bit_for_bit():
    for s, p in _linear_quantile_cases():
        got, want = _sorted_quantile(s, p), float(np.quantile(s, p))
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (len(s), p)
