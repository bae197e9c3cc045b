import math

import numpy as np
import pytest

from tailbound import specfun as sf
from tailbound.dist_bounds import (
    CLOSED_FORM, NUMERIC, RATE, BoundTier, Tier, bennett_rate, binomial_eq8_value,
    bound_catalog, fit_rate_constants, gamma_small_shape_left_upper_end,
    gamma_small_shape_upper_end, lower_bound, mgf_sandwich, poisson_limit_check,
    rate_info, upper_bound,
)
from tailbound.dist_model import (
    Beta, Binomial, ChiSq, Gamma, IrwinHall, NoncentralChiSq, Normal, Poisson,
    RademacherSum, Side, WeightedChiSq, WeightVector, log_mgf, support_extent,
)
from tailbound.errors import DomainError, WindowError
from tailbound.oracle import exact_tail

FAMILIES = [
    Gamma(2.5), ChiSq(4), WeightedChiSq(WeightVector((1.0, 0.7, 0.4, 0.1))),
    NoncentralChiSq(3, 2.0), Beta(2.0, 5.0), Binomial(25, 0.3), Poisson(3.0),
    IrwinHall(8), RademacherSum(20), Normal(1.0),
]


# upper bounds -----------------------------------------------------------------

def test_binomial_kl_upper_example():
    r = upper_bound(Binomial(10, 0.5), Side.UPPER, 2.0)
    want = math.exp(-10.0 * sf.bernoulli_kl(0.5, 0.7))
    assert abs(r.value - want) < 1e-12
    assert abs(want - 0.4392) < 5e-5
    assert r.value >= 0.171875


def test_poisson_upper_at_zero_is_one():
    assert upper_bound(Poisson(3.0), Side.UPPER, 0.0).value == 1.0


def test_gamma_left_tail_closed_form():
    r = upper_bound(Gamma(2.0), Side.LOWER, 1.0)
    assert abs(r.value - math.exp(-0.25)) < 1e-12


def test_gamma_upper_closed_form_vs_chernoff():
    # the sqrt-form is the inverted Chernoff construction, so it can only be looser
    from tailbound.engine_upper import chernoff_upper
    a = 2.5
    for x in (0.1, 1.0, 3.0, 8.0):
        closed = upper_bound(Gamma(a), Side.UPPER, x).value
        opt = chernoff_upper(log_mgf(Gamma(a)), x).value
        assert opt <= closed + 1e-12


def test_beta_rate_form_upper_example():
    r = upper_bound(Beta(2.0, 20.0), Side.UPPER, 0.1, tier=BoundTier(Tier.RATE, 1.0, 1.0))
    rate = min(20.0 ** 2 * 0.1 ** 2 / 2.0, 20.0 * 0.1)
    assert abs(r.value - 2.0 * math.exp(-rate)) < 1e-12
    assert not r.certified
    # a vacuous rate value is capped at 1 in the value field
    assert upper_bound(Beta(2.0, 20.0), Side.UPPER, 0.02,
                       tier=BoundTier(Tier.RATE, 1.0, 1.0)).value == 1.0
    closed = upper_bound(Beta(2.0, 20.0), Side.UPPER, 0.1)
    assert closed.certified
    assert abs(closed.value - math.exp(-2.0 * 23.0 * 0.1 ** 2)) < 1e-12


def test_beta_bound_needs_shape_at_least_one():
    with pytest.raises(DomainError):
        upper_bound(Beta(0.5, 2.0), Side.UPPER, 0.1)


def test_upper_bounds_dominate_exact():
    for spec in FAMILIES:
        for side in (Side.UPPER, Side.LOWER):
            for x in (0.0, 0.2, 0.8, 2.0, 5.0):
                ub = upper_bound(spec, side, x)
                est = exact_tail(spec, side, x, mc_n=50_000, mc_seed=3)
                hi = est.ci()[0]  # lower CI end for MC, value - tol otherwise
                assert ub.value >= hi - 1e-10, (spec, side, x)


def test_rademacher_support_zero():
    r = lower_bound(RademacherSum(4), Side.UPPER, 5.0)
    assert r.value == 0.0 and r.certified
    assert upper_bound(RademacherSum(4), Side.UPPER, 5.0).value == 0.0


def test_irwin_hall_kl_dominates_relaxation():
    k = 8
    for x in np.linspace(0.0, 4.0, 17):
        r = upper_bound(IrwinHall(k), Side.UPPER, float(x))
        assert r.value <= math.exp(-x * x / k) + 1e-12


# boundary and explicit lower bounds --------------------------------------------

def test_poisson_boundary_lower():
    r = lower_bound(Poisson(0.5), Side.UPPER, 0.3)
    assert r.certified
    assert abs(r.value - (1.0 - math.exp(-0.5))) < 1e-15
    assert abs(r.value - 0.3934693402873666) < 1e-12


def test_poisson_lower_boundary_is_the_exact_tail():
    # 0 <= lambda - x < 1 leaves the single atom P(X <= 0) = e^-lambda
    rng = np.random.default_rng(5)
    for _ in range(200):
        lam = float(np.exp(rng.uniform(np.log(0.01), np.log(2000.0))))
        x = max(0.0, lam - float(rng.uniform(0.0, 1.0)))
        lo = lower_bound(Poisson(lam), Side.LOWER, x, tier=CLOSED_FORM)
        ex = exact_tail(Poisson(lam), Side.LOWER, x)
        assert lo.method == "boundary_exact" and lo.certified
        assert (lo.value, lo.log_value) == (ex.value, ex.log_value) == (math.exp(-lam), -lam)
        upper = upper_bound(Poisson(lam), Side.LOWER, x)  # e^-lam underflows past 745
        assert upper.method == "closed_form" and upper.log_value >= -lam


def test_binomial_boundary_bit_consistent():
    rng = np.random.default_rng(77)
    for _ in range(50):
        k = int(rng.integers(1, 60))
        p = float(rng.uniform(1e-4, 0.9)) / k  # keeps kp < 1
        x = float(rng.uniform(0.0, max(1e-9, 1.0 - k * p - 1e-12)))
        lo = lower_bound(Binomial(k, p), Side.UPPER, x)
        ex = exact_tail(Binomial(k, p), Side.UPPER, x)
        ref_log = math.log1p(-math.exp(k * math.log1p(-p)))
        assert lo.value == ex.value
        assert lo.log_value == ex.log_value
        assert abs(lo.log_value - ref_log) < 1e-15 * max(1.0, abs(ref_log))


def test_binomial_left_boundary():
    # k(1-p) + x < 1 forces the exact value 1 - p^k
    spec = Binomial(10, 0.97)
    x = 0.5  # k(1-p) = 0.3, so k(1-p) + x = 0.8 < 1
    r = lower_bound(spec, Side.LOWER, x)
    assert r.certified
    assert abs(r.value - (1.0 - 0.97 ** 10)) < 1e-12
    assert r.value == exact_tail(spec, Side.LOWER, x).value


def test_binomial_bounds_hold_at_the_last_support_point():
    # k - kp can exceed k(1-p) by an ulp; the last support point must not be
    # called a zero tail.  Both sides of the oracle take ln p and ln(1 - p)
    # without rounding 1 - p first, so log U is compared with no slack.
    rng = np.random.default_rng(1)
    n_past_product = 0
    for _ in range(600):
        spec = Binomial(int(rng.integers(1, 401)), float(rng.uniform(0.001, 0.999)))
        n_past_product += spec.k - spec.k * spec.p > spec.k * (1.0 - spec.p)
        for side in Side:
            x = support_extent(spec, side)
            exact = exact_tail(spec, side, x)
            upper, lower = upper_bound(spec, side, x), lower_bound(spec, side, x)
            assert upper.log_value >= exact.log_value, (spec, side)
            assert lower.value <= exact.value, (spec, side)
    assert n_past_product > 0  # the ulp case was drawn


@pytest.mark.parametrize("spec,side,x", [
    (Binomial(25, 0.3), Side.UPPER, 17.5 + 1e-12),
    (Binomial(25, 0.3), Side.LOWER, 7.5 + 1e-12),
    (RademacherSum(20), Side.UPPER, 20.0 + 1e-12),
    (Poisson(3.0), Side.LOWER, 3.0 + 1e-12),
], ids=repr)
def test_bounds_hold_within_the_snap_tolerance_past_the_support_edge(spec, side, x):
    # the oracle snaps x onto the last support point, so the zero regions
    # read the same snapped count
    exact = exact_tail(spec, side, x)
    assert exact.log_value > -math.inf
    lower, upper = lower_bound(spec, side, x), upper_bound(spec, side, x)
    assert lower.log_value <= exact.log_value <= upper.log_value


def test_gamma_small_shape_bracket_example():
    a = 0.5
    lo = lower_bound(Gamma(a), Side.UPPER, 0.0)
    want = (1.0 / math.e) * ((1.5 ** a - 0.5 ** a) / (math.exp(a) * math.gamma(a + 1.0)))
    assert abs(lo.value - want) < 1e-12
    assert abs(lo.value - 0.13032) < 1e-4
    exact = sf.reg_inc_gamma_upper(0.5, 0.5)
    assert lo.value <= exact
    assert abs(exact - 0.3173105078629141) < 1e-12


def test_gamma_small_shape_bracket_grid():
    for a in np.arange(0.1, 0.95, 0.1):
        spec = Gamma(float(a))
        for x in np.linspace(0.0, 4.0, 20):
            exact = exact_tail(spec, Side.UPPER, float(x)).value
            lo = lower_bound(spec, Side.UPPER, float(x)).value
            hi = gamma_small_shape_upper_end(float(a), float(x))
            assert lo <= exact + 1e-12
            assert exact <= hi + 1e-12
            # prefactor ratio between the two bracket ends: e^2/(e-1)
            assert abs(hi / lo - math.e ** 2 / (math.e - 1.0)) < 1e-9
        for x in np.linspace(0.0, float(a) * 1.2, 10):
            exact = exact_tail(spec, Side.LOWER, float(x)).value
            lo = lower_bound(spec, Side.LOWER, float(x)).value
            hi = gamma_small_shape_left_upper_end(float(a), float(x))
            assert lo <= exact + 1e-12
            assert exact <= hi + 1e-12


# numeric certified lower bounds -------------------------------------------------

def test_binomial_eq8_fixed_delta_matches_construction():
    v = binomial_eq8_value(200, 0.3, 40.0, 2.0)
    lead = math.exp(-200.0 * sf.bernoulli_kl(0.3, 0.7))
    bracket = 1.0 - math.exp(-200.0 * sf.bernoulli_kl(0.6, 0.7)) \
        - math.exp(-200.0 * sf.bernoulli_kl(0.6, 0.5))
    assert abs(v - lead * bracket) < 1e-25
    assert abs(bracket - 0.9698) < 5e-4
    assert v <= exact_tail(Binomial(200, 0.3), Side.UPPER, 40.0).value


def test_binomial_numeric_certified_positive():
    spec = Binomial(200, 0.3)
    r = lower_bound(spec, Side.UPPER, 40.0, tier=NUMERIC)
    exact = exact_tail(spec, Side.UPPER, 40.0).value
    assert r.certified and 0.0 < r.value <= exact


def test_numeric_lower_sound_across_families():
    for spec in FAMILIES:
        for side in (Side.UPPER, Side.LOWER):
            for x in (0.0, 0.3, 1.0, 2.5):
                lo = lower_bound(spec, side, x, tier=NUMERIC)
                est = exact_tail(spec, side, x, mc_n=50_000, mc_seed=9)
                hi_ci = est.ci()[1]
                assert lo.value <= hi_ci + 1e-10, (spec, side, x)


def test_closed_form_tier_raises_where_unavailable():
    with pytest.raises(WindowError):
        lower_bound(Normal(1.0), Side.UPPER, 1.0, tier=CLOSED_FORM)


# rate forms ---------------------------------------------------------------------

def test_rate_form_never_certified():
    r = lower_bound(Poisson(3.0), Side.UPPER, 1.0, tier=RATE)
    assert not r.certified
    assert r.method == "rate_form"
    assert abs(r.value - math.exp(-bennett_rate(3.0, 1.0 / 3.0))) < 1e-12


def test_rate_form_windows_raise():
    with pytest.raises(WindowError):
        lower_bound(Binomial(20, 0.5), Side.UPPER, 6.0, tier=RATE)  # x > k(1-p)/2
    with pytest.raises(WindowError):
        lower_bound(Gamma(4.0), Side.LOWER, 3.0, tier=RATE)  # x > alpha/2
    with pytest.raises(WindowError):
        rate_info(Beta(2.0, 5.0), Side.UPPER, 0.4)  # x > beta/(2(alpha+beta)) = 0.357


def test_rate_window_names_condition():
    with pytest.raises(WindowError, match="k\\(1-p\\)/beta"):
        rate_info(Binomial(20, 0.5), Side.UPPER, 6.0)


@pytest.mark.parametrize("spec,side,x", [
    (Normal(1.0), Side.UPPER, -1.0),
    (Gamma(2.5), Side.LOWER, -1.0),
    (Gamma(2.5), Side.UPPER, math.nan),
], ids=["normal-negative", "gamma-lower-negative", "gamma-nan"])
def test_rate_info_refuses_a_bad_threshold(spec, side, x):
    with pytest.raises(DomainError, match="threshold must be >= 0"):
        rate_info(spec, side, x)


def test_rate_form_constants_flow_through():
    tier = BoundTier(Tier.RATE, c_default=0.25, C_default=2.0)
    r = lower_bound(ChiSq(4), Side.UPPER, 1.0, tier=tier)
    assert abs(r.value - 0.25 * math.exp(-2.0 * 0.25)) < 1e-12


# fit_rate_constants ---------------------------------------------------------------

def test_fit_rate_constants_sound_and_holdout():
    grid = [(Gamma(a), x) for a in (1.0, 2.0, 5.0, 10.0) for x in (0.5, 1.0, 2.0, 4.0)]
    c_hat, C_hat = fit_rate_constants("gamma", Side.UPPER, grid)
    for spec, x in grid:
        rate, _, _ = rate_info(spec, Side.UPPER, x)
        assert c_hat * math.exp(-C_hat * rate) <= exact_tail(spec, Side.UPPER, x).value + 1e-12
    held_out = [(Gamma(a), x) for a in (1.5, 3.0, 7.0) for x in (0.7, 1.5, 3.0)]
    ok = sum(
        c_hat * math.exp(-C_hat * rate_info(s, Side.UPPER, x)[0])
        <= exact_tail(s, Side.UPPER, x).value + 1e-12
        for s, x in held_out)
    assert ok >= 0.95 * len(held_out)


def test_fit_rate_constants_identity_rate():
    # all grid points share rate 0 (x = 0 for the normal): c_hat = min tail
    grid = [(Normal(1.0), 0.0), (Normal(1.0), 0.0)]
    c_hat, C_hat = fit_rate_constants("normal", Side.UPPER, grid)
    assert abs(c_hat - 0.5) < 1e-12


def test_fit_rate_constants_poisson_decay_at_least_one():
    grid = [(Poisson(3.0), x) for x in (1.0, 2.0, 4.0, 7.0, 10.0)]
    _, C_hat = fit_rate_constants("poisson", Side.UPPER, grid)
    assert C_hat >= 1.0


# poisson limit ---------------------------------------------------------------------

def test_poisson_limit_values():
    assert abs(poisson_limit_check(3.0, 2.0, 10**6)) <= 1e-3
    assert poisson_limit_check(3.0, 0.0, 10**6) == 0.0


def test_poisson_limit_monotone_convergence():
    prev = math.inf
    for n in (10**3, 10**4, 10**5, 10**6):
        cur = abs(poisson_limit_check(3.0, 2.0, n))
        assert cur <= prev
        prev = cur


def test_poisson_limit_domain():
    with pytest.raises(DomainError):
        poisson_limit_check(3.0, 2.0, 4.0)


# misc -------------------------------------------------------------------------------

def test_mgf_sandwiches_actually_bracket():
    # numeric check that each family sandwich brackets the true log-MGF
    # (beta has no MGF; binomial has no sandwich, its lower tail is the atom certificate)
    for spec in FAMILIES:
        if isinstance(spec, (Beta, Binomial)):
            continue
        for side in (Side.UPPER, Side.LOWER):
            s = mgf_sandwich(spec, side)
            ev = log_mgf(spec).eval
            sign = 1.0 if side is Side.UPPER else -1.0
            hi = s.M if math.isfinite(s.M) else 5.0
            for t in np.linspace(1e-6, hi, 25):
                val = float(ev(sign * t))
                assert s.c1 * s.alpha * t * t <= val + 1e-9, (spec, side, t)
                assert val <= s.C1 * s.alpha * t * t + 1e-9, (spec, side, t)


def test_bound_catalog_schema():
    cat = bound_catalog()
    assert cat
    for row in cat:
        assert set(row) == {"family", "side", "tier", "formula_cite", "window"}


def test_upper_bounds_monotone_in_depth():
    for spec in FAMILIES:
        for side in (Side.UPPER, Side.LOWER):
            prev = 1.0 + 1e-12
            for x in np.linspace(0.0, 8.0, 33):
                cur = upper_bound(spec, side, float(x)).value
                assert cur <= prev + 1e-12, (spec, side, x)
                prev = cur


def test_certified_lower_bounds_monotone_in_depth():
    for spec in (Gamma(0.5), Binomial(25, 0.3), Beta(2.0, 5.0)):
        prev = 1.0 + 1e-12
        for x in np.linspace(0.0, 6.0, 25):
            cur = lower_bound(spec, Side.UPPER, float(x)).value
            assert cur <= prev + 1e-9, (spec, x)
            prev = cur
