import math
import random
from fractions import Fraction

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
    RademacherSum, Side, WeightedChiSq, WeightVector, log_mgf, support_extent, variance,
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


# the sub-gamma upper bound ---------------------------------------------------------

def _sub_gamma_cases(n, seed):
    """(spec, v, c, x) of the four families with c > 0, x from 1e-8 to 1e3 sd."""
    rng = random.Random(seed)
    for i in range(n):
        if i % 4 == 0:
            spec = Gamma(10.0 ** rng.uniform(-3.0, 8.0))
            v, c = spec.alpha, 1.0
        elif i % 4 == 1:
            spec = ChiSq(int(10.0 ** rng.uniform(0.0, 7.0)))
            v, c = 2.0 * spec.k, 2.0
        elif i % 4 == 2:  # weights past 1e77 square v past the float range
            spec = WeightedChiSq(WeightVector(tuple(
                10.0 ** rng.uniform(-3.0, 3.0 if i % 8 == 2 else 150.0)
                for _ in range(rng.randint(1, 8)))))
            v, c = 2.0 * spec.u.l2_sq, 2.0 * spec.u.linf
        else:
            spec = NoncentralChiSq(rng.randint(1, 10**4), 10.0 ** rng.uniform(-3.0, 4.0))
            v, c = 2.0 * (spec.k + 2.0 * spec.lam), 2.0
        yield spec, v, c, math.sqrt(variance(spec)) * 10.0 ** rng.uniform(-8.0, 3.0)


def test_sub_gamma_upper_bound_is_its_formula_within_4_ulps():
    # -(sqrt(v + 2cx) - sqrt(v))^2 / (2c^2) in 50 digits; the root-difference form
    # cancels at small x, the bound's form adds positive terms only
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    n_weighted = n_overflow = 0
    for spec, v, c, x in _sub_gamma_cases(2000, 24):
        mv, mc, mx = mpmath.mpf(v), mpmath.mpf(c), mpmath.mpf(x)
        want = float(-(mpmath.sqrt(mv + 2 * mc * mx) - mpmath.sqrt(mv)) ** 2 / (2 * mc * mc))
        got = upper_bound(spec, Side.UPPER, x).log_value
        assert abs(got - want) <= 4.0 * math.ulp(want), (spec, x, got, want)
        n_weighted += isinstance(spec, WeightedChiSq) and len(spec.u) > 1
        n_overflow += v * v == math.inf
    assert n_weighted > 0 and n_overflow > 0


# the formulas the sub-gamma bound replaced, as they were written per family
_REPLACED_UPPER = {
    Gamma: lambda s, side, x: (
        -x * x / (x + s.alpha + math.sqrt(s.alpha * s.alpha + 2.0 * x * s.alpha))
        if side is Side.UPPER else -x * x / (2.0 * s.alpha)),
    ChiSq: lambda s, side, x: (
        -x * x / (2.0 * (s.k + x) + 2.0 * math.sqrt(float(s.k) * s.k + 2.0 * s.k * x))
        if side is Side.UPPER else -x * x / (4.0 * s.k)),
    Normal: lambda s, side, x: -x * x / (2.0 * s.sigma2),
    RademacherSum: lambda s, side, x: -x * x / (4.0 * s.k),
}


def test_sub_gamma_keeps_the_bits_of_the_formulas_it_replaced():
    rng = random.Random(7)
    for _ in range(5000):
        for spec in (Gamma(10.0 ** rng.uniform(-3.0, 8.0)),
                     ChiSq(int(10.0 ** rng.uniform(0.0, 7.0))),
                     Normal(10.0 ** rng.uniform(-100.0, 100.0)),
                     RademacherSum(int(2.0 ** rng.uniform(0.0, 22.0)))):
            for side in Side:
                x = math.sqrt(variance(spec)) * 10.0 ** rng.uniform(-8.0, 3.0)
                x = min(x, 0.5 * support_extent(spec, side))
                want = _REPLACED_UPPER[type(spec)](spec, side, x)
                assert upper_bound(spec, side, x).log_value == want, (spec, side, x)


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
        # 1 - (1-p)^k in exact rational arithmetic, rounded once
        ref_log = math.log(1 - (1 - Fraction(p)) ** k)
        assert lo.value == ex.value
        assert lo.log_value == ex.log_value
        assert abs(lo.log_value - ref_log) < 1e-15 * max(1.0, abs(ref_log))


def test_discrete_boundary_values_are_the_oracles():
    # the boundary regions read the oracle's function, so L = P bit for bit
    rng = random.Random(3)
    for i in range(400):
        k = 1 if i % 4 == 0 else rng.randint(2, 60)
        p = rng.uniform(1e-4, 1.0 - 1e-4)
        for side in Side:
            q = p if side is Side.UPPER else 1.0 - p
            if k * q >= 1.0:
                continue
            spec, x = Binomial(k, p), rng.uniform(0.0, 1.0 - k * q)
            lo = lower_bound(spec, side, x, tier=CLOSED_FORM)
            assert lo.method == "boundary_exact", (spec, side, x)
            assert lo.log_value == exact_tail(spec, side, x).log_value, (spec, side, x)
        lam = rng.uniform(1e-6, 1.0)
        x = rng.uniform(0.0, 1.0 - lam)
        lo = lower_bound(Poisson(lam), Side.UPPER, x, tier=CLOSED_FORM)
        assert lo.method == "boundary_exact"
        assert lo.log_value == exact_tail(Poisson(lam), Side.UPPER, x).log_value, (lam, x)


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


def test_binomial_upper_bound_holds_at_40000_support_edges():
    # at the last support point the tail is p'^k, which the oracle takes as
    # k ln p' whatever k is, so log U = k ln p' (or above) even at k = 1
    rng = random.Random(27)
    n_k1 = 0
    for _ in range(20000):
        spec = Binomial(rng.randint(1, 400), rng.uniform(0.001, 0.999))
        n_k1 += spec.k == 1
        for side in Side:
            x = support_extent(spec, side)
            exact = exact_tail(spec, side, x).log_value
            assert upper_bound(spec, side, x).log_value >= exact, (spec, side)
    assert n_k1 > 0


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


@pytest.mark.parametrize("a,x", [(1e-20, 1e308), (1e-10, 1e300), (1e-300, 1e10)])
def test_gamma_small_shape_certificate_where_its_kernel_underflows(a, x):
    # a ln(1 + 1/(a+x)) underflows past e^u - 1; the certificate is served before
    # upper_bound's formula, so both bounds raised there
    p = exact_tail(Gamma(a), Side.UPPER, x).log_value
    lo = lower_bound(Gamma(a), Side.UPPER, x)
    assert lo.certified and lo.log_value <= p < 0.0
    assert upper_bound(Gamma(a), Side.UPPER, x).log_value < 0.0


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
