import math
import random

import numpy as np
import pytest

from tailbound import specfun as sf
from tailbound.dist_model import (
    Binomial, ChiSq, Gamma, IrwinHall, NoncentralChiSq, Normal, Poisson, RademacherSum, Side,
    log_mgf, support_extent, variance,
)
from tailbound.engine_lower import (
    ReverseChernoffParams, TailLowerFn, _rc_cells, compose_sum_lower, mgf_sandwich_from_tails,
    pz_lower, pz_paper_constants, reverse_chernoff_lower, reverse_chernoff_objective,
)
from tailbound.engine_upper import MgfSandwich, _mirrored, chernoff_upper
from tailbound.errors import DomainError
from tailbound.oracle import exact_tail

GAUSS = MgfSandwich(0.5, 0.5, 1.0, 1.0, 1.0, math.inf)


# pz_lower ---------------------------------------------------------------------

def test_pz_gaussian_forced_lambda_closed_form():
    r = pz_lower(GAUSS, 1.0, lam=1.0)
    t = 1.0 + math.sqrt(3.0)
    want = (1.0 - math.exp(-1.0)) ** 2 * math.exp(-t * t)
    assert r.certified
    assert abs(r.value - want) < 1e-12
    assert abs(r.params_used["t"] - t) < 1e-12


def test_pz_zero_threshold_root():
    lam = 1.0
    r = pz_lower(GAUSS, 0.0, lam=lam)
    t0 = math.sqrt((lam + math.log(1.0)) / (GAUSS.c1 * GAUSS.alpha))
    want = (1.0 - math.exp(-lam)) ** 2 * math.exp(
        -2.0 * (2.0 * GAUSS.C1 - GAUSS.c1) * GAUSS.alpha * t0 * t0)
    assert r.value > 0.0
    assert abs(r.value - want) < 1e-12


def test_pz_optimized_beats_forced_and_stays_below_tail():
    for x in np.linspace(0.0, 3.0, 13):
        r = pz_lower(GAUSS, float(x))
        forced = pz_lower(GAUSS, float(x), lam=1.0)
        assert r.certified and r.value > 0.0
        assert r.value >= forced.value - 1e-15
        assert r.value <= sf.normal_tail(float(x)) + 1e-12


def test_pz_infeasible_domain_returns_uncertified_zero():
    tight = MgfSandwich(0.5, 0.5, 1.0, 1.0, 1.0, 1e-3)
    r = pz_lower(tight, 1.0)
    assert r.value == 0.0
    assert not r.certified


@pytest.mark.parametrize("lam", [math.nan, 0.0, -1.0, -math.inf])
def test_pz_refuses_a_forced_lambda_that_is_not_positive(lam):
    # a NaN lam once certified P >= 1, since no comparison with it rejects
    with pytest.raises(DomainError):
        pz_lower(GAUSS, 1.0, lam=lam)


def test_pz_monotone_in_x():
    prev = math.inf
    for x in np.linspace(0.0, 4.0, 30):
        v = pz_lower(GAUSS, float(x)).value
        assert v <= prev + 1e-15
        prev = v


# pz_paper_constants -------------------------------------------------------------

def test_pz_constants_gaussian():
    pc = pz_paper_constants(GAUSS)
    assert pc.C == 16.0
    c_tilde = (1.0 - math.exp(-1.0)) ** 2
    assert abs(pc.c - c_tilde * math.exp(-16.0 * 0.5)) < 1e-15
    assert pc.x_max == math.inf


def test_pz_constants_c2_one_reduction():
    # log(1/c2) = 0 collapses the prefactor to c_tilde * exp(-C c1)
    s = MgfSandwich(0.5, 1.0, 1.0, 2.0, 1.0, math.inf)
    pc = pz_paper_constants(s)
    C = 8.0 * (2.0 * s.C1 - s.c1) / s.c1 ** 2
    c_tilde = (1.0 - math.exp(-1.0)) ** 2 / s.C2
    assert abs(pc.C - C) < 1e-12
    assert abs(pc.c - c_tilde * math.exp(-C * s.c1)) < 1e-15


def test_pz_constants_scenario_two_needs_caller_floor():
    s = MgfSandwich(0.5, 0.5, 1.0, 1.0, 1.0, 1.0)  # alpha M^2 = 1 < 32
    with pytest.raises(DomainError):
        pz_paper_constants(s)
    pc = pz_paper_constants(s, c_small_sq=0.5)
    lam = s.c1 * 0.5 / 16.0
    assert abs(pc.c - (-math.expm1(-lam)) ** 2 * math.exp(-pc.C * s.c1 * lam)) < 1e-15
    with pytest.raises(DomainError):
        pz_paper_constants(s, c_small_sq=2.0)  # floor above alpha M^2


def test_pz_constants_below_engine():
    # the uniform constants can never beat the per-x optimized engine
    pc = pz_paper_constants(GAUSS)
    rng = np.random.default_rng(23)
    for x in rng.uniform(0.0, 5.0, size=100):
        engine = pz_lower(GAUSS, float(x)).value
        assert pc.c * math.exp(-pc.C * x * x / GAUSS.alpha) <= engine + 1e-15


# reverse Chernoff ----------------------------------------------------------------

def test_rc_params_validation():
    with pytest.raises(DomainError):
        ReverseChernoffParams(t=1.0, t_prime=2.0, theta=2.0, delta=2.0)
    with pytest.raises(DomainError):
        ReverseChernoffParams(t=1.0, t_prime=0.5, theta=1.0, delta=2.0)


def test_rc_objective_degenerate_theta_is_nonpositive():
    mgf = log_mgf(Normal(1.0))
    p = ReverseChernoffParams(t=1.0, t_prime=1.0, theta=1.0 + 1e-9, delta=2.0)
    assert reverse_chernoff_objective(mgf, 1.0, p) <= 0.0


def test_rc_objective_beyond_the_float_range_is_minus_inf():
    # phi(100) e^{-101} = e^{4899}: the second term overflows and dominates
    p = ReverseChernoffParams(t=1.0, t_prime=1.0, theta=100.0, delta=1.01)
    assert reverse_chernoff_objective(log_mgf(Normal(1.0)), 1.0, p) == -math.inf


def test_rc_objective_soundness_sample():
    # raw objective never exceeds the exact tail at any feasible point
    cases = [(Binomial(200, 0.3), 40.0), (Poisson(3.0), 4.0), (Normal(1.0), 2.0)]
    rng = np.random.default_rng(402)
    for spec, x in cases:
        mgf = log_mgf(spec)
        exact = exact_tail(spec, Side.UPPER, x).value
        for _ in range(80):
            t = float(rng.uniform(0.01, 2.0))
            th = float(rng.uniform(1.001, 3.0))
            d = float(rng.uniform(1.001, 8.0))
            tp = float(rng.uniform(0.0, 1.0)) * t
            v = reverse_chernoff_objective(
                mgf, x, ReverseChernoffParams(t, tp, th, d))
            assert v <= exact + 1e-9, (spec, x, t, th, d, tp)


def test_rc_binomial_matches_exact_and_is_positive():
    spec = Binomial(200, 0.3)
    r = reverse_chernoff_lower(log_mgf(spec), 40.0)
    exact = exact_tail(spec, Side.UPPER, 40.0).value
    assert r.certified and 0.0 < r.value <= exact


def test_rc_normal_deep_point():
    r = reverse_chernoff_lower(log_mgf(Normal(1.0)), 5.0)
    assert r.certified
    assert 0.0 < r.value <= sf.normal_tail(5.0)


def test_rc_lower_side_poisson():
    spec = Poisson(6.0)
    r = reverse_chernoff_lower(log_mgf(spec), 3.0, Side.LOWER)
    exact = exact_tail(spec, Side.LOWER, 3.0).value
    assert r.certified
    assert 0.0 < r.value <= exact


def test_rc_requires_positive_x_and_domain():
    with pytest.raises(DomainError):
        reverse_chernoff_lower(log_mgf(Normal(1.0)), 0.0)


def test_rc_objective_refuses_a_nan_threshold():
    p = ReverseChernoffParams(t=1.0, t_prime=0.5, theta=2.0, delta=2.0)
    with pytest.raises(DomainError):
        reverse_chernoff_objective(log_mgf(Normal(1.0)), math.nan, p)


def test_rc_poisson_lower_edge_has_no_certificate():
    # at x = lam, psi(s) = lam (e^{-s} - 1) falls on all of (0, inf), so no
    # parameter point certifies; a bracket of rounding error once read -110.04
    r = reverse_chernoff_lower(log_mgf(Poisson(3.0)), 3.0, Side.LOWER)
    assert not r.certified and r.log_value == -math.inf


# the (t, theta) search with t' and delta in closed form ---------------------------

_RC_CASES = (
    (Normal(1.0), Side.UPPER, 3.0), (Gamma(2.5), Side.UPPER, 4.0), (Gamma(2.5), Side.LOWER, 1.5),
    (ChiSq(4), Side.LOWER, 2.0), (Poisson(3.0), Side.UPPER, 4.0), (Poisson(30.0), Side.LOWER, 12.0),
    (RademacherSum(9), Side.UPPER, 5.0), (Binomial(200, 0.3), Side.LOWER, 20.0),
)


def _log_objective(mgf, x, side, t, tp, th, d):
    v = reverse_chernoff_objective(mgf, x, ReverseChernoffParams(t, tp, th, d), side)
    return math.log(v) if v > 0.0 else -math.inf


def test_rc_closed_form_delta_is_the_best_delta():
    deltas = 1.0 + np.geomspace(1e-9, 1e3, 400)
    for spec, side, x in _RC_CASES:
        mgf = log_mgf(spec)
        logphi, sup = _mirrored(mgf, side)
        best = reverse_chernoff_lower(mgf, x, side).params_used
        t, th = best["t"], best["theta"]
        for tp in (best["t_prime"], 0.5 * best["t_prime"]):
            cert, delta = _rc_cells(logphi, x, t - tp, sup, np.array([t]), np.array([th]))
            at_root = _log_objective(mgf, x, side, t, tp, th, float(delta[0, 0]))
            scan = max(_log_objective(mgf, x, side, t, tp, th, float(d)) for d in deltas)
            assert at_root >= scan - 1e-9 * abs(scan), (spec, side, tp)
            assert cert[0, 0] <= at_root  # the certified value sits below the objective


def test_rc_t_prime_at_the_chernoff_tilt_beats_the_fixed_fractions():
    for spec, side, x in _RC_CASES:
        mgf = log_mgf(spec)
        logphi, sup = _mirrored(mgf, side)
        s1 = chernoff_upper(mgf, x, side).params_used["t_star"]
        for t in (1.2 * s1, 2.0 * s1):
            if not t < sup:
                continue
            for th in (1.0 + 0.5 * min(1.0, sup / t - 1.0), 1.0 + 0.1 * min(1.0, sup / t - 1.0)):
                for d in (1.2, 3.0):
                    first = math.exp(float(logphi(t)) - t * d * x)
                    at_tilt = reverse_chernoff_objective(
                        mgf, x, ReverseChernoffParams(t, t - s1, th, d), side)
                    for frac in (1.0, 0.5):
                        other = reverse_chernoff_objective(
                            mgf, x, ReverseChernoffParams(t, frac * t, th, d), side)
                        assert at_tilt >= other - 1e-12 * first, (spec, side, t, th, d, frac)


def _rc_random_cases(n):
    rng = random.Random(2027)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    draws = (
        lambda: Normal(log_uniform(0.01, 100.0)), lambda: Gamma(log_uniform(0.05, 500.0)),
        lambda: ChiSq(rng.randint(1, 300)),
        lambda: NoncentralChiSq(rng.randint(1, 20), log_uniform(0.1, 300.0)),
        lambda: Binomial(rng.randint(1, 400), rng.uniform(0.01, 0.99)),
        lambda: Poisson(log_uniform(0.1, 300.0)), lambda: IrwinHall(rng.randint(2, 30)),
        lambda: RademacherSum(rng.randint(1, 200)),
    )
    yield Gamma(1.6306076844278727), Side.LOWER, 1.630607684387354
    while n > 1:
        spec, side = rng.choice(draws)(), rng.choice(list(Side))
        edge = support_extent(spec, side)
        if math.isfinite(edge) and rng.random() < 0.3:  # 1e-12 to 1e-1 relative from the edge
            x = edge * (1.0 - 10.0 ** rng.uniform(-12.0, -1.0))
        else:
            x = min(math.sqrt(variance(spec)) * log_uniform(0.01, 12.0), 0.999 * edge)
        if exact_tail(spec, side, x).log_value > -math.inf:
            n -= 1
            yield spec, side, x


def test_rc_certificate_never_beats_the_exact_tail():
    certified = 0
    for spec, side, x in _rc_random_cases(1000):
        r = reverse_chernoff_lower(log_mgf(spec), x, side)
        certified += r.certified
        assert r.log_value <= exact_tail(spec, side, x).log_value, (spec, side, x)
    assert certified > 900


# compose_sum_lower ----------------------------------------------------------------

def test_compose_prefactor_k25():
    tail = TailLowerFn(f=lambda x: 0.5 * math.exp(-x), valid_from=0.0)
    out = compose_sum_lower(tail, w=1.0, C1=0.5, M=1.0, alpha=25.0)
    want = -math.expm1(-min(1.0 / 8.0, 0.25) * 25.0)
    assert abs(out.params["prefactor"] - want) < 1e-14
    assert abs(want - 0.9560630663765926) < 1e-12
    assert out.valid_from == 12.5
    # output is prefactor * input at 2x
    assert abs(out.f(13.0) - want * 0.5 * math.exp(-26.0)) < 1e-18


def test_compose_prefactor_increases_to_one_in_alpha():
    tail = TailLowerFn(f=lambda x: math.exp(-x), valid_from=0.0)
    prev = 0.0
    for alpha in (1.0, 4.0, 16.0, 64.0, 256.0):
        pref = compose_sum_lower(tail, 1.0, 0.5, 1.0, alpha).params["prefactor"]
        assert pref > prev
        prev = pref
    assert prev > 1.0 - 1e-10


def test_compose_output_below_shifted_input():
    tail = TailLowerFn(f=lambda x: math.exp(-0.3 * x), valid_from=0.0)
    out = compose_sum_lower(tail, 2.0, 1.0, 0.5, 3.0)
    for x in np.linspace(out.valid_from, out.valid_from + 10.0, 20):
        assert out.f(float(x)) <= tail.f(2.0 * float(x)) + 1e-15


def test_compose_checks_validity_threshold():
    tail = TailLowerFn(f=lambda x: math.exp(-x), valid_from=10.0)
    with pytest.raises(DomainError):
        compose_sum_lower(tail, w=1.0, C1=0.5, M=1.0, alpha=2.0)


# tail constants -> sandwich ---------------------------------------------------------

def test_sandwich_from_tails_c2_branch():
    s = mgf_sandwich_from_tails(1.5, 2.0, 0.5, 2.0)
    assert abs(s.c1 - 1.0 / 8.0) < 1e-15  # c2t >= 1 branch: 1/(4 C2t)
    assert s.c2 == 1.0 and s.C2 == 1.0 and s.M == math.inf


def test_sandwich_from_tails_brackets_gaussian():
    # constants that truly hold for the standard normal
    s = mgf_sandwich_from_tails(0.15, 1.0, 0.5, 2.0)
    for t in np.linspace(0.0, 10.0, 41):
        assert s.c1 * t * t <= 0.5 * t * t + 1e-12
        assert 0.5 * t * t <= s.C1 * t * t + 1e-12


def test_sandwich_from_tails_monotone_in_C2t():
    prev = math.inf
    for C2t in (0.5, 1.0, 2.0, 4.0, 8.0):
        c1 = mgf_sandwich_from_tails(0.3, C2t, 0.5, 2.0).c1
        assert c1 <= prev + 1e-15
        prev = c1


def test_sandwich_from_tails_rejects_nonpositive():
    with pytest.raises(DomainError):
        mgf_sandwich_from_tails(0.0, 1.0, 1.0, 1.0)


# wire-contract method strings ---------------------------------------------------

def test_pz_paper_bound_method_and_dominated_by_engine():
    from tailbound.engine_lower import pz_paper_bound
    r = pz_paper_bound(GAUSS, 1.0)
    assert r.method == "pz_paper"
    assert r.certified
    assert r.value <= pz_lower(GAUSS, 1.0).value + 1e-15
    assert pz_lower(GAUSS, 1.0).method == "pz"


def test_evaluate_tail_lower_compose_method():
    from tailbound.engine_lower import evaluate_tail_lower
    tail = TailLowerFn(f=lambda x: 0.25 * math.exp(-x), valid_from=0.0)
    out = compose_sum_lower(tail, w=1.0, C1=0.5, M=1.0, alpha=4.0)
    r = evaluate_tail_lower(out, 3.0)
    assert r.method == "compose"
    assert abs(r.value - out.f(3.0)) < 1e-18
    below = evaluate_tail_lower(out, 0.5)  # below valid_from
    assert below.value == 0.0 and not below.certified


def test_evaluate_tail_lower_refuses_a_nan_threshold():
    # NaN compares false with valid_from, so it once read a certified f(nan)
    from tailbound.engine_lower import evaluate_tail_lower
    tail = TailLowerFn(f=lambda x: 0.5, valid_from=0.0)
    with pytest.raises(DomainError):
        evaluate_tail_lower(tail, math.nan)
