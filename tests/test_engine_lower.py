import math

import numpy as np
import pytest

from tailbound import specfun as sf
from tailbound.dist_model import Binomial, Normal, Poisson, Side, log_mgf
from tailbound.engine_lower import (
    ReverseChernoffParams, TailLowerFn, compose_sum_lower, mgf_sandwich_from_tails,
    pz_lower, pz_paper_constants, reverse_chernoff_lower, reverse_chernoff_objective,
)
from tailbound.engine_upper import MgfSandwich
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
