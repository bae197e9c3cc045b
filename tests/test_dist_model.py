import json
import math

import numpy as np
import pytest

from tailbound.dist_model import (
    Beta, Binomial, ChiSq, Gamma, IrwinHall, NoncentralChiSq, Normal, Poisson,
    RademacherSum, RngStream, WeightedChiSq, WeightVector,
    log_mgf, mean_shift, sample, spec_from_json, spec_to_json, variance,
)
from tailbound.errors import DomainError, UnsupportedFamilyError

ALL_SPECS = [
    Gamma(2.5),
    Gamma(0.5),
    ChiSq(5),
    WeightedChiSq(WeightVector((1.0, 0.5, 0.25, 2.0))),
    NoncentralChiSq(3, 2.0),
    Beta(2.0, 5.0),
    Binomial(20, 0.3),
    Poisson(3.0),
    IrwinHall(8),
    RademacherSum(12),
    Normal(1.7),
]

MGF_SPECS = [s for s in ALL_SPECS if not isinstance(s, Beta)]


def test_mean_shift_examples():
    assert mean_shift(ChiSq(5)) == 5.0
    assert mean_shift(NoncentralChiSq(3, 2.0)) == 5.0
    assert mean_shift(IrwinHall(8)) == 4.0
    assert mean_shift(RademacherSum(9)) == 0.0
    assert abs(mean_shift(Beta(2.0, 5.0)) - 2.0 / 7.0) < 1e-15


def test_validation_rejects_bad_parameters():
    with pytest.raises(DomainError):
        Gamma(0.0)
    with pytest.raises(DomainError):
        Binomial(10, 1.0)
    with pytest.raises(DomainError):
        Poisson(-1.0)
    with pytest.raises(DomainError):
        WeightVector((0.0, 0.0))
    with pytest.raises(DomainError):
        WeightVector(())


def test_weight_vector_norm_cache():
    u = WeightVector((3.0, 4.0))
    assert u.l2_sq == 25.0
    assert u.linf == 4.0
    assert u.linf <= math.sqrt(u.l2_sq) <= math.sqrt(len(u)) * u.linf


def test_json_round_trip():
    for spec in ALL_SPECS:
        blob = json.dumps(spec_to_json(spec))
        again = spec_from_json(json.loads(blob))
        assert again == spec
    with pytest.raises(UnsupportedFamilyError):
        spec_from_json({"family": "cauchy", "params": {}})
    with pytest.raises(DomainError):
        spec_from_json({"family": "gamma", "params": {}})


# log-MGF --------------------------------------------------------------------

def test_log_mgf_zero_and_examples():
    for spec in MGF_SPECS:
        assert abs(log_mgf(spec).eval(0.0)) < 1e-14
    g = log_mgf(Normal(1.0))
    for t in (-2.0, 0.0, 3.0):
        assert abs(g.eval(t) - 0.5 * t * t) < 1e-13
    assert abs(log_mgf(Gamma(2.0)).eval(0.5) - (-2.0 * (0.5 + math.log(0.5)))) < 1e-12
    assert abs(log_mgf(Poisson(3.0)).eval(1.0) - (3.0 * (math.e - 1.0) - 3.0)) < 1e-12


def test_log_mgf_beta_unsupported():
    with pytest.raises(UnsupportedFamilyError):
        log_mgf(Beta(2.0, 3.0))


def test_log_mgf_domains():
    # the domains are open: (-inf, hi)
    assert log_mgf(Gamma(1.0)).domain.hi == 1.0
    assert log_mgf(ChiSq(3)).domain.hi == 0.5
    u = WeightVector((2.0, 0.5))
    assert log_mgf(WeightedChiSq(u)).domain.hi == 0.25
    assert log_mgf(Binomial(5, 0.4)).domain.hi == math.inf


def test_log_mgf_second_derivative_is_variance():
    # five-point stencil at 0; curvature of the cumulant is the variance
    h = 1e-3
    for spec in MGF_SPECS:
        ev = log_mgf(spec).eval
        num = (-ev(2 * h) + 16.0 * ev(h) + 16.0 * ev(-h) - ev(-2 * h)) / (12.0 * h * h)
        assert abs(num - variance(spec)) < 1e-6 * max(1.0, variance(spec)), spec


def test_log_mgf_convex_midpoints():
    rng = np.random.default_rng(123)
    for spec in MGF_SPECS:
        dom = log_mgf(spec).domain
        hi = min(dom.hi * 0.9 if math.isfinite(dom.hi) else 3.0, 3.0)
        ev = log_mgf(spec).eval
        for _ in range(40):
            t1, t2 = rng.uniform(-3.0, hi, size=2)
            mid = ev(0.5 * (t1 + t2))
            assert mid <= 0.5 * (ev(t1) + ev(t2)) + 1e-10


def test_log_mgf_vectorized_matches_scalar():
    for spec in MGF_SPECS:
        ev = log_mgf(spec).eval
        ts = np.array([-0.5, -0.1, 0.0, 0.05, 0.2])
        vec = ev(ts)
        for t, v in zip(ts, vec):
            assert abs(float(ev(float(t))) - float(v)) < 1e-13


# sampling -------------------------------------------------------------------

def test_sample_determinism():
    for spec in (Gamma(1.5), Binomial(20, 0.3), IrwinHall(8), WeightedChiSq(WeightVector((1.0, 2.0)))):
        a = sample(spec, RngStream(99, 5), 4096)
        b = sample(spec, RngStream(99, 5), 4096)
        assert (a == b).all()
        c = sample(spec, RngStream(99, 6), 4096)
        assert not (a == c).all()


def test_sample_centering_and_variance():
    n = 200_000
    for i, spec in enumerate(ALL_SPECS):
        draws = sample(spec, RngStream(2024, i), n)
        se = math.sqrt(variance(spec) / n)
        assert abs(draws.mean()) < 5.0 * se, spec
        # sample variance concentrates around Var within ~5 relative-ish SEs
        assert abs(draws.var() - variance(spec)) < 0.05 * max(1e-3, variance(spec)), spec


def test_chisq_variance_example():
    draws = sample(ChiSq(4), RngStream(7, 0), 400_000)
    assert abs(draws.var() - 8.0) < 5.0 * 8.0 * math.sqrt(2.0 / 400_000)
