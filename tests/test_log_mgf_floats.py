"""``log_mgf(spec).eval`` gives the bits of the clamped per-family formulas it replaced.

Each family's cumulant is one formula evaluated on a float or an array, and
``log_mgf`` applies the domain's open end ``cgf_sup`` once.  The test-side
copies below are the earlier cumulants, each restating its domain with
``np.where`` clamps (and ``nansum`` for the weighted chi-square), evaluated on
an array as the earlier ``eval`` did.  Inside the domain the two must agree bit
for bit, for scalar and array inputs; at and above the domain's end every
family returns inf without a warning.
"""

import math
import random
import warnings

import numpy as np
import pytest

from tailbound.dist_model import (
    Binomial, ChiSq, Gamma, IrwinHall, NoncentralChiSq, Normal, Poisson, RademacherSum,
    WeightedChiSq, WeightVector, log_mgf,
)


def _ref_gamma(spec, t):
    tc = np.where(t < 1.0, t, 0.0)
    return np.where(t < 1.0, -spec.alpha * (tc + np.log1p(-tc)), np.inf)


def _ref_chisq(spec, t):
    tc = np.where(t < 0.5, t, 0.0)
    return np.where(t < 0.5, -0.5 * spec.k * (np.log1p(-2.0 * tc) + 2.0 * tc), np.inf)


def _ref_weighted_chisq(spec, t):
    tu = np.multiply.outer(t, spec.u.as_array())
    with np.errstate(invalid="ignore"):
        terms = -0.5 * (np.log1p(-2.0 * tu) + 2.0 * tu)
    return np.where(np.all(tu < 0.5, axis=-1), np.nansum(terms, axis=-1), np.inf)


def _ref_nc_chisq(spec, t):
    k, lam = spec.k, spec.lam
    tc = np.where(t < 0.5, t, 0.0)
    body = 2.0 * lam * tc * tc / (1.0 - 2.0 * tc) - 0.5 * k * (np.log1p(-2.0 * tc) + 2.0 * tc)
    return np.where(t < 0.5, body, np.inf)


def _ref_irwin_hall(spec, t):
    u = 0.5 * t
    small = np.abs(u) < 1e-3
    u_safe = np.where(small, 1.0, u)
    with np.errstate(over="ignore"):
        direct = np.log(np.sinh(np.abs(u_safe)) / np.abs(u_safe))
    u2 = u * u
    series = u2 / 6.0 - u2 * u2 / 180.0
    return spec.k * np.where(small, series, direct)


def _ref_rademacher(spec, t):
    a = np.abs(t)
    return spec.k * (a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0))


_REF = {
    Gamma: _ref_gamma,
    ChiSq: _ref_chisq,
    WeightedChiSq: _ref_weighted_chisq,
    NoncentralChiSq: _ref_nc_chisq,
    Binomial: lambda s, t: s.k * (np.logaddexp(math.log1p(-s.p), math.log(s.p) + t) - s.p * t),
    Poisson: lambda s, t: s.lam * (np.expm1(t) - t),
    IrwinHall: _ref_irwin_hall,
    RademacherSum: _ref_rademacher,
    Normal: lambda s, t: 0.5 * s.sigma2 * t * t,
}


def _ref_eval(spec, t):
    out = _REF[type(spec)](spec, np.asarray(t, dtype=float))
    return out if out.ndim else float(out)


def _specs(rng):
    for n in range(1, 20):  # numpy's pairwise sum changes its order from 8 terms on
        yield WeightedChiSq(WeightVector(tuple(rng.uniform(0.01, 3.0) for _ in range(n))))
    for _ in range(4):
        yield Gamma(rng.uniform(0.05, 100.0))
        yield ChiSq(rng.randint(1, 100))
        yield NoncentralChiSq(rng.randint(1, 20), rng.uniform(0.0, 300.0))
        yield Binomial(rng.randint(1, 400), rng.uniform(0.01, 0.99))
        yield Poisson(rng.uniform(0.1, 200.0))
        yield IrwinHall(rng.randint(1, 60))
        yield RademacherSum(rng.randint(1, 200))
        yield Normal(rng.uniform(0.1, 10.0))


def _inside(rng, sup):
    """Points of both signs inside (-inf, sup): spread, near 0, and a few ulps below sup."""
    reach = min(sup, 4.0)
    ts = [0.0, -0.0, 1e-300, -1e-300]
    ts += [rng.uniform(-4.0, reach) for _ in range(30)]
    ts += [math.copysign(10.0 ** rng.uniform(-9.0, -2.0), rng.uniform(-1.0, 1.0))
           for _ in range(10)]
    if math.isfinite(sup):
        t = sup
        for _ in range(4):
            t = math.nextafter(t, -math.inf)
            ts.append(t)
    return [t for t in ts if t < sup]


def _same(a, b) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_eval_is_bit_identical_to_the_clamped_formulas():
    rng = random.Random(22)
    n_scalar = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the copies' own overflows
        for spec in _specs(rng):
            mgf = log_mgf(spec)
            ts = _inside(rng, mgf.domain.hi)
            for t in ts:
                got, want = mgf.eval(t), _ref_eval(spec, t)
                assert type(got) is float and _same(got, want), (spec, t, got, want)
                n_scalar += 1
            got, want = mgf.eval(np.array(ts)), _ref_eval(spec, np.array(ts))
            assert np.array_equal(got, want), spec
            assert np.array_equal(np.signbit(got), np.signbit(want)), spec
            grid = np.array(ts[: len(ts) // 2 * 2]).reshape(-1, 2)
            assert np.array_equal(mgf.eval(grid), _ref_eval(spec, grid)), spec
    assert n_scalar > 2000


def _bounded_specs(rng):
    yield Gamma(rng.uniform(0.05, 100.0))
    yield ChiSq(rng.randint(1, 100))
    yield NoncentralChiSq(rng.randint(1, 20), rng.uniform(0.0, 300.0))
    for _ in range(300):
        yield WeightedChiSq(WeightVector(tuple(rng.uniform(0.01, 3.0)
                                               for _ in range(rng.randint(1, 12)))))


def test_eval_is_inf_at_and_above_the_domain_end_without_a_warning():
    rng = random.Random(7)
    n_edge_finite_before = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in _bounded_specs(rng):
            mgf = log_mgf(spec)
            sup = mgf.domain.hi
            ts = [sup, math.nextafter(sup, math.inf), 2.0 * sup, 1e300]
            for t in ts:
                assert mgf.eval(t) == math.inf, (spec, t)
            assert np.all(mgf.eval(np.array(ts)) == np.inf), spec
            assert np.all(mgf.eval(np.array([[sup, 0.5 * sup], [2.0 * sup, -sup]]))[:, 0]
                          == np.inf), spec
            with np.errstate(divide="ignore"):
                n_edge_finite_before += math.isfinite(_ref_eval(spec, sup))
    assert n_edge_finite_before > 0  # the clamped weighted formula was finite at its end


@pytest.mark.parametrize("spec", [Poisson(3.0), Normal(2.0), IrwinHall(8), Binomial(20, 0.3)])
def test_an_unbounded_domain_takes_every_finite_point(spec):
    mgf = log_mgf(spec)
    assert mgf.domain.hi == math.inf
    ts = [-30.0, -1.0, 0.5, 30.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [mgf.eval(t) for t in ts] == mgf.eval(np.array(ts)).tolist()
