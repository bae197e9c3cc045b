"""The exact tails against scipy's logsf and logcdf, an independent route.

scipy is a test-only dependency; without it this module is skipped.  The specs
span the parameter ranges of the benchmark's ``point-bounds`` generator, and x
runs from 0.01 to 8 standard deviations on both sides.  Every log tail must
agree to 1e-12 relative (absolute below |log P| = 1).
"""

import math
import random

import pytest

from tailbound.dist_model import (
    Beta, Binomial, ChiSq, Gamma, NoncentralChiSq, Normal, Poisson, Side, variance,
)
from tailbound.oracle import exact_tail

stats = pytest.importorskip("scipy.stats")

TOL = 1e-12
DEPTHS_SD = tuple(0.01 * 800.0 ** (i / 11) for i in range(12))  # 0.01 ... 8 sd


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _specs(draw, corners, n=6, seed=0):
    rng = random.Random(seed)
    return [*corners, *(draw(rng) for _ in range(n))]


def _continuous_reference(spec, side, x):
    """scipy's log tail at the centered threshold x; -inf beyond the support."""
    if isinstance(spec, Normal):
        return stats.norm.logsf(x / math.sqrt(spec.sigma2))
    if isinstance(spec, Gamma):
        dist, mean = stats.gamma(spec.alpha), spec.alpha
    elif isinstance(spec, ChiSq):
        dist, mean = stats.chi2(spec.k), spec.k
    elif isinstance(spec, NoncentralChiSq):
        dist, mean = stats.ncx2(spec.k, spec.lam), spec.k + spec.lam
    else:
        dist, mean = stats.beta(spec.alpha, spec.beta), spec.alpha / (spec.alpha + spec.beta)
    return dist.logsf(mean + x) if side is Side.UPPER else dist.logcdf(mean - x)


CONTINUOUS = (
    _specs(lambda r: Normal(_log_uniform(r, 0.1, 10.0)), [Normal(0.1), Normal(10.0)])
    + _specs(lambda r: Gamma(_log_uniform(r, 0.3, 100.0)), [Gamma(0.3), Gamma(100.0)], seed=1)
    + _specs(lambda r: ChiSq(r.randint(1, 100)), [ChiSq(1), ChiSq(100)], seed=2)
    + _specs(lambda r: Beta(_log_uniform(r, 1.0, 50.0), _log_uniform(r, 1.0, 50.0)),
             [Beta(1.0, 1.0), Beta(1.0, 50.0), Beta(50.0, 1.0), Beta(50.0, 50.0)], seed=3)
    + _specs(lambda r: NoncentralChiSq(r.randint(1, 21), _log_uniform(r, 0.5, 300.0)),
             [NoncentralChiSq(1, 0.5), NoncentralChiSq(21, 0.5), NoncentralChiSq(1, 300.0),
              NoncentralChiSq(21, 300.0)], seed=4)
)


def _check(spec, side, x, got, want):
    if want == -math.inf:
        assert got == -math.inf, (spec, side, x)
        return
    assert abs(got - want) <= TOL * max(1.0, abs(want)), (spec, side, x, got, want)


@pytest.mark.parametrize("spec", CONTINUOUS, ids=repr)
def test_continuous_log_tails_match_scipy(spec):
    sd = math.sqrt(variance(spec))
    for side in Side:
        for z in DEPTHS_SD:
            x = z * sd
            _check(spec, side, x, exact_tail(spec, side, x).log_value,
                   _continuous_reference(spec, side, x))


def test_noncentral_deep_upper_tail_matches_scipy():
    # the far terms of the mixture dominate here; an absolute stop dropped them
    got = exact_tail(NoncentralChiSq(2, 300.0), Side.UPPER, 1200.0).log_value
    _check(NoncentralChiSq(2, 300.0), Side.UPPER, 1200.0, got, stats.ncx2.logsf(1502.0, 2, 300.0))


DISCRETE = (
    _specs(lambda r: Binomial(max(1, round(_log_uniform(r, 1.0, 400.0))), r.uniform(0.02, 0.98)),
           [Binomial(1, 0.02), Binomial(400, 0.02), Binomial(400, 0.98), Binomial(37, 0.5)],
           seed=5)
    + _specs(lambda r: Poisson(_log_uniform(r, 0.1, 200.0)), [Poisson(0.1), Poisson(200.0)],
             seed=6)
)


@pytest.mark.parametrize("spec", DISCRETE, ids=repr)
def test_discrete_log_tails_match_scipy(spec):
    # thresholds on the support: P(Y >= m) upper and P(Y <= m) lower
    if isinstance(spec, Binomial):
        dist, mean = stats.binom(spec.k, spec.p), spec.k * spec.p
    else:
        dist, mean = stats.poisson(spec.lam), spec.lam
    sd = math.sqrt(variance(spec))
    for side in Side:
        points = {math.ceil(mean + z * sd) if side is Side.UPPER else math.floor(mean - z * sd)
                  for z in DEPTHS_SD}
        for m in sorted(points):
            if m < 0 or (isinstance(spec, Binomial) and m > spec.k):
                continue
            x = m - mean if side is Side.UPPER else mean - m
            want = dist.logsf(m - 1) if side is Side.UPPER else dist.logcdf(m)
            _check(spec, side, x, exact_tail(spec, side, x).log_value, want)
