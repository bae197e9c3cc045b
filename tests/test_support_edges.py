"""Each support edge is stated once, and the bounds agree with the oracle at it.

A continuous family's zero tail comes from ``support_extent`` alone, by one rule in
``dist_bounds`` that serves both bounds; the oracle's tail is 0 from the same x on.
A discrete family's zero and exact boundary values read the oracle's own count, so
they equal ``exact_tail`` bit for bit, tiny means included.  The beta split takes
its arguments from the distance to the same edge, so it stays below the exact
tail up to the edge.
"""

import math
import random

import pytest

import tailbound as tb
from tailbound import dist_bounds
from tailbound.dist_model import (
    Beta, Binomial, ChiSq, Gamma, IrwinHall, NoncentralChiSq, Poisson, RademacherSum, Side,
    WeightedChiSq, WeightVector, family_name, support_extent,
)


def _step(x, n):
    """x moved by n ulps, up for n > 0 and down for n < 0."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.inf if n > 0 else 0.0)
    return x


def _continuous_specs(rng):
    yield from (Beta(rng.uniform(1.0, 50.0), rng.uniform(1.0, 50.0)) for _ in range(300))
    yield from (Gamma(math.exp(rng.uniform(math.log(0.05), math.log(500.0))))
                for _ in range(40))
    yield from (ChiSq(rng.randint(1, 400)) for _ in range(20))
    yield from (NoncentralChiSq(rng.randint(1, 50), rng.choice([0.0, rng.uniform(0.0, 50.0)]))
                for _ in range(20))
    yield from (IrwinHall(rng.randint(2, 30)) for _ in range(20))
    yield Beta(31.66, 4.21)
    yield Beta(12.66, 27.67)
    yield Beta(2.0, 5.0)
    yield IrwinHall(8)


def test_continuous_bounds_hold_from_inside_to_past_the_support_edge():
    seen = set()
    for spec in _continuous_specs(random.Random(25)):
        for side in Side:
            edge = support_extent(spec, side)
            if edge == math.inf:
                continue
            for n in (-3, -2, -1, 0, 1, 2):
                x = _step(edge, n)
                p = tb.exact_tail(spec, side, x).log_value
                lo, up = tb.lower_bound(spec, side, x), tb.upper_bound(spec, side, x)
                assert lo.log_value <= p <= up.log_value, (spec, side, n, lo, p, up)
                # the zero region starts exactly where the oracle's tail is 0; inside
                # it, the Irwin-Hall tail a few ulps deep may underflow to 0
                assert (up.log_value == -math.inf) == (n >= 0), (spec, side, n, up)
                if n >= 0:
                    assert p == -math.inf, (spec, side, n, p)
                    zero = (0.0, -math.inf, True, f"{family_name(spec)}_support")
                    for got in (lo, up):
                        assert (got.value, got.log_value, got.certified, got.cite) == zero
            seen.add(type(spec))
    assert seen == {Beta, Gamma, ChiSq, NoncentralChiSq, IrwinHall}


def test_beta_upper_tail_is_not_zero_between_one_minus_the_mean_and_the_edge():
    # the upper edge was once written 1 - a/(a+b), a few ulps short of the oracle's
    # b/(a+b), and U was 0 there while P was about e^-143
    spec = Beta(31.66, 4.21)
    x = math.nextafter(1.0 - spec.alpha / (spec.alpha + spec.beta), 1.0)
    assert x < support_extent(spec, Side.UPPER)
    p = tb.exact_tail(spec, Side.UPPER, x).log_value
    assert p == pytest.approx(-143.41, abs=0.01)
    lo, up = tb.lower_bound(spec, Side.UPPER, x), tb.upper_bound(spec, Side.UPPER, x)
    assert lo.log_value <= p <= up.log_value < 0.0


def test_weighted_chisq_zero_region_starts_at_its_support_edge():
    rng = random.Random(7)
    for _ in range(50):
        spec = WeightedChiSq(WeightVector(tuple(rng.uniform(0.05, 2.0)
                                                for _ in range(rng.randint(1, 8)))))
        edge = support_extent(spec, Side.LOWER)
        assert support_extent(spec, Side.UPPER) == math.inf
        for n in (-3, -2, -1, 0, 1, 2):
            x = _step(edge, n)
            lo, up = tb.lower_bound(spec, Side.LOWER, x), tb.upper_bound(spec, Side.LOWER, x)
            assert (up.log_value == -math.inf) == (n >= 0), (spec, n, up)
            assert (lo.cite == up.cite == "weighted_chisq_support") == (n >= 0), (spec, n, lo)
        # every draw is above the lower edge: the Monte Carlo tail there is 0
        assert tb.exact_tail(spec, Side.LOWER, edge, mc_n=1000).value == 0.0


def _discrete_specs():
    yield from (Binomial(1, 1e-12), Binomial(3, 1.0 - 1e-11), Binomial(5, 1e-10),
                Binomial(2, 1e-17), Binomial(4, 0.3), Binomial(1, 0.5), Binomial(40, 0.97),
                Binomial(400, 0.002))
    yield from (Poisson(1e-10), Poisson(1e-17), Poisson(0.4), Poisson(1.0), Poisson(3.5))
    yield from (RademacherSum(1), RademacherSum(2), RademacherSum(9))


def _discrete_xs(spec, side):
    """0, the first attained thresholds and x one ulp either side of each, and x past
    a finite support edge."""
    xs = {0.0}
    for x in tb.dist_model._family(spec).support_x(spec, side)[:15]:
        if x >= 0.0:
            xs |= {x, _step(x, 1), _step(x, -1) if x > 0.0 else x}
    edge = support_extent(spec, side)
    return sorted(xs | ({edge + 0.5, edge + 1.0} if edge < math.inf else set()))


def test_discrete_boundary_values_are_the_oracles_bit_for_bit():
    methods = set()
    for spec in _discrete_specs():
        for side in Side:
            for x in _discrete_xs(spec, side):
                p = tb.exact_tail(spec, side, x)
                lo, up = tb.lower_bound(spec, side, x), tb.upper_bound(spec, side, x)
                assert lo.log_value <= p.log_value <= up.log_value, (spec, side, x, lo, p, up)
                if lo.method in ("boundary_exact", "closed_form"):
                    assert (lo.value, lo.log_value) == (p.value, p.log_value), (spec, side, x)
                    methods.add(lo.method)
                if p.log_value == -math.inf:
                    assert lo.cite == up.cite == f"{family_name(spec)}_support"
    assert methods == {"boundary_exact", "closed_form"}


@pytest.mark.parametrize("spec,side", [
    (Binomial(1, 1e-12), Side.UPPER), (Binomial(3, 1.0 - 1e-11), Side.LOWER),
    (Binomial(5, 1e-10), Side.UPPER), (Binomial(2, 1e-17), Side.UPPER),
    (Poisson(1e-10), Side.UPPER), (Poisson(1e-17), Side.UPPER), (Poisson(1e-300), Side.UPPER),
])
def test_a_tiny_mean_keeps_a_count_of_one(spec, side):
    stats = pytest.importorskip("scipy.stats")
    if isinstance(spec, Binomial):
        want = (stats.binom.sf(0, spec.k, spec.p) if side is Side.UPPER
                else stats.binom.cdf(spec.k - 1, spec.k, spec.p))
    else:
        want = stats.poisson.sf(0, spec.lam)
    p = tb.exact_tail(spec, side, 0.0)
    assert p.value == pytest.approx(want, rel=1e-12)
    assert p.log_value == pytest.approx(math.log(want), rel=1e-12)
    lo = tb.lower_bound(spec, side, 0.0)
    assert lo.method == "boundary_exact"
    assert (lo.value, lo.log_value) == (p.value, p.log_value)


@pytest.mark.parametrize("spec,side,count_fn,empty", [
    (Binomial(6, 0.3), Side.UPPER, "_binom_count", (0.0, 0.0, 7)),
    (Binomial(6, 0.3), Side.LOWER, "_binom_count", (0.0, 0.0, 7)),
    (Poisson(2.0), Side.LOWER, "_poisson_count", -1),
    (RademacherSum(6), Side.UPPER, "_rademacher_count", (0.0, 0.0, 7)),
    (RademacherSum(6), Side.LOWER, "_rademacher_count", (0.0, 0.0, 7)),
])
def test_discrete_zero_regions_read_the_oracles_count(monkeypatch, spec, side, count_fn, empty):
    # x = 0 is inside the support; a count past the support empties the tail
    monkeypatch.setattr(tb.oracle, count_fn, lambda *args: empty)
    assert tb.exact_tail(spec, side, 0.0).value == 0.0
    for got in (tb.lower_bound(spec, side, 0.0), tb.upper_bound(spec, side, 0.0)):
        assert (got.log_value, got.cite) == (-math.inf, f"{family_name(spec)}_support")


def test_only_gamma_serves_a_continuous_special_region():
    continuous = (Gamma, ChiSq, WeightedChiSq, NoncentralChiSq, Beta, IrwinHall)
    assert {cls for cls in continuous
            if dist_bounds._BOUNDS[cls].special is not None} == {Gamma}
