import math

import numpy as np
import pytest

from tailbound import specfun as sf
from tailbound.dist_model import (
    Beta, Binomial, ChiSq, Gamma, IrwinHall, NoncentralChiSq, Normal, Poisson,
    RademacherSum, Side, WeightedChiSq, WeightVector,
)
from tailbound import oracle
from tailbound.errors import DomainError, TruncationError
from tailbound.harness import bisect_quantile
from tailbound.oracle import (
    clopper_pearson, exact_tail, irwin_hall_cdf, mc_tail,
    poisson_cdf_int, poisson_sf_int,
)


def test_binomial_pmf_sum_exact():
    est = exact_tail(Binomial(10, 0.5), Side.UPPER, 2.0)
    want = sum(math.comb(10, j) for j in (7, 8, 9, 10)) / 1024.0
    assert abs(est.value - want) < 1e-15
    assert abs(est.value - 0.171875) < 1e-15


def test_binomial_tie_included():
    # threshold exactly on an attained integer includes that mass
    est = exact_tail(Binomial(10, 0.5), Side.UPPER, 3.0)  # kp + x = 8
    want = sum(math.comb(10, j) for j in (8, 9, 10)) / 1024.0
    assert abs(est.value - want) < 1e-15


def test_binomial_incomplete_beta_identity():
    # P(Bin(k,p) >= m) = I_p(m, k - m + 1) over the whole support
    from tailbound.oracle import binom_upper_tail
    rng = np.random.default_rng(5)
    for _ in range(60):
        k = int(rng.integers(2, 60))
        p = float(rng.uniform(0.05, 0.95))
        m = int(rng.integers(1, k + 1))
        tail = binom_upper_tail(k, p, m)[0]
        ident = sf.reg_inc_beta(m, k - m + 1, p)
        assert abs(tail - ident) < 1e-10


def test_irwin_hall_triangle():
    est = exact_tail(IrwinHall(2), Side.UPPER, 0.5)
    assert abs(est.value - 0.125) < 1e-14


def test_irwin_hall_cdf_properties():
    assert irwin_hall_cdf(5, 0.0) == 0.0
    assert irwin_hall_cdf(5, 5.0) == 1.0
    assert abs(irwin_hall_cdf(5, 2.5) - 0.5) < 1e-12  # symmetry at the mean
    # alternating sum stays within the declared error model at the largest exact order
    assert abs(irwin_hall_cdf(30, 15.0) - 0.5) < 1e-10


def test_irwin_hall_symmetry_bitwise():
    spec = IrwinHall(7)
    for x in (0.0, 0.4, 1.3, 3.0):
        up = exact_tail(spec, Side.UPPER, x)
        lo = exact_tail(spec, Side.LOWER, x)
        assert up.value == lo.value


def test_rademacher_symmetry_bitwise():
    spec = RademacherSum(11)
    for x in (0.0, 1.0, 3.0, 7.0, 11.0):
        assert exact_tail(spec, Side.UPPER, x).value == exact_tail(spec, Side.LOWER, x).value


def test_rademacher_binomial_mapping():
    # P(X >= x) for X = 2B - k
    spec = RademacherSum(10)
    want = sum(math.comb(10, j) for j in range(8, 11)) / 1024.0
    assert abs(exact_tail(spec, Side.UPPER, 6.0).value - want) < 1e-15


def test_noncentral_reduces_to_central():
    for x in (0.0, 1.0, 4.0, 9.0):
        a = exact_tail(NoncentralChiSq(4, 0.0), Side.UPPER, x).value
        b = exact_tail(ChiSq(4), Side.UPPER, x).value
        assert abs(a - b) < 1e-12


def test_noncentral_against_mc():
    spec = NoncentralChiSq(3, 2.0)
    for side in (Side.UPPER, Side.LOWER):
        for x in (0.5, 2.0):
            est = exact_tail(spec, side, x)
            mc = mc_tail(spec, side, x, n=200_000, seed=17)
            assert mc.error.ci_lo - 1e-12 <= est.value <= mc.error.ci_hi + 1e-12


@pytest.fixture
def inc_gamma_calls(monkeypatch):
    """Count the incomplete gammas the oracles evaluate."""
    calls = []
    inc_gamma = sf.inc_gamma

    def counted(a, y):
        calls.append((a, y))
        return inc_gamma(a, y)
    monkeypatch.setattr(sf, "inc_gamma", counted)
    return calls


@pytest.mark.parametrize("lam", (2.0, 30.0, 300.0))
def test_noncentral_tail_costs_one_incomplete_gamma(inc_gamma_calls, lam):
    # every mixture term but one comes from the recurrence, at any depth
    spec = NoncentralChiSq(3, lam)
    sd = math.sqrt(2.0 * (3 + 2.0 * lam))
    for side in Side:
        for z in (0.1, 1.0, 3.0, 8.0):
            del inc_gamma_calls[:]
            exact_tail(spec, side, z * sd)
            assert len(inc_gamma_calls) <= 3, (side, z)


def _mixture_terms_summed(monkeypatch, spec, side, x):
    """c such that the walk sums the terms 0..c: the smallest term cap that it keeps to."""
    lo, hi = 0, 1 << 12
    while lo < hi:
        mid = (lo + hi) // 2
        monkeypatch.setattr(oracle, "_NC_MAX_TERMS", mid)
        try:
            exact_tail(spec, side, x)
            hi = mid
        except TruncationError:
            lo = mid + 1
    monkeypatch.undo()
    return lo


@pytest.mark.parametrize("spec, side, q_or_x", [
    (NoncentralChiSq(2, 300.0), Side.UPPER, 1200.0),
    (NoncentralChiSq(2, 300.0), Side.LOWER, 8.0 * math.sqrt(2.0 * 602.0)),
    (NoncentralChiSq(3, 2.0), Side.UPPER, "1e-8"),
    (NoncentralChiSq(3, 2.0), Side.LOWER, "1e-8"),
])
def test_noncentral_terms_past_the_stop_are_negligible(monkeypatch, spec, side, q_or_x):
    # the next 200 mixture terms, each from its own incomplete gamma, hold at most
    # the 1e-17 of the sum that the stop rule claims, so they move the log tail
    # by less than 1e-15 relative
    x = bisect_quantile(spec, side, float(q_or_x)) if isinstance(q_or_x, str) else q_or_x
    log_p = exact_tail(spec, side, x).log_value
    c = _mixture_terms_summed(monkeypatch, spec, side, x)
    a0, mu = 0.5 * spec.k, 0.5 * spec.lam
    y = 0.5 * ((spec.k + spec.lam) + x if side is Side.UPPER else (spec.k + spec.lam) - x)
    dropped = [
        -mu + n * math.log(mu) - math.lgamma(n + 1.0)
        + sf.inc_gamma(a0 + n, y)[3 if side is Side.UPPER else 1]
        for n in range(c + 1, c + 201)
    ]
    share = math.exp(sf.log_sum_exp(dropped) - log_p)
    assert share <= 1e-17 and math.log1p(share) <= 1e-15 * abs(log_p), share
    assert log_p < -18.0  # a deep tail: 1e-8 or beyond


def test_noncentral_huge_noncentrality_is_refused():
    # more mixture terms than the walk may take: an error, not a hang
    with pytest.raises(TruncationError):
        exact_tail(NoncentralChiSq(1, 1e7), Side.LOWER, 1.0)


def test_gamma_left_tail_zero_region():
    assert exact_tail(Gamma(2.0), Side.LOWER, 2.5).value == 0.0
    assert exact_tail(Gamma(2.0), Side.LOWER, 2.0).value == 0.0
    assert exact_tail(Gamma(2.0), Side.LOWER, 1.9).value > 0.0


def test_poisson_gamma_identity():
    lam = 2.0
    est = exact_tail(Poisson(lam), Side.UPPER, 2.0)  # P(Y >= 4)
    direct = 1.0 - math.exp(-lam) * (1.0 + 2.0 + 2.0 + 4.0 / 3.0)
    assert abs(est.value - direct) < 1e-12
    v, lv = poisson_sf_int(lam, 4)
    assert est.value == v
    assert abs(math.exp(lv) - v) < 1e-12
    cv, _ = poisson_cdf_int(lam, 3)
    assert abs(cv + v - 1.0) < 1e-12


def test_poisson_mc_example():
    mc = mc_tail(Poisson(2.0), Side.UPPER, 2.0, n=300_000, seed=3)
    assert mc.error.ci_lo <= 0.1428765395014529 <= mc.error.ci_hi


def test_beta_tails_and_symmetry():
    spec = Beta(3.0, 3.0)
    for x in (0.0, 0.1, 0.3, 0.49):
        up = exact_tail(spec, Side.UPPER, x)
        lo = exact_tail(spec, Side.LOWER, x)
        assert up.value == lo.value  # same expression, bit for bit
    assert exact_tail(Beta(2.0, 5.0), Side.UPPER, 0.8).value == 0.0


def test_normal_tails():
    est = exact_tail(Normal(4.0), Side.UPPER, 2.0)
    assert abs(est.value - sf.normal_tail(1.0)) < 1e-15
    assert exact_tail(Normal(1.0), Side.LOWER, 1.0).value == exact_tail(
        Normal(1.0), Side.UPPER, 1.0).value


def test_exact_tail_monotone_in_x():
    specs = [Gamma(2.5), ChiSq(4), Binomial(25, 0.3), Poisson(3.0), IrwinHall(8)]
    for spec in specs:
        for side in (Side.UPPER, Side.LOWER):
            prev = 1.1
            for x in np.linspace(0.0, 6.0, 25):
                cur = exact_tail(spec, side, x).value
                assert cur <= prev + 1e-12
                prev = cur


def test_exact_tail_rejects_negative_x():
    with pytest.raises(DomainError):
        exact_tail(Gamma(1.0), Side.UPPER, -0.1)


def test_log_value_survives_underflow():
    est = exact_tail(Normal(1.0), Side.UPPER, 45.0)
    assert est.value == 0.0
    assert math.isfinite(est.log_value)
    est = exact_tail(Binomial(400, 0.5), Side.UPPER, 200.0)  # P(Y = 400) = 2^-400
    assert abs(est.log_value - 400.0 * math.log(0.5)) < 1e-9


# Monte Carlo ----------------------------------------------------------------

def test_mc_tail_normal_median():
    mc = mc_tail(Normal(1.0), Side.UPPER, 0.0, n=200_000, seed=11)
    assert mc.error.ci_lo <= 0.5 <= mc.error.ci_hi


def test_mc_tail_zero_count_bound():
    n = 10_000
    mc = mc_tail(Normal(1.0), Side.UPPER, 50.0, n=n, seed=0)
    assert mc.value == 0.0
    assert abs(mc.error.ci_hi - 5.2983 / n) < 0.2 / n


def test_mc_tail_shard_merge_is_order_free():
    # identical totals regardless of traversal order of the shard streams
    from tailbound.dist_model import RngStream, sample
    spec = Gamma(2.0)
    n, shard = 300_000, 1 << 17
    counts = []
    shards = list(range(-(-n // shard)))
    for order in (shards, shards[::-1]):
        total = 0
        for i in order:
            m = min(shard, n - i * shard)
            total += int((sample(spec, RngStream(5, i), m) >= 1.0).sum())
        counts.append(total)
    assert counts[0] == counts[1]
    assert mc_tail(spec, Side.UPPER, 1.0, n=n, seed=5).value == counts[0] / n


def test_mc_ci_covers_exact_tails():
    # CP 99% intervals should cover the analytic tail in >= 98% of trials
    rng = np.random.default_rng(31)
    specs = [Gamma(2.0), ChiSq(4), Binomial(30, 0.4), Poisson(5.0), Normal(1.0)]
    misses = 0
    trials = 500
    for t in range(trials):
        spec = specs[t % len(specs)]
        side = Side.UPPER if rng.random() < 0.5 else Side.LOWER
        x = float(rng.uniform(0.0, 2.5))
        est = exact_tail(spec, side, x)
        mc = mc_tail(spec, side, x, n=20_000, seed=1000 + t)
        if not (mc.error.ci_lo - 1e-12 <= est.value <= mc.error.ci_hi + 1e-12):
            misses += 1
    assert misses <= trials * 0.02


def test_clopper_pearson_validates():
    with pytest.raises(DomainError):
        clopper_pearson(5, 4)
    lo, hi = clopper_pearson(50, 100, 0.99)
    assert 0.0 < lo < 0.5 < hi < 1.0


def test_irwin_hall_large_k_falls_back_to_mc():
    est = exact_tail(IrwinHall(40), Side.UPPER, 2.0, mc_n=50_000, mc_seed=2)
    assert est.error.kind == "monte_carlo"
    assert est.error.ci_lo <= est.value <= est.error.ci_hi


def test_chernoff_degenerate_domain_returns_one():
    from tailbound.dist_model import LogMgfSpec
    from tailbound.engine_upper import chernoff_upper
    from tailbound.specfun import RealInterval
    dead = LogMgfSpec(eval=lambda t: 0.0 * t, domain=RealInterval(-0.0, 0.0))
    assert chernoff_upper(dead, 1.0).value == 1.0


def test_weighted_chisq_mc_oracle():
    spec = WeightedChiSq(WeightVector((1.0, 0.5)))
    est = exact_tail(spec, Side.UPPER, 0.5, mc_n=100_000, mc_seed=4)
    assert est.error.kind == "monte_carlo"
    # crude analytic check via independent simulation
    mc2 = mc_tail(spec, Side.UPPER, 0.5, n=100_000, seed=99)
    assert abs(est.value - mc2.value) < 0.01


def _ref_chisq_tail(k, side, x):
    """The chi-square oracle before it became the gamma oracle at half scale."""
    if side is Side.UPPER:
        return sf.inc_gamma(0.5 * k, 0.5 * (k + x))[2:]
    if x >= k:
        return 0.0, -math.inf
    return sf.inc_gamma(0.5 * k, 0.5 * (k - x))[:2]


def test_chisq_is_the_gamma_oracle_at_half_scale_bit_for_bit():
    rng = np.random.default_rng(40)
    for _ in range(400):
        k = int(rng.choice([1, 2, 3, 5, 10, 37, 100, 1000, 4000]))
        sd = math.sqrt(2.0 * k)
        for x in (float(rng.uniform(0.0, 6.0)) * sd, float(rng.uniform(0.0, k)), float(k),
                  math.nextafter(float(k), 0.0)):
            for side in Side:
                want = _ref_chisq_tail(k, side, x)
                for spec in (ChiSq(k), NoncentralChiSq(k, 0.0)):
                    got = exact_tail(spec, side, x)
                    assert (got.value, got.log_value) == want, (spec, side, x)
