"""Exact or error-bounded evaluation of the true tails P(X >= x) and P(X <= -x).

Continuous families go through the incomplete gamma/beta integrals, discrete
families through log-space pmf summation from the far tail inward, and the
weighted chi-square through seeded Monte Carlo with a Clopper-Pearson interval.

The noncentral chi-square is the Poisson(lam/2) mixture of Gamma(k/2 + j) tails
at half the threshold.  One incomplete gamma gives one term; the others follow
from the recurrence Q(a + 1, y) = Q(a, y) + y^a e^-y / Gamma(a + 1), whose steps
add positive terms only: upward from j = 0 for the upper tail (Q grows in j), and
downward from a top index for the lower tail (P = 1 - Q shrinks in j).  Each sum
stops once a bound on the mass it leaves out is at most 1e-17 of the sum so far:
a geometric bound on the terms above the stop for the upper tail, the Poisson
weight above the top index for the lower tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from . import specfun
from .dist_model import (
    Beta, Binomial, ChiSq, DistSpec, Gamma, IrwinHall, NoncentralChiSq,
    Normal, Poisson, RademacherSum, RngStream, Side, WeightedChiSq,
    _blocks, sample,
)
from .errors import DomainError, TruncationError, UnsupportedFamilyError, check_threshold


@dataclass(frozen=True)
class ExactError:
    abs_tol: float
    kind: str = "exact"


@dataclass(frozen=True)
class TruncatedError:
    abs_tol: float
    kind: str = "truncated"


@dataclass(frozen=True)
class MonteCarloError:
    ci_lo: float
    ci_hi: float
    n: int
    confidence: float
    kind: str = "monte_carlo"


ErrorModel = Union[ExactError, TruncatedError, MonteCarloError]


@dataclass(frozen=True)
class TailEstimate:
    value: float
    log_value: float
    error: ErrorModel

    def ci(self) -> tuple[float, float]:
        """Interval certain to be used for certification: CI for Monte Carlo,
        value +- abs_tol otherwise."""
        if isinstance(self.error, MonteCarloError):
            return self.error.ci_lo, self.error.ci_hi
        t = self.error.abs_tol
        return max(0.0, self.value - t), min(1.0, self.value + t)

    def to_json(self) -> dict:
        if isinstance(self.error, MonteCarloError):
            err = {
                "kind": "monte_carlo",
                "ci_lo": self.error.ci_lo,
                "ci_hi": self.error.ci_hi,
                "n": self.error.n,
                "confidence": self.error.confidence,
            }
        else:
            err = {"kind": self.error.kind, "abs_tol": self.error.abs_tol}
        return {
            "value": self.value,
            "log_value": None if self.log_value == -math.inf else self.log_value,
            "error": err,
        }


_SNAP_TOL = 1e-9


def _snap(t: float) -> float:
    """Round near-integers to integers so discrete tie conventions are stable."""
    r = round(t)
    if abs(t - r) <= _SNAP_TOL * max(1.0, abs(t)):
        return float(r)
    return t


def _ceil_snap(t: float) -> int:
    return int(math.ceil(_snap(t)))


def _floor_snap(t: float) -> int:
    return int(math.floor(_snap(t)))


def _binom_sf(k: int, log_p: float, log_q: float, m: int) -> tuple[float, float]:
    """P(Bin(k, p) >= m) as (value, log_value) from ln p and ln q = ln(1 - p),
    pmf-summed from the far tail; m = k is p^k and m = 1 is 1 - q^k, in that order."""
    if m <= 0:
        return 1.0, 0.0
    if m > k:
        return 0.0, -math.inf
    if m == k:
        return math.exp(k * log_p), k * log_p
    if m == 1:
        log_none = k * log_q
        return -math.expm1(log_none), specfun._log1mexp(log_none)
    log_ratio_base = log_p - log_q
    logs = []
    lg = k * log_p
    for j in range(k, m - 1, -1):
        logs.append(lg)
        if j > m:
            # pmf(j-1)/pmf(j) = j (1-p) / ((k-j+1) p)
            lg += math.log(j) - math.log(k - j + 1) - log_ratio_base
    log_value = specfun.log_sum_exp(logs)
    if max(logs) > -700.0:
        value = math.fsum(math.exp(v) for v in logs)
    else:
        value = math.exp(log_value)
    return min(1.0, value), min(0.0, log_value)


def binom_upper_tail(k: int, p: float, m: int) -> tuple[float, float]:
    """P(Bin(k, p) >= m) as (value, log_value), pmf-summed from the far tail."""
    return _binom_sf(k, math.log(p), math.log1p(-p), m)


def _binom_count(k: int, p: float, side: Side, x: float) -> tuple[float, float, int]:
    """(ln p', ln(1 - p'), m) with tail = P(Bin(k, p') >= m) for Y ~ Bin(k, p): the
    successes Y on the upper side, P(Y >= kp + x), and the failures k - Y ~ Bin(k, 1 - p)
    on the lower side, P(Y <= kp - x); m > k where the tail is empty, and m >= 1 where
    the snap would round a tiny kp + x or k(1 - p) + x to 0."""
    log_p, log_q = math.log(p), math.log1p(-p)
    if side is Side.UPPER:
        return log_p, log_q, max(1, _ceil_snap(k * p + x))
    return log_q, log_p, max(1, k - _floor_snap(k * p - x))


def _rademacher_count(k: int, x: float) -> tuple[float, float, int]:
    """``_binom_count`` of B ~ Bin(k, 1/2) for X = 2B - k: either tail of X at x is
    B's upper tail at x/2."""
    return _binom_count(k, 0.5, Side.UPPER, 0.5 * x)


def poisson_sf_int(lam: float, m: int) -> tuple[float, float]:
    """P(Poisson(lam) >= m) as (value, log_value) via P(Gamma(m) <= lam)."""
    if m <= 0:
        return 1.0, 0.0
    if m == 1:
        return -math.expm1(-lam), specfun._log1mexp(-lam)
    return specfun.inc_gamma(m, lam)[:2]


def poisson_cdf_int(lam: float, j: int) -> tuple[float, float]:
    """P(Poisson(lam) <= j) as (value, log_value) via P(Gamma(j+1) >= lam)."""
    if j < 0:
        return 0.0, -math.inf
    if j == 0:
        return math.exp(-lam), -lam
    return specfun.inc_gamma(j + 1, lam)[2:]


def _poisson_count(lam: float, side: Side, x: float) -> int:
    """m with tail P(N >= m), at least 1 as lam + x > 0, on the upper side; j with
    tail P(N <= j), below 0 where the tail is empty, on the lower side."""
    if side is Side.UPPER:
        return max(1, _ceil_snap(lam + x))
    return _floor_snap(lam - x)


def _poisson_tail(lam: float, side: Side, x: float) -> tuple[float, float]:
    tail = poisson_sf_int if side is Side.UPPER else poisson_cdf_int
    return tail(lam, _poisson_count(lam, side, x))


def irwin_hall_cdf(k: int, y: float) -> float:
    """P(Y <= y) for the sum of k uniforms, by the alternating finite sum."""
    if y <= 0.0:
        return 0.0
    if y >= k:
        return 1.0
    terms = []
    for j in range(int(math.floor(y)) + 1):
        if y - j <= 0.0:
            break
        mag = math.exp(-math.lgamma(j + 1) - math.lgamma(k - j + 1) + k * math.log(y - j))
        terms.append(-mag if j % 2 else mag)
    return min(1.0, max(0.0, math.fsum(terms)))


_IRWIN_HALL_EXACT_MAX_K = 30


# The noncentral chi-square tail is sum_j T_j with T_j = w_j G_j: w_j the Poisson(mu)
# weights, mu = lam / 2, and G_j the Gamma(a0 + j) tail at y = z / 2, a0 = k / 2.  A walk
# keeps T_j = t e^scale and the sum so far as total e^scale, rescaling as t grows.
_NC_EPS = 1e-17
_NC_LOG_EPS = math.log1p(1.0 / _NC_EPS)  # L with e^-L = eps / (1 + eps)
_NC_RESCALE = 1e100
_NC_MAX_TERMS = 1 << 20


def _nc_too_many_terms(a0: float, y: float, mu: float) -> TruncationError:
    return TruncationError(f"noncentral chi-square mixture needs more than {_NC_MAX_TERMS} "
                           f"terms at a={a0}, y={y}, mu={mu}")


def _nc_chisq_upper_log(a0: float, y: float, mu: float) -> float:
    """ln sum_j w_j Q(a0 + j, y), walking up from j = 0 by
    Q(a0 + j + 1, y) = Q(a0 + j, y) + f_j, f_j = y^(a0+j) e^-y / Gamma(a0 + j + 1).

    With u = f_j / G_j, each term ratio is T_{j+1} / T_j = mu (1 + u) / (j + 1).  Every
    later ratio is at most mu (1 + y / (a0 + j + 1)) / (j + 2), as G_n >= f_{n-1}; once
    a0 + j + 1 >= y the ratios no longer rise, so T_{j+1} / T_j bounds them too.  With
    r < 1 the smaller bound, the terms after T_{j+1} sum to at most T_{j+1} r / (1 - r).
    """
    log_q = specfun.inc_gamma(a0, y)[3]
    u = math.exp(a0 * math.log(y) - y - math.lgamma(a0 + 1.0) - log_q)
    scale, t, total = log_q - mu, 1.0, 1.0
    for j in range(_NC_MAX_TERMS):
        ratio = mu * (1.0 + u) / (j + 1)
        u *= y / ((a0 + j + 1) * (1.0 + u))
        t *= ratio
        total += t
        r = mu * (1.0 + y / (a0 + j + 1)) / (j + 2)
        if a0 + j + 1 >= y:
            r = min(r, ratio)
        if r < 1.0 and t * r <= _NC_EPS * (1.0 - r) * total:
            return scale + math.log(total)
        if t > _NC_RESCALE:
            scale, total, t = scale + math.log(t), total / t, 1.0
    raise _nc_too_many_terms(a0, y, mu)


def _nc_chisq_lower_log(a0: float, y: float, mu: float) -> float:
    """ln sum_j w_j P(a0 + j, y), walking down from a top index J by
    P(a0 + j, y) = P(a0 + j + 1, y) + f_j.

    J is the first index with P(N > J) <= eps P(N <= J) for N ~ Poisson(mu), from
    Bernstein's bound P(N >= mu + d) <= exp(-d^2 / (2 (mu + d / 3))), or 0 once
    1 - e^-mu <= eps e^-mu.  G_j falls in j, so the terms past J sum to at most
    G_J P(N > J) <= eps G_J P(N <= J), which is at most eps times the sum.
    """
    if mu * (1.0 + _NC_EPS) <= _NC_EPS:
        top = 0
    else:
        top = math.ceil(mu + _NC_LOG_EPS / 3.0
                        + math.sqrt(_NC_LOG_EPS ** 2 / 9.0 + 2.0 * _NC_LOG_EPS * mu))
    if top > _NC_MAX_TERMS:
        raise _nc_too_many_terms(a0, y, mu)
    a = a0 + top
    log_p = specfun.inc_gamma(a, y)[1]
    v = math.exp((a - 1.0) * math.log(y) - y - math.lgamma(a) - log_p)  # f_{j-1} / G_j
    scale = log_p - mu + top * math.log(mu) - math.lgamma(top + 1.0) if top else log_p - mu
    t = total = 1.0
    for j in range(top, 0, -1):
        t *= j * (1.0 + v) / mu  # T_{j-1} / T_j
        total += t
        v *= (a0 + j - 1) / (y * (1.0 + v))
        if t > _NC_RESCALE:
            scale, total, t = scale + math.log(t), total / t, 1.0
    return scale + math.log(total)


def _nc_chisq_tail(spec: NoncentralChiSq, side: Side, x: float) -> tuple[float, float, ErrorModel]:
    """The Poisson(lam/2) mixture of Gamma(k/2 + j) tails at half the threshold.

    One incomplete gamma per call: the upper side starts at j = 0 and walks up, the
    lower side starts at its top index and walks down; every other term comes from
    the one-step recurrence, adding positive terms only.  Each walk stops once the
    mass it leaves out is at most 1e-17 of its sum, so the error model's absolute
    1e-12 holds at every depth.
    """
    k, lam = spec.k, spec.lam
    if lam == 0.0:
        v, lv = _gamma_tail(0.5 * k, side, 0.5 * x)
        return v, lv, ExactError(abs_tol=1e-12)
    z = (k + lam) + x if side is Side.UPPER else (k + lam) - x
    if side is Side.LOWER and z <= 0.0:
        return 0.0, -math.inf, ExactError(abs_tol=0.0)
    walk = _nc_chisq_upper_log if side is Side.UPPER else _nc_chisq_lower_log
    log_value = walk(0.5 * k, 0.5 * z, 0.5 * lam)
    return min(1.0, math.exp(log_value)), min(0.0, log_value), TruncatedError(abs_tol=1e-12)


def _normal_tail(spec: Normal, side: Side, x: float):
    z = x / math.sqrt(spec.sigma2)
    return specfun.normal_tail(z), specfun.log_normal_tail(z), ExactError(1e-14)


def _gamma_tail(a: float, side: Side, x: float) -> tuple[float, float]:
    """Tail of Gamma(a); chi-square with k degrees of freedom is Gamma(k/2) at
    half the threshold, and halving is exact."""
    if side is Side.UPPER:
        return specfun.inc_gamma(a, a + x)[2:]
    if x >= a:
        return 0.0, -math.inf
    return specfun.inc_gamma(a, a - x)[:2]


def _beta_tail(spec: Beta, side: Side, x: float):
    a, b = spec.alpha, spec.beta
    if side is Side.UPPER:
        # P(Z >= mu + x) = P(1 - Z <= b/(a+b) - x) with 1 - Z ~ Beta(b, a)
        a, b = b, a
    z = a / (a + b) - x
    if z <= 0.0:
        return 0.0, -math.inf, ExactError(0.0)
    return (*specfun.inc_beta(a, b, z), ExactError(1e-12))


def _irwin_hall_tail(spec: IrwinHall, side: Side, x: float):
    # symmetric: both tails equal the CDF at k/2 - x
    v = irwin_hall_cdf(spec.k, 0.5 * spec.k - x)
    return v, math.log(v) if v > 0.0 else -math.inf, ExactError(1e-10)


@dataclass(frozen=True)
class _Oracle:
    """Exact tail of one family: ``tail(spec, side, x)`` gives (value, log_value,
    error); specs for which ``monte_carlo(spec)`` holds go to ``mc_tail``."""

    tail: Callable | None
    monte_carlo: Callable = lambda spec: False


_ORACLES: dict[type, _Oracle] = {
    Normal: _Oracle(_normal_tail),
    Gamma: _Oracle(lambda s, side, x: (*_gamma_tail(s.alpha, side, x), ExactError(1e-12))),
    ChiSq: _Oracle(lambda s, side, x: (*_gamma_tail(0.5 * s.k, side, 0.5 * x),
                                       ExactError(1e-12))),
    Beta: _Oracle(_beta_tail),
    Binomial: _Oracle(lambda s, side, x: (*_binom_sf(s.k, *_binom_count(s.k, s.p, side, x)),
                                          ExactError(1e-14))),
    Poisson: _Oracle(lambda s, side, x: (*_poisson_tail(s.lam, side, x), ExactError(1e-12))),
    RademacherSum: _Oracle(lambda s, side, x: (*_binom_sf(s.k, *_rademacher_count(s.k, x)),
                                               ExactError(1e-14))),
    IrwinHall: _Oracle(_irwin_hall_tail,
                       monte_carlo=lambda s: s.k > _IRWIN_HALL_EXACT_MAX_K),
    NoncentralChiSq: _Oracle(_nc_chisq_tail),
    WeightedChiSq: _Oracle(None, monte_carlo=lambda s: True),
}


def _oracle(spec: DistSpec) -> _Oracle:
    entry = _ORACLES.get(type(spec))
    if entry is None:
        raise UnsupportedFamilyError(f"no tail oracle for {spec!r}")
    return entry


def exact_tail(
    spec: DistSpec,
    side: Side,
    x: float,
    mc_n: int = 10**6,
    mc_seed: int = 0,
) -> TailEstimate:
    """P(X >= x) for Upper, P(X <= -x) for Lower; x is a centered threshold >= 0.

    All families are analytic except the weighted chi-square and Irwin-Hall
    beyond order 30, which fall back to ``mc_tail`` with (mc_n, mc_seed).
    """
    check_threshold(x)
    side = Side(side)
    entry = _oracle(spec)
    if entry.monte_carlo(spec):
        return mc_tail(spec, side, x, n=mc_n, seed=mc_seed)
    return TailEstimate(*entry.tail(spec, side, x))


def _beta_ppf(q: float, a: float, b: float) -> float:
    """Inverse of the regularized incomplete beta: the adjacent doubles where
    ``reg_inc_beta(a, b, t) < q`` turns false, searched on log q - log I_t(a, b)
    for at most 100 tests; at t = 1 that distance is log q."""
    log_q = math.log(q)

    def probe(t: float) -> tuple[bool, float]:
        i, log_i = specfun.inc_beta(a, b, t)
        return i < q, log_q - log_i
    return specfun._bracket_search(probe, 0.0, 1.0, 100, d_hi=log_q)


def clopper_pearson(successes: int, n: int, confidence: float = 0.99) -> tuple[float, float]:
    """Exact two-sided Clopper-Pearson interval for a binomial proportion."""
    if not (0 <= successes <= n):
        raise DomainError(f"successes must lie in [0, n], got {successes}/{n}")
    if not (0.0 < confidence < 1.0):
        raise DomainError(f"confidence must lie in (0, 1), got {confidence}")
    a = 0.5 * (1.0 - confidence)
    lo = 0.0 if successes == 0 else _beta_ppf(a, successes, n - successes + 1)
    hi = 1.0 if successes == n else _beta_ppf(1.0 - a, successes + 1, n - successes)
    return lo, hi


_MC_CONFIDENCE = 0.99
_MC_SHARD = 1 << 17


def _mc_estimate(count: int, n: int) -> TailEstimate:
    """The frequency count / n with its Clopper-Pearson interval at 99%."""
    lo, hi = clopper_pearson(count, n, _MC_CONFIDENCE)
    value = count / n
    return TailEstimate(value, math.log(value) if count > 0 else -math.inf,
                        MonteCarloError(lo, hi, n, _MC_CONFIDENCE))


def mc_tail(spec: DistSpec, side: Side, x: float, n: int = 10**6, seed: int = 0) -> TailEstimate:
    """Empirical tail frequency with an exact Clopper-Pearson interval.

    Draws come in blocks of at most ``_MC_SHARD``, which bounds memory; block
    i draws from stream (seed, i), so the block size fixes the draws.
    """
    if n < 100:
        raise DomainError(f"mc_tail needs n >= 100, got {n}")
    check_threshold(x)
    side = Side(side)
    count = 0
    for shard, m in enumerate(_blocks(n, _MC_SHARD)):
        draws = sample(spec, RngStream(seed, shard), m)
        if side is Side.UPPER:
            count += int((draws >= x).sum())
        else:
            count += int((draws <= -x).sum())
    return _mc_estimate(count, n)
