"""Exact or error-bounded evaluation of the true tails P(X >= x) and P(X <= -x).

Continuous families go through the incomplete gamma/beta integrals, discrete
families through log-space pmf summation from the far tail inward, the
noncentral chi-square through its mixture series, and the weighted
chi-square through seeded Monte Carlo with a Clopper-Pearson interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from . import specfun
from .dist_model import (
    Beta, Binomial, ChiSq, DistSpec, Gamma, IrwinHall, NoncentralChiSq,
    Normal, Poisson, RademacherSum, RngStream, Side, WeightedChiSq,
    sample,
)
from .errors import DomainError, UnsupportedFamilyError


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


def binom_at_least_one(k: int, p: float) -> tuple[float, float]:
    """P(Bin(k, p) >= 1) = 1 - (1-p)^k as (value, log_value).

    Shared with the bound catalog so discrete boundary cases agree bit for bit.
    """
    log_miss = k * math.log1p(-p)
    value = -math.expm1(log_miss)
    log_value = math.log1p(-math.exp(log_miss)) if log_miss > -745.0 else 0.0
    return value, log_value


def _log_binom_pmf(k: int, p: float, j: int) -> float:
    return (
        math.lgamma(k + 1) - math.lgamma(j + 1) - math.lgamma(k - j + 1)
        + j * math.log(p) + (k - j) * math.log1p(-p)
    )


def binom_upper_tail(k: int, p: float, m: int) -> tuple[float, float]:
    """P(Bin(k, p) >= m) as (value, log_value), pmf-summed from the far tail."""
    if m <= 0:
        return 1.0, 0.0
    if m > k:
        return 0.0, -math.inf
    if m == 1:
        return binom_at_least_one(k, p)
    log_ratio_base = math.log(p) - math.log1p(-p)
    logs = []
    lg = _log_binom_pmf(k, p, k)
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


def _binom_tail(spec: Binomial, side: Side, x: float) -> tuple[float, float]:
    k, p = spec.k, spec.p
    if side is Side.UPPER:
        m = _ceil_snap(k * p + x)
        return binom_upper_tail(k, p, m)
    t = _snap(k * p - x)
    if t < 0.0:
        return 0.0, -math.inf
    j_max = _floor_snap(t)
    # P(Y <= j) = P(k - Y >= k - j) with k - Y ~ Bin(k, 1-p)
    return binom_upper_tail(k, 1.0 - p, k - j_max)


def poisson_sf_int(lam: float, m: int) -> tuple[float, float]:
    """P(Poisson(lam) >= m) as (value, log_value) via P(Gamma(m) <= lam)."""
    if m <= 0:
        return 1.0, 0.0
    if m == 1:
        v = -math.expm1(-lam)
        return v, math.log1p(-math.exp(-lam))
    return (
        specfun.reg_inc_gamma_lower(m, lam),
        specfun.log_reg_inc_gamma_lower(m, lam),
    )


def poisson_cdf_int(lam: float, j: int) -> tuple[float, float]:
    """P(Poisson(lam) <= j) as (value, log_value) via P(Gamma(j+1) >= lam)."""
    if j < 0:
        return 0.0, -math.inf
    return (
        specfun.reg_inc_gamma_upper(j + 1, lam),
        specfun.log_reg_inc_gamma_upper(j + 1, lam),
    )


def _poisson_tail(lam: float, side: Side, x: float) -> tuple[float, float]:
    if side is Side.UPPER:
        return poisson_sf_int(lam, _ceil_snap(lam + x))
    t = _snap(lam - x)
    if t < 0.0:
        return 0.0, -math.inf
    return poisson_cdf_int(lam, _floor_snap(t))


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


def _nc_chisq_weights(lam_half: float) -> list[float]:
    """Poisson(lam/2) weights, truncated once the remaining tail is < 1e-14."""
    j = int(lam_half + 10.0 * math.sqrt(lam_half) + 20.0)
    while specfun.log_reg_inc_gamma_lower(j + 1, lam_half) >= math.log(1e-14):
        j += max(2, int(0.1 * j))
    w = [math.exp(-lam_half)]
    for i in range(1, j + 1):
        w.append(w[-1] * lam_half / i)
    return w


def _nc_chisq_tail(spec: NoncentralChiSq, side: Side, x: float) -> tuple[float, float, ErrorModel]:
    k, lam = spec.k, spec.lam
    if lam == 0.0:
        v, lv = _chisq_tail(k, side, x)
        return v, lv, ExactError(abs_tol=1e-12)
    z = (k + lam) + x if side is Side.UPPER else (k + lam) - x
    if side is Side.LOWER and z <= 0.0:
        return 0.0, -math.inf, ExactError(abs_tol=0.0)
    weights = _nc_chisq_weights(0.5 * lam)
    logs = []
    log_w = -0.5 * lam
    for j, w in enumerate(weights):
        if j > 0:
            log_w += math.log(0.5 * lam) - math.log(j)
        a = 0.5 * (k + 2 * j)
        if side is Side.UPPER:
            lt = specfun.log_reg_inc_gamma_upper(a, 0.5 * z)
        else:
            lt = specfun.log_reg_inc_gamma_lower(a, 0.5 * z)
        logs.append(log_w + lt)
    log_value = specfun.log_sum_exp(logs)
    value = math.exp(log_value)
    return min(1.0, value), min(0.0, log_value), TruncatedError(abs_tol=1e-12)


def _chisq_tail(k: int, side: Side, x: float) -> tuple[float, float]:
    if side is Side.UPPER:
        return (
            specfun.reg_inc_gamma_upper(0.5 * k, 0.5 * (k + x)),
            specfun.log_reg_inc_gamma_upper(0.5 * k, 0.5 * (k + x)),
        )
    if x >= k:
        return 0.0, -math.inf
    return (
        specfun.reg_inc_gamma_lower(0.5 * k, 0.5 * (k - x)),
        specfun.log_reg_inc_gamma_lower(0.5 * k, 0.5 * (k - x)),
    )


def _normal_tail(spec: Normal, side: Side, x: float):
    z = x / math.sqrt(spec.sigma2)
    return specfun.normal_tail(z), specfun.log_normal_tail(z), ExactError(1e-14)


def _gamma_tail(spec: Gamma, side: Side, x: float):
    a = spec.alpha
    if side is Side.UPPER:
        v = specfun.reg_inc_gamma_upper(a, a + x)
        lv = specfun.log_reg_inc_gamma_upper(a, a + x)
    elif x >= a:
        v, lv = 0.0, -math.inf
    else:
        v = specfun.reg_inc_gamma_lower(a, a - x)
        lv = specfun.log_reg_inc_gamma_lower(a, a - x)
    return v, lv, ExactError(1e-12)


def _beta_tail(spec: Beta, side: Side, x: float):
    a, b = spec.alpha, spec.beta
    if side is Side.UPPER:
        # P(Z >= mu + x) = P(1 - Z <= b/(a+b) - x) with 1 - Z ~ Beta(b, a)
        a, b = b, a
    z = a / (a + b) - x
    if z <= 0.0:
        return 0.0, -math.inf, ExactError(0.0)
    return specfun.reg_inc_beta(a, b, z), specfun.log_reg_inc_beta(a, b, z), ExactError(1e-12)


def _rademacher_tail(spec: RademacherSum, side: Side, x: float):
    # X = 2B - k with B ~ Bin(k, 1/2); both sides reduce to the same index
    m = _ceil_snap(0.5 * (spec.k + x))
    return (*binom_upper_tail(spec.k, 0.5, m), ExactError(1e-14))


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
    Gamma: _Oracle(_gamma_tail),
    ChiSq: _Oracle(lambda s, side, x: (*_chisq_tail(s.k, side, x), ExactError(1e-12))),
    Beta: _Oracle(_beta_tail),
    Binomial: _Oracle(lambda s, side, x: (*_binom_tail(s, side, x), ExactError(1e-14))),
    Poisson: _Oracle(lambda s, side, x: (*_poisson_tail(s.lam, side, x), ExactError(1e-12))),
    RademacherSum: _Oracle(_rademacher_tail),
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
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"tail threshold must be >= 0, got {x}")
    side = Side(side)
    entry = _oracle(spec)
    if entry.monte_carlo(spec):
        return mc_tail(spec, side, x, n=mc_n, seed=mc_seed)
    return TailEstimate(*entry.tail(spec, side, x))


def _beta_ppf(q: float, a: float, b: float) -> float:
    """Inverse of the regularized incomplete beta, by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if specfun.reg_inc_beta(a, b, mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


_MC_SHARD = 1 << 17


def mc_tail(
    spec: DistSpec,
    side: Side,
    x: float,
    n: int = 10**6,
    seed: int = 0,
    confidence: float = 0.99,
) -> TailEstimate:
    """Empirical tail frequency with an exact Clopper-Pearson interval.

    Work is split into fixed-size shards, one Philox stream per shard, and
    merged in shard order, so the result does not depend on how many workers
    executed the shards.
    """
    if n < 100:
        raise DomainError(f"mc_tail needs n >= 100, got {n}")
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"tail threshold must be >= 0, got {x}")
    side = Side(side)
    count = 0
    pos = 0
    shard = 0
    while pos < n:
        m = min(_MC_SHARD, n - pos)
        draws = sample(spec, RngStream(seed, shard), m)
        if side is Side.UPPER:
            count += int((draws >= x).sum())
        else:
            count += int((draws <= -x).sum())
        pos += m
        shard += 1
    value = count / n
    lo, hi = clopper_pearson(count, n, confidence)
    log_value = math.log(value) if count > 0 else -math.inf
    return TailEstimate(value, log_value, MonteCarloError(lo, hi, n, confidence))
