"""Numerically robust scalar special functions.

Everything here is pure and thread-safe: plain floats in, plain floats out.
The incomplete gamma and beta integrals follow the classic Cephes evaluation
strategy (power series on one side of the crossover, continued fraction on
the other).  Tail-valued functions come with log-space twins so callers can
work below the double underflow threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, TruncationError

_MACHEP = 2.220446049250313e-16
_FPMIN = 1e-300
_MAX_ITER = 800
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_MAX_SHAPE = 2.5e305  # ln Gamma overflows a double beyond about 2.56e305


@dataclass(frozen=True)
class RealInterval:
    """An extended-real interval, used for moment generating function domains."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError(f"interval lower end {self.lo} exceeds upper end {self.hi}")

    def contains(self, t: float) -> bool:
        if t < self.lo or t > self.hi:
            return False
        if t == self.lo and not self.lo_closed:
            return False
        if t == self.hi and not self.hi_closed:
            return False
        return True


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0.0 or math.isnan(x):
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _lower_series(a: float, y: float) -> tuple[float, float]:
    """Power series for the regularized lower incomplete gamma.

    Returns (log_front, series_sum) with P(a, y) = exp(log_front) * series_sum,
    log_front = a*ln(y) - y - lnGamma(a).  Converges fastest for y < a + 1.
    """
    log_front = a * math.log(y) - y - math.lgamma(a)
    term = 1.0 / a
    total = term
    n = 0
    while n < _MAX_ITER:
        n += 1
        term *= y / (a + n)
        total += term
        if abs(term) < abs(total) * _MACHEP:
            return log_front, total
    raise TruncationError(f"incomplete gamma series failed to converge (a={a}, y={y})")


def _upper_cf(a: float, y: float) -> tuple[float, float]:
    """Continued fraction for the regularized upper incomplete gamma.

    Returns (log_front, cf) with Q(a, y) = exp(log_front) * cf.  Modified
    Lentz evaluation; reliable for y > a + 1.
    """
    log_front = a * math.log(y) - y - math.lgamma(a)
    b = y + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b if b != 0.0 else 1.0 / _FPMIN
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _MACHEP:
            return log_front, h
    raise TruncationError(f"incomplete gamma continued fraction failed to converge (a={a}, y={y})")


def reg_inc_gamma_upper_series(a: float, y: float) -> float:
    """Q(a, y) evaluated through the lower power series (1 - P)."""
    _check_gamma_args(a, y)
    if y == 0.0:
        return 1.0
    log_front, total = _lower_series(a, y)
    return 1.0 - math.exp(log_front) * total


def reg_inc_gamma_upper_cf(a: float, y: float) -> float:
    """Q(a, y) evaluated through the continued fraction."""
    _check_gamma_args(a, y)
    if y == 0.0:
        return 1.0
    log_front, h = _upper_cf(a, y)
    return math.exp(log_front) * h


def _check_gamma_args(a: float, y: float):
    if not 0.0 < a <= _MAX_SHAPE:
        raise DomainError(f"incomplete gamma requires 0 < a <= {_MAX_SHAPE:g}, got a={a}")
    if y < 0.0 or math.isnan(y):
        raise DomainError(f"incomplete gamma requires y >= 0, got y={y}")


def reg_inc_gamma_upper(a: float, y: float) -> float:
    """Regularized upper incomplete gamma Q(a, y) = P(Gamma(a) >= y).

    Series route for y < a + 1, continued fraction otherwise.
    """
    _check_gamma_args(a, y)
    if y == 0.0:
        return 1.0
    if y < a + 1.0:
        log_front, total = _lower_series(a, y)
        return 1.0 - math.exp(log_front) * total
    log_front, h = _upper_cf(a, y)
    return math.exp(log_front) * h


def reg_inc_gamma_lower(a: float, y: float) -> float:
    """Regularized lower incomplete gamma P(a, y) = P(Gamma(a) <= y)."""
    _check_gamma_args(a, y)
    if y == 0.0:
        return 0.0
    if y < a + 1.0:
        log_front, total = _lower_series(a, y)
        return math.exp(log_front) * total
    log_front, h = _upper_cf(a, y)
    return 1.0 - math.exp(log_front) * h


def log_reg_inc_gamma_upper(a: float, y: float) -> float:
    """ln Q(a, y); finite even where Q underflows."""
    _check_gamma_args(a, y)
    if y == 0.0:
        return 0.0
    if y < a + 1.0:
        log_front, total = _lower_series(a, y)
        p = math.exp(log_front) * total
        if p < 1.0:
            return math.log1p(-p)
        return -math.inf
    log_front, h = _upper_cf(a, y)
    return log_front + math.log(h)


def log_reg_inc_gamma_lower(a: float, y: float) -> float:
    """ln P(a, y); finite even where P underflows."""
    _check_gamma_args(a, y)
    if y == 0.0:
        return -math.inf
    if y < a + 1.0:
        log_front, total = _lower_series(a, y)
        return log_front + math.log(total)
    log_front, h = _upper_cf(a, y)
    q = math.exp(log_front) * h
    if q < 1.0:
        return math.log1p(-q)
    return -math.inf


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta integral (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _MACHEP:
            return h
    raise TruncationError(f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})")


def _check_beta_args(a: float, b: float, x: float):
    if not (a > 0.0 and b > 0.0 and a + b <= _MAX_SHAPE):
        raise DomainError(f"incomplete beta requires a, b > 0 with a + b <= {_MAX_SHAPE:g}, "
                          f"got a={a}, b={b}")
    if x < 0.0 or x > 1.0 or math.isnan(x):
        raise DomainError(f"incomplete beta requires 0 <= x <= 1, got x={x}")


def _log_beta_front(a: float, b: float, x: float) -> float:
    return (
        a * math.log(x)
        + b * math.log1p(-x)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) = P(Beta(a, b) <= x).

    The continued fraction is applied on the small side of the mean
    a / (a + b); the other side goes through I_x(a,b) = 1 - I_{1-x}(b,a).
    """
    _check_beta_args(a, b, x)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if x > a / (a + b):
        return 1.0 - reg_inc_beta(b, a, 1.0 - x)
    return math.exp(_log_beta_front(a, b, x)) * _betacf(a, b, x) / a


def log_reg_inc_beta(a: float, b: float, x: float) -> float:
    """ln I_x(a, b); finite even where the direct value underflows."""
    _check_beta_args(a, b, x)
    if x == 0.0:
        return -math.inf
    if x == 1.0:
        return 0.0
    if x > a / (a + b):
        comp = reg_inc_beta(b, a, 1.0 - x)
        if comp < 1.0:
            return math.log1p(-comp)
        return -math.inf
    return _log_beta_front(a, b, x) + math.log(_betacf(a, b, x) / a)


def bernoulli_kl(u: float, v: float) -> float:
    """KL divergence h_u(v) between Bernoulli(u) and Bernoulli(v).

    h_u(v) = v log(v/u) + (1-v) log((1-v)/(1-u)), with 0 log 0 := 0 so the
    endpoints v in {0, 1} are permitted.
    """
    if not (0.0 < u < 1.0) or math.isnan(u):
        raise DomainError(f"bernoulli_kl requires 0 < u < 1, got u={u}")
    if v < 0.0 or v > 1.0 or math.isnan(v):
        raise DomainError(f"bernoulli_kl requires 0 <= v <= 1, got v={v}")
    t1 = 0.0 if v == 0.0 else v * (math.log(v) - math.log(u))
    t2 = 0.0 if v == 1.0 else (1.0 - v) * (math.log1p(-v) - math.log1p(-u))
    return t1 + t2


# psi(t) = ((1+t)log(1+t) - t) / (t^2/2) = sum_{n>=2} 2(-1)^n t^(n-2) / (n(n-1))
_BENNETT_SERIES_CUT = 1e-4
_BENNETT_COEFFS = (1.0, -1.0 / 3.0, 1.0 / 6.0, -1.0 / 10.0, 1.0 / 15.0)


def bennett_psi(t: float) -> float:
    """Bennett function psi(t) = ((1+t)log(1+t) - t)/(t^2/2), psi(0) = 1.

    A short series replaces the direct form for |t| < 1e-4 where the
    numerator cancels catastrophically.
    """
    if not t > -1.0 or math.isnan(t):
        raise DomainError(f"bennett_psi requires t > -1, got t={t}")
    if abs(t) < _BENNETT_SERIES_CUT:
        acc = 0.0
        for c in reversed(_BENNETT_COEFFS):
            acc = acc * t + c
        return acc
    return ((1.0 + t) * math.log1p(t) - t) / (0.5 * t * t)


def normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x)."""
    return 0.5 * math.erfc(-x * _INV_SQRT2)


def normal_tail(x: float) -> float:
    """Standard normal upper tail 1 - Phi(x)."""
    return 0.5 * math.erfc(x * _INV_SQRT2)


def log_normal_tail(x: float) -> float:
    """ln(1 - Phi(x)); switches to the asymptotic expansion once erfc underflows."""
    if x < 37.0:
        return math.log(0.5 * math.erfc(x * _INV_SQRT2))
    # Mills ratio expansion: tail = phi(x)/x * (1 - 1/x^2 + 3/x^4 - 15/x^6 + ...)
    inv2 = 1.0 / (x * x)
    series = 1.0 + inv2 * (-1.0 + inv2 * (3.0 + inv2 * (-15.0 + inv2 * 105.0)))
    return -0.5 * x * x - math.log(x) - _LOG_SQRT_2PI + math.log(series)


def log_sum_exp(values) -> float:
    """ln(sum exp(v)) over a finite iterable, stable under large magnitudes."""
    vals = [v for v in values if v != -math.inf]
    if not vals:
        return -math.inf
    m = max(vals)
    if m == math.inf:
        return math.inf
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))
