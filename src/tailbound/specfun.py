"""Numerically robust scalar special functions and the package's scalar searches.

Everything here is pure and thread-safe.  The incomplete gamma and beta
integrals follow the classic Cephes evaluation strategy (power series on one
side of the crossover, continued fraction on the other).  ``inc_gamma`` and
``inc_beta`` make that choice once per call and return pair evaluations: the
value with its log (for gamma, on both sides), so a caller gets a tail and its
log from one evaluation and can work below the double underflow threshold.
The single-value functions are views of these pairs.

Scalar searches: ``_golden_min`` (the package's one golden-section search, for
the minimum of a unimodal function, to a relative tolerance or until the bracket
collapses) and ``_bracket_search`` (Illinois regula falsi on a signed log
distance with a bisection safeguard, for at most a step count, ended once the
midpoint rounds onto an end of the bracket).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, TruncationError

_MACHEP = 2.220446049250313e-16
_FPMIN = 1e-300
_MAX_ITER = 800
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_MAX_SHAPE = 2.5e305  # ln Gamma overflows a double beyond about 2.56e305
_MIN_SHAPE = sys.float_info.min  # the smallest normal double; 1 / a overflows below ~5.6e-309
# ln Gamma(1 + a) = sum_{k>=1} c_k a^k with c_1 = -gamma and c_k = (-1)^k zeta(k) / k;
# for a < 1e-2 the terms beyond a^9 fall below 1e-19 of the sum
_LGAMMA1P_COEFFS = (-0.5772156649015329, 0.8224670334241132, -0.40068563438653143,
                    0.27058080842778454, -0.207385551028674, 0.16955717699740822,
                    -0.14404989676884614, 0.12550966952474304, -0.11133426586956469)


@dataclass(frozen=True)
class RealInterval:
    """An open extended-real interval (lo, hi), used for moment generating function domains."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError(f"interval lower end {self.lo} exceeds upper end {self.hi}")


def _lower_series(a: float, y: float) -> tuple[float, float]:
    """Power series for the regularized lower incomplete gamma.

    Returns (log_front, series_sum) with P(a, y) = exp(log_front) * series_sum,
    log_front = a*ln(y) - y - lnGamma(a).  Converges fastest for y < a + 1.
    """
    log_front = a * math.log(y) - y - math.lgamma(a)
    term = 1.0 / a
    total = term
    for n in range(1, _MAX_ITER + 1):
        term *= y / (a + n)
        total += term
        if term < total * _MACHEP:  # every term is positive
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


def _small_shape_upper(a: float, y: float) -> tuple[float, float]:
    """(Q, ln Q) for a < 1e-2 and y < a + 1, without the cancellation of 1 - P.

    P = e^u (1 + a S) with u = a ln y - ln Gamma(1 + a) and
    S = sum_{k>=1} (-y)^k / (k! (a + k)), so Q = -expm1(u) - e^u a S.  ln Gamma(1 + a)
    comes from its series, as math.lgamma(1 + a) loses a once 1 + a rounds to 1.
    """
    lg = 0.0
    for c in reversed(_LGAMMA1P_COEFFS):
        lg = a * (lg + c)
    u = a * math.log(y) - lg
    power = 1.0
    total = 0.0
    for k in range(1, _MAX_ITER):
        power *= -y / k
        term = power / (a + k)
        total += term
        if abs(term) < abs(total) * _MACHEP:
            q = -math.expm1(u) - math.exp(u) * a * total
            return q, math.log(q) if q > 0.0 else -math.inf
    raise TruncationError(f"small-shape incomplete gamma series failed to converge (a={a}, y={y})")


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
    if not _MIN_SHAPE <= a <= _MAX_SHAPE:
        raise DomainError(f"incomplete gamma requires {_MIN_SHAPE:g} <= a <= {_MAX_SHAPE:g}, "
                          f"got a={a}")
    if y < 0.0 or math.isnan(y):
        raise DomainError(f"incomplete gamma requires y >= 0, got y={y}")


def _log1m(p: float) -> float:
    """ln(1 - p); -inf once p rounds to 1 or beyond."""
    if p < 1.0:
        return math.log1p(-p)
    return -math.inf


def inc_gamma(a: float, y: float) -> tuple[float, float, float, float]:
    """(P, ln P, Q, ln Q) for the regularized incomplete gamma at (a, y).

    P(a, y) = P(Gamma(a) <= y) and Q = 1 - P.  One evaluation serves all four:
    the power series for y < a + 1, the continued fraction otherwise, and the
    other side as the complement, except that Q comes from its own series when
    a < 1e-2 and y < a + 1.  The logs stay finite where P or Q underflows.
    """
    _check_gamma_args(a, y)
    if y == 0.0:
        return 0.0, -math.inf, 1.0, 0.0
    try:
        if y < a + 1.0:
            log_front, total = _lower_series(a, y)
            # the series overshoots 1 by rounding at tiny shapes
            p = min(1.0, math.exp(log_front) * total)
            log_p = min(0.0, log_front + math.log(total))
            if a < 1e-2:  # Q = 1 - P would cancel
                return (p, log_p, *_small_shape_upper(a, y))
            return p, log_p, 1.0 - p, _log1m(p)
        log_front, h = _upper_cf(a, y)
        q = math.exp(log_front) * h
    except OverflowError:  # the front cancelled catastrophically at a huge shape
        raise TruncationError(f"incomplete gamma prefactor overflows at a={a}, y={y}; "
                              "the shape is too large to evaluate") from None
    return 1.0 - q, _log1m(q), q, log_front + math.log(h)


def reg_inc_gamma_upper(a: float, y: float) -> float:
    """Regularized upper incomplete gamma Q(a, y) = P(Gamma(a) >= y)."""
    return inc_gamma(a, y)[2]


def reg_inc_gamma_lower(a: float, y: float) -> float:
    """Regularized lower incomplete gamma P(a, y) = P(Gamma(a) <= y)."""
    return inc_gamma(a, y)[0]


def log_reg_inc_gamma_upper(a: float, y: float) -> float:
    """ln Q(a, y); finite even where Q underflows."""
    return inc_gamma(a, y)[3]


def log_reg_inc_gamma_lower(a: float, y: float) -> float:
    """ln P(a, y); finite even where P underflows."""
    return inc_gamma(a, y)[1]


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


def inc_beta(a: float, b: float, x: float) -> tuple[float, float]:
    """(I, ln I) for the regularized incomplete beta I_x(a, b) = P(Beta(a, b) <= x).

    The continued fraction is applied on the small side of the mean
    a / (a + b); the other side goes through I_x(a,b) = 1 - I_{1-x}(b,a).
    ln I stays finite where I underflows.
    """
    _check_beta_args(a, b, x)
    if x == 0.0:
        return 0.0, -math.inf
    if x == 1.0:
        return 1.0, 0.0
    if x > a / (a + b):
        comp = inc_beta(b, a, 1.0 - x)[0]
        return 1.0 - comp, _log1m(comp)
    log_front = _log_beta_front(a, b, x)
    cf = _betacf(a, b, x)
    try:
        front = math.exp(log_front)
    except OverflowError:  # the front cancelled catastrophically at a huge shape
        raise TruncationError(f"incomplete beta prefactor overflows at a={a}, b={b}, x={x}; "
                              "the shapes are too large to evaluate") from None
    return front * cf / a, log_front + math.log(cf / a)


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) = P(Beta(a, b) <= x)."""
    return inc_beta(a, b, x)[0]


def log_reg_inc_beta(a: float, b: float, x: float) -> float:
    """ln I_x(a, b); finite even where the direct value underflows."""
    return inc_beta(a, b, x)[1]


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


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_GOLDEN_ITER = 200
_BRACKET_TOL = 1e-12


def _golden_min(f, lo: float, hi: float, tol: float = _BRACKET_TOL) -> tuple[float, float]:
    """(t, f(t)) at the golden-section minimum of a unimodal f on [lo, hi].

    t is the better of the two interior points, each evaluated once per step.
    The search stops once the bracket is narrower than ``tol`` relative to its
    ends, or once an interior point rounds onto or past an end, so ``tol = 0``
    runs it until the bracket collapses onto adjacent doubles.  Ties move the
    upper end down.
    """
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(_MAX_GOLDEN_ITER):
        if b - a < tol * max(1.0, abs(a) + abs(b)) or not a < x1 < x2 < b:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    t = x1 if f1 <= f2 else x2
    return t, min(f1, f2)


_CLAMP_ULPS = 4  # an interpolated point stays this many ulps inside the bracket


def _bracket_search(probe, lo: float, hi: float, iters: int,
                    d_lo: float = math.nan, d_hi: float = math.nan) -> float:
    """Midpoint of the bracket left after at most ``iters`` tests on [lo, hi].

    ``probe(t)`` returns (below, d): ``below`` says the sought point lies above
    t and decides which end of the bracket moves to t; d is a signed log
    distance to the sought point, positive where ``below`` holds.  d_lo and
    d_hi are the distances at the ends, when the caller knows them; the ends
    themselves are never tested.

    The next point is the Illinois regula falsi point of the ends' distances
    (Dowell & Jarratt 1971): the distance kept at one end is halved whenever
    the other end moves twice in a row.  A distance of the wrong sign for its
    end counts as 0, since the crossing is then within rounding of that end.
    The point is clamped ``_CLAMP_ULPS`` ulps inside the bracket.  The midpoint
    is tested instead while either distance is not finite, and after two
    interpolated steps in a row that each failed to halve the bracket.  The
    search stops without testing a midpoint that rounds onto an end, so for a
    monotone ``below`` it ends on the adjacent doubles around the crossing and
    returns the midpoint that bisection returns there.
    """
    moved = 0  # +1 when the last step moved lo, -1 when it moved hi
    slow = 0   # interpolated steps in a row that failed to halve the bracket
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        t = mid
        if slow < 2 and math.isfinite(d_lo) and math.isfinite(d_hi):
            a, b = max(d_lo, 0.0), min(d_hi, 0.0)
            if a > b:
                t = lo + (hi - lo) * (a / (a - b))
                t = min(max(t, lo + _CLAMP_ULPS * math.ulp(lo)), hi - _CLAMP_ULPS * math.ulp(hi))
                if not lo < t < hi:
                    t = mid
        width = hi - lo
        below, d = probe(t)
        if below:
            if moved > 0:
                d_hi *= 0.5
            lo, d_lo, moved = t, d, 1
        else:
            if moved < 0:
                d_lo *= 0.5
            hi, d_hi, moved = t, d, -1
        slow = 0 if t == mid or hi - lo <= 0.5 * width else slow + 1
    return 0.5 * (lo + hi)
