"""Generic Chernoff upper bounds from a log-MGF or an MGF sandwich.

The Chernoff route minimizes log phi(t) - t x over the feasible half of the
MGF domain; the objective is convex, so a golden-section search with bracket
growth is enough.  The sandwich route applies the quadratic-exponent bound
directly, with the boundary value once the optimal t would leave [0, M].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dist_model import LogMgfSpec, Side, WeightVector
from .errors import DomainError


@dataclass(frozen=True)
class MgfSandwich:
    """Two-sided control c2 exp(c1 a t^2) <= phi(t) <= C2 exp(C1 a t^2) on [0, M]."""

    c1: float
    C1: float
    c2: float
    C2: float
    alpha: float
    M: float

    def __post_init__(self):
        if not (0.0 < self.c1 <= self.C1):
            raise DomainError(f"need 0 < c1 <= C1, got c1={self.c1}, C1={self.C1}")
        # evaluating the sandwich at t = 0 forces c2 <= 1 <= C2
        if not (0.0 < self.c2 <= 1.0 <= self.C2):
            raise DomainError(f"need 0 < c2 <= 1 <= C2, got c2={self.c2}, C2={self.C2}")
        if not self.alpha > 0.0:
            raise DomainError(f"variance proxy must be positive, got {self.alpha}")
        if not self.M > 0.0:
            raise DomainError(f"domain radius must be positive, got {self.M}")


@dataclass(frozen=True)
class BoundResult:
    value: float
    log_value: float
    method: str
    certified: bool
    cite: str
    params_used: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        def clean(v):
            if isinstance(v, float) and not math.isfinite(v):
                return None
            return v

        return {
            "value": self.value,
            "log_value": None if self.log_value == -math.inf else self.log_value,
            "method": self.method,
            "certified": self.certified,
            "cite": self.cite,
            "params_used": {k: clean(v) for k, v in sorted(self.params_used.items())},
        }


def result_from_log(log_value: float, method: str, certified: bool, cite: str,
                    params: dict | None = None) -> BoundResult:
    log_value = min(0.0, log_value)
    return BoundResult(
        value=min(1.0, math.exp(log_value)),
        log_value=log_value,
        method=method,
        certified=certified,
        cite=cite,
        params_used=params or {},
    )


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_GOLDEN_ITER = 200
_BRACKET_TOL = 1e-12
_ENDPOINT_SHRINK = 1e-9


def _golden_min(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section minimum of a convex scalar function on [lo, hi]."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(_MAX_GOLDEN_ITER):
        if b - a < _BRACKET_TOL * max(1.0, abs(a) + abs(b)):
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


def chernoff_upper(mgf: LogMgfSpec, x: float, side: Side = Side.UPPER) -> BoundResult:
    """inf over feasible t of exp(log phi(t) - t x), the Chernoff bound.

    Upper optimizes t >= 0; Lower mirrors the domain and optimizes t <= 0 for
    P(X <= -x).  Always certified.
    """
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"threshold must be >= 0, got {x}")
    side = Side(side)
    if side is Side.UPPER:
        sup = mgf.domain.hi
        logphi = mgf.eval
    else:
        sup = -mgf.domain.lo
        logphi = lambda t: mgf.eval(-t)  # noqa: E731

    if sup <= 0.0:
        return result_from_log(0.0, "chernoff", True, "chernoff",
                               {"t_star": 0.0, "note": "degenerate domain"})

    def objective(t: float) -> float:
        return float(logphi(t)) - t * x

    # cap an open endpoint just inside the domain; grow the bracket otherwise
    if math.isfinite(sup):
        hi = sup * (1.0 - _ENDPOINT_SHRINK)
    else:
        hi = 1.0
        prev = objective(hi)
        for _ in range(80):
            cand = objective(2.0 * hi)
            if cand >= prev:
                break
            hi *= 2.0
            prev = cand
        hi *= 2.0
    t_star, f_star = _golden_min(objective, 0.0, hi)
    f_star = min(f_star, objective(0.0))
    if objective(0.0) <= f_star:
        t_star, f_star = 0.0, objective(0.0)
    return result_from_log(f_star, "chernoff", True, "chernoff",
                           {"t_star": t_star, "side": side.value})


def sandwich_upper(s: MgfSandwich, x: float) -> BoundResult:
    """C2 exp(-x^2/(4 C1 a)) for x <= 2 C1 M a; boundary Chernoff value beyond."""
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"threshold must be >= 0, got {x}")
    knot = 2.0 * s.C1 * s.M * s.alpha
    if x <= knot:
        log_value = math.log(s.C2) - x * x / (4.0 * s.C1 * s.alpha)
        branch = "quadratic"
    else:
        log_value = math.log(s.C2) + s.C1 * s.alpha * s.M * s.M - s.M * x
        branch = "boundary"
    return result_from_log(log_value, "sandwich", True, "sub_gaussian_chernoff",
                           {"branch": branch, "knot": knot})


def weighted_sum_upper(s: MgfSandwich, u: WeightVector, x: float) -> BoundResult:
    """Two-regime bound for X = sum u_i Z_i with each Z_i satisfying the sandwich.

    exp(-x^2 / (4 C1 a |u|_2^2)) up to x = 2 M C1 a |u|_2^2 / |u|_inf, then
    exp(-M x / (2 |u|_inf)); a C2 prefactor per summand keeps the Chernoff
    chain valid when C2 > 1.
    """
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"threshold must be >= 0, got {x}")
    n = len(u)
    log_pref = n * math.log(s.C2)
    knot = 2.0 * s.M * s.C1 * s.alpha * u.l2_sq / u.linf
    if x <= knot:
        log_value = log_pref - x * x / (4.0 * s.C1 * s.alpha * u.l2_sq)
        branch = "quadratic"
    else:
        log_value = log_pref - s.M * x / (2.0 * u.linf)
        branch = "linear"
    return result_from_log(log_value, "weighted_sum", True, "bernstein_chernoff",
                           {"branch": branch, "knot": knot})
