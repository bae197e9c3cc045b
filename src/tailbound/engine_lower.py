"""Lower-bound engines: Paley-Zygmund, reverse Chernoff, and sum composition.

Each engine returns a certificate: a value that is a true lower bound on the
tail for *every* feasible parameter choice, so the searches below only have
to find a good feasible point, never a global optimum.  When no feasible
point yields a positive value the result is 0 with certified=False.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dist_model import LogMgfSpec, Side
from .engine_upper import (
    _ENDPOINT_SHRINK, BoundResult, MgfSandwich, _mirrored, _no_certificate, chernoff_upper,
    result_from_log,
)
from .errors import DomainError
from .specfun import _golden_min


@dataclass(frozen=True)
class ReverseChernoffParams:
    t: float
    t_prime: float
    theta: float
    delta: float

    def __post_init__(self):
        if not (self.t >= self.t_prime >= 0.0 and self.t > 0.0):
            raise DomainError(f"need t >= t' >= 0 with t > 0, got t={self.t}, t'={self.t_prime}")
        if not (self.theta > 1.0 and self.delta > 1.0):
            raise DomainError(f"need theta, delta > 1, got {self.theta}, {self.delta}")


@dataclass(frozen=True)
class PzConstants:
    """Certified statement: P(X >= x) >= c * exp(-C x^2 / alpha) for 0 <= x <= x_max."""

    c: float
    C: float
    x_max: float


@dataclass(frozen=True)
class TailLowerFn:
    """A pointwise lower bound x -> P(Y >= x), valid for x >= valid_from."""

    f: Callable[[float], float]
    valid_from: float
    params: dict = field(default_factory=dict)


_PZ_LAM_LO, _PZ_LAM_HI = 1e-3, 20.0  # (1 - e^-20)^2 is 4e-9 below 1


def pz_lower(s: MgfSandwich, x: float, lam: float | None = None) -> BoundResult:
    """Paley-Zygmund lower bound on P(X >= x) from an MGF sandwich.

    For each lam > 0 the tightest admissible t is the root of
    c1 a t - (lam + log(1/c2))/t = x, feasible when t <= M/2; the certified
    value is (1-e^-lam)^2 (c2^2/C2) exp(-2(2C1-c1) a t^2).  lam can be forced,
    otherwise a golden-section search maximizes the value over
    [1e-3, min(20, lam_M)], run until its bracket collapses.  t grows with lam
    and reaches M/2 at lam_M = (M/2)(c1 a M/2 - x) - log(1/c2), so there is no
    certificate when t(1e-3) > M/2.
    """
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"threshold must be >= 0, got {x}")
    if lam is not None and not lam > 0.0:
        raise DomainError(f"lam must be > 0, got {lam}")
    log_inv_c2, four_ca, two_ca = math.log(1.0 / s.c2), 4.0 * s.c1 * s.alpha, 2.0 * s.c1 * s.alpha
    log_c2_sq, log_C2 = 2.0 * math.log(s.c2), math.log(s.C2)
    decay = 2.0 * (2.0 * s.C1 - s.c1) * s.alpha

    def t_root(v: float) -> float:
        return (x + math.sqrt(x * x + four_ca * (v + log_inv_c2))) / two_ca

    def log_value(v: float) -> float:
        t = t_root(v)
        if t > 0.5 * s.M:
            return -math.inf
        return 2.0 * math.log(-math.expm1(-v)) + log_c2_sq - log_C2 - decay * t * t

    if lam is None:
        infeasible = {"feasible": False}
        lv = log_value(_PZ_LAM_LO)
        if lv > -math.inf:
            lam_m = (math.inf if s.M == math.inf
                     else 0.5 * s.M * (0.5 * s.c1 * s.alpha * s.M - x) - log_inv_c2)
            hi = max(_PZ_LAM_LO, min(_PZ_LAM_HI, lam_m))
            lam, neg_lv = _golden_min(lambda v: -log_value(v), _PZ_LAM_LO, hi, 0.0)
            lv = -neg_lv
    else:
        lv = log_value(lam)
        infeasible = {"feasible": False, "lam": lam}
    if lv == -math.inf:
        return _no_certificate("pz", "paley_zygmund", infeasible)
    return result_from_log(lv, "pz", True, "paley_zygmund", {"t": t_root(lam), "lam": lam})


def pz_paper_constants(s: MgfSandwich, c_small_sq: float | None = None) -> PzConstants:
    """Uniform Paley-Zygmund constants (c, C, x_max) for the sandwich.

    Scenario 1 needs alpha M^2 >= 16 (1 + log(1/c2)) / c1.  Scenario 2 needs
    c2 = 1 and a caller-supplied floor c'' with alpha M^2 >= c''; it fixes
    lam = c1 c'' / 16.  No default c'' is imposed.
    """
    C = 8.0 * (2.0 * s.C1 - s.c1) / (s.c1 * s.c1)
    x_max = s.c1 * s.alpha * s.M / 4.0
    am2 = s.alpha * s.M * s.M
    log_inv_c2 = math.log(1.0 / s.c2)
    if am2 >= 16.0 * (1.0 + log_inv_c2) / s.c1:
        c_tilde = (1.0 - math.exp(-1.0)) ** 2 * s.c2 * s.c2 / s.C2
        c = c_tilde * math.exp(-C * s.c1 * (1.0 + log_inv_c2))
        return PzConstants(c=c, C=C, x_max=x_max)
    if s.c2 == 1.0 and c_small_sq is not None:
        if am2 < c_small_sq:
            raise DomainError(
                f"scenario 2 requires alpha*M^2 >= c'' = {c_small_sq}, got {am2}")
        lam = s.c1 * c_small_sq / 16.0
        c_tilde = (-math.expm1(-lam)) ** 2 / s.C2
        c = c_tilde * math.exp(-C * s.c1 * lam)
        return PzConstants(c=c, C=C, x_max=x_max)
    raise DomainError(
        "no scenario applies: need alpha*M^2 >= 16(1+log(1/c2))/c1 "
        f"(= {16.0 * (1.0 + log_inv_c2) / s.c1}, have {am2}), "
        "or c2 = 1 with a caller-supplied c''")


def pz_paper_bound(s: MgfSandwich, x: float, c_small_sq: float | None = None) -> BoundResult:
    """The uniform constants evaluated at one threshold: c exp(-C x^2 / alpha).

    Weaker than pz_lower (the engine optimizes per x, the constants do not)
    but certified on [0, x_max].
    """
    pc = pz_paper_constants(s, c_small_sq)
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"threshold must be >= 0, got {x}")
    if x > pc.x_max:
        return _no_certificate("pz_paper", "paley_zygmund", {"x_max": pc.x_max, "feasible": False})
    lv = math.log(pc.c) - pc.C * x * x / s.alpha
    return result_from_log(lv, "pz_paper", True, "paley_zygmund",
                           {"c": pc.c, "C": pc.C, "x_max": pc.x_max})


def evaluate_tail_lower(tail: TailLowerFn, x: float) -> BoundResult:
    """Evaluate a composed tail lower bound at one point as a BoundResult."""
    if math.isnan(x):
        raise DomainError(f"threshold must be a number, got {x}")
    if x < tail.valid_from:
        return _no_certificate("compose", "sum_composition",
                               {"valid_from": tail.valid_from, "feasible": False})
    v = max(0.0, float(tail.f(x)))
    lv = math.log(v) if v > 0.0 else -math.inf
    return BoundResult(min(1.0, v), min(0.0, lv), "compose", v > 0.0,
                       "sum_composition", dict(tail.params))


def reverse_chernoff_objective(
    mgf: LogMgfSpec, x: float, params: ReverseChernoffParams, side: Side = Side.UPPER,
) -> float:
    """The three-term reverse Chernoff objective at one feasible parameter point.

    phi(t) e^{-t d x} - phi(t theta) e^{-t d theta x} - e^{-(t d - t') x} phi(t - t');
    any feasible point makes this a valid lower bound on the tail.
    """
    if not x > 0.0:
        raise DomainError(f"reverse Chernoff needs x > 0, got {x}")
    side = Side(side)
    logphi, sup = _mirrored(mgf, side)
    t, tp, th, d = params.t, params.t_prime, params.theta, params.delta
    if not t * th < sup:
        raise DomainError(f"t*theta = {t * th} outside the MGF domain (sup = {sup})")
    l1 = float(logphi(t)) - t * d * x
    l2 = float(logphi(t * th)) - t * th * d * x
    l3 = -(t * d - tp) * x + float(logphi(t - tp))
    m = max(l1, l2, l3)
    if m == -math.inf:
        return 0.0
    bracket = math.fsum((math.exp(l1 - m), -math.exp(l2 - m), -math.exp(l3 - m)))
    try:
        return math.exp(m) * bracket
    except OverflowError:  # a term beyond the float range
        return math.copysign(math.inf, bracket) if bracket else 0.0


# The search runs over (log t, log(theta - 1)) alone: t' and delta have closed
# forms at each cell (see _rc_cells).
_RC_POINTS = 48                     # grid points per axis
_RC_ZOOMS = 4                       # re-grids over +-2 steps around the best cell
_RC_LOG_THETA_M1 = (-20.0, 30.0)    # log(theta - 1) range on an unbounded domain
_RC_T_REACH = 1000.0                # unbounded domain: t <= _RC_T_REACH * max(16 s1, 8)
_RC_ULPS = 16.0                     # rounding error per operand, in units of eps
_EPS = float(np.finfo(float).eps)


def _rc_cells(logphi, x: float, s1: float, cap: float, t: np.ndarray, th: np.ndarray):
    """Certified log value and delta of each (t, theta) cell; -inf where none.

    With psi(s) = log phi(s) - s x, the third term's ratio to the first is
    r3 = e^{psi(t - t') - psi(t)} for every delta, least at t - t' = s1, the
    Chernoff tilt, so t' = t - s1 and a cell with t <= s1 cannot certify.  With
    u = t theta the log certificate is concave in delta and largest where
    e^{log phi(u) - log phi(t) - (u - t) delta x} = t (1 - r3) / u; delta is
    that root, kept above 1.  Each exponent is moved against the certificate by
    _RC_ULPS ulps of the magnitudes of its operands, not of the cancelled
    difference, and a bracket that does not exceed its own rounding error is
    not a certificate.
    """
    u = np.multiply.outer(t, th)
    with np.errstate(all="ignore"):
        lp_s1 = float(logphi(s1))
        lp_t = np.asarray(logphi(t))[:, None]
        lp_u = np.asarray(logphi(np.minimum(u, cap).ravel())).reshape(u.shape)
        tc = t[:, None]
        log_r3 = (lp_s1 - s1 * x) - (lp_t - tc * x)
        root = (lp_u - lp_t - np.log1p(-np.exp(log_r3)) + np.log(th)) / ((u - tc) * x)
        delta = np.maximum(root, 1.0 + 1e-12)
        tdx, udx = tc * delta * x, u * delta * x
        l1 = lp_t - tdx
        ulps = _RC_ULPS * _EPS
        err1 = ulps * (np.abs(lp_t) + tdx)
        err2 = err1 + ulps * (np.abs(lp_u) + udx)
        err3 = ulps * (np.abs(lp_t) + tc * x + abs(lp_s1) + s1 * x)
        bracket = 1.0 - np.exp(lp_u - udx - l1 + err2) - np.exp(log_r3 + err3) - 4.0 * _EPS
        log_bracket = np.log(bracket)
        val = l1 - err1 + log_bracket - ulps * np.abs(log_bracket)
    ok = (tc > s1) & (u < cap) & (bracket > 0.0)
    return np.where(ok, val, -math.inf), delta


def reverse_chernoff_lower(mgf: LogMgfSpec, x: float, side: Side = Side.UPPER) -> BoundResult:
    """Best reverse Chernoff certificate over (t, theta), t' and delta in closed form.

    Every positive value is a certified lower bound because the inequality
    holds for all feasible (t, t', theta, delta); global optimality is not
    needed and not claimed.  The grid over (log t, log(theta - 1)) is
    re-gridded _RC_ZOOMS times around its best cell.
    """
    if x <= 0.0 or math.isnan(x):
        raise DomainError(f"reverse Chernoff needs x > 0, got {x}")
    side = Side(side)
    logphi, sup = _mirrored(mgf, side)
    if sup <= 0.0:
        raise DomainError("MGF domain has no positive part on the requested side")

    s1 = chernoff_upper(mgf, x, side).params_used["t_star"]
    bounded = math.isfinite(sup)
    cap = sup * (1.0 - _ENDPOINT_SHRINK) if bounded else math.inf  # t theta < cap
    t_hi = cap if bounded else _RC_T_REACH * max(16.0 * s1, 8.0)
    best = (-math.inf,)
    # t must lie in (s1, t_hi); s1 = 0 where the Chernoff search saw no slope at x
    if 0.0 < s1 < t_hi:
        h_hi = math.log(cap / s1 - 1.0) if bounded else _RC_LOG_THETA_M1[1]
        box = [(math.log(s1), math.log(t_hi)), (_RC_LOG_THETA_M1[0], h_hi)]
        for _ in range(_RC_ZOOMS + 1):
            gt, gh = (np.linspace(lo, hi, _RC_POINTS) for lo, hi in box)
            t, th = np.exp(gt), 1.0 + np.exp(gh)
            vals, deltas = _rc_cells(logphi, x, s1, cap, t, th)
            i, j = np.unravel_index(np.argmax(vals), vals.shape)
            if vals[i, j] == -math.inf:
                break
            if vals[i, j] > best[0]:
                best = (float(vals[i, j]), float(t[i]), float(th[j]), float(deltas[i, j]))
            box = [(g[max(k - 2, 0)], g[min(k + 2, _RC_POINTS - 1)])
                   for g, k in ((gt, i), (gh, j))]
    if best[0] == -math.inf:
        return _no_certificate("reverse_chernoff", "reverse_chernoff",
                               {"feasible": False, "side": side.value})
    log_value, t, th, d = best
    return result_from_log(
        log_value, "reverse_chernoff", True, "reverse_chernoff",
        {"t": t, "t_prime": t - s1, "theta": th, "delta": d, "side": side.value},
    )


def compose_sum_lower(tail: TailLowerFn, w: float, C1: float, M: float, alpha: float) -> TailLowerFn:
    """Lower bound for X = Y + Z from a lower bound on Y's tail.

    Returns x -> (1 - exp(-min(w^2/(16 C1), M w / 4) alpha)) * tail.f(2x),
    valid from w*alpha/2.  The exponent uses w^2/(16 C1); the weaker
    w^2/(16 C1^2) variant from the companion statement is recorded only.
    """
    if not (w > 0.0 and C1 > 0.0 and M > 0.0 and alpha > 0.0):
        raise DomainError("compose_sum_lower needs positive w, C1, M, alpha")
    if tail.valid_from > w * alpha:
        raise DomainError(
            f"input tail only valid from {tail.valid_from}, need w*alpha = {w * alpha}")
    exponent = min(w * w / (16.0 * C1), M * w / 4.0) * alpha
    prefactor = -math.expm1(-exponent)
    inner = tail.f

    def f(x: float) -> float:
        return prefactor * inner(2.0 * x)

    return TailLowerFn(
        f=f,
        valid_from=w * alpha / 2.0,
        params={
            "prefactor": prefactor,
            "exponent_used": "min(w^2/(16*C1), M*w/4)*alpha",
            "statement_variant": "min(w^2/(16*C1^2), M*w/4)*alpha",
        },
    )


def mgf_sandwich_from_tails(c2t: float, C2t: float, c3t: float, C3t: float) -> MgfSandwich:
    """Convert tail constants into a pure-exponential MGF sandwich.

    Input statements, for all x >= 0:
      P(Z >= x)  >= c2t exp(-C2t x^2)      (lower tail constant pair)
      P(|Z| >= x) <= C3t exp(-c3t x^2)     (upper tail constant pair)
    Output: exp(c1 t^2) <= E exp(tZ) <= exp(C1 t^2) for all t >= 0.
    """
    if not all(v > 0.0 for v in (c2t, C2t, c3t, C3t)):
        raise DomainError("tail constants must all be positive")
    c4 = 2.0 * max(1.0, 0.5 * C3t) / math.sqrt(2.0 * c3t)
    c5 = math.e * c4
    C1 = max(2.0 * c5 * c5, 4.0 * c5 * c5 + math.e * c4 * c4)
    if c2t >= 1.0:
        c1 = 1.0 / (4.0 * C2t)
    else:
        u = 4.0 * c2t * math.exp(-C2t) * C2t * math.log(1.0 / c2t)
        cbar = math.log1p(u) / u
        c1 = min(1.0 / (8.0 * C2t), cbar * c2t * math.exp(-C2t) / 2.0)
    return MgfSandwich(c1=c1, C1=C1, c2=1.0, C2=1.0, alpha=1.0, M=math.inf)
