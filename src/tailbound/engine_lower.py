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
from .engine_upper import BoundResult, MgfSandwich, chernoff_upper, result_from_log
from .errors import DomainError


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


_PZ_LAM_LO = 1e-3
_PZ_LAM_HI = 20.0  # beyond this (1 - e^-lam)^2 is within 4e-9 of 1


def _pz_t_root(s: MgfSandwich, x: float, lam: float) -> float:
    """Smallest t with c1 a t - (lam + log(1/c2)) / t = x (the binding threshold)."""
    shift = lam + math.log(1.0 / s.c2)
    return (x + math.sqrt(x * x + 4.0 * s.c1 * s.alpha * shift)) / (2.0 * s.c1 * s.alpha)


def _pz_log_value(s: MgfSandwich, t: float, lam: float) -> float:
    return (
        2.0 * math.log(-math.expm1(-lam))
        + 2.0 * math.log(s.c2) - math.log(s.C2)
        - 2.0 * (2.0 * s.C1 - s.c1) * s.alpha * t * t
    )


def pz_lower(s: MgfSandwich, x: float, lam: float | None = None) -> BoundResult:
    """Paley-Zygmund lower bound on P(X >= x) from an MGF sandwich.

    For each lam the tightest admissible t is the root of
    c1 a t - (lam + log(1/c2))/t = x, feasible when t <= M/2; the certified
    value is (1-e^-lam)^2 (c2^2/C2) exp(-2(2C1-c1) a t^2).  lam can be forced,
    otherwise it is optimized over [1e-3, 20].
    """
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"threshold must be >= 0, got {x}")

    def candidate(lam_val: float):
        t = _pz_t_root(s, x, lam_val)
        if t > 0.5 * s.M:
            return None
        return _pz_log_value(s, t, lam_val), t

    if lam is not None:
        got = candidate(lam)
        if got is None:
            return BoundResult(0.0, -math.inf, "pz", False, "paley_zygmund",
                               {"feasible": False, "lam": lam})
        lv, t = got
        return result_from_log(lv, "pz", True, "paley_zygmund", {"t": t, "lam": lam})

    lams = np.geomspace(_PZ_LAM_LO, _PZ_LAM_HI, 200)
    best = None
    best_i = -1
    for i, lv_lam in enumerate(lams):
        got = candidate(float(lv_lam))
        if got is None:
            continue
        if best is None or got[0] > best[0]:
            best = (got[0], got[1], float(lv_lam))
            best_i = i
    if best is None:
        return BoundResult(0.0, -math.inf, "pz", False, "paley_zygmund", {"feasible": False})

    # golden refinement of lam inside the best grid cell
    lo = float(lams[max(0, best_i - 1)])
    hi = float(lams[min(len(lams) - 1, best_i + 1)])
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    for _ in range(80):
        m1 = b - phi * (b - a)
        m2 = a + phi * (b - a)
        g1 = candidate(m1)
        g2 = candidate(m2)
        v1 = g1[0] if g1 else -math.inf
        v2 = g2[0] if g2 else -math.inf
        if v1 >= v2:
            b = m2
        else:
            a = m1
    for lam_ref in (0.5 * (a + b),):
        got = candidate(lam_ref)
        if got and got[0] > best[0]:
            best = (got[0], got[1], lam_ref)
    return result_from_log(best[0], "pz", True, "paley_zygmund",
                           {"t": best[1], "lam": best[2]})


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
        return BoundResult(0.0, -math.inf, "pz_paper", False, "paley_zygmund",
                           {"x_max": pc.x_max, "feasible": False})
    lv = math.log(pc.c) - pc.C * x * x / s.alpha
    return result_from_log(lv, "pz_paper", True, "paley_zygmund",
                           {"c": pc.c, "C": pc.C, "x_max": pc.x_max})


def evaluate_tail_lower(tail: TailLowerFn, x: float, certified: bool = True) -> BoundResult:
    """Evaluate a composed tail lower bound at one point as a BoundResult."""
    if x < tail.valid_from:
        return BoundResult(0.0, -math.inf, "compose", False, "sum_composition",
                           {"valid_from": tail.valid_from, "feasible": False})
    v = max(0.0, float(tail.f(x)))
    lv = math.log(v) if v > 0.0 else -math.inf
    return BoundResult(min(1.0, v), min(0.0, lv), "compose", certified and v > 0.0,
                       "sum_composition", dict(tail.params))


def _mirrored(mgf: LogMgfSpec, side: Side):
    """(logphi, sup_T) for the requested tail; Lower works on phi(-t)."""
    if side is Side.UPPER:
        return mgf.eval, mgf.domain.hi
    return (lambda t: mgf.eval(np.negative(t))), -mgf.domain.lo


def reverse_chernoff_objective(
    mgf: LogMgfSpec, x: float, params: ReverseChernoffParams, side: Side = Side.UPPER,
) -> float:
    """The three-term reverse Chernoff objective at one feasible parameter point.

    phi(t) e^{-t d x} - phi(t theta) e^{-t d theta x} - e^{-(t d - t') x} phi(t - t');
    any feasible point makes this a valid lower bound on the tail.
    """
    if x <= 0.0:
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
    return math.exp(m) * math.fsum(
        (math.exp(l1 - m), -math.exp(l2 - m), -math.exp(l3 - m)))


_RC_T_POINTS = 40
_RC_THETAS = np.arange(1.05, 4.0001, 0.05)
_RC_DELTAS = 1.0 + np.geomspace(0.02, 9.0, 20)
_RC_TP_FRACS = np.array([1.0, 0.5, 0.0])  # t' = t is the fast path


def _rc_grid_best(logphi, sup: float, x: float, t_cap: float):
    """Vectorized sweep of the (t, theta, delta, t') grid; returns the best cell."""
    t = np.geomspace(1e-3, t_cap, _RC_T_POINTS)
    th = _RC_THETAS
    d = _RC_DELTAS
    f = _RC_TP_FRACS

    lp_t = np.asarray(logphi(t))                      # (T,)
    tt = np.multiply.outer(t, th)                     # (T, H)
    with np.errstate(all="ignore"):
        lp_tt = np.where(tt < sup, np.asarray(logphi(np.minimum(tt, sup * (1 - 1e-12)))), np.inf)
        lp_res = np.asarray(logphi(np.multiply.outer(t, 1.0 - f)))    # (T, F)

    # exponents: l1[i,k] = lp(t_i) - t_i d_k x ; l2[i,j,k] adds theta_j ; l3[i,k,m] uses t' = f_m t_i
    td = np.multiply.outer(t, d) * x                  # (T, D)
    l1 = lp_t[:, None] - td                           # (T, D)
    l2 = lp_tt[:, :, None] - np.einsum("ij,k->ijk", tt, d) * x                           # (T, H, D)
    l3 = -(td[:, :, None] - np.multiply.outer(t, f)[:, None, :] * x) + lp_res[:, None, :]  # (T, D, F)

    with np.errstate(all="ignore"):
        a = np.exp(np.minimum(l2[:, :, :, None] - l1[:, None, :, None], 700.0))  # (T,H,D,F)
        b = np.exp(np.minimum(l3[:, None, :, :] - l1[:, None, :, None], 700.0))
        bracket = 1.0 - a - b
        val_log = np.where(bracket > 0.0,
                           l1[:, None, :, None] + np.log(np.maximum(bracket, 1e-300)),
                           -np.inf)
    idx = np.unravel_index(np.argmax(val_log), val_log.shape)
    best_log = float(val_log[idx])
    if best_log == -math.inf:
        return None
    i, j, k, m = idx
    return best_log, float(t[i]), float(th[j]), float(d[k]), float(f[m])


def _nelder_mead(fun, x0: np.ndarray, step: float = 0.2, iters: int = 200) -> np.ndarray:
    """Minimal Nelder-Mead; fun may return +inf for infeasible points."""
    n = len(x0)
    simplex = [np.array(x0, dtype=float)]
    for i in range(n):
        p = np.array(x0, dtype=float)
        p[i] += step
        simplex.append(p)
    vals = [fun(p) for p in simplex]
    for _ in range(iters):
        order = np.argsort(vals)
        simplex = [simplex[i] for i in order]
        vals = [vals[i] for i in order]
        centroid = np.mean(simplex[:-1], axis=0)
        xr = centroid + (centroid - simplex[-1])
        fr = fun(xr)
        if fr < vals[0]:
            xe = centroid + 2.0 * (centroid - simplex[-1])
            fe = fun(xe)
            simplex[-1], vals[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < vals[-2]:
            simplex[-1], vals[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (simplex[-1] - centroid)
            fc = fun(xc)
            if fc < vals[-1]:
                simplex[-1], vals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    vals[i] = fun(simplex[i])
    best = int(np.argmin(vals))
    return simplex[best]


def reverse_chernoff_lower(
    mgf: LogMgfSpec,
    x: float,
    side: Side = Side.UPPER,
    init: ReverseChernoffParams | None = None,
) -> BoundResult:
    """Best reverse Chernoff certificate found by grid sweep plus refinement.

    Every positive value is a certified lower bound because the inequality
    holds for all feasible (t, t', theta, delta); global optimality is not
    needed and not claimed.
    """
    if x <= 0.0 or math.isnan(x):
        raise DomainError(f"reverse Chernoff needs x > 0, got {x}")
    side = Side(side)
    logphi, sup = _mirrored(mgf, side)
    if sup <= 0.0:
        raise DomainError("MGF domain has no positive part on the requested side")

    if math.isfinite(sup):
        t_cap = 0.99 * sup
    else:
        ch = chernoff_upper(mgf, x, side)
        t_star = abs(ch.params_used.get("t_star", 1.0))
        t_cap = max(4.0 * t_star, 2.0)

    found = _rc_grid_best(logphi, sup, x, t_cap)
    candidates = []
    if found is not None:
        candidates.append(found)
    if init is not None:
        frac = 0.0 if init.t == 0 else init.t_prime / init.t
        try:
            v = reverse_chernoff_objective(mgf, x, init, side)
            if v > 0.0:
                candidates.append((math.log(v), init.t, init.theta, init.delta, frac))
        except DomainError:
            pass
    if not candidates:
        return BoundResult(0.0, -math.inf, "reverse_chernoff", False, "reverse_chernoff",
                           {"feasible": False, "side": side.value})

    best_log, t0, th0, d0, f0 = max(candidates, key=lambda c: c[0])

    def neg_obj(z: np.ndarray) -> float:
        t = math.exp(z[0])
        th = 1.0 + math.exp(z[1])
        d = 1.0 + math.exp(z[2])
        if not (0.0 < t and t * th < sup):
            return math.inf
        tp = f0 * t
        l1 = float(logphi(t)) - t * d * x
        l2 = float(logphi(t * th)) - t * th * d * x
        l3 = -(t * d - tp) * x + float(logphi(t - tp))
        if l2 >= l1 or l3 >= l1:
            return math.inf
        bracket = -math.expm1(l2 - l1) - math.exp(l3 - l1)
        if bracket <= 0.0:
            return math.inf
        return -(l1 + math.log(bracket))

    z0 = np.array([math.log(t0), math.log(max(th0 - 1.0, 1e-12)), math.log(max(d0 - 1.0, 1e-12))])
    z_best = _nelder_mead(neg_obj, z0)
    refined = -neg_obj(z_best)
    if refined > best_log:
        best_log = refined
        t0 = math.exp(z_best[0])
        th0 = 1.0 + math.exp(z_best[1])
        d0 = 1.0 + math.exp(z_best[2])

    return result_from_log(
        best_log, "reverse_chernoff", True, "reverse_chernoff",
        {"t": t0, "t_prime": f0 * t0, "theta": th0, "delta": d0, "side": side.value},
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
