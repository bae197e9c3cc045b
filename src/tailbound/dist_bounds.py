"""Per-family closed-form upper bounds and certified or rate-form lower bounds.

Three tiers of lower bound are served:

* closed_form_certified: explicit formulas and exact boundary/zero values
  (small-shape gamma bracket, discrete boundary cases, support edges);
* numeric_certified: a certificate produced by the lower-bound engines
  (reverse Chernoff on the exact MGF, Paley-Zygmund on the family sandwich,
  the dedicated binomial construction, or the beta-as-two-gammas split);
  always a true lower bound on the exact tail;
* rate_form: the shape of the matching-rate statements whose constants are
  only known to exist; evaluated with caller-supplied (c, C), never certified.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import oracle, specfun
from .dist_model import (
    Beta, Binomial, ChiSq, DistSpec, Gamma, IrwinHall, NoncentralChiSq,
    Normal, Poisson, RademacherSum, Side, WeightedChiSq,
    family_name, log_mgf, mean_shift, variance,
)
from .engine_lower import pz_lower, reverse_chernoff_lower
from .engine_upper import BoundResult, MgfSandwich, result_from_log
from .errors import DomainError, UnsupportedFamilyError, WindowError


class Tier(str, enum.Enum):
    CLOSED_FORM = "closed_form_certified"
    NUMERIC = "numeric_certified"
    RATE = "rate_form"


@dataclass(frozen=True)
class BoundTier:
    """Requested tier; (c_default, C_default) only matter for rate forms."""

    tier: Tier
    c_default: float = 1.0
    C_default: float = 1.0


CLOSED_FORM = BoundTier(Tier.CLOSED_FORM)
NUMERIC = BoundTier(Tier.NUMERIC)
RATE = BoundTier(Tier.RATE)


def bennett_rate(lam: float, u: float) -> float:
    """lam * ((1+u) log(1+u) - u), the Poisson large-deviation exponent.

    Equals (x^2 / 2 lam) * psi_bennett(x/lam) at u = x/lam; the limit value 1
    is used at u = -1 so the support edge is included.
    """
    if u == -1.0:
        return lam
    return lam * ((1.0 + u) * math.log1p(u) - u)


# ---------------------------------------------------------------------------
# family MGF sandwiches (Taylor control of the cumulant, per-side)
# ---------------------------------------------------------------------------

_IH_C1_LOW = math.log(math.cosh(0.25))  # inf of log cosh(t/4) / t^2 on (0, 1]
_RAD_C1_LOW = math.log(math.cosh(1.0))  # inf of log cosh(t) / t^2 on (0, 1]


def _per_side(side: Side, upper: tuple, lower: tuple) -> MgfSandwich:
    return MgfSandwich(*(upper if side is Side.UPPER else lower))


def _chisq_like_sandwich(alpha: float, side: Side, linf: float = 1.0) -> MgfSandwich:
    """Chi-square cumulant control, for summands scaled by at most ``linf``."""
    return _per_side(side, (1.0, 5.0, 1.0, 1.0, alpha, 0.4 / linf),
                     (2.0 / 3.0, 1.0, 1.0, 1.0, alpha, 0.25 / linf))


# ---------------------------------------------------------------------------
# exact special regions: support zeros and discrete boundary values
# ---------------------------------------------------------------------------


def _zero_result(cite: str) -> BoundResult:
    return BoundResult(0.0, -math.inf, "closed_form", True, cite, {"region": "zero_tail"})


def _none(spec, side: Side, x: float) -> None:
    return None


def _lower_zero_from(cite: str, edge):
    """Special region of a family whose lower tail is 0 once x >= edge(spec)."""
    return lambda s, side, x: _zero_result(cite) if side is Side.LOWER and x >= edge(s) else None


def _beta_region(spec: Beta, side: Side, x: float) -> BoundResult | None:
    mu = spec.alpha / (spec.alpha + spec.beta)
    edge = 1.0 - mu if side is Side.UPPER else mu
    return _zero_result("beta_support") if x > edge else None


def _binomial_region(spec: Binomial, side: Side, x: float) -> BoundResult | None:
    k, p = spec.k, spec.p
    if side is Side.UPPER:
        if x > k * (1.0 - p):
            return _zero_result("binomial_support")
        if k * p + x < 1.0:
            v, lv = oracle.binom_at_least_one(k, p)
            return BoundResult(v, lv, "boundary_exact", True, "binomial_boundary",
                               {"formula": "1-(1-p)^k"})
    else:
        if x > k * p:
            return _zero_result("binomial_support")
        if k * (1.0 - p) + x < 1.0:
            v, lv = oracle.binom_at_least_one(k, 1.0 - p)
            return BoundResult(v, lv, "boundary_exact", True, "binomial_boundary",
                               {"formula": "1-p^k"})
    return None


def _poisson_region(spec: Poisson, side: Side, x: float) -> BoundResult | None:
    if side is Side.UPPER and spec.lam + x < 1.0:
        v = -math.expm1(-spec.lam)
        lv = math.log1p(-math.exp(-spec.lam))
        return BoundResult(v, lv, "boundary_exact", True, "poisson_boundary",
                           {"formula": "1-exp(-lambda)"})
    if side is Side.LOWER and x > spec.lam:
        return _zero_result("poisson_support")
    return None


# ---------------------------------------------------------------------------
# closed-form upper bounds
# ---------------------------------------------------------------------------


def _closed(log_value: float, cite: str, params: dict | None = None) -> BoundResult:
    return result_from_log(log_value, "closed_form", True, cite, params)


def _gamma_upper(spec: Gamma, side: Side, x: float, tier) -> BoundResult:
    a = spec.alpha
    if side is Side.UPPER:
        lv = -x * x / (x + a + math.sqrt(a * a + 2.0 * x * a))
    else:
        lv = -x * x / (2.0 * a)
    return _closed(lv, "sub_gamma")


def _chisq_upper(spec: ChiSq, side: Side, x: float, tier) -> BoundResult:
    k = float(spec.k)
    if side is Side.UPPER:
        lv = -x * x / (2.0 * (k + x) + 2.0 * math.sqrt(k * k + 2.0 * k * x))
    else:
        lv = -x * x / (4.0 * k)
    return _closed(lv, "laurent_massart")


def _weighted_chisq_upper(spec: WeightedChiSq, side: Side, x: float, tier) -> BoundResult:
    u = spec.u
    if side is Side.UPPER:
        root = (math.sqrt(u.l2_sq + 2.0 * u.linf * x) - math.sqrt(u.l2_sq)) / (2.0 * u.linf)
        lv = -root * root
    else:
        lv = -x * x / (4.0 * u.l2_sq)
    return _closed(lv, "laurent_massart")


def _nc_chisq_upper(spec: NoncentralChiSq, side: Side, x: float, tier) -> BoundResult:
    a = spec.k + 2.0 * spec.lam
    if side is Side.UPPER:
        root = 0.5 * (math.sqrt(a + 2.0 * x) - math.sqrt(a))
        lv = -root * root
    else:
        lv = -x * x / (4.0 * a)
    return _closed(lv, "birge_noncentral")


def _beta_regime_rate(a: float, b: float, x: float, side: Side) -> tuple[float, str]:
    """Rate expression of the two-regime beta bound for the requested tail."""
    if side is Side.LOWER:
        a, b = b, a  # left tail of Beta(a,b) is the right tail of Beta(b,a)
    if b > a:
        return min(b * b * x * x / a, b * x), "min(b^2 x^2/a, b x)"
    return a * a * x * x / b, "a^2 x^2 / b"


def _require_beta_bound_params(spec: Beta):
    if spec.alpha < 1.0 or spec.beta < 1.0:
        raise DomainError(
            f"beta bound routines need alpha, beta >= 1, got ({spec.alpha}, {spec.beta})")


def _beta_upper(spec: Beta, side: Side, x: float, tier) -> BoundResult:
    """The always-valid sub-Gaussian form, or with a rate-form tier the
    two-regime shape with the tier's decay constant."""
    _require_beta_bound_params(spec)
    if tier is not None and tier.tier is Tier.RATE:
        rate, desc = _beta_regime_rate(spec.alpha, spec.beta, x, side)
        lv = math.log(2.0) - tier.C_default * rate
        return result_from_log(lv, "rate_form", False, "beta_regime_rate",
                               {"rate": desc, "C": tier.C_default})
    return _closed(-2.0 * (spec.alpha + spec.beta + 1.0) * x * x, "beta_subgaussian")


def _binomial_upper(spec: Binomial, side: Side, x: float, tier) -> BoundResult:
    k, p = spec.k, spec.p
    v = p + x / k if side is Side.UPPER else p - x / k
    return _closed(-k * specfun.bernoulli_kl(p, min(1.0, max(0.0, v))), "kl_chernoff")


def _poisson_upper(spec: Poisson, side: Side, x: float, tier) -> BoundResult:
    u = x / spec.lam if side is Side.UPPER else -x / spec.lam
    return _closed(-bennett_rate(spec.lam, u), "bennett")


def _irwin_hall_upper(spec: IrwinHall, side: Side, x: float, tier) -> BoundResult:
    k = spec.k
    return _closed(-k * specfun.bernoulli_kl(0.5, 0.5 + x / k), "kl_chernoff_symmetric",
                   {"relaxed_exponent": -x * x / k})


# ---------------------------------------------------------------------------
# closed-form lower bounds (small-shape gamma)
# ---------------------------------------------------------------------------


def _gamma_small_shape_lower(a: float, x: float, side: Side) -> BoundResult:
    """Explicit bracket lower ends for Gamma(a) with a < 1."""
    if side is Side.UPPER:
        # (1/e) ((a+x+1)^a - (a+x)^a) / (e^(a+x) Gamma(a+1))
        log_diff = a * math.log(a + x) + math.log(math.expm1(a * math.log1p(1.0 / (a + x))))
        lv = -1.0 + log_diff - (a + x) - math.lgamma(a + 1.0)
    else:
        if x >= a:
            return _zero_result("gamma_support")
        lv = a * math.log(a - x) - 1.0 - math.lgamma(a + 1.0)
    return result_from_log(lv, "closed_form", True, "gamma_small_shape")


def gamma_small_shape_upper_end(a: float, x: float) -> float:
    """Matching explicit upper end e/(e-1) * same kernel, for bracket checks."""
    log_diff = a * math.log(a + x) + math.log(math.expm1(a * math.log1p(1.0 / (a + x))))
    return math.exp(1.0 - math.log(math.e - 1.0) + log_diff - (a + x) - math.lgamma(a + 1.0))


def gamma_small_shape_left_upper_end(a: float, x: float) -> float:
    """Explicit left-tail upper end ((a-x) v 0)^a / Gamma(a+1)."""
    if x >= a:
        return 0.0
    return math.exp(a * math.log(a - x) - math.lgamma(a + 1.0))


# ---------------------------------------------------------------------------
# numeric-certified lower bounds
# ---------------------------------------------------------------------------


def _kl_np(u, v):
    return v * np.log(v / u) + (1.0 - v) * np.log((1.0 - v) / (1.0 - u))


def binomial_eq8_value(k: int, p: float, x: float, delta: float) -> float:
    """The dedicated binomial lower-bound construction at one delta.

    exp(-k h_p(p + d x/k)) * [1 - exp(-k h_m(p + d x/k)) - exp(-k h_m(p + x/k))]
    with m = p + d' x/k, d' = (1+d)/2.  Valid lower bound on P(X >= x) for any
    1 < d < k(1-p)/x; may be nonpositive (no certificate at that delta).
    """
    if not (0.0 < x < k * (1.0 - p)):
        raise DomainError(f"need 0 < x < k(1-p), got x={x}")
    if not (1.0 < delta < k * (1.0 - p) / x):
        raise DomainError(f"delta must lie in (1, k(1-p)/x), got {delta}")
    dp = 0.5 * (1.0 + delta)
    lead = -k * specfun.bernoulli_kl(p, p + delta * x / k)
    b1 = -k * specfun.bernoulli_kl(p + dp * x / k, p + delta * x / k)
    b2 = -k * specfun.bernoulli_kl(p + dp * x / k, p + x / k)
    return math.exp(lead) * (1.0 - math.exp(b1) - math.exp(b2))


def _binomial_infeasible() -> BoundResult:
    return BoundResult(0.0, -math.inf, "reverse_chernoff", False,
                       "binomial_reverse_chernoff", {"feasible": False})


def _binomial_eq8_lower(k: int, p: float, x: float) -> BoundResult:
    """Optimize the construction over delta on (1, k(1-p)/x)."""
    d_sup = k * (1.0 - p) / x
    if d_sup <= 1.0 + 1e-12:
        return _binomial_infeasible()
    d_hi = min(d_sup * (1.0 - 1e-9), 400.0)
    deltas = 1.0 + np.geomspace(1e-4 * (d_hi - 1.0), d_hi - 1.0, 240)
    dp = 0.5 * (1.0 + deltas)
    v_lead = p + deltas * x / k
    v_mid = p + dp * x / k
    v_one = p + x / k
    lead = -k * _kl_np(p, v_lead)
    b1 = -k * _kl_np(v_mid, v_lead)
    b2 = -k * _kl_np(v_mid, v_one)
    with np.errstate(over="ignore"):
        bracket = 1.0 - np.exp(b1) - np.exp(b2)
    ok = bracket > 0.0
    if not ok.any():
        return _binomial_infeasible()
    log_vals = np.where(ok, lead + np.log(np.where(ok, bracket, 1.0)), -np.inf)
    i = int(np.argmax(log_vals))

    def log_val(d: float) -> float:
        try:
            v = binomial_eq8_value(k, p, x, d)
        except DomainError:
            return -math.inf
        return math.log(v) if v > 0.0 else -math.inf

    lo = float(deltas[max(0, i - 1)])
    hi = float(deltas[min(len(deltas) - 1, i + 1)])
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    for _ in range(60):
        m1 = b - phi * (b - a)
        m2 = a + phi * (b - a)
        if log_val(m1) >= log_val(m2):
            b = m2
        else:
            a = m1
    best_d = 0.5 * (a + b)
    best_log = max(float(log_vals[i]), log_val(best_d))
    d_used = best_d if log_val(best_d) >= float(log_vals[i]) else float(deltas[i])
    return result_from_log(best_log, "reverse_chernoff", True, "binomial_reverse_chernoff",
                           {"delta": d_used, "delta_prime": 0.5 * (1.0 + d_used)})


def _binomial_probed_lower(k: int, p: float, x: float) -> BoundResult:
    """Best construction certificate at x or at any deeper probe threshold.

    The tail is non-increasing, so a certificate for P(X >= x') with x' >= x
    also lower-bounds P(X >= x); probing a fixed geometric grid of deeper
    thresholds rescues shallow x, where the construction itself is infeasible.
    """
    edge = k * (1.0 - p)
    if x >= edge:
        return _binomial_infeasible()
    probes = [x] + [float(v) for v in edge * np.geomspace(1e-3, 0.9, 24) if v > x]
    best = None
    for x_probe in probes:
        cand = _binomial_eq8_lower(k, p, x_probe)
        if cand.certified and (best is None or cand.log_value > best.log_value):
            best = BoundResult(cand.value, cand.log_value, cand.method, True,
                               cand.cite, dict(cand.params_used, threshold_used=x_probe))
    if best is None:
        return _binomial_infeasible()
    return best


def _beta_split_lower(spec: Beta, side: Side, x: float) -> BoundResult:
    """P(Z >= mu + x) >= P(R1 >= a + y) P(R2 <= b - y) for gammas R1, R2, y >= (a+b)x."""
    _require_beta_bound_params(spec)
    a, b = (spec.alpha, spec.beta) if side is Side.UPPER else (spec.beta, spec.alpha)
    y0 = (a + b) * x
    if y0 >= b:
        return BoundResult(0.0, -math.inf, "beta_gamma_split", False,
                           "beta_gamma_split", {"feasible": False})
    best = (-math.inf, y0)
    for y in np.linspace(y0, y0 + (b - y0) * 0.999, 80):
        l1 = specfun.log_reg_inc_gamma_upper(a, a + y)
        l2 = specfun.log_reg_inc_gamma_lower(b, b - y) if y < b else -math.inf
        lv = l1 + l2
        if lv > best[0]:
            best = (lv, float(y))
    if best[0] == -math.inf:
        return BoundResult(0.0, -math.inf, "beta_gamma_split", False,
                           "beta_gamma_split", {"feasible": False})
    return result_from_log(best[0], "beta_gamma_split", True, "beta_gamma_split",
                           {"y": best[1]})


def _engine_lower(spec: DistSpec, side: Side, x: float) -> BoundResult:
    """Best certificate of the reverse Chernoff and Paley-Zygmund engines."""
    candidates = []
    scale = math.sqrt(variance(spec))
    x_eff = max(x, 1e-9 * max(1.0, scale))
    try:
        candidates.append(reverse_chernoff_lower(log_mgf(spec), x_eff, side))
    except (UnsupportedFamilyError, DomainError):
        pass
    try:
        candidates.append(pz_lower(mgf_sandwich(spec, side), x))
    except (UnsupportedFamilyError, DomainError):
        pass
    certified = [c for c in candidates if c.certified]
    if certified:
        return max(certified, key=lambda r: r.log_value)
    if candidates:
        return candidates[0]
    raise UnsupportedFamilyError(f"no numeric lower bound route for {spec!r}")


# ---------------------------------------------------------------------------
# rate forms: (rate value, rate description, window description)
# ---------------------------------------------------------------------------


def _gamma_rate(spec: Gamma, side: Side, x: float, beta_param: float, eta: float):
    a = spec.alpha
    if side is Side.UPPER:
        return min(x, x * x / a), "min(x, x^2/alpha)", "x >= 0"
    win = a / beta_param
    if x > win:
        raise WindowError(f"gamma left-tail rate form requires x <= alpha/beta = {win}")
    return x * x / a, "x^2/alpha", f"0 <= x <= alpha/{beta_param}"


def _chisq_rate(spec: ChiSq, side: Side, x: float, beta_param: float, eta: float):
    k = float(spec.k)
    if side is Side.UPPER:
        return min(x, x * x / k), "min(x, x^2/k)", "x > 0"
    win = k / beta_param
    if x > win:
        raise WindowError(f"chi-square left-tail rate form requires x <= k/beta = {win}")
    return x * x / k, "x^2/k", f"0 < x <= k/{beta_param}"


def _weighted_chisq_rate(spec: WeightedChiSq, side: Side, x: float, beta_param: float,
                         eta: float):
    u = spec.u
    knee = u.l2_sq / u.linf
    if side is Side.UPPER:
        if x <= knee:
            return x * x / u.l2_sq, "x^2/|u|_2^2", "0 <= x <= |u|_2^2/|u|_inf"
        return x / u.linf, "x/|u|_inf", "x > |u|_2^2/|u|_inf"
    if x > knee:
        raise WindowError(
            f"weighted chi-square left-tail rate form requires x <= |u|_2^2/|u|_inf = {knee}")
    return x * x / u.l2_sq, "x^2/|u|_2^2", "0 <= x <= |u|_2^2/|u|_inf"


def _nc_chisq_rate(spec: NoncentralChiSq, side: Side, x: float, beta_param: float,
                   eta: float):
    a = spec.k + 2.0 * spec.lam
    if side is Side.UPPER:
        if x <= a:
            return x * x / a, "x^2/(k+2 lambda)", "0 <= x <= k+2 lambda"
        return x, "x", "x >= k+2 lambda"
    win = (spec.k + spec.lam) / beta_param
    if x > win:
        raise WindowError(
            f"noncentral chi-square left-tail rate form requires x <= (k+lambda)/beta = {win}")
    return x * x / a, "x^2/(k+2 lambda)", f"0 < x <= (k+lambda)/{beta_param}"


def _beta_rate(spec: Beta, side: Side, x: float, beta_param: float, eta: float):
    _require_beta_bound_params(spec)
    a, b = spec.alpha, spec.beta
    edge = b if side is Side.UPPER else a
    win = edge / (eta * (a + b))
    if x > win:
        raise WindowError(
            f"beta rate form requires x <= {'beta' if side is Side.UPPER else 'alpha'}"
            f"/(eta (alpha+beta)) = {win}")
    rate, desc = _beta_regime_rate(a, b, x, side)
    return rate, desc, f"0 < x <= edge/(eta(alpha+beta)), eta={eta}"


def _binomial_rate(spec: Binomial, side: Side, x: float, beta_param: float, eta: float):
    k, p = spec.k, spec.p
    if side is Side.UPPER:
        win = k * (1.0 - p) / beta_param
        if x > win or k * p + x < 1.0:
            raise WindowError(
                f"binomial upper-tail rate form requires kp + x >= 1 and x <= k(1-p)/beta = {win}")
        return k * specfun.bernoulli_kl(p, p + x / k), "k h_p(p + x/k)", \
            f"kp+x >= 1, x <= k(1-p)/{beta_param}"
    win = k * p / beta_param
    if x > win or k * (1.0 - p) + x < 1.0:
        raise WindowError(
            f"binomial left-tail rate form requires k(1-p) + x >= 1 and x <= kp/beta = {win}")
    return k * specfun.bernoulli_kl(p, p - x / k), "k h_p(p - x/k)", \
        f"k(1-p)+x >= 1, x <= kp/{beta_param}"


def _poisson_rate(spec: Poisson, side: Side, x: float, beta_param: float, eta: float):
    lam = spec.lam
    if side is Side.UPPER:
        if lam + x < 1.0:
            raise WindowError("poisson upper-tail rate form requires x + lambda >= 1")
        return bennett_rate(lam, x / lam), "(x^2/2 lam) psi(x/lam)", "x + lambda >= 1"
    win = lam / beta_param
    if x > win:
        raise WindowError(f"poisson left-tail rate form requires x <= lambda/beta = {win}")
    return bennett_rate(lam, x / lam), "(x^2/2 lam) psi(x/lam)", f"0 <= x <= lambda/{beta_param}"


def _irwin_hall_rate(spec: IrwinHall, side: Side, x: float, beta_param: float, eta: float):
    win = spec.k / 4.0
    if x > win:
        raise WindowError(f"irwin-hall rate form requires x <= k/4 = {win}")
    return x * x / spec.k, "x^2/k", "0 <= x <= k/4"


def _rademacher_rate(spec: RademacherSum, side: Side, x: float, beta_param: float,
                     eta: float):
    win = spec.k / beta_param
    if x > win:
        raise WindowError(f"rademacher rate form requires x <= k/beta = {win}")
    return x * x / spec.k, "x^2/k", f"0 <= x <= k/{beta_param}"


# ---------------------------------------------------------------------------
# one bound record per family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Bounds:
    """The bound catalog of one family; every entry is a function of the spec."""

    upper: Callable  # (spec, side, x, tier) -> closed-form upper bound
    rate: Callable  # (spec, side, x, beta_param, eta) -> rate-form (rate, desc, window)
    special: Callable = _none  # (spec, side, x) -> exact zero/boundary value or None
    sandwich: Callable | None = None  # (spec, side) -> MgfSandwich, if the family has one
    closed_lower: Callable = _none  # (spec, side, x) -> lower bound serving every tier
    numeric: Callable = _engine_lower  # (spec, side, x) -> numeric-certified lower bound


_BOUNDS: dict[type, _Bounds] = {
    Normal: _Bounds(
        upper=lambda s, side, x, tier: _closed(-x * x / (2.0 * s.sigma2), "gaussian_chernoff"),
        rate=lambda s, side, x, beta_param, eta: (
            x * x / (2.0 * s.sigma2), "x^2/(2 sigma^2)", "x >= 0"),
        sandwich=lambda s, side: MgfSandwich(0.5, 0.5, 1.0, 1.0, s.sigma2, math.inf)),
    Gamma: _Bounds(
        upper=_gamma_upper, rate=_gamma_rate,
        special=_lower_zero_from("gamma_support", lambda s: s.alpha),
        # upper: t^2/2 <= -(t + log(1-t)) <= t^2/(2(1-t)) <= 5 t^2 for t <= 9/10;
        # lower: t^2/3 <= t - log(1+t) <= t^2/2 for t <= 1/2
        sandwich=lambda s, side: _per_side(side, (0.5, 5.0, 1.0, 1.0, s.alpha, 0.9),
                                           (1.0 / 3.0, 0.5, 1.0, 1.0, s.alpha, 0.5)),
        closed_lower=lambda s, side, x: (
            _gamma_small_shape_lower(s.alpha, x, side) if s.alpha < 1.0 else None)),
    ChiSq: _Bounds(
        upper=_chisq_upper, rate=_chisq_rate,
        special=_lower_zero_from("chisq_support", lambda s: s.k),
        sandwich=lambda s, side: _chisq_like_sandwich(float(s.k), side)),
    WeightedChiSq: _Bounds(
        upper=_weighted_chisq_upper, rate=_weighted_chisq_rate,
        special=_lower_zero_from("weighted_chisq_support", lambda s: mean_shift(s)),
        sandwich=lambda s, side: _chisq_like_sandwich(s.u.l2_sq, side, s.u.linf)),
    NoncentralChiSq: _Bounds(
        upper=_nc_chisq_upper, rate=_nc_chisq_rate,
        special=_lower_zero_from("noncentral_chisq_support", lambda s: s.k + s.lam),
        sandwich=lambda s, side: _chisq_like_sandwich(s.k + 2.0 * s.lam, side)),
    Beta: _Bounds(
        upper=_beta_upper, rate=_beta_rate, special=_beta_region, numeric=_beta_split_lower),
    Binomial: _Bounds(
        upper=_binomial_upper, rate=_binomial_rate, special=_binomial_region,
        numeric=lambda s, side, x: _binomial_probed_lower(
            s.k, s.p if side is Side.UPPER else 1.0 - s.p, max(x, 1e-9))),
    Poisson: _Bounds(
        upper=_poisson_upper, rate=_poisson_rate, special=_poisson_region,
        # upper: t^2/2 <= e^t - 1 - t <= (e/2) t^2 for t <= 1;
        # lower: (e^-1/2) t^2 <= e^-t - 1 + t <= t^2/2 for t <= 1
        sandwich=lambda s, side: _per_side(side, (0.5, 0.5 * math.e, 1.0, 1.0, s.lam, 1.0),
                                           (0.5 * math.exp(-1.0), 0.5, 1.0, 1.0, s.lam, 1.0))),
    IrwinHall: _Bounds(
        upper=_irwin_hall_upper, rate=_irwin_hall_rate,
        special=lambda s, side, x: _zero_result("irwin_hall_support") if x > 0.5 * s.k else None,
        sandwich=lambda s, side: MgfSandwich(_IH_C1_LOW, 0.125, 1.0, 1.0, float(s.k), 1.0)),
    RademacherSum: _Bounds(
        upper=lambda s, side, x, tier: _closed(-x * x / (4.0 * s.k), "rademacher_subgaussian"),
        rate=_rademacher_rate,
        special=lambda s, side, x: _zero_result("rademacher_support") if x > s.k else None,
        sandwich=lambda s, side: MgfSandwich(_RAD_C1_LOW, 0.5, 1.0, 1.0, float(s.k), 1.0),
        # X = 2B - k: right tail at x is Binomial(k, 1/2) right tail at x/2
        numeric=lambda s, side, x: _binomial_probed_lower(s.k, 0.5, max(0.5 * x, 1e-9))),
}


def _bounds(spec: DistSpec) -> _Bounds:
    entry = _BOUNDS.get(type(spec))
    if entry is None:
        raise UnsupportedFamilyError(f"no bounds for {spec!r}")
    return entry


def mgf_sandwich(spec: DistSpec, side: Side = Side.UPPER) -> MgfSandwich:
    """A valid (c1, C1, c2=1, C2=1, alpha, M) sandwich for the requested tail.

    Lower-side sandwiches control phi(-t), i.e. the MGF of -X.
    """
    side = Side(side)
    make = _bounds(spec).sandwich
    if make is None:
        raise UnsupportedFamilyError(f"no MGF sandwich for family {family_name(spec)}")
    return make(spec, side)


def upper_bound(spec: DistSpec, side: Side, x: float,
                tier: BoundTier | None = None) -> BoundResult:
    """Tightest applicable closed-form upper bound on the tail; certified.

    Passing a rate-form tier selects the two-regime beta shape with the
    tier's decay constant instead of the always-valid sub-Gaussian form.
    """
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"threshold must be >= 0, got {x}")
    side = Side(side)
    entry = _bounds(spec)
    region = entry.special(spec, side, x)
    if region is not None and region.value == 0.0:
        return region
    return entry.upper(spec, side, x, tier)


def rate_info(spec: DistSpec, side: Side, x: float,
              beta_param: float = 2.0, eta: float = 2.0) -> tuple[float, str, str]:
    """(rate value, rate description, window description) for the rate-form
    lower bound; raises WindowError outside the stated validity window."""
    if beta_param <= 1.0 or eta <= 1.0:
        raise DomainError("window parameters beta and eta must exceed 1")
    return _bounds(spec).rate(spec, Side(side), x, beta_param, eta)


def lower_bound(spec: DistSpec, side: Side, x: float,
                tier: BoundTier = NUMERIC,
                beta_param: float = 2.0, eta: float = 2.0) -> BoundResult:
    """Lower bound on the tail at the requested tier.

    Exact boundary and support-zero values short-circuit every tier; the
    small-shape gamma bracket serves both certified tiers; rate forms carry
    certified=False no matter what constants were supplied.
    """
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"threshold must be >= 0, got {x}")
    side = Side(side)
    entry = _bounds(spec)
    region = entry.special(spec, side, x)
    if region is None:
        region = entry.closed_lower(spec, side, x)
    if region is not None:
        return region

    if tier.tier is Tier.RATE:
        rate, desc, window = rate_info(spec, side, x, beta_param=beta_param, eta=eta)
        lv = math.log(tier.c_default) - tier.C_default * rate
        return result_from_log(lv, "rate_form", False, "rate_form",
                               {"rate": desc, "window": window,
                                "c": tier.c_default, "C": tier.C_default})

    if tier.tier is Tier.CLOSED_FORM:
        raise WindowError(
            f"no closed-form certified lower bound for {family_name(spec)} "
            f"{side.value} tail at x={x}; use the numeric tier")

    return entry.numeric(spec, side, x)


# ---------------------------------------------------------------------------
# empirical rate constants and the Poisson limit check
# ---------------------------------------------------------------------------


def fit_rate_constants(family: str, side: Side, grid: list, n_mc: int = 10**5,
                       beta_param: float = 2.0, eta: float = 2.0) -> tuple[float, float]:
    """Largest c and smallest C with c exp(-C rate) <= exact tail on the grid.

    The sweep anchors c at the shallowest rate point and pushes C up until
    every deeper point sits above the curve, so the fit is sound on the grid
    by construction.  Fitted constants are empirical conveniences only.
    """
    if not grid:
        raise DomainError("fit_rate_constants needs a nonempty grid")
    side = Side(side)
    pts = []
    for spec, x in grid:
        if family_name(spec) != family:
            raise DomainError(f"grid mixes families: expected {family}, got {family_name(spec)}")
        rate, _, _ = rate_info(spec, side, x, beta_param=beta_param, eta=eta)
        est = oracle.exact_tail(spec, side, x, mc_n=n_mc)
        if est.value <= 0.0:
            raise WindowError(f"exact tail vanishes at ({spec}, {x}); outside usable window")
        pts.append((rate, est.log_value if est.log_value > -math.inf else math.log(est.value)))
    r_min = min(r for r, _ in pts)
    log_anchor = min(lv for r, lv in pts if r <= r_min + 1e-12)
    c_hat_needed = [
        (log_anchor - lv) / (r - r_min) for r, lv in pts if r > r_min + 1e-12
    ]
    C_hat = max(c_hat_needed) if c_hat_needed else 1.0
    C_hat = max(C_hat, 0.0)
    c_hat = math.exp(log_anchor + C_hat * r_min)
    return c_hat, C_hat


def poisson_limit_check(lam: float, x: float, n: float) -> float:
    """n h_{lam/n}((x+lam)/n) minus the Bennett exponent (x^2/2 lam) psi(x/lam).

    Converges to 0 as n grows; validates the binomial-to-Poisson reduction.
    """
    if lam <= 0.0 or x < 0.0:
        raise DomainError("poisson_limit_check needs lam > 0 and x >= 0")
    if n < lam + x:
        raise DomainError(f"need n >= lam + x = {lam + x}, got {n}")
    if x == 0.0:
        return 0.0
    q = (x + lam) / n
    p = lam / n
    n_kl = (x + lam) * math.log((x + lam) / lam) \
        + n * (1.0 - q) * (math.log1p(-q) - math.log1p(-p))
    return n_kl - bennett_rate(lam, x / lam)


# ---------------------------------------------------------------------------
# exported catalog
# ---------------------------------------------------------------------------

_CATALOG = [
    {"family": "gamma", "side": "upper", "tier": "closed_form_certified",
     "formula_cite": "sub_gamma", "window": {"x": ">= 0"}},
    {"family": "gamma", "side": "lower", "tier": "closed_form_certified",
     "formula_cite": "sub_gamma", "window": {"x": ">= 0"}},
    {"family": "gamma", "side": "upper", "tier": "rate_form",
     "formula_cite": "gamma_matching_rate", "window": {"x": ">= 0", "alpha": ">= 1"}},
    {"family": "gamma", "side": "lower", "tier": "rate_form",
     "formula_cite": "gamma_matching_rate", "window": {"x": "<= alpha/beta"}},
    {"family": "gamma", "side": "both", "tier": "closed_form_certified",
     "formula_cite": "gamma_small_shape", "window": {"alpha": "< 1"}},
    {"family": "chisq", "side": "both", "tier": "rate_form",
     "formula_cite": "chisq_matching_rate", "window": {"lower": "x <= k/beta"}},
    {"family": "weighted_chisq", "side": "both", "tier": "rate_form",
     "formula_cite": "weighted_chisq_matching_rate",
     "window": {"lower": "x <= |u|_2^2/|u|_inf"}},
    {"family": "noncentral_chisq", "side": "both", "tier": "rate_form",
     "formula_cite": "noncentral_chisq_matching_rate",
     "window": {"lower": "x <= (k+lambda)/beta"}},
    {"family": "beta", "side": "both", "tier": "rate_form",
     "formula_cite": "beta_regime_rate", "window": {"x": "<= edge/(eta(alpha+beta))"}},
    {"family": "binomial", "side": "both", "tier": "rate_form",
     "formula_cite": "binomial_kl_rate",
     "window": {"upper": "kp+x >= 1, x <= k(1-p)/beta",
                "lower": "k(1-p)+x >= 1, x <= kp/beta"}},
    {"family": "binomial", "side": "both", "tier": "closed_form_certified",
     "formula_cite": "binomial_boundary", "window": {"upper": "kp+x < 1", "lower": "k(1-p)+x < 1"}},
    {"family": "poisson", "side": "upper", "tier": "closed_form_certified",
     "formula_cite": "poisson_boundary", "window": {"x": "x + lambda < 1"}},
    {"family": "poisson", "side": "both", "tier": "rate_form",
     "formula_cite": "poisson_bennett_rate",
     "window": {"upper": "x + lambda >= 1", "lower": "x <= lambda/beta"}},
    {"family": "irwin_hall", "side": "both", "tier": "rate_form",
     "formula_cite": "irwin_hall_rate", "window": {"x": "<= k/4"}},
    {"family": "rademacher", "side": "both", "tier": "rate_form",
     "formula_cite": "rademacher_rate", "window": {"x": "<= k/beta"}},
]


def bound_catalog() -> list[dict]:
    """Machine-readable catalog of the served bound formulas and windows."""
    return [dict(row) for row in _CATALOG]
