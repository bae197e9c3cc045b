"""Per-family closed-form upper bounds and certified or rate-form lower bounds.

Three tiers of lower bound are served:

* closed_form_certified: explicit formulas and exact boundary/zero values
  (small-shape gamma bracket, discrete boundary cases, support edges);
* numeric_certified: a certificate produced by the lower-bound engines
  (reverse Chernoff on the exact MGF, Paley-Zygmund on the family sandwich,
  the binomial atom pmf(m) with its log-concave extension, or the
  beta-as-two-gammas split);
  always a true lower bound on the exact tail;
* rate_form: the shape of the matching-rate statements whose constants are
  only known to exist; evaluated with caller-supplied (c, C), never certified.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

from . import oracle, specfun
from .dist_model import (
    Beta, Binomial, ChiSq, DistSpec, Gamma, IrwinHall, NoncentralChiSq,
    Normal, Poisson, RademacherSum, Side, WeightedChiSq,
    _FAMILY, family_name, log_mgf, mean_shift, variance,
)
from .engine_lower import _EPS, _RC_ULPS, pz_lower, reverse_chernoff_lower
from .engine_upper import BoundResult, MgfSandwich, _no_certificate, result_from_log
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

    def __post_init__(self):
        if not (0.0 < self.c_default < math.inf and 0.0 < self.C_default < math.inf):
            raise DomainError(f"rate constants need finite c, C > 0, "
                              f"got ({self.c_default}, {self.C_default})")


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


# Citations of the formulas other than the closed-form upper bounds and the rate
# forms; the bound functions and the records' ``other_formulas`` read them.
_BETA_REGIME_RATE = "beta_regime_rate"
_GAMMA_SMALL_SHAPE = "gamma_small_shape"
_BINOMIAL_BOUNDARY = "binomial_boundary"
_POISSON_BOUNDARY = "poisson_boundary"


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
    if oracle._binom_count(spec.k, spec.p, side, x)[2] > spec.k:  # the oracle's snapped count
        return _zero_result("binomial_support")
    q = spec.p if side is Side.UPPER else 1.0 - spec.p  # success rate of the tail's count
    if spec.k * q + x < 1.0:
        log_miss = math.log1p(-spec.p) if side is Side.UPPER else math.log(spec.p)
        v, lv = oracle.binom_at_least_one(spec.k, log_miss)
        return BoundResult(v, lv, "boundary_exact", True, _BINOMIAL_BOUNDARY,
                           {"formula": "1-(1-p)^k" if side is Side.UPPER else "1-p^k"})
    return None


def _poisson_region(spec: Poisson, side: Side, x: float) -> BoundResult | None:
    if side is Side.UPPER and spec.lam + x < 1.0:
        v = -math.expm1(-spec.lam)
        lv = math.log1p(-math.exp(-spec.lam))
        return BoundResult(v, lv, "boundary_exact", True, _POISSON_BOUNDARY,
                           {"formula": "1-exp(-lambda)"})
    if side is Side.LOWER and oracle._snap(spec.lam - x) < 0.0:
        return _zero_result("poisson_support")
    if side is Side.LOWER and oracle._floor_snap(spec.lam - x) == 0:
        return BoundResult(*oracle.poisson_cdf_int(spec.lam, 0), "boundary_exact", True,
                           _POISSON_BOUNDARY, {"formula": "exp(-lambda)"})
    return None


# ---------------------------------------------------------------------------
# closed-form upper bounds
# ---------------------------------------------------------------------------


def _closed(log_value: float, cite: str, params: dict | None = None) -> BoundResult:
    return result_from_log(log_value, "closed_form", True, cite, params)


def _gamma_upper(spec: Gamma, side: Side, x: float, tier, cite: str) -> BoundResult:
    a = spec.alpha
    if side is Side.UPPER:
        lv = -x * x / (x + a + math.sqrt(a * a + 2.0 * x * a))
    else:
        lv = -x * x / (2.0 * a)
    return _closed(lv, cite)


def _chisq_upper(spec: ChiSq, side: Side, x: float, tier, cite: str) -> BoundResult:
    k = float(spec.k)
    if side is Side.UPPER:
        lv = -x * x / (2.0 * (k + x) + 2.0 * math.sqrt(k * k + 2.0 * k * x))
    else:
        lv = -x * x / (4.0 * k)
    return _closed(lv, cite)


def _weighted_chisq_upper(spec: WeightedChiSq, side: Side, x: float, tier,
                          cite: str) -> BoundResult:
    u = spec.u
    if side is Side.UPPER:
        root = (math.sqrt(u.l2_sq + 2.0 * u.linf * x) - math.sqrt(u.l2_sq)) / (2.0 * u.linf)
        lv = -root * root
    else:
        lv = -x * x / (4.0 * u.l2_sq)
    return _closed(lv, cite)


def _nc_chisq_upper(spec: NoncentralChiSq, side: Side, x: float, tier,
                    cite: str) -> BoundResult:
    a = spec.k + 2.0 * spec.lam
    if side is Side.UPPER:
        root = 0.5 * (math.sqrt(a + 2.0 * x) - math.sqrt(a))
        lv = -root * root
    else:
        lv = -x * x / (4.0 * a)
    return _closed(lv, cite)


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


def _beta_upper(spec: Beta, side: Side, x: float, tier, cite: str) -> BoundResult:
    """The always-valid sub-Gaussian form, or with a rate-form tier the
    two-regime shape with the tier's decay constant."""
    _require_beta_bound_params(spec)
    if tier is not None and tier.tier is Tier.RATE:
        rate, desc = _beta_regime_rate(spec.alpha, spec.beta, x, side)
        lv = math.log(2.0) - tier.C_default * rate
        return result_from_log(lv, "rate_form", False, _BETA_REGIME_RATE,
                               {"rate": desc, "C": tier.C_default})
    return _closed(-2.0 * (spec.alpha + spec.beta + 1.0) * x * x, cite)


def _binomial_upper(spec: Binomial, side: Side, x: float, tier, cite: str) -> BoundResult:
    k, p = spec.k, spec.p
    v = p + x / k if side is Side.UPPER else p - x / k
    return _closed(-k * specfun.bernoulli_kl(p, min(1.0, max(0.0, v))), cite)


def _poisson_upper(spec: Poisson, side: Side, x: float, tier, cite: str) -> BoundResult:
    # the lower side's x may pass lambda by the oracle's snap tolerance
    u = x / spec.lam if side is Side.UPPER else max(-1.0, -x / spec.lam)
    return _closed(-bennett_rate(spec.lam, u), cite)


def _irwin_hall_upper(spec: IrwinHall, side: Side, x: float, tier, cite: str) -> BoundResult:
    k = spec.k
    return _closed(-k * specfun.bernoulli_kl(0.5, 0.5 + x / k), cite,
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
    else:  # x < a: the special region serves the zero tail beyond
        lv = a * math.log(a - x) - 1.0 - math.lgamma(a + 1.0)
    return result_from_log(lv, "closed_form", True, _GAMMA_SMALL_SHAPE)


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


def binomial_eq8_value(k: int, p: float, x: float, delta: float) -> float:
    """The paper's binomial lower-bound construction (eq. 8) at one delta.

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


def _binomial_atom_lower(k: int, log_p: float, log_q: float, m: int) -> BoundResult:
    """P(Bin(k, p) >= m) >= pmf(m) (1 - r^J) / (1 - r), r = pmf(m + J) / pmf(m + J - 1).

    The pmf is log-concave, so pmf(m + j) >= pmf(m) r^j for j < J; J = 1 is the
    atom pmf(m) alone, the method-of-types bound, and at m = k it is the exact
    tail p^k.  ln pmf(m) takes Robbins' lower end for ln k! and upper ends for
    ln m! and ln (k - m)!: S(n) + 1/(12n + 1) < ln n! < S(n) + 1/(12n) for n >= 1,
    S(n) = ln(2 pi)/2 + (n + 1/2) ln n - n (Robbins 1955).  r = (k - m - J + 1) p /
    ((m + J) q) needs no factorial, and r < 1 as m is at least the mean kp.  The
    best J of 1, 2, 4, ... <= k - m is kept; each log is lowered by _RC_ULPS ulps
    of the magnitudes of its operands.
    """
    ulps = _RC_ULPS * _EPS
    log_pmf = m * log_p + (k - m) * log_q
    size = m * abs(log_p) + (k - m) * abs(log_q) + 1.0
    if m < k:  # C(k, k) = 1; the -n of the three S(n) cancel
        lead = [(n + 0.5) * math.log(n) for n in (k, m, k - m)]
        log_pmf += (lead[0] - lead[1] - lead[2] - specfun._LOG_SQRT_2PI
                    + 1.0 / (12 * k + 1) - 1.0 / (12 * m) - 1.0 / (12 * (k - m)))
        size += sum(lead)
    best, best_j, j = 0.0, 1, 2
    while j <= k - m:
        log_a, log_b = math.log(k - m - j + 1), math.log(m + j)
        log_r = log_a - log_b + log_p - log_q
        log_s = math.log(math.expm1(j * log_r) / math.expm1(log_r))
        log_s -= ulps * (j * (log_a + log_b + abs(log_p) + abs(log_q)) + abs(log_s))
        if log_s > best:
            best, best_j = log_s, j
        j *= 2
    return result_from_log(log_pmf - ulps * size + best, "binomial_atom", True,
                           "binomial_atom", {"m": m, "J": best_j})


def _beta_split_lower(spec: Beta, side: Side, x: float) -> BoundResult:
    """P(Z >= mu + x) >= P(R1 >= a + y) P(R2 <= b - y) for gammas R1, R2, y >= (a+b)x.

    Both factors fall as y grows, so the least feasible split y0 = (a+b)x is
    the best; it needs y0 < b.
    """
    _require_beta_bound_params(spec)
    a, b = (spec.alpha, spec.beta) if side is Side.UPPER else (spec.beta, spec.alpha)
    y0 = (a + b) * x
    lv = -math.inf
    if y0 < b:
        lv = specfun.log_reg_inc_gamma_upper(a, a + y0) + specfun.log_reg_inc_gamma_lower(b, b - y0)
    if not lv > -math.inf:
        return _no_certificate("beta_gamma_split", "beta_gamma_split", {"feasible": False})
    return result_from_log(lv, "beta_gamma_split", True, "beta_gamma_split", {"y": y0})


def _engine_lower(spec: DistSpec, side: Side, x: float) -> BoundResult:
    """Better certificate of the reverse Chernoff and Paley-Zygmund engines, reverse
    Chernoff on a tie, else the reverse Chernoff result; every family served here
    has a log-MGF and a sandwich."""
    x_eff = max(x, 1e-9 * max(1.0, math.sqrt(variance(spec))))
    rc = reverse_chernoff_lower(log_mgf(spec), x_eff, side)
    pz = pz_lower(mgf_sandwich(spec, side), x)
    return pz if pz.certified and not (rc.certified and rc.log_value >= pz.log_value) else rc


# ---------------------------------------------------------------------------
# rate forms and the per-family records
# ---------------------------------------------------------------------------

# Window constants: left tails stay within (scale)/beta, beta tails within
# edge/(eta (alpha+beta)); both must exceed 1.
_WINDOW_BETA = 2.0
_WINDOW_ETA = 2.0

_EVERY_X = "x >= 0"


@dataclass(frozen=True)
class _Rate:
    """Rate form of one tail: ``of(spec, x)`` gives (rate, description) wherever
    ``ok(spec, x)`` holds; ``window`` is the only text of that condition."""

    of: Callable
    window: str = _EVERY_X
    ok: Callable = lambda s, x: True


def _beta_in_window(spec: Beta, edge: float, x: float) -> bool:
    """Beta's rate window; shapes below 1 are refused before it is tested."""
    _require_beta_bound_params(spec)
    return x <= edge / (_WINDOW_ETA * (spec.alpha + spec.beta))


def _square_over_k(spec, x: float) -> tuple[float, str]:
    return x * x / spec.k, "x^2/k"


def _poisson_bennett(spec: Poisson, x: float) -> tuple[float, str]:
    return bennett_rate(spec.lam, x / spec.lam), "(x^2/2 lam) psi(x/lam)"


_IRWIN_HALL_RATE = _Rate(_square_over_k, "x <= k/4", lambda s, x: x <= s.k / 4.0)
_K_OVER_BETA_RATE = _Rate(_square_over_k, f"x <= k/beta with beta = {_WINDOW_BETA:g}",
                          lambda s, x: x <= s.k / _WINDOW_BETA)
_NORMAL_RATE = _Rate(lambda s, x: (x * x / (2.0 * s.sigma2), "x^2/(2 sigma^2)"))


@dataclass(frozen=True)
class _Bounds:
    """The bounds of one family; every entry is a function of the spec, and
    ``bound_catalog`` reads its citations and windows from here."""

    upper: Callable  # (spec, side, x, tier, cite) -> closed-form upper bound citing cite
    cite: str  # citation of the closed-form upper bound
    rate: tuple[_Rate, _Rate]  # rate forms of the upper and the lower tail
    special: Callable = _none  # (spec, side, x) -> exact zero/boundary value or None
    sandwich: Callable | None = None  # (spec, side) -> MgfSandwich, if the family has one
    closed_lower: Callable = _none  # (spec, side, x) -> lower bound serving every tier
    numeric: Callable = _engine_lower  # (spec, side, x) -> numeric-certified lower bound
    other_formulas: tuple = ()  # (side, tier, cite, window) of each other formula served


_BOUNDS: dict[type, _Bounds] = {
    Normal: _Bounds(
        upper=lambda s, side, x, tier, cite: _closed(-x * x / (2.0 * s.sigma2), cite),
        cite="gaussian_chernoff", rate=(_NORMAL_RATE, _NORMAL_RATE),
        sandwich=lambda s, side: MgfSandwich(0.5, 0.5, 1.0, 1.0, s.sigma2, math.inf)),
    Gamma: _Bounds(
        upper=_gamma_upper, cite="sub_gamma",
        rate=(_Rate(lambda s, x: (min(x, x * x / s.alpha), "min(x, x^2/alpha)")),
              _Rate(lambda s, x: (x * x / s.alpha, "x^2/alpha"),
                    f"x <= alpha/beta with beta = {_WINDOW_BETA:g}",
                    lambda s, x: x <= s.alpha / _WINDOW_BETA)),
        special=_lower_zero_from("gamma_support", lambda s: s.alpha),
        # upper: t^2/2 <= -(t + log(1-t)) <= t^2/(2(1-t)) <= 5 t^2 for t <= 9/10;
        # lower: t^2/3 <= t - log(1+t) <= t^2/2 for t <= 1/2
        sandwich=lambda s, side: _per_side(side, (0.5, 5.0, 1.0, 1.0, s.alpha, 0.9),
                                           (1.0 / 3.0, 0.5, 1.0, 1.0, s.alpha, 0.5)),
        closed_lower=lambda s, side, x: (
            _gamma_small_shape_lower(s.alpha, x, side) if s.alpha < 1.0 else None),
        other_formulas=(("both", Tier.CLOSED_FORM, _GAMMA_SMALL_SHAPE, "alpha < 1"),)),
    ChiSq: _Bounds(
        upper=_chisq_upper, cite="laurent_massart",
        rate=(_Rate(lambda s, x: (min(x, x * x / s.k), "min(x, x^2/k)")),
              _K_OVER_BETA_RATE),
        special=_lower_zero_from("chisq_support", lambda s: s.k),
        sandwich=lambda s, side: _chisq_like_sandwich(float(s.k), side)),
    WeightedChiSq: _Bounds(
        upper=_weighted_chisq_upper, cite="laurent_massart",
        rate=(_Rate(lambda s, x: (x * x / s.u.l2_sq, "x^2/|u|_2^2") if x <= s.u.l2_sq / s.u.linf
                    else (x / s.u.linf, "x/|u|_inf")),
              _Rate(lambda s, x: (x * x / s.u.l2_sq, "x^2/|u|_2^2"), "x <= |u|_2^2/|u|_inf",
                    lambda s, x: x <= s.u.l2_sq / s.u.linf)),
        special=_lower_zero_from("weighted_chisq_support", lambda s: mean_shift(s)),
        sandwich=lambda s, side: _chisq_like_sandwich(s.u.l2_sq, side, s.u.linf)),
    NoncentralChiSq: _Bounds(
        upper=_nc_chisq_upper, cite="birge_noncentral",
        rate=(_Rate(lambda s, x: (x * x / (s.k + 2.0 * s.lam), "x^2/(k+2 lambda)")
                    if x <= s.k + 2.0 * s.lam else (x, "x")),
              _Rate(lambda s, x: (x * x / (s.k + 2.0 * s.lam), "x^2/(k+2 lambda)"),
                    f"x <= (k+lambda)/beta with beta = {_WINDOW_BETA:g}",
                    lambda s, x: x <= (s.k + s.lam) / _WINDOW_BETA)),
        special=_lower_zero_from("noncentral_chisq_support", lambda s: s.k + s.lam),
        sandwich=lambda s, side: _chisq_like_sandwich(s.k + 2.0 * s.lam, side)),
    Beta: _Bounds(
        upper=_beta_upper, cite="beta_subgaussian",
        rate=(_Rate(lambda s, x: _beta_regime_rate(s.alpha, s.beta, x, Side.UPPER),
                    f"x <= beta/(eta (alpha+beta)) with eta = {_WINDOW_ETA:g}",
                    lambda s, x: _beta_in_window(s, s.beta, x)),
              _Rate(lambda s, x: _beta_regime_rate(s.alpha, s.beta, x, Side.LOWER),
                    f"x <= alpha/(eta (alpha+beta)) with eta = {_WINDOW_ETA:g}",
                    lambda s, x: _beta_in_window(s, s.alpha, x))),
        special=_beta_region, numeric=_beta_split_lower,
        other_formulas=(("both", Tier.RATE, _BETA_REGIME_RATE, _EVERY_X),)),
    Binomial: _Bounds(
        upper=_binomial_upper, cite="kl_chernoff",
        rate=(_Rate(lambda s, x: (s.k * specfun.bernoulli_kl(s.p, s.p + x / s.k),
                                  "k h_p(p + x/k)"),
                    f"kp + x >= 1 and x <= k(1-p)/beta with beta = {_WINDOW_BETA:g}",
                    lambda s, x: s.k * s.p + x >= 1.0 and x <= s.k * (1.0 - s.p) / _WINDOW_BETA),
              _Rate(lambda s, x: (s.k * specfun.bernoulli_kl(s.p, s.p - x / s.k),
                                  "k h_p(p - x/k)"),
                    f"k(1-p) + x >= 1 and x <= kp/beta with beta = {_WINDOW_BETA:g}",
                    lambda s, x: s.k * (1.0 - s.p) + x >= 1.0 and x <= s.k * s.p / _WINDOW_BETA)),
        special=_binomial_region,
        numeric=lambda s, side, x: _binomial_atom_lower(
            s.k, *oracle._binom_count(s.k, s.p, side, x)),
        other_formulas=(("upper", Tier.CLOSED_FORM, _BINOMIAL_BOUNDARY, "kp + x < 1"),
                        ("lower", Tier.CLOSED_FORM, _BINOMIAL_BOUNDARY, "k(1-p) + x < 1"))),
    Poisson: _Bounds(
        upper=_poisson_upper, cite="bennett",
        rate=(_Rate(_poisson_bennett, "x + lambda >= 1", lambda s, x: s.lam + x >= 1.0),
              _Rate(_poisson_bennett, f"x <= lambda/beta with beta = {_WINDOW_BETA:g}",
                    lambda s, x: x <= s.lam / _WINDOW_BETA)),
        special=_poisson_region,
        # upper: t^2/2 <= e^t - 1 - t <= (e/2) t^2 for t <= 1;
        # lower: (e^-1/2) t^2 <= e^-t - 1 + t <= t^2/2 for t <= 1
        sandwich=lambda s, side: _per_side(side, (0.5, 0.5 * math.e, 1.0, 1.0, s.lam, 1.0),
                                           (0.5 * math.exp(-1.0), 0.5, 1.0, 1.0, s.lam, 1.0)),
        other_formulas=(("upper", Tier.CLOSED_FORM, _POISSON_BOUNDARY, "x + lambda < 1"),
                        ("lower", Tier.CLOSED_FORM, _POISSON_BOUNDARY, "lambda - x < 1"))),
    IrwinHall: _Bounds(
        upper=_irwin_hall_upper, cite="kl_chernoff_symmetric",
        rate=(_IRWIN_HALL_RATE, _IRWIN_HALL_RATE),
        special=lambda s, side, x: _zero_result("irwin_hall_support") if x > 0.5 * s.k else None,
        sandwich=lambda s, side: MgfSandwich(_IH_C1_LOW, 0.125, 1.0, 1.0, float(s.k), 1.0)),
    RademacherSum: _Bounds(
        upper=lambda s, side, x, tier, cite: _closed(-x * x / (4.0 * s.k), cite),
        cite="rademacher_subgaussian", rate=(_K_OVER_BETA_RATE, _K_OVER_BETA_RATE),
        special=lambda s, side, x: (
            _zero_result("rademacher_support")
            if oracle._binom_count(s.k, 0.5, Side.UPPER, 0.5 * x)[2] > s.k else None),
        sandwich=lambda s, side: MgfSandwich(_RAD_C1_LOW, 0.5, 1.0, 1.0, float(s.k), 1.0),
        # X = 2B - k: either tail at x is the Binomial(k, 1/2) right tail at x/2
        numeric=lambda s, side, x: _binomial_atom_lower(
            s.k, *oracle._binom_count(s.k, 0.5, Side.UPPER, 0.5 * x))),
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
    if region is not None and region.log_value == -math.inf:
        return region
    return entry.upper(spec, side, x, tier, entry.cite)


def rate_info(spec: DistSpec, side: Side, x: float) -> tuple[float, str, str]:
    """(rate value, rate description, window) of the rate-form lower bound;
    raises WindowError, naming the window, outside it."""
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"threshold must be >= 0, got {x}")
    side = Side(side)
    form = _bounds(spec).rate[side is Side.LOWER]
    if not form.ok(spec, x):
        raise WindowError(f"{family_name(spec)} {side.value}-tail rate form requires "
                          f"{form.window}, got x = {x}")
    return (*form.of(spec, x), form.window)


def lower_bound(spec: DistSpec, side: Side, x: float,
                tier: BoundTier = NUMERIC) -> BoundResult:
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
        rate, desc, window = rate_info(spec, side, x)
        lv = math.log(tier.c_default) - tier.C_default * rate
        return result_from_log(lv, "rate_form", False, Tier.RATE.value,
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


def fit_rate_constants(family: str, side: Side, grid: list) -> tuple[float, float]:
    """Largest c and smallest C with c exp(-C rate) <= exact tail on the grid.

    The sweep anchors c at the shallowest rate point and pushes C up until
    every deeper point sits above the curve, so the fit is sound on the grid
    by construction.  Monte Carlo families use 10**5 draws per point.  Fitted
    constants are empirical conveniences only.
    """
    if not grid:
        raise DomainError("fit_rate_constants needs a nonempty grid")
    side = Side(side)
    pts = []
    for spec, x in grid:
        if family_name(spec) != family:
            raise DomainError(f"grid mixes families: expected {family}, got {family_name(spec)}")
        rate, _, _ = rate_info(spec, side, x)
        est = oracle.exact_tail(spec, side, x, mc_n=10**5)
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


def bound_catalog() -> list[dict]:
    """Machine-readable catalog of the served bound formulas and their windows,
    read from the family records: per family, the closed-form upper bound, the
    rate form of each tail and any other formula the record lists."""
    rows = []
    for cls, entry in _BOUNDS.items():
        formulas = [("both", Tier.CLOSED_FORM, entry.cite, _EVERY_X),
                    *((side.value, Tier.RATE, Tier.RATE.value, form.window)  # cites its tier
                      for side, form in zip(Side, entry.rate)),
                    *entry.other_formulas]
        rows += [{"family": _FAMILY[cls].name, "side": side, "tier": tier.value,
                  "formula_cite": cite, "window": window}
                 for side, tier, cite, window in formulas]
    return rows
