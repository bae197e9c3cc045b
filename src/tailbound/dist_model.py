"""Canonical parameterizations of the supported distribution families.

Every tail quantity in this package is about the centered variable
X = Y - E[Y].  The raw variable Y only appears in samplers and in the CLI,
which subtracts ``mean_shift`` before calling anything else.

What a family is (wire name, mean, variance, support, log-MGF, sampler) is
stated once, in its ``_Family`` record in ``_FAMILY`` at the end of this
module; the public functions validate their input and look the record up.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable, Union

import numpy as np

from .errors import DomainError, UnsupportedFamilyError
from .specfun import RealInterval


class Side(str, enum.Enum):
    """Which tail of the centered variable: Upper is P(X >= x), Lower is P(X <= -x)."""

    UPPER = "upper"
    LOWER = "lower"


def _real(value, what: str) -> float:
    """value as a finite float; DomainError for non-numbers and non-finite values."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            v = float(value)
        except OverflowError:
            v = math.inf
        if math.isfinite(v):
            return v
    raise DomainError(f"{what} must be a finite number, got {value!r}")


def _check(spec, name: str, what: str, ok: Callable[[float], bool] = lambda v: v > 0.0,
           need: str = "positive") -> None:
    """Store spec.<name> as a finite float satisfying ``ok``."""
    v = _real(getattr(spec, name), what)
    if not ok(v):
        raise DomainError(f"{what} must be {need}, got {v}")
    object.__setattr__(spec, name, v)


def _check_count(spec, what: str, limit: float = math.inf) -> None:
    k = spec.k
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise DomainError(f"{what} must be an integer >= 1, got {k!r}")
    if k > limit:
        raise DomainError(f"{what} must be at most {limit}, got {k}")
    object.__setattr__(spec, "k", int(k))


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weights with cached l2 squared and sup norms."""

    u: tuple[float, ...]
    l2_sq: float = field(init=False, repr=False)
    linf: float = field(init=False, repr=False)

    def __post_init__(self):
        try:
            u = tuple(_real(v, "each weight") for v in self.u)
        except TypeError:
            raise DomainError(f"weights must be a sequence of numbers, got {self.u!r}") from None
        if not u:
            raise DomainError("weight vector must be nonempty")
        if any(v < 0.0 for v in u):
            raise DomainError("weights must be nonnegative")
        linf = max(u)
        if linf <= 0.0:
            raise DomainError("weights must not all be zero")
        l2_sq = math.fsum(v * v for v in u)
        if l2_sq == 0.0:
            raise DomainError(f"weights too small: their squared norm underflows, got {u!r}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "l2_sq", l2_sq)
        object.__setattr__(self, "linf", linf)

    def __len__(self):
        return len(self.u)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.u, dtype=float)


@dataclass(frozen=True)
class Gamma:
    alpha: float

    def __post_init__(self):
        _check(self, "alpha", "gamma shape")


@dataclass(frozen=True)
class ChiSq:
    k: int

    def __post_init__(self):
        _check_count(self, "chi-square degrees of freedom")


@dataclass(frozen=True)
class WeightedChiSq:
    u: WeightVector

    def __post_init__(self):
        if not isinstance(self.u, WeightVector):
            object.__setattr__(self, "u", WeightVector(self.u))


@dataclass(frozen=True)
class NoncentralChiSq:
    k: int
    lam: float

    def __post_init__(self):
        _check_count(self, "noncentral chi-square k")
        _check(self, "lam", "noncentrality", lambda v: v >= 0.0, ">= 0")


@dataclass(frozen=True)
class Beta:
    alpha: float
    beta: float

    def __post_init__(self):
        _check(self, "alpha", "beta parameter alpha")
        _check(self, "beta", "beta parameter beta")


@dataclass(frozen=True)
class Binomial:
    k: int
    p: float

    def __post_init__(self):
        _check_count(self, "binomial count", _MAX_COUNT)
        _check(self, "p", "binomial success probability", lambda v: 0.0 < v < 1.0,
               "in (0, 1)")


@dataclass(frozen=True)
class Poisson:
    lam: float

    def __post_init__(self):
        _check(self, "lam", "poisson intensity")


@dataclass(frozen=True)
class IrwinHall:
    k: int

    def __post_init__(self):
        _check_count(self, "irwin-hall count", _MAX_COUNT)


@dataclass(frozen=True)
class RademacherSum:
    k: int

    def __post_init__(self):
        _check_count(self, "rademacher count", _MAX_COUNT)


@dataclass(frozen=True)
class Normal:
    sigma2: float

    def __post_init__(self):
        _check(self, "sigma2", "normal variance")


DistSpec = Union[
    Gamma, ChiSq, WeightedChiSq, NoncentralChiSq, Beta,
    Binomial, Poisson, IrwinHall, RademacherSum, Normal,
]


@dataclass(frozen=True)
class _Family:
    """Model facts of one family, each a function of the spec.

    ``extent(spec, mean)`` is the (upper, lower) pair of ``support_extent``;
    ``draw`` returns raw draws of Y; ``cgf(spec, t)`` is the centered log-MGF,
    one formula on a float or an array t inside the domain (None where there is
    no closed form), and ``cgf_sup`` the open upper end of that domain, which
    ``log_mgf`` applies; discrete families list their attained centered
    thresholds in ``support_x``.
    """

    name: str
    mean: Callable
    variance: Callable
    extent: Callable
    draw: Callable
    cgf: Callable | None = None
    cgf_sup: Callable = lambda spec: math.inf
    support_x: Callable | None = None


def _family(spec) -> _Family:
    fam = _FAMILY.get(type(spec))
    if fam is None:
        raise UnsupportedFamilyError(f"unknown spec {spec!r}")
    return fam


def family_name(spec: DistSpec) -> str:
    return _family(spec).name


# Wire parameter names are the dataclass field names, except these.
_WIRE_NAMES = {"lam": "lambda", "u": "weights"}


def spec_to_json(spec: DistSpec) -> dict:
    """Serialize to the wire schema {"family": ..., "params": {...}}."""
    name = family_name(spec)
    params = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.type == "WeightVector":
            value = list(value.u)
        params[_WIRE_NAMES.get(f.name, f.name)] = value
    return {"family": name, "params": params}


def spec_from_json(obj: dict) -> DistSpec:
    """Parse the wire schema produced by ``spec_to_json``.

    The spec constructors validate the values; a count may arrive as an
    integral float such as 8.0.  Malformed input raises DomainError.
    """
    try:
        name = obj["family"]
        params = dict(obj.get("params", {}))
    except (TypeError, KeyError, ValueError, AttributeError) as exc:
        raise DomainError(f"malformed distribution spec: {obj!r}") from exc
    cls = _BY_NAME.get(name) if isinstance(name, str) else None
    if cls is None:
        raise UnsupportedFamilyError(f"unknown family {name!r}")
    args = {}
    for f in fields(cls):
        key = _WIRE_NAMES.get(f.name, f.name)
        if key not in params:
            raise DomainError(f"missing parameter '{key}' for family {name!r}")
        value = params[key]
        if f.type == "int" and isinstance(value, float) and value.is_integer():
            value = int(value)
        args[f.name] = value
    return cls(**args)


def mean_shift(spec: DistSpec) -> float:
    """E[Y] for the raw variable, so raw thresholds map to centered x."""
    return _family(spec).mean(spec)


def variance(spec: DistSpec) -> float:
    """Var(Y) = Var(X)."""
    return _family(spec).variance(spec)


def support_extent(spec: DistSpec, side: Side) -> float:
    """Largest x with P(X >= x) > 0 (upper) or P(X <= -x) > 0 (lower); inf if unbounded."""
    upper, lower = _family(spec).extent(spec, mean_shift(spec))
    return upper if Side(side) is Side.UPPER else lower


@dataclass(frozen=True)
class LogMgfSpec:
    """log E exp(tX) of the centered variable, with its domain."""

    eval: Callable[[object], object]
    domain: RealInterval


def log_mgf(spec: DistSpec) -> LogMgfSpec:
    """Closed-form centered log-MGF, inf at and above the domain's end; Beta
    has none and raises.  A float t is evaluated as a float."""
    fam = _family(spec)
    cgf, sup = fam.cgf, fam.cgf_sup(spec)
    if cgf is None:
        raise UnsupportedFamilyError(f"no closed-form MGF for family {fam.name}")

    def ev(t):
        if isinstance(t, float):
            return float(cgf(spec, t)) if t < sup else math.inf
        t = np.asarray(t, dtype=float)
        with np.errstate(all="ignore"):  # the formula beyond the domain is discarded
            out = np.where(t < sup, cgf(spec, t), np.inf)
        return out if out.ndim else float(out)

    return LogMgfSpec(ev, RealInterval(-math.inf, sup))


def _gamma_cgf(spec: Gamma, t):
    return -spec.alpha * (t + np.log1p(-t))


def _chisq_cgf(spec: ChiSq, t):
    return -0.5 * spec.k * (np.log1p(-2.0 * t) + 2.0 * t)


def _weighted_chisq_cgf(spec: WeightedChiSq, t):
    tu = np.multiply.outer(t, spec.u.as_array())
    return (-0.5 * (np.log1p(-2.0 * tu) + 2.0 * tu)).sum(axis=-1)


def _nc_chisq_cgf(spec: NoncentralChiSq, t):
    return 2.0 * spec.lam * t * t / (1.0 - 2.0 * t) + _chisq_cgf(spec, t)


def _irwin_hall_cgf(spec: IrwinHall, t):
    u = np.abs(0.5 * t)
    with np.errstate(over="ignore", invalid="ignore"):  # the series serves u = 0
        return spec.k * np.where(u < 1e-3, u * u / 6.0 - u * u * (u * u) / 180.0,
                                 np.log(np.sinh(u) / u))


def _rademacher_cgf(spec: RademacherSum, t):
    a = np.abs(t)
    return spec.k * (a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0))


_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Counter-based splittable stream: (seed, stream) keys a Philox generator."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


_CHUNK_ELEMS = 1 << 22
# Largest binomial, Rademacher and Irwin-Hall count: a k-wide row of _row_sums fits one
# block, and binom_upper_tail loops once per count, so the cap bounds its run time.
_MAX_COUNT = _CHUNK_ELEMS


def sample(spec: DistSpec, rng_stream: RngStream, n: int) -> np.ndarray:
    """n i.i.d. centered draws, bit-reproducible given (seed, stream).

    Scalar families map directly onto the Philox generator's native samplers
    (gamma via Marsaglia-Tsang with the shape<1 boost, binomial via
    inversion/BTPE, poisson via inversion/transformed rejection).  Sum-shaped
    families draw their summand matrix in fixed-size chunks so memory stays
    bounded without changing the draw order.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    draw = _family(spec).draw
    return draw(spec, rng_stream.generator(), n) - mean_shift(spec)


def _blocks(n: int, size: int) -> list[int]:
    """Sizes of the consecutive blocks of at most ``size`` that make up n items."""
    full, rest = divmod(n, size)
    return [size] * full + ([rest] if rest else [])


def _row_sums(n: int, k: int, rows_of) -> np.ndarray:
    """n sums of k summands, drawn ``rows_of(m)`` in blocks of bounded size."""
    out = np.empty(n, dtype=float)
    pos = 0
    for m in _blocks(n, max(1, _CHUNK_ELEMS // k)):
        out[pos:pos + m] = rows_of(m)
        pos += m
    return out


def _weighted_chisq_draw(spec: WeightedChiSq, rng: np.random.Generator, n: int) -> np.ndarray:
    u = spec.u.as_array()

    def rows_of(m):
        z = rng.standard_normal((m, len(u)))
        return (z * z) @ u

    return _row_sums(n, len(u), rows_of)


def _integer_support_x(mu: float, side: Side, end: int) -> list[float]:
    """Centered thresholds of an integer-valued Y on {0, ..., end - 1}."""
    if side is Side.UPPER:
        return [j - mu for j in range(math.ceil(mu - 1e-9), end)]
    return [mu - j for j in range(math.floor(mu + 1e-9), -1, -1)]


def _unbounded_above(spec, mu):
    return math.inf, mu


_FAMILY: dict[type, _Family] = {
    Gamma: _Family(
        "gamma", mean=lambda s: s.alpha, variance=lambda s: s.alpha,
        extent=_unbounded_above, cgf=_gamma_cgf, cgf_sup=lambda s: 1.0,
        draw=lambda s, rng, n: rng.standard_gamma(s.alpha, size=n)),
    ChiSq: _Family(
        "chisq", mean=lambda s: float(s.k), variance=lambda s: 2.0 * s.k,
        extent=_unbounded_above, cgf=_chisq_cgf, cgf_sup=lambda s: 0.5,
        draw=lambda s, rng, n: rng.chisquare(s.k, size=n)),
    WeightedChiSq: _Family(
        "weighted_chisq", mean=lambda s: math.fsum(s.u.u), variance=lambda s: 2.0 * s.u.l2_sq,
        extent=_unbounded_above, draw=_weighted_chisq_draw,
        cgf=_weighted_chisq_cgf, cgf_sup=lambda s: 1.0 / (2.0 * s.u.linf)),
    NoncentralChiSq: _Family(
        "noncentral_chisq", mean=lambda s: s.k + s.lam,
        variance=lambda s: 2.0 * s.k + 4.0 * s.lam,
        extent=_unbounded_above, cgf=_nc_chisq_cgf, cgf_sup=lambda s: 0.5,
        draw=lambda s, rng, n: (rng.chisquare(s.k, size=n) if s.lam == 0.0
                                else rng.noncentral_chisquare(s.k, s.lam, size=n))),
    Beta: _Family(
        "beta", mean=lambda s: s.alpha / (s.alpha + s.beta),
        variance=lambda s: s.alpha * s.beta / ((s.alpha + s.beta) ** 2 * (s.alpha + s.beta + 1.0)),
        extent=lambda s, mu: (1.0 - mu, mu),
        draw=lambda s, rng, n: rng.beta(s.alpha, s.beta, size=n)),
    Binomial: _Family(
        "binomial", mean=lambda s: s.k * s.p, variance=lambda s: s.k * s.p * (1.0 - s.p),
        extent=lambda s, mu: (s.k - mu, mu),
        cgf=lambda s, t: s.k * (np.logaddexp(math.log1p(-s.p), math.log(s.p) + t) - s.p * t),
        draw=lambda s, rng, n: rng.binomial(s.k, s.p, size=n).astype(float),
        support_x=lambda s, side: _integer_support_x(s.k * s.p, side, s.k + 1)),
    Poisson: _Family(
        "poisson", mean=lambda s: s.lam, variance=lambda s: s.lam,
        extent=_unbounded_above, cgf=lambda s, t: s.lam * (np.expm1(t) - t),
        draw=lambda s, rng, n: rng.poisson(s.lam, size=n).astype(float),
        support_x=lambda s, side: _integer_support_x(
            s.lam, side, int(s.lam + 20.0 * math.sqrt(s.lam) + 200.0))),
    IrwinHall: _Family(
        "irwin_hall", mean=lambda s: s.k / 2.0, variance=lambda s: s.k / 12.0,
        extent=lambda s, mu: (s.k / 2.0, s.k / 2.0), cgf=_irwin_hall_cgf,
        draw=lambda s, rng, n: _row_sums(n, s.k, lambda m: rng.random((m, s.k)).sum(axis=1))),
    RademacherSum: _Family(
        "rademacher", mean=lambda s: 0.0, variance=lambda s: float(s.k),
        extent=lambda s, mu: (float(s.k), float(s.k)), cgf=_rademacher_cgf,
        draw=lambda s, rng, n: 2.0 * rng.binomial(s.k, 0.5, size=n).astype(float) - s.k,
        support_x=lambda s, side: [float(p) for p in (2 * j - s.k for j in range(s.k + 1))
                                   if p >= 0]),
    Normal: _Family(
        "normal", mean=lambda s: 0.0, variance=lambda s: s.sigma2,
        extent=lambda s, mu: (math.inf, math.inf), cgf=lambda s, t: 0.5 * s.sigma2 * t * t,
        draw=lambda s, rng, n: rng.normal(0.0, math.sqrt(s.sigma2), size=n)),
}
_BY_NAME = {fam.name: cls for cls, fam in _FAMILY.items()}
