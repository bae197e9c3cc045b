"""Sweep runner that certifies lower <= exact <= upper across families.

A run is deterministic given its seed: a Monte Carlo family's rows read one
sample per side, drawn from the stream keyed by (seed, family index, side),
and rows come out in (family, side, x, tier) order.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import __version__ as _VERSION
from .dist_bounds import NUMERIC, BoundTier, lower_bound, upper_bound
from .dist_model import (
    Beta, Binomial, ChiSq, DistSpec, Gamma, IrwinHall, NoncentralChiSq,
    Poisson, RademacherSum, RngStream, Side, WeightedChiSq, WeightVector,
    _family, sample, spec_to_json, support_extent, variance,
)
from .engine_upper import BoundResult
from .errors import DomainError, WindowError
from .oracle import TailEstimate, _mc_estimate, _oracle, exact_tail
from .specfun import _bracket_search

DEFAULT_QUANTILES = (0.5, 0.25, 0.1, 0.05, 0.01, 1e-3, 1e-5, 1e-8)

DEFAULT_FAMILIES: tuple[DistSpec, ...] = (
    Gamma(0.5),
    ChiSq(4),
    WeightedChiSq(WeightVector((1.0, 0.7, 0.4, 0.1))),
    NoncentralChiSq(3, 2.0),
    Beta(2.0, 5.0),
    Binomial(25, 0.3),
    Poisson(3.0),
    IrwinHall(8),
    RademacherSum(20),
)


@dataclass(frozen=True)
class QuantileGrid:
    q: tuple[float, ...]

    def __post_init__(self):
        if not self.q or any(not (0.0 < v < 1.0) for v in self.q):
            raise DomainError("quantile grid must be nonempty with 0 < q < 1")


@dataclass(frozen=True)
class AbsoluteGrid:
    x: tuple[float, ...]

    def __post_init__(self):
        if not self.x or any(v < 0.0 for v in self.x):
            raise DomainError("absolute grid must be nonempty with x >= 0")


XPolicy = Union[QuantileGrid, AbsoluteGrid]


@dataclass(frozen=True)
class CertRow:
    spec: DistSpec
    side: Side
    x: float
    exact: TailEstimate
    upper: BoundResult
    lower: BoundResult | None
    passed: bool
    slack_upper: float
    slack_lower: float
    skip: str | None = None

    def to_json(self) -> dict:
        row = {
            "spec": spec_to_json(self.spec),
            "side": self.side.value,
            "x": self.x,
            "exact": self.exact.to_json(),
            "upper": self.upper.to_json(),
            "lower": None if self.lower is None else self.lower.to_json(),
            "pass": self.passed,
            "slack_upper": self.slack_upper,
            "slack_lower": self.slack_lower,
        }
        if self.skip is not None:
            row["skip"] = self.skip
        return row


@dataclass(frozen=True)
class CertReport:
    rows: tuple[CertRow, ...]
    summary: dict
    seed: int
    tool_version: str
    timestamp: str

    def to_json(self) -> dict:
        return {
            "rows": [r.to_json() for r in self.rows],
            "summary": dict(self.summary),
            "seed": self.seed,
            "tool_version": self.tool_version,
            "timestamp": self.timestamp,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


def _is_mc_family(spec: DistSpec) -> bool:
    return _oracle(spec).monte_carlo(spec)


def _discrete_support_x(spec: DistSpec, side: Side):
    """Attained centered thresholds x >= 0, shallow to deep."""
    support_x = _family(spec).support_x
    if support_x is None:
        raise DomainError(f"not a discrete family: {spec!r}")
    return support_x(spec, side)


def bisect_quantile(spec: DistSpec, side: Side, q: float, seed: int = 0) -> float:
    """Centered threshold x whose exact tail is q.

    Continuous families search the analytic tail for the adjacent doubles
    where ``tail(x) > q`` turns false (``specfun._bracket_search`` on the log
    tail, for at most 90 tests), and return 0 where the tail at 0 is q within
    the oracle's error, as at the median of a symmetric family.  Discrete
    families return the attained support point whose tail is nearest q in log
    space; Monte Carlo families use the empirical quantile of 10**6 draws from
    ``seed``.
    """
    x, _ = _bisect_quantile_flagged(spec, side, q, seed=seed)
    return x


def _side_draws(spec: DistSpec, side: Side, seed: int, n: int, stream: int = 0) -> np.ndarray:
    draws = sample(spec, RngStream(seed, stream), n)
    s = draws if side is Side.UPPER else -draws
    s.sort()
    return s


def _sorted_quantile(s: np.ndarray, p: float) -> float:
    """np.quantile(s, p) of an ascending s, bit for bit: numpy's ``linear`` rule."""
    h = (len(s) - 1) * p
    i = math.floor(h)
    if i >= len(s) - 1:
        return float(s[-1])
    a, b, g = float(s[i]), float(s[i + 1]), h - i
    return b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g


def _bisect_quantile_flagged(spec, side, q, mc_draws=None, seed=0):
    if not (0.0 < q < 1.0):
        raise DomainError(f"need 0 < q < 1, got {q}")
    side = Side(side)

    if _is_mc_family(spec):
        s = mc_draws if mc_draws is not None else _side_draws(spec, side, seed, 10**6)
        return max(0.0, _sorted_quantile(s, 1.0 - q)), None

    if _family(spec).support_x is not None:
        return _nearest_support_x(spec, side, math.log(q))

    log_q = math.log(q)

    def probe(x: float) -> tuple[bool, float]:
        t = exact_tail(spec, side, x)
        return t.value > q, t.log_value - log_q

    at0 = exact_tail(spec, side, 0.0)
    ci_lo, ci_hi = at0.ci()
    if ci_lo <= q <= ci_hi:  # the tail at 0 is q within the oracle's error: a median
        return 0.0, None
    if at0.value < q:
        return 0.0, "unattainable"
    lo, d_lo = 0.0, at0.log_value - log_q
    hi, d_hi = support_extent(spec, side), math.nan
    if not math.isfinite(hi):
        hi = math.sqrt(variance(spec))
        for _ in range(200):
            below, d = probe(hi)
            if not below:
                d_hi = d
                break
            lo, d_lo = hi, d  # a doubled point still above q is the bracket's lower end
            hi *= 2.0
    return _bracket_search(probe, lo, hi, 90, d_lo, d_hi), None


def _nearest_support_x(spec, side, log_q):
    """(x, None) for the attained support point x >= 0 whose log tail is
    nearest log_q, the shallowest on a tie; (0.0, "unattainable") when every
    tail is 0.

    The log tail does not increase along the support, so a binary search over
    the index finds the first point whose tail is below q; the answer is that
    point or the one before it, stepped back over equal distances.  This picks
    the first minimiser of a scan over every support point.
    """
    xs = [x for x in _discrete_support_x(spec, side) if x >= 0.0]
    lo, hi = 0, len(xs)
    left = right = None  # log tails at xs[lo - 1] and xs[hi], once tested
    while lo < hi:
        mid = (lo + hi) // 2
        t = exact_tail(spec, side, xs[mid]).log_value
        if t < log_q:
            hi, right = mid, t
        else:
            lo, left = mid + 1, t
    if left is not None and (right is None or abs(left - log_q) <= abs(right - log_q)):
        d, i = abs(left - log_q), lo - 1
        while i > 0 and abs(exact_tail(spec, side, xs[i - 1]).log_value - log_q) == d:
            i -= 1
        return xs[i], None
    if right is None or right == -math.inf:
        return 0.0, "unattainable"
    return xs[hi], None


_PASS_TOL = 1e-10  # absolute slack of the pass check on each side


def _compute_row(spec, side, x, tier, flag, draws, fault_lower_scale) -> CertRow:
    if draws is not None:  # sorted, so the draws >= x are the last ones
        exact = _mc_estimate(int(len(draws) - np.searchsorted(draws, x, side="left")), len(draws))
    else:
        exact = exact_tail(spec, side, x)
    upper = upper_bound(spec, side, x)
    skip = flag
    lower = None
    try:
        lower = lower_bound(spec, side, x, tier=tier)
    except WindowError as exc:
        skip = f"window: {exc}" if skip is None else f"{skip}; window: {exc}"
    exact_lo, exact_hi = exact.ci()
    lower_val = 0.0 if lower is None else lower.value * fault_lower_scale
    passed = (lower_val <= exact_hi + _PASS_TOL) and (upper.value >= exact_lo - _PASS_TOL)
    return CertRow(
        spec=spec, side=side, x=x, exact=exact, upper=upper, lower=lower,
        passed=passed,
        slack_upper=upper.value - exact.value,
        slack_lower=exact.value - lower_val,
        skip=skip,
    )


def run_grid(
    families=DEFAULT_FAMILIES,
    x_policy: XPolicy | None = None,
    tiers: tuple[BoundTier, ...] = (NUMERIC,),
    seed: int = 42,
    mc_n: int = 10**6,
    fault_lower_scale: float = 1.0,
) -> CertReport:
    """Certify every (family, side, x, tier) cell and report pass/fail rows.

    Window errors mark the row skipped (and passing) rather than aborting.
    fault_lower_scale is a negative-control hook: scaling certified lower
    bounds up should break certification.
    """
    if x_policy is None:
        x_policy = QuantileGrid(DEFAULT_QUANTILES)
    families = tuple(families)
    if not families:
        raise DomainError("run_grid needs at least one family")
    rows = []
    for fi, spec in enumerate(families):
        for si, side in enumerate((Side.UPPER, Side.LOWER)):
            draws = None
            if _is_mc_family(spec):
                draws = _side_draws(spec, side, seed, mc_n, stream=4 * fi + si)
            if isinstance(x_policy, QuantileGrid):
                xs = [_bisect_quantile_flagged(spec, side, q, mc_draws=draws)
                      for q in x_policy.q]
            else:
                xs = [(float(x), None) for x in x_policy.x]
            for x, flag in xs:
                rows.extend(_compute_row(spec, side, x, tier, flag, draws, fault_lower_scale)
                            for tier in tiers)
    n_pass = sum(1 for r in rows if r.passed)
    summary = {
        "n_pass": n_pass,
        "n_fail": len(rows) - n_pass,
        "n_skip": sum(1 for r in rows if r.skip is not None),
        "families": [spec_to_json(s)["family"] for s in families],
    }
    return CertReport(
        rows=tuple(rows),
        summary=summary,
        seed=seed,
        tool_version=_VERSION,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )

