"""Sweep runner that certifies lower <= exact <= upper across families.

A run is deterministic given its seed: Monte Carlo oracles draw from streams
keyed by (seed, family index, side), rows are indexed up front, and results
are merged in row order no matter how many workers executed them.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import __version__ as _VERSION
from .dist_bounds import NUMERIC, BoundTier, lower_bound, upper_bound
from .dist_model import (
    Beta, Binomial, ChiSq, DistSpec, Gamma, IrwinHall, NoncentralChiSq,
    Poisson, RademacherSum, RngStream, Side, WeightedChiSq, WeightVector,
    _family, sample, spec_from_json, spec_to_json, support_extent, variance,
)
from .engine_upper import BoundResult
from .errors import DomainError, WindowError
from .oracle import MonteCarloError, TailEstimate, _oracle, clopper_pearson, exact_tail

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


def bisect_quantile(spec: DistSpec, side: Side, q: float,
                    mc_draws: np.ndarray | None = None) -> float:
    """Centered threshold x whose exact tail is q.

    Continuous families bisect the analytic tail; discrete families return
    the attained support point whose tail is nearest q in log space; Monte
    Carlo families use the empirical quantile of a cached (or fresh) sample.
    """
    x, _ = _bisect_quantile_flagged(spec, side, q, mc_draws)
    return x


def _side_draws(spec: DistSpec, side: Side, seed: int, n: int, stream: int = 0) -> np.ndarray:
    draws = sample(spec, RngStream(seed, stream), n)
    s = draws if side is Side.UPPER else -draws
    s.sort()
    return s


def _mc_tail_from_draws(s: np.ndarray, x: float, confidence: float = 0.99) -> TailEstimate:
    n = len(s)
    count = int(n - np.searchsorted(s, x, side="left"))
    lo, hi = clopper_pearson(count, n, confidence)
    value = count / n
    return TailEstimate(value=value,
                        log_value=math.log(value) if count else -math.inf,
                        error=MonteCarloError(lo, hi, n, confidence))


def _bisect_quantile_flagged(spec, side, q, mc_draws=None):
    if not (0.0 < q < 1.0):
        raise DomainError(f"need 0 < q < 1, got {q}")
    side = Side(side)

    if _is_mc_family(spec):
        s = mc_draws if mc_draws is not None else _side_draws(spec, side, 0, 10**6)
        x = float(np.quantile(s, 1.0 - q))
        return max(0.0, x), None

    if _family(spec).support_x is not None:
        best = None
        log_q = math.log(q)
        for x in _discrete_support_x(spec, side):
            if x < 0.0:
                continue
            t = exact_tail(spec, side, x).log_value
            if t == -math.inf:
                continue
            d = abs(t - log_q)
            if best is None or d < best[0]:
                best = (d, x)
        if best is None:
            return 0.0, "unattainable"
        return best[1], None

    def tail(x: float) -> float:
        return exact_tail(spec, side, x).value

    if tail(0.0) < q:
        return 0.0, "unattainable"
    hi = support_extent(spec, side)
    if not math.isfinite(hi):
        hi = math.sqrt(variance(spec))
        for _ in range(200):
            if tail(hi) < q:
                break
            hi *= 2.0
    lo = 0.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if tail(mid) > q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), None


def _row_tasks(families, x_policy, tiers, seed, mc_n):
    """Materialize all row inputs up front (deterministic ordering and streams)."""
    tasks = []
    caches: dict[tuple[int, str], np.ndarray] = {}
    for fi, spec in enumerate(families):
        for si, side in enumerate((Side.UPPER, Side.LOWER)):
            draws = None
            if _is_mc_family(spec):
                draws = _side_draws(spec, side, seed, mc_n, stream=4 * fi + si)
                caches[(fi, side.value)] = draws
            if isinstance(x_policy, QuantileGrid):
                xs = []
                for q in x_policy.q:
                    x, flag = _bisect_quantile_flagged(spec, side, q, mc_draws=draws)
                    xs.append((x, flag))
            else:
                xs = [(float(x), None) for x in x_policy.x]
            for x, flag in xs:
                for tier in tiers:
                    tasks.append((fi, spec, side, x, tier, flag))
    return tasks, caches


def _compute_row(task, caches, tol, fault_lower_scale) -> CertRow:
    fi, spec, side, x, tier, flag = task
    if _is_mc_family(spec):
        exact = _mc_tail_from_draws(caches[(fi, side.value)], x)
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
    passed = (lower_val <= exact_hi + tol) and (upper.value >= exact_lo - tol)
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
    threads: int = 1,
    mc_n: int = 10**6,
    tol: float = 1e-10,
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
    tasks, caches = _row_tasks(families, x_policy, tiers, seed, mc_n)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(
                lambda t: _compute_row(t, caches, tol, fault_lower_scale), tasks))
    else:
        rows = [_compute_row(t, caches, tol, fault_lower_scale) for t in tasks]
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


def report_from_json(obj: dict) -> dict:
    """Round-trip helper: parse a serialized report and re-serialize its rows.

    Returns the parsed dict after validating the row schema keys.
    """
    required = {"rows", "summary", "seed", "tool_version", "timestamp"}
    if not required.issubset(obj):
        raise DomainError(f"report missing keys: {sorted(required - set(obj))}")
    for row in obj["rows"]:
        spec_from_json(row["spec"])
        for key in ("side", "x", "exact", "upper", "lower", "pass",
                    "slack_upper", "slack_lower"):
            if key not in row:
                raise DomainError(f"report row missing key {key!r}")
    return obj
