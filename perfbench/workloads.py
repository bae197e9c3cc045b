"""The three benchmark workloads, their input generators and correctness checks.

Every workload is a closed loop driven by one caller in one thread: the next
operation starts only when the previous one has returned.  Inputs come from
the benchmark seed alone, in blocks; block 0 always runs in full.

The bound-tightness (gap) metrics of `point-bounds` and `quantile-map` are
taken outside the timed loop on a *gap block*: block 0 of the fixed seed
GAP_SEED.  Their per-row gaps are heavy-tailed (rows near a support edge
have upper gaps of 100 nats and more), so a mean over a seed-dependent
block would move with the seed more than with the program.  On `sweep` the
gap rows are the rows of the first report.

Correctness is checked in log space, outside the timed loop:

* a bound row fails if ``log L > log P_hi`` or ``log U < log P_lo``, where
  ``[P_lo, P_hi]`` is the exact oracle value widened by ``LOG_TOL`` nats, or
  the Clopper-Pearson interval of one cached Monte Carlo sample per spec;
* a quantile query fails if the returned threshold misses the requested
  depth and is not a faithful rounding of the exact quantile (continuous
  families), or is not the nearest attained support point (discrete
  families);
* any unexpected exception is a failure.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tailbound as tb
from tailbound.dist_model import mean_shift, spec_from_json, spec_to_json, variance

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LOG_TOL = 1e-9           # nats of slack around an analytic oracle value
QUANTILE_REL_TOL = 1e-6  # relative error allowed in log(tail) at a mapped quantile
GAP_CAP = 100.0          # nats; a zero lower bound counts as this far below
MC_SEED_STREAM = 1_000_003  # disjoint from the harness's (seed, 4 f + s) streams
SWEEP_MC_DRAWS = 10**6
POINT_MC_DRAWS = 10**5
VERIFY_TIMEOUT_S = 150
SWEEP_MIN_RUNS = 3
GAP_SEED = 0  # the gap block is block 0 of this seed, whatever the run's seed


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


def _log(v) -> float:
    return -math.inf if v is None else float(v)


# ---------------------------------------------------------------------------
# oracle interval and the log-space bound check
# ---------------------------------------------------------------------------


@dataclass
class Oracle:
    """Exact tail intervals in log space; one cached Monte Carlo sample per spec
    for the families without an analytic oracle."""

    seed: int
    mc_draws: int
    _samples: dict = field(default_factory=dict)

    def interval(self, spec, side: tb.Side, x: float) -> tuple[float, float, float]:
        """(log P, log P_lo, log P_hi) for the tail at x."""
        exact = tb.exact_tail(spec, side, x, mc_n=100)   # tiny sample: only its kind is used
        if exact.error.kind != "monte_carlo":
            lp = exact.log_value
            return lp, lp - LOG_TOL, lp + LOG_TOL
        draws = self._samples.get(spec)
        if draws is None:
            draws = tb.sample(spec, tb.RngStream(self.seed, MC_SEED_STREAM), self.mc_draws)
            draws.sort()
            self._samples[spec] = draws
        n = len(draws)
        if side is tb.Side.UPPER:
            count = n - int(draws.searchsorted(x, side="left"))
        else:
            count = int(draws.searchsorted(-x, side="right"))
        lo, hi = tb.clopper_pearson(count, n)
        return (math.log(count / n) if count else -math.inf,
                math.log(lo) if lo > 0.0 else -math.inf,
                math.log(hi) if hi > 0.0 else -math.inf)


@dataclass
class BoundRow:
    spec: object
    side: tb.Side
    x: float
    lower_log: float
    upper_log: float
    lower_method: str | None
    error: str | None = None      # an exception: the row has no bounds
    reported_failed: bool = False  # the program itself marked the row failed

    def to_json(self) -> dict:
        def fin(v):
            return None if v == -math.inf else v

        return {"spec": spec_to_json(self.spec), "side": self.side.value, "x": self.x,
                "lower_log": fin(self.lower_log), "upper_log": fin(self.upper_log),
                "lower_method": self.lower_method}


@dataclass
class BoundCheck:
    failed: int = 0
    examples: list = field(default_factory=list)
    lower_gaps: list = field(default_factory=list)
    upper_gaps: list = field(default_factory=list)

    def fail(self, row: BoundRow, why: str) -> None:
        self.failed += 1
        if len(self.examples) < 5:
            self.examples.append(f"{spec_to_json(row.spec)} {row.side.value} x={row.x}: {why}")


def check_bound_row(oracle: Oracle, row: BoundRow, result: BoundCheck, gaps: bool) -> None:
    if row.error is not None:
        result.fail(row, row.error)
        return
    lp, lo, hi = oracle.interval(row.spec, row.side, row.x)
    if row.reported_failed:
        result.fail(row, "the report marks the row failed")
    elif row.lower_log > hi:
        result.fail(row, f"log L = {row.lower_log} > log P_hi = {hi}")
    elif row.upper_log < lo:
        result.fail(row, f"log U = {row.upper_log} < log P_lo = {lo}")
    if gaps and lp > -math.inf:
        result.lower_gaps.append(min(lp - row.lower_log, GAP_CAP))
        result.upper_gaps.append(row.upper_log - lp)


# ---------------------------------------------------------------------------
# shared run record
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    latencies_s: list            # one per timed operation
    loop_s: float                # wall time of the timed loop
    ops: int                     # operations completed in the timed loop
    attempted: int
    failed: int
    lower_gap: float
    upper_gap: float
    rows: list = field(default_factory=list)     # gap-block rows, for the baseline file
    examples: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def _mean(values) -> float:
    return math.fsum(values) / len(values) if values else float("nan")


# ---------------------------------------------------------------------------
# sweep: the `tailbound verify` command as a subprocess
# ---------------------------------------------------------------------------


def verify_once(seed: int, out: Path, env_extra: dict | None = None,
                spans: Path | None = None):
    """Run `verify` with its defaults; returns (wall seconds, report or an error string).

    With ``spans`` the command runs under the span tracer, which writes there.
    """
    if out.exists():
        out.unlink()
    cli = ["-m", "tailbound.cli"] if spans is None else \
        [str(Path(__file__).with_name("traced_cli.py")), str(spans)]
    cmd = [sys.executable, *cli, "verify", "--seed", str(seed), "--out", str(out)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(env_extra), cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=VERIFY_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode not in (0, 1) or not out.exists():   # 1 = certification failure
        return wall, f"verify exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    with open(out, encoding="utf-8") as fh:
        return wall, json.load(fh)


def report_rows(report: dict) -> list[BoundRow]:
    rows = []
    for r in report["rows"]:
        lower = r["lower"]
        rows.append(BoundRow(spec_from_json(r["spec"]), tb.Side(r["side"]), r["x"],
                             _log(lower["log_value"]) if lower else -math.inf,
                             _log(r["upper"]["log_value"]),
                             lower["method"] if lower else None,
                             reported_failed=not r["pass"]))
    return rows


def check_reports(seed: int, reports: list) -> tuple[BoundCheck, int, list[BoundRow]]:
    """Check every report; the first complete one defines the rows and the gaps.

    A run without a report (an error string in its place) fails all of its
    rows; a report whose rows differ from the first fails the differing rows,
    since the sweep is deterministic for a given seed.
    """
    check = BoundCheck()
    first = next((r for r in reports if isinstance(r, dict)), None)
    if first is None:
        n = len(reports) * 9 * 2 * 8   # the default sweep's row count
        check.failed = n
        check.examples.extend(reports[:5])
        return check, n, []
    rows = report_rows(first)
    oracle = Oracle(seed, SWEEP_MC_DRAWS)
    for row in rows:
        check_bound_row(oracle, row, check, gaps=True)
    first_rows = [r.to_json() for r in rows]
    for report in reports:
        if report is first:
            continue
        if not isinstance(report, dict):
            check.failed += len(rows)
            check.examples.append(report)
            continue
        again = [r.to_json() for r in report_rows(report)]
        if len(again) != len(rows):
            check.failed += len(rows)
            check.examples.append("a verify run changed its row count")
            continue
        check.failed += sum(1 for a, b in zip(first_rows, again) if a != b)
    return check, len(rows) * len(reports), rows


def run_sweep(seed: int, seconds: float, tmp: Path) -> RunResult:
    walls, reports = [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < SWEEP_MIN_RUNS or time.perf_counter() < deadline:
        wall, report = verify_once(seed, tmp / "verify-report.json")
        walls.append(wall)
        reports.append(report)
    check, attempted, rows = check_reports(seed, reports)
    return RunResult(
        latencies_s=walls, loop_s=math.fsum(walls), ops=len(rows) * len(walls),
        attempted=attempted, failed=check.failed,
        lower_gap=_mean(check.lower_gaps), upper_gap=_mean(check.upper_gaps),
        rows=rows, examples=check.examples)


# ---------------------------------------------------------------------------
# point-bounds: a seeded stream of single (spec, side, x) queries
# ---------------------------------------------------------------------------

STRATA = 16  # queries per (family, side) in one block


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _point_spec(family: str, u: float, v: float, rng: random.Random):
    """A fresh spec; u and v in [0, 1) are stratified draws of its two main parameters."""
    if family == "gamma":
        return tb.Gamma(_log_uniform(0.3, 100.0, u))
    if family == "chisq":
        return tb.ChiSq(max(1, round(_log_uniform(1.0, 100.0, u))))
    if family == "weighted_chisq":
        n = 2 + int(7 * u)   # 2..8 weights
        return tb.WeightedChiSq(tb.WeightVector(tuple(rng.uniform(0.05, 1.0) for _ in range(n))))
    if family == "noncentral_chisq":
        return tb.NoncentralChiSq(1 + int(20 * v), _log_uniform(0.5, 300.0, u))
    if family == "beta":
        return tb.Beta(_log_uniform(1.0, 50.0, u), _log_uniform(1.0, 50.0, v))
    if family == "binomial":
        return tb.Binomial(max(1, round(_log_uniform(1.0, 400.0, u))), 0.02 + 0.96 * v)
    if family == "poisson":
        return tb.Poisson(_log_uniform(0.1, 200.0, u))
    if family == "irwin_hall":
        return tb.IrwinHall(2 + int(59 * u))   # 2..60, on both sides of the exact-oracle limit 30
    if family == "rademacher":
        return tb.RademacherSum(max(1, round(_log_uniform(1.0, 200.0, u))))
    if family == "normal":
        return tb.Normal(_log_uniform(0.1, 10.0, u))
    raise ValueError(family)


POINT_FAMILIES = ("gamma", "chisq", "weighted_chisq", "noncentral_chisq", "beta",
                  "binomial", "poisson", "irwin_hall", "rademacher", "normal")


def point_block(seed: int, block: int) -> list[tuple]:
    """One block of (spec, side, x): every (family, side) at STRATA depths.

    The depth x = z * sd has z log-uniform in [0.05, 8]; z and the two main
    spec parameters are stratified independently (a Latin hypercube), so
    block means vary little from seed to seed.  Every query gets its own spec.
    """
    rng = random.Random(f"point-bounds:{seed}:{block}")
    queries = []
    for family in POINT_FAMILIES:
        for side in (tb.Side.UPPER, tb.Side.LOWER):
            pu = rng.sample(range(STRATA), STRATA)
            pv = rng.sample(range(STRATA), STRATA)
            for i in range(STRATA):
                u = (pu[i] + rng.random()) / STRATA
                v = (pv[i] + rng.random()) / STRATA
                spec = _point_spec(family, u, v, rng)
                z = _log_uniform(0.05, 8.0, (i + rng.random()) / STRATA)
                queries.append((spec, side, z * math.sqrt(variance(spec))))
    rng.shuffle(queries)
    return queries


def bound_query(spec, side, x, upper_fn=None, lower_fn=None) -> BoundRow:
    upper_fn = upper_fn or tb.upper_bound
    lower_fn = lower_fn or tb.lower_bound
    try:
        u = upper_fn(spec, side, x)
        lo = lower_fn(spec, side, x)
    except Exception as exc:  # noqa: BLE001 - any exception is a failed operation
        return BoundRow(spec, side, x, -math.inf, 0.0, None, f"{type(exc).__name__}: {exc}")
    return BoundRow(spec, side, x, lo.log_value, u.log_value, lo.method)


def _timed_stream(make_block, op, seed: int, seconds: float):
    """Closed loop over the seeded block stream; block 0 always runs in full.

    Returns ([(query, result)], [latency], loop seconds).
    """
    results, latencies = [], []
    block, queue = 0, []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while True:
        if not queue:
            if block > 0 and time.perf_counter() >= deadline:
                break
            queue = list(reversed(make_block(seed, block)))
            block += 1
        if block > 1 and time.perf_counter() >= deadline:
            break
        q = queue.pop()
        t0 = time.perf_counter()
        r = op(*q)
        latencies.append(time.perf_counter() - t0)
        results.append((q, r))
    return results, latencies, time.perf_counter() - t_start


def run_point_bounds(seed: int, seconds: float, upper_fn=None, lower_fn=None) -> RunResult:
    def op(spec, side, x):
        return bound_query(spec, side, x, upper_fn, lower_fn)

    results, latencies, loop_s = _timed_stream(point_block, op, seed, seconds)
    gap_rows = [op(*q) for q in point_block(GAP_SEED, 0)]
    check = BoundCheck()
    oracle = Oracle(seed, POINT_MC_DRAWS)
    for _, row in results:
        check_bound_row(oracle, row, check, gaps=False)
    gap_oracle = Oracle(GAP_SEED, POINT_MC_DRAWS)
    for row in gap_rows:
        check_bound_row(gap_oracle, row, check, gaps=True)
    return RunResult(
        latencies_s=latencies, loop_s=loop_s, ops=len(results),
        attempted=len(results) + len(gap_rows), failed=check.failed,
        lower_gap=_mean(check.lower_gaps), upper_gap=_mean(check.upper_gaps),
        rows=gap_rows, examples=check.examples)


# ---------------------------------------------------------------------------
# quantile-map: a seeded stream of bisect_quantile(spec, side, q) calls
# ---------------------------------------------------------------------------

QUANTILE_SPECS = (
    # the default sweep's analytic families ...
    tb.Gamma(0.5), tb.ChiSq(4), tb.NoncentralChiSq(3, 2.0), tb.Beta(2.0, 5.0),
    tb.Binomial(25, 0.3), tb.Poisson(3.0), tb.IrwinHall(8), tb.RademacherSum(20),
    # ... and larger shapes
    tb.Gamma(40.0), tb.ChiSq(30), tb.Beta(8.0, 3.0), tb.Binomial(200, 0.3),
    tb.Poisson(50.0), tb.NoncentralChiSq(2, 30.0), tb.Normal(1.0),
)
QUANTILE_STRATA = 8
DISCRETE = (tb.Binomial, tb.Poisson, tb.RademacherSum)


def quantile_block(seed: int, block: int) -> list[tuple]:
    """Every (spec, side) at QUANTILE_STRATA depths, log q stratified in [1e-12, 0.5]."""
    rng = random.Random(f"quantile-map:{seed}:{block}")
    queries = []
    for spec in QUANTILE_SPECS:
        for side in (tb.Side.UPPER, tb.Side.LOWER):
            for i in range(QUANTILE_STRATA):
                q = _log_uniform(1e-12, 0.5, (i + rng.random()) / QUANTILE_STRATA)
                queries.append((spec, side, q))
    rng.shuffle(queries)
    return queries


def quantile_query(spec, side, q, quantile_fn=None):
    quantile_fn = quantile_fn or tb.bisect_quantile
    try:
        return quantile_fn(spec, side, q), None
    except Exception as exc:  # noqa: BLE001 - any exception is a failed operation
        return None, f"{type(exc).__name__}: {exc}"


def _support_step(spec) -> float:
    return 2.0 if isinstance(spec, tb.RademacherSum) else 1.0


UNATTAINABLE = "unattainable"


def check_quantile(spec, side, q, x) -> str | None:
    """None if x is a correct threshold for depth q, UNATTAINABLE if no
    threshold can be, else the reason x is wrong."""
    if x is None or math.isnan(x) or x < 0.0:
        return f"invalid threshold {x}"
    log_q = math.log(q)

    def log_tail(t):
        return tb.exact_tail(spec, side, t).log_value

    tail = log_tail(x)
    if isinstance(spec, DISCRETE):
        step = _support_step(spec)
        mu = mean_shift(spec)
        raw = mu + x if side is tb.Side.UPPER else mu - x
        if isinstance(spec, tb.RademacherSum):
            raw = 0.5 * (x + spec.k)   # x = 2j - k
        if abs(raw - round(raw)) > 1e-9 * max(1.0, abs(raw)):
            return f"x={x} is not a support point"
        if tail == -math.inf:
            return f"x={x} is not attained"
        for nb in (x - step, x + step):
            if nb >= 0.0 and log_tail(nb) > -math.inf and abs(log_tail(nb) - log_q) < abs(tail - log_q):
                return f"support point x={nb} is nearer to q={q} than x={x}"
        return None
    if log_q > log_tail(0.0):
        return UNATTAINABLE   # shallower than tail(0): no threshold x >= 0 reaches it
    if abs(tail - log_q) <= QUANTILE_REL_TOL * abs(log_q):
        return None
    # Near a support edge one step of x can move the tail by more than the
    # tolerance; a faithfully rounded threshold (the exact quantile lies
    # between the doubles next to x) is then the best any double can do.
    below, above = math.nextafter(x, -math.inf), math.nextafter(x, math.inf)
    if (below < 0.0 or log_tail(below) >= log_q) and log_q >= log_tail(above):
        return None
    return f"log tail(x={x}) = {tail} misses log q = {log_q}, and x is not a neighbour of the quantile"


def run_quantile_map(seed: int, seconds: float, quantile_fn=None) -> RunResult:
    def op(spec, side, q):
        return quantile_query(spec, side, q, quantile_fn)

    results, latencies, loop_s = _timed_stream(quantile_block, op, seed, seconds)
    gap_results = [(q, op(*q)) for q in quantile_block(GAP_SEED, 0)]
    failed, unattainable, examples = 0, 0, []
    for (spec, side, q), (x, err) in results + gap_results:
        why = err or check_quantile(spec, side, q, x)
        if why == UNATTAINABLE:
            unattainable += 1
        elif why is not None:
            failed += 1
            if len(examples) < 5:
                examples.append(f"{spec_to_json(spec)} {side.value} q={q}: {why}")
    # bound tightness at the thresholds the gap block mapped to
    gaps, rows = BoundCheck(), []
    oracle = Oracle(GAP_SEED, POINT_MC_DRAWS)
    for (spec, side, q), (x, err) in gap_results:
        if err is None and x is not None:
            rows.append(bound_query(spec, side, x))
            check_bound_row(oracle, rows[-1], gaps, gaps=True)
    return RunResult(
        latencies_s=latencies, loop_s=loop_s, ops=len(results),
        attempted=len(results) + len(gap_results) + len(rows),
        failed=failed + gaps.failed, lower_gap=_mean(gaps.lower_gaps),
        upper_gap=_mean(gaps.upper_gaps), rows=rows, examples=examples + gaps.examples,
        notes={"unattainable": unattainable})


# ---------------------------------------------------------------------------
# latency summaries
# ---------------------------------------------------------------------------


def p50(values) -> float:
    return statistics.median(values)


def p95(values) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]
