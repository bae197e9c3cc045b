"""tailbound benchmark.

    python3 perfbench/run.py --workload {sweep,point-bounds,quantile-map} \
        --seed N --seconds S --trace {0,1} [--rows-out FILE]

Run from the repository root; the package is imported from ``src``.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
prints the per-layer metrics of a traced run and writes its spans to
``.perfbench/spans-<workload>-<seed>.jsonl``.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("sweep", "point-bounds", "quantile-map")
SETUP_REPEATS = 7

END_TO_END = (  # name, unit, better
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("lower_gap_nats", "nats", "lower"),
    ("upper_gap_nats", "nats", "lower"),
)


def per_layer_units() -> dict[str, str]:
    from tracer import FAMILIES
    units = {
        "specfun.calls": "count", "specfun.self_ms": "ms",
        "specfun.inc_gamma_series_us": "us", "specfun.inc_gamma_cf_us": "us",
        "specfun.inc_beta_us": "us",
        "dist_model.log_mgf_evals": "count", "dist_model.sample.draws": "count",
        "dist_model.sample.self_ms": "ms",
        "oracle.exact_tail.calls": "count", "oracle.exact_tail.self_ms": "ms",
    }
    units.update({f"oracle.exact_tail.{f}.ms": "ms" for f in FAMILIES})
    units.update({
        "oracle.clopper_pearson.calls": "count", "oracle.clopper_pearson.self_ms": "ms",
        "oracle.clopper_pearson_1e6_us": "us",
        "engine_upper.chernoff_upper.calls": "count", "engine_upper.chernoff_upper.self_ms": "ms",
        "engine_lower.reverse_chernoff_lower.calls": "count",
        "engine_lower.reverse_chernoff_lower.self_ms": "ms",
        "engine_lower.pz_lower.calls": "count", "engine_lower.pz_lower.self_ms": "ms",
        "engine_lower.rc_win_ratio": "ratio",
    })
    units.update({f"dist_bounds.lower_bound.{f}.ms": "ms" for f in FAMILIES})
    units.update({
        "dist_bounds.upper_bound.self_ms": "ms", "dist_bounds.window_skips": "count",
        "dist_bounds.zero_lower": "count",
        "harness.run_grid_s": "s", "harness.exact_tail_calls": "count",
        "harness.bisect_quantile.self_ms": "ms",
        "cli.self_s": "s", "trace.overhead_ratio": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# measurements shared by all workloads
# ---------------------------------------------------------------------------


def measure_setup_s(child_env) -> float:
    """Median wall time of a fresh interpreter running `import tailbound`."""
    cmd = [sys.executable, "-c", "import tailbound"]
    times = []
    for i in range(SETUP_REPEATS + 1):   # the first run warms the bytecode cache
        t0 = time.perf_counter()
        subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, timeout=120)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def micro_us(fn, *args) -> float:
    """Median per-call time of fn(*args) in microseconds."""
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn(*args)
        if time.perf_counter() - t0 >= 0.02:
            break
        number *= 2
    reps = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(number):
            fn(*args)
        reps.append((time.perf_counter() - t0) / number)
    return 1e6 * statistics.median(reps)


def micro_timings() -> dict[str, float]:
    from tailbound import clopper_pearson, specfun
    return {
        "specfun.inc_gamma_series_us": micro_us(specfun.reg_inc_gamma_lower, 10.0, 4.0),
        "specfun.inc_gamma_cf_us": micro_us(specfun.reg_inc_gamma_upper, 10.0, 30.0),
        "specfun.inc_beta_us": micro_us(specfun.reg_inc_beta, 8.0, 3.0, 0.6),
        "oracle.clopper_pearson_1e6_us": micro_us(clopper_pearson, 500, 10**6),
    }


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def run_end_to_end(wl, workload: str, seed: int, seconds: float):
    setup_s = measure_setup_s(wl.child_env)
    if workload == "sweep":
        res = wl.run_sweep(seed, seconds, OUT)
        op = "verify runs"
    elif workload == "point-bounds":
        res = wl.run_point_bounds(seed, seconds)
        op = "queries"
    else:
        res = wl.run_quantile_map(seed, seconds)
        op = "queries"
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": 1e3 * wl.p50(res.latencies_s),
        "latency_p95_ms": 1e3 * wl.p95(res.latencies_s),
        "ops_per_s": res.ops / res.loop_s,
        "lower_gap_nats": res.lower_gap,
        "upper_gap_nats": res.upper_gap,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
        "latency_p50_ms": f"median of {len(res.latencies_s)} {op}",
        "latency_p95_ms": f"95th percentile of {len(res.latencies_s)} {op}",
        "ops_per_s": (f"{res.ops} rows in {res.loop_s:.2f} s of verify" if workload == "sweep"
                      else f"{res.ops} queries in {res.loop_s:.2f} s, closed loop, 1 caller"),
        "lower_gap_nats": f"mean over the gap block, capped at {wl.GAP_CAP:g}",
        "upper_gap_nats": "mean over the gap block",
    }
    units = {name: (unit, better) for name, unit, better in END_TO_END}
    for name, value in metrics.items():
        unit, better = units[name]
        print(f"  {name:<16} {value:>14.6g} {unit:<5} {better:<7} {notes[name]}")
    ratio = res.failed / res.attempted if res.attempted else 0.0
    print(f"  {'fail_ratio':<16} {ratio:>14.6g} {'ratio':<5} {'lower':<7} "
          f"{res.failed} failed of {res.attempted} operations")
    for name, value in res.notes.items():
        print(f"  {name:<16} {value:>14} count")
    return res, metrics, units


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def run_traced(wl, tr, workload: str, seed: int, spans_path: Path):
    """Untraced then traced pass over the same fixed work; returns (metrics, attempted, failed)."""
    extra: dict[str, float] = {"harness.run_grid_s": 0.0, "cli.self_s": 0.0}
    if workload == "sweep":
        wall_u, report_u = wl.verify_once(seed, OUT / "verify-report.json")
        wall_t, report_t = wl.verify_once(seed, OUT / "verify-traced.json", spans=spans_path)
        import tailbound
        t0 = time.perf_counter()
        tailbound.run_grid(seed=seed)
        extra["harness.run_grid_s"] = time.perf_counter() - t0
        extra["cli.self_s"] = wall_u - extra["harness.run_grid_s"]
        check, attempted, _ = wl.check_reports(seed, [report_u, report_t])
        failed = check.failed
        spans, counters = tr.read_jsonl(spans_path)
    else:
        if workload == "point-bounds":
            queries, op = wl.point_block(seed, 0), wl.bound_query
        else:
            queries, op = wl.quantile_block(seed, 0), wl.quantile_query
        t0 = time.perf_counter()
        plain = [op(*q) for q in queries]
        wall_u = time.perf_counter() - t0
        tracer = tr.Tracer()
        t0 = time.perf_counter()
        with tracer:
            traced = []
            for i, q in enumerate(queries):
                tracer.request = i
                traced.append(op(*q))
        wall_t = time.perf_counter() - t0
        tracer.write_jsonl(spans_path)
        spans, counters = tracer.spans, tracer.counters
        attempted, failed = 2 * len(queries), 0
        if workload == "point-bounds":
            check = wl.BoundCheck()
            oracle = wl.Oracle(seed, wl.POINT_MC_DRAWS)
            for row in plain + traced:
                wl.check_bound_row(oracle, row, check, gaps=False)
            failed = check.failed
        else:
            for q, (x, err) in zip(queries + queries, plain + traced):
                failed += (err or wl.check_quantile(*q, x)) not in (None, wl.UNATTAINABLE)
    metrics = tr.layer_metrics(spans, counters)
    metrics.update(extra)
    metrics.update(micro_timings())
    metrics["trace.overhead_ratio"] = wall_t / wall_u
    return metrics, attempted, failed


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rows-out", type=Path, default=None,
                   help="write the gap block's (spec, side, x, bounds) rows as JSONL")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tailbound" / "__init__.py").is_file():
        print(f"error: no tailbound package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tr
    import workloads as wl

    OUT.mkdir(exist_ok=True)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  (closed loop, one caller, no worker threads)")
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        metrics, attempted, failed = run_traced(wl, tr, args.workload, args.seed, spans_path)
        units = per_layer_units()
        assert set(metrics) == set(units), set(metrics) ^ set(units)
        for name in units:
            print(f"  {name:<44} {metrics[name]:>14.6g} {units[name]}")
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    else:
        res, metrics, units = run_end_to_end(wl, args.workload, args.seed, args.seconds)
        attempted, failed = res.attempted, res.failed
        for line in res.examples:
            print(f"  FAILED {line}")
        if args.rows_out is not None:
            with open(args.rows_out, "w", encoding="utf-8") as fh:
                for row in res.rows:
                    fh.write(json.dumps(row.to_json(), sort_keys=True) + "\n")
    bad = [n for n, v in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    unit_of = (lambda n: units[n][0]) if not args.trace else (lambda n: units[n])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
