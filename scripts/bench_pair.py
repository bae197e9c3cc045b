"""Paired benchmark of two commits: perfbench end-to-end metrics, traced counts, verify time.

    python3 scripts/bench_pair.py --base HEAD~1 --change HEAD --out BENCH.json

Each side is extracted with ``git archive`` into a scratch directory and runs
its own ``perfbench/run.py``.  For every workload in ``BENCHMARK.json``, pair i
of 10 runs both sides at seed i + 1 for the benchmark's ``run_seconds``, base
first in even pairs and change first in odd pairs, so drift of the machine
falls on both sides alike.  The output JSON gives, for each end-to-end metric,
the medians and quartiles of both sides, the change's wins over the pairs, and
whether the change is better in the median by more than the base's
interquartile range.  For every workload it also runs each side once at
``--seed 42`` with ``--rows-out`` and counts the change's rows that are looser,
tighter, unchanged or missing against the base's, with ``perfbench/rowdiff.py``,
and lists the looser and missing ones.
It adds the traced ``quantile-map --seed 42`` counts, the engine metrics of
traced ``point-bounds --seed 42`` runs (alternating, 10 runs each, summarized
as above) and the wall time of ``tailbound verify --seed 42`` on both sides
(alternating, 10 runs each), with a check that both reports have the same
bytes apart from ``timestamp``.

Run from the repository root; the runs are serial, one process at a time.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from rowdiff import load, looser_rows  # noqa: E402
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PAIRS = 10
SECONDS = BENCHMARK["run_seconds"]
TRACED_COUNTS = ("oracle.exact_tail.calls", "specfun.calls", "harness.exact_tail_calls",
                 "oracle.exact_tail.noncentral_chisq.ms", "specfun.inc_gamma_series_us",
                 "oracle.clopper_pearson_1e6_us")
TRACED_ENGINES = ("dist_model.log_mgf_evals", "engine_upper.chernoff_upper.calls",
                  "engine_upper.chernoff_upper.self_ms",
                  "engine_lower.reverse_chernoff_lower.calls",
                  "engine_lower.reverse_chernoff_lower.self_ms", "engine_lower.pz_lower.calls",
                  "engine_lower.pz_lower.self_ms", "engine_lower.rc_win_ratio")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def revision(rev: str) -> dict:
    """The commit of ``rev`` and its ``src`` tree, which later commits may share."""
    return {"commit": git("rev-parse", rev).decode().strip(),
            "src_tree": git("rev-parse", f"{rev}:src").decode().strip()}


def extract(rev: str, dest: Path) -> Path:
    """The committed files of ``rev`` under ``dest``."""
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest)
    return dest


def run_json(side: Path, *args: str) -> dict:
    """The last stdout line of ``perfbench/run.py`` on one side, parsed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=side,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verify_wall(side: Path, out: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "tailbound.cli", "verify", "--seed", "42",
                    "--out", str(out)], cwd=side, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def order(i: int) -> tuple[str, str]:
    return ("base", "change") if i % 2 == 0 else ("change", "base")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base: list[float], change: list[float], better: str) -> dict:
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0.0)
    return {
        "base": {"median": bm, "q1": b1, "q3": b3, "runs": base},
        "change": {"median": cm, "q1": c1, "q3": c3, "runs": change},
        "better": better, "change_over_base": cm / bm if bm else None,
        "wins": wins, "pairs": len(base),
        "median_gain_exceeds_base_iqr": sign * (cm - bm) > b3 - b1,
    }


def row_diff(sides: dict, workload: str, tmp: Path) -> dict:
    """Counts of the change's seed-42 rows against the base's, matched on (spec, side, x),
    with the looser and missing rows named as ``rowdiff.py`` prints them."""
    rows = {}
    for name, side in sides.items():
        path = tmp / f"rows-{workload}-{name}.jsonl"
        run_json(side, "--workload", workload, "--seed", "42", "--seconds", "1",
                 "--trace", "0", "--rows-out", str(path))
        rows[name] = load(path)
    base, change = rows["base"], rows["change"]
    looser, missing = looser_rows(base, change)
    unchanged = sum(1 for key, b in base.items() if key in change
                    and (change[key]["lower_log"], change[key]["upper_log"])
                    == (b["lower_log"], b["upper_log"]))
    return {"looser": len(looser), "missing": len(missing), "unchanged": unchanged,
            "tighter": len(base) - len(looser) - len(missing) - unchanged,
            "base_rows": len(base), "looser_rows": looser, "missing_rows": missing}


def without_timestamp(path: Path) -> str:
    return re.sub(r'"timestamp":"[^"]*"', "", path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision of the base side")
    p.add_argument("--change", required=True, help="git revision of the change side")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        tmp = Path(tmp)
        sides = {name: extract(rev, tmp / name)
                 for name, rev in (("base", args.base), ("change", args.change))}
        result = {
            "base": revision(args.base), "change": revision(args.change),
            "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                        "platform": platform.platform()},
            "seconds": SECONDS, "pairs": PAIRS, "workloads": {},
        }
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            runs = {"base": [], "change": []}
            for i in range(PAIRS):
                for name in order(i):
                    res = run_json(sides[name], "--workload", workload, "--seed", str(i + 1),
                                   "--seconds", str(SECONDS), "--trace", "0")
                    runs[name].append(res)
                    print(f"{workload} pair {i} {name}: "
                          f"ops_per_s {res['metrics']['ops_per_s']['value']:.4g}", flush=True)
            metrics = {}
            for metric in runs["base"][0]["metrics"]:
                better = next(m["better"] for m in BENCHMARK["end_to_end"] if m["name"] == metric)
                metrics[metric] = summarize(
                    [r["metrics"][metric]["value"] for r in runs["base"]],
                    [r["metrics"][metric]["value"] for r in runs["change"]], better)
            result["workloads"][workload] = {
                "metrics": metrics,
                "failed": {n: sum(r["failed"] for r in runs[n]) for n in runs},
                "attempted": {n: sum(r["attempted"] for r in runs[n]) for n in runs},
                "rows_seed42": row_diff(sides, workload, tmp),
            }

        traced = {name: run_json(side, "--workload", "quantile-map", "--seed", "42",
                                 "--seconds", str(SECONDS), "--trace", "1")
                  for name, side in sides.items()}
        result["traced_quantile_map_seed42"] = {
            metric: {name: traced[name]["metrics"][metric]["value"] for name in sides}
            for metric in TRACED_COUNTS}

        runs = {"base": [], "change": []}
        for i in range(PAIRS):
            for name in order(i):
                runs[name].append(run_json(sides[name], "--workload", "point-bounds",
                                           "--seed", "42", "--seconds", "1", "--trace", "1"))
        result["traced_point_bounds_seed42"] = {
            metric: summarize([r["metrics"][metric]["value"] for r in runs["base"]],
                              [r["metrics"][metric]["value"] for r in runs["change"]],
                              next(m["better"] for m in BENCHMARK["per_layer"]
                                   if m["name"] == metric))
            for metric in TRACED_ENGINES}

        walls = {"base": [], "change": []}
        for i in range(PAIRS):
            for name in order(i):
                walls[name].append(verify_wall(sides[name], tmp / f"verify-{name}.json"))
        result["verify_seed42_s"] = summarize(walls["base"], walls["change"], "lower")
        result["verify_seed42_same_bytes_but_timestamp"] = (
            without_timestamp(tmp / "verify-base.json")
            == without_timestamp(tmp / "verify-change.json"))

    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
