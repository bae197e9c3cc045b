"""Checks of the benchmark itself, including its negative controls.

    PYTHONPATH=src python3 -m pytest perfbench -q

The negative controls show that the failure counts are live: a faulted
program must raise ``failed`` on each workload.
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import rowdiff  # noqa: E402
import tailbound as tb  # noqa: E402
import workloads as wl  # noqa: E402
from tailbound.engine_upper import result_from_log  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def test_sweep_counts_rows_the_fault_hook_breaks(tmp_path):
    _, clean = wl.verify_once(7, tmp_path / "clean.json")
    _, faulted = wl.verify_once(7, tmp_path / "faulted.json",
                                {"TAILBOUND_FAULT_LOWER_SCALE": "1e3"})
    check, attempted, rows = wl.check_reports(7, [clean])
    assert attempted == len(rows) == 144
    assert check.failed == 0, check.examples
    check, attempted, _ = wl.check_reports(7, [faulted])
    assert attempted == 144
    assert check.failed > 0


def test_sweep_counts_rows_that_differ_between_runs(tmp_path):
    _, report = wl.verify_once(7, tmp_path / "r.json")
    changed = json.loads(json.dumps(report))
    changed["rows"][5]["upper"]["log_value"] = 0.0
    check, attempted, _ = wl.check_reports(7, [report, changed])
    assert attempted == 288
    assert check.failed == 1


def _inflated(lower_bound, factor=1e3):
    def lower(spec, side, x):
        r = lower_bound(spec, side, x)
        return result_from_log(r.log_value + math.log(factor), r.method, r.certified,
                               r.cite, r.params_used)
    return lower


def test_point_bounds_counts_inflated_lower_bounds():
    clean = wl.run_point_bounds(3, 0.0)
    assert clean.attempted == 2 * 320   # the timed block 0 and the gap block
    assert clean.failed == 0, clean.examples
    faulted = wl.run_point_bounds(3, 0.0, lower_fn=_inflated(tb.lower_bound))
    assert faulted.failed > 0
    assert faulted.lower_gap < clean.lower_gap


def test_point_bounds_counts_exceptions():
    def broken(spec, side, x):
        raise RuntimeError("boom")

    res = wl.run_point_bounds(3, 0.0, upper_fn=broken)
    assert res.failed == res.attempted == 2 * 320


def test_quantile_map_counts_displaced_thresholds():
    clean = wl.run_quantile_map(5, 0.0)
    assert clean.failed == 0, clean.examples
    faulted = wl.run_quantile_map(
        5, 0.0, quantile_fn=lambda spec, side, q: 1.001 * tb.bisect_quantile(spec, side, q) + 1e-3)
    assert faulted.failed > 0


def test_quantile_check_accepts_faithful_rounding_only():
    # Gamma(0.5), lower tail: next to the support edge 0.5 one step of x moves
    # the tail by more than the tolerance; the double nearest the exact
    # quantile passes, a threshold one step further out does not.
    spec, side = tb.Gamma(0.5), tb.Side.LOWER
    x = tb.bisect_quantile(spec, side, 1e-7)
    assert wl.check_quantile(spec, side, 1e-7, x) is None
    assert wl.check_quantile(spec, side, 1e-7, math.nextafter(math.nextafter(x, 1.0), 1.0)) \
        is not None
    assert wl.check_quantile(spec, side, 0.9, 0.0) == wl.UNATTAINABLE


def test_rowdiff_against_itself_and_a_looser_copy(tmp_path):
    base = HERE / "baseline" / "sweep-seed42.jsonl"
    rows = rowdiff.load(base)
    assert rowdiff.looser_rows(rows, rows) == ([], [])
    looser = dict(rows)
    key = next(k for k, r in rows.items() if r["lower_log"] is not None)
    looser[key] = dict(rows[key], lower_log=rows[key]["lower_log"] - 1e-12)
    found, missing = rowdiff.looser_rows(rows, looser)
    assert len(found) == 1 and not missing


def test_tracer_spans_layers_and_restores_the_package():
    original = tb.dist_bounds.lower_bound
    queries = wl.point_block(1, 0)[:20]
    with Tracer() as tracer:
        for q in queries:
            wl.bound_query(*q)
    assert tb.dist_bounds.lower_bound is original
    assert tb.harness.lower_bound is original
    m = layer_metrics(tracer.spans, tracer.counters)
    assert sum(v for k, v in m.items() if k.startswith("dist_bounds.lower_bound.")) > 0
    names = {s[2] for s in tracer.spans}
    assert "dist_bounds.upper_bound" in names
    # calls inside a module are not spans: every span crosses a module boundary
    assert all(not s[3].endswith(s[2].split(".")[0]) for s in tracer.spans)
