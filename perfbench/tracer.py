"""Span tracer that wraps tailbound's public functions from outside the package.

The package binds names with ``from .x import f``, so wrapping a function
means replacing every binding of it: in its own module and in each calling
module's namespace.  A call made from inside the function's own module is
passed straight through, so a span marks a call *into* a module (a layer
boundary), never a module's internal helper traffic.

Spans are kept in memory as ``[id, parent, name, caller, request, start, end,
extra]`` and written as JSONL when the run ends.  Self time is a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("specfun", "dist_model", "oracle", "engine_upper", "engine_lower",
          "dist_bounds", "harness", "cli")
FAMILIES = ("gamma", "chisq", "weighted_chisq", "noncentral_chisq", "beta",
            "binomial", "poisson", "irwin_hall", "rademacher", "normal")

ID, PARENT, NAME, CALLER, REQUEST, START, END, EXTRA = range(8)


_CLASS_FAMILY = {
    "Gamma": "gamma", "ChiSq": "chisq", "WeightedChiSq": "weighted_chisq",
    "NoncentralChiSq": "noncentral_chisq", "Beta": "beta", "Binomial": "binomial",
    "Poisson": "poisson", "IrwinHall": "irwin_hall", "RademacherSum": "rademacher",
    "Normal": "normal",
}


def _family_of(args, kwargs):
    spec = args[0] if args else kwargs.get("spec")
    return _CLASS_FAMILY.get(type(spec).__name__)


def _note_family(args, kwargs, result):
    return {"family": _family_of(args, kwargs)}


def _note_lower_bound(args, kwargs, result):
    return {"family": _family_of(args, kwargs), "method": result.method,
            "zero": result.value == 0.0}


def _note_sample(args, kwargs, result):
    return {"draws": len(result)}


_NOTES = {
    "oracle.exact_tail": _note_family,
    "dist_bounds.lower_bound": _note_lower_bound,
    "dist_bounds.upper_bound": _note_family,
    "dist_model.sample": _note_sample,
}


class Tracer:
    """Collects spans and counters while installed; not thread-safe by design
    (the benchmark drives the package from one thread)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.request = 0
        self._stack: list[int] = []
        self._restore: list[tuple[dict, str, object]] = []
        self._t0 = time.perf_counter()

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        import tailbound
        modules = [tailbound] + [importlib.import_module(f"tailbound.{m}") for m in LAYERS]
        modules += [sys.modules[n] for n in list(sys.modules)
                    if n.startswith("tailbound.") and sys.modules[n] not in modules]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"tailbound.{layer}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", mod.__name__, fn)
        for mod in modules:
            ns = vars(mod)
            for attr, value in list(ns.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((ns, attr, value))
                    ns[attr] = wrapper
        return self

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._restore):
            ns[attr] = value
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name: str, module_name: str, fn):
        note = _NOTES.get(name)
        if name == "dist_model.log_mgf":
            note = None
            fn = self._counting_log_mgf(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller == module_name:
                return fn(*args, **kwargs)
            return tracer._call(name, caller, fn, note, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _counting_log_mgf(self, log_mgf):
        counters = self.counters

        def traced_log_mgf(spec):
            spec_mgf = log_mgf(spec)
            inner = spec_mgf.eval

            def counted_eval(t):
                counters["dist_model.log_mgf_evals"] += 1
                return inner(t)

            return type(spec_mgf)(counted_eval, spec_mgf.domain)

        return traced_log_mgf

    def _call(self, name, caller, fn, note, args, kwargs):
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                name, caller, self.request, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span[ID])
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[END] = time.perf_counter()
            span[EXTRA] = {"error": type(exc).__name__}
            raise
        finally:
            self._stack.pop()
        span[END] = time.perf_counter()
        if note is not None:
            span[EXTRA] = note(args, kwargs, result)
        return result

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = {"id": s[ID], "parent": s[PARENT], "name": s[NAME],
                       "caller": s[CALLER], "request": s[REQUEST],
                       "start": s[START] - self._t0, "end": s[END] - self._t0}
                if s[EXTRA]:
                    rec.update(s[EXTRA])
                fh.write(json.dumps(rec) + "\n")
            for name, value in sorted(self.counters.items()):
                fh.write(json.dumps({"counter": name, "value": value}) + "\n")


def read_jsonl(path) -> tuple[list[list], Counter]:
    """Inverse of ``Tracer.write_jsonl``."""
    spans, counters = [], Counter()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "counter" in rec:
                counters[rec["counter"]] = rec["value"]
                continue
            extra = {k: v for k, v in rec.items()
                     if k not in ("id", "parent", "name", "caller", "request", "start", "end")}
            spans.append([rec["id"], rec["parent"], rec["name"], rec["caller"],
                          rec["request"], rec["start"], rec["end"], extra or None])
    return spans, counters


def layer_metrics(spans: list[list], counters: Counter) -> dict[str, float]:
    """Per-layer counts and times aggregated from one run's spans."""
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    calls, self_s = Counter(), defaultdict(float)
    for s in spans:
        calls[s[NAME]] += 1
        self_s[s[NAME]] += (s[END] - s[START]) - child_time[s[ID]]

    def total(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    m: dict[str, float] = {
        "specfun.calls": total("specfun.", calls),
        "specfun.self_ms": 1e3 * total("specfun.", self_s),
        "dist_model.log_mgf_evals": counters["dist_model.log_mgf_evals"],
        "dist_model.sample.draws": sum((s[EXTRA] or {}).get("draws", 0)
                                       for s in spans if s[NAME] == "dist_model.sample"),
        "dist_model.sample.self_ms": 1e3 * self_s["dist_model.sample"],
    }
    for name in ("oracle.exact_tail", "oracle.clopper_pearson", "engine_upper.chernoff_upper",
                 "engine_lower.reverse_chernoff_lower", "engine_lower.pz_lower"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_ms"] = 1e3 * self_s[name]

    per_family = {(name, fam): 0.0 for name in ("oracle.exact_tail", "dist_bounds.lower_bound")
                  for fam in FAMILIES}
    for s in spans:
        fam = (s[EXTRA] or {}).get("family")
        if (s[NAME], fam) in per_family:
            per_family[(s[NAME], fam)] += s[END] - s[START]
    for (name, fam), secs in per_family.items():
        m[f"{name}.{fam}.ms"] = 1e3 * secs

    # which lower_bound calls ran the reverse Chernoff engine, and which it won
    by_id = {s[ID]: s for s in spans}
    rc_ran = set()
    for s in spans:
        if s[NAME] != "engine_lower.reverse_chernoff_lower":
            continue
        p = s[PARENT]
        while p is not None and by_id[p][NAME] != "dist_bounds.lower_bound":
            p = by_id[p][PARENT]
        if p is not None:
            rc_ran.add(p)
    rc_won = sum(1 for i in rc_ran if (by_id[i][EXTRA] or {}).get("method") == "reverse_chernoff")
    m["engine_lower.rc_win_ratio"] = rc_won / len(rc_ran) if rc_ran else 0.0

    lower = [s for s in spans if s[NAME] == "dist_bounds.lower_bound"]
    m["dist_bounds.upper_bound.self_ms"] = 1e3 * self_s["dist_bounds.upper_bound"]
    m["dist_bounds.window_skips"] = sum(1 for s in lower
                                        if (s[EXTRA] or {}).get("error") == "WindowError")
    m["dist_bounds.zero_lower"] = sum(1 for s in lower if (s[EXTRA] or {}).get("zero"))
    m["harness.exact_tail_calls"] = sum(1 for s in spans if s[NAME] == "oracle.exact_tail"
                                        and s[CALLER] == "tailbound.harness")
    m["harness.bisect_quantile.self_ms"] = 1e3 * self_s["harness.bisect_quantile"]
    return m
