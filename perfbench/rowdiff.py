"""List the rows whose certified bounds got looser than in a baseline.

    python3 perfbench/rowdiff.py BASELINE.jsonl NEW.jsonl

Both files hold one row per line, as written by ``run.py --rows-out``.  Rows
are matched on (spec, side, x).  A row is looser when its lower bound fell or
its upper bound rose, by any amount.  Exits 1 if any row is looser or a
baseline row is missing from NEW, else 0.
"""

import json
import math
import sys


def load(path):
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            key = json.dumps([row["spec"], row["side"], row["x"]], sort_keys=True)
            rows[key] = row
    return rows


def _log(v):
    return -math.inf if v is None else v


def looser_rows(base: dict, new: dict) -> tuple[list[str], list[str]]:
    """(descriptions of looser rows, keys missing from new)."""
    looser, missing = [], []
    for key, b in base.items():
        n = new.get(key)
        if n is None:
            missing.append(key)
            continue
        d_lower = _log(n["lower_log"]) - _log(b["lower_log"])
        d_upper = _log(n["upper_log"]) - _log(b["upper_log"])
        if d_lower < 0.0 or d_upper > 0.0:
            looser.append(f"{key}: lower {b['lower_log']} -> {n['lower_log']} "
                          f"({b['lower_method']} -> {n['lower_method']}), "
                          f"upper {b['upper_log']} -> {n['upper_log']}")
    return looser, missing


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    looser, missing = looser_rows(base, new)
    for line in looser:
        print(f"looser  {line}")
    for key in missing:
        print(f"missing {key}")
    print(f"{len(looser)} looser, {len(missing)} missing, {len(base)} baseline rows")
    return 1 if looser or missing else 0


if __name__ == "__main__":
    sys.exit(main())
