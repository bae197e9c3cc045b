"""Command-line front end: bounds, verification sweeps, extremes, classification.

Exit codes: 0 success, 1 certification failure, 2 usage error, 3 domain or
window error.  All commands are deterministic given identical flags and seed;
TAILBOUND_SEED overrides the default seed but explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .dist_bounds import NUMERIC, BoundTier, Tier, lower_bound, mgf_sandwich, upper_bound
from .dist_model import Side, WeightVector, mean_shift, spec_from_json
from .errors import TailboundError, DomainError
from .extremes import ExtremeRegime, ExtremeSpec, extreme_bracket, mc_extreme_mean
from .harness import DEFAULT_FAMILIES, DEFAULT_QUANTILES, QuantileGrid, bisect_quantile, run_grid
from .mixture import MixtureSpec, classify, derive_classifier, exact_expected_misid, mc_misid
from .oracle import exact_tail

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


class _CliUsage(Exception):
    pass


def _parsed(what: str, text: str, cast):
    """cast(text); a usage error (exit 2) names the input if it is malformed."""
    try:
        return cast(text)
    except ValueError:
        raise _CliUsage(f"malformed {what}: {text!r}") from None


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _default_seed() -> int:
    env = os.environ.get("TAILBOUND_SEED")
    return 42 if env is None else _parsed("TAILBOUND_SEED", env, int)


def _load_config(path: str) -> dict:
    """Flat key = value file whose keys mirror flag names (dashes or underscores)."""
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"config line not key = value: {raw.rstrip()}")
            key, value = line.split("=", 1)
            cfg[key.strip().replace("-", "_")] = value.strip().strip('"').strip("'")
    return cfg


def _merge_config(args: argparse.Namespace, casts: dict) -> None:
    """Fill unset (None) attributes from --config; flags always win."""
    if not getattr(args, "config", None):
        return
    cfg = _load_config(args.config)
    for key, cast in casts.items():
        if getattr(args, key, None) is None and key in cfg:
            setattr(args, key, _parsed(f"config value {key}", cfg[key], cast))


def _parse_dist(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliUsage(f"malformed distribution JSON: {exc}") from exc
    return spec_from_json(obj)


def _emit(payload: dict, out_path: str | None, pretty: bool) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2 if pretty else None,
                      separators=None if pretty else (",", ":"))
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_bound(args) -> int:
    _merge_config(args, {"seed": int, "mc_reps": int})
    spec = _parse_dist(args.dist)
    side = Side(args.side)
    if args.x is not None and args.raw_x is not None:
        raise _CliUsage("pass either --x or --raw-x, not both")
    if args.x is not None:
        x = args.x
    elif args.raw_x is not None:
        shift = mean_shift(spec)
        x = args.raw_x - shift if side is Side.UPPER else shift - args.raw_x
        if x < 0.0:
            raise DomainError(
                f"raw threshold {args.raw_x} lies on the wrong side of the mean {shift}")
    else:
        raise _CliUsage("one of --x or --raw-x is required")
    seed = args.seed if args.seed is not None else _default_seed()
    mc_reps = args.mc_reps if args.mc_reps is not None else 10**6
    rate = args.tier == "rate"
    tier = BoundTier(Tier.RATE, c_default=args.rate_c, C_default=args.rate_C) if rate else NUMERIC
    payload = {
        "spec": json.loads(args.dist),
        "side": side.value,
        "x": x,
        "upper": upper_bound(spec, side, x, tier=tier if rate else None).to_json(),
        "lower": lower_bound(spec, side, x, tier=tier).to_json(),
    }
    if not args.no_exact:
        payload["exact"] = exact_tail(spec, side, x, mc_n=mc_reps, mc_seed=seed).to_json()
    _emit(payload, args.out, pretty=not args.json)
    return EXIT_OK


def cmd_verify(args) -> int:
    _merge_config(args, {"seed": int, "threads": int, "mc_reps": int,
                         "out": str, "families": str, "quantiles": str})
    seed = args.seed if args.seed is not None else _default_seed()
    threads = args.threads if args.threads is not None else 1
    mc_reps = args.mc_reps if args.mc_reps is not None else 10**6
    if args.families is None or args.families == "all":
        families = DEFAULT_FAMILIES
    else:
        wanted = [f.strip() for f in args.families.split(",") if f.strip()]
        from .dist_model import family_name
        table = {family_name(s): s for s in DEFAULT_FAMILIES}
        missing = [w for w in wanted if w not in table]
        if missing:
            raise _CliUsage(f"unknown families: {', '.join(missing)} "
                            f"(known: {', '.join(sorted(table))})")
        families = tuple(table[w] for w in wanted)
    if args.quantiles is None:
        quantiles = DEFAULT_QUANTILES
    else:
        quantiles = _parsed("--quantiles", args.quantiles, _floats)
    fault = _parsed("TAILBOUND_FAULT_LOWER_SCALE",
                    os.environ.get("TAILBOUND_FAULT_LOWER_SCALE", "1.0"), float)
    report = run_grid(
        families=families,
        x_policy=QuantileGrid(quantiles),
        seed=seed,
        threads=threads,
        mc_n=mc_reps,
        fault_lower_scale=fault,
    )
    _emit(report.to_json(), args.out, pretty=False)
    return EXIT_OK if report.summary["n_fail"] == 0 else EXIT_CERT_FAIL


def cmd_quantile(args) -> int:
    _merge_config(args, {"seed": int})
    spec = _parse_dist(args.dist)
    side = Side(args.side)
    if not (0.0 < args.q < 1.0):
        raise _CliUsage(f"--q must lie in (0, 1), got {args.q}")
    x = bisect_quantile(spec, side, args.q)
    _emit({"spec": json.loads(args.dist), "side": side.value, "q": args.q, "x": x},
          args.out, pretty=not args.json)
    return EXIT_OK


def cmd_extreme(args) -> int:
    _merge_config(args, {"seed": int, "reps": int})
    base = _parse_dist(args.base)
    weights = WeightVector(_parsed("--weights", args.weights, _floats))
    seed = args.seed if args.seed is not None else _default_seed()
    reps = args.reps if args.reps is not None else 10**5
    spec = ExtremeSpec(base=base, u=weights, k=args.k, sandwich=mgf_sandwich(base))
    regime = ExtremeRegime.SUB_EXPONENTIAL if args.regime == "subexponential" \
        else ExtremeRegime.SUB_GAUSSIAN
    bracket = extreme_bracket(spec, regime, constants=(args.c, args.C))
    mean, se = mc_extreme_mean(spec, reps, seed)
    payload = {
        "base": json.loads(args.base),
        "k": args.k,
        "regime": regime.value,
        "bracket": bracket.to_json(),
        "mc": {"mean": mean, "se": se, "reps": reps, "seed": seed},
    }
    _emit(payload, args.out, pretty=not args.json)
    return EXIT_OK


def _read_counts(path: str) -> list[int]:
    counts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                value = int(text)
            except ValueError:
                if lineno == 1:
                    continue  # optional header
                raise _CliUsage(f"line {lineno}: not an integer count: {text!r}") from None
            if value < 0:
                raise _CliUsage(f"line {lineno}: negative count {value}")
            counts.append(value)
    if not counts:
        raise _CliUsage(f"no counts found in {path}")
    return counts


def cmd_classify(args) -> int:
    _merge_config(args, {"seed": int, "out": str})
    if not (0.0 < args.eps < 1.0):
        raise _CliUsage(f"--eps must lie strictly in (0, 1), got {args.eps}")
    if args.input is None and args.simulate is None:
        raise _CliUsage("one of --input or --simulate is required")
    seed = args.seed if args.seed is not None else _default_seed()
    spec = MixtureSpec(mu=args.mu, lam=getattr(args, "lambda"), eps=args.eps)
    report = derive_classifier(spec)
    payload = report.to_json()
    payload["expected_misid"] = exact_expected_misid(spec)
    flags = None
    if args.input is not None:
        counts = _read_counts(args.input)
        flags = classify(spec, counts)
        payload["n_counts"] = len(counts)
        payload["n_flagged"] = int(sum(flags))
    if args.simulate is not None:
        if args.simulate < 100:
            raise _CliUsage(f"--simulate must be >= 100, got {args.simulate}")
        payload["mc_misid"] = mc_misid(spec, args.simulate, seed).to_json()
        payload["seed"] = seed
    _emit(payload, args.out, pretty=not args.json)
    if flags is not None:
        flags_path = args.flags_out
        if flags_path is None and args.out is not None:
            flags_path = args.out + ".flags.csv"
        if flags_path is not None:
            with open(flags_path, "w", encoding="utf-8") as fh:
                fh.write("index,flag\n")
                for i, f in enumerate(flags):
                    fh.write(f"{i},{f}\n")
        else:
            for i, f in enumerate(flags):
                print(f"{i},{f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailbound",
        description="Matching upper/lower tail bounds with exact-oracle certification.",
    )
    parser.add_argument("--version", action="version", version=f"tailbound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: TAILBOUND_SEED or 42)")
    common.add_argument("--config", type=str, default=None,
                        help="flat key = value file mirroring flags; flags win")
    common.add_argument("--out", type=str, default=None, help="write JSON here")
    common.add_argument("--json", action="store_true", help="compact JSON to stdout")

    p = sub.add_parser("bound", parents=[common], help="tail bounds at one threshold")
    p.add_argument("--dist", required=True, help='e.g. {"family":"gamma","params":{"alpha":2.5}}')
    p.add_argument("--side", choices=["upper", "lower"], required=True)
    p.add_argument("--x", type=float, default=None, help="centered threshold (>= 0)")
    p.add_argument("--raw-x", type=float, default=None, help="raw-variable threshold")
    p.add_argument("--tier", choices=["certified", "rate"], default="certified")
    p.add_argument("--rate-c", type=float, default=1.0)
    p.add_argument("--rate-C", type=float, default=1.0)
    p.add_argument("--mc-reps", type=int, default=None)
    p.add_argument("--no-exact", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", parents=[common], help="certification sweep")
    p.add_argument("--families", type=str, default=None, help="all or comma list")
    p.add_argument("--quantiles", type=str, default=None, help="comma list of tail depths")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--mc-reps", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("quantile", parents=[common], help="map tail depth to threshold")
    p.add_argument("--dist", required=True)
    p.add_argument("--side", choices=["upper", "lower"], required=True)
    p.add_argument("--q", type=float, required=True)
    p.set_defaults(func=cmd_quantile)

    p = sub.add_parser("extreme", parents=[common], help="extreme-value bracket + MC")
    p.add_argument("--base", required=True, help="summand distribution JSON")
    p.add_argument("--weights", type=str, default="1")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--regime", choices=["subgaussian", "subexponential"], default="subgaussian")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--reps", type=int, default=None)
    p.set_defaults(func=cmd_extreme)

    p = sub.add_parser("classify", parents=[common], help="Poisson-mixture signal labels")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--lambda", type=float, required=True, dest="lambda")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--input", type=str, default=None, help="CSV of counts, one per line")
    p.add_argument("--simulate", type=int, default=None)
    p.add_argument("--flags-out", type=str, default=None)
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except _CliUsage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TailboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
