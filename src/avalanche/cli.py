"""Command line interface.

Subcommands: simulate | exact | figure | verify | deterministic | couple.
A config file (INI key-value, section [experiment]) can seed any run;
command line flags override file values.
"""

import argparse
import json
import sys

import numpy as np

from . import harness


def _add_common(sub):
    sub.add_argument("--config", help="INI config file ([experiment] section)")
    sub.add_argument("--n", type=int, help="node count")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--p", type=float, help="excitation probability")
    group.add_argument("--c", type=float,
                       help="intensity c = n*p (excludes --p)")
    sub.add_argument("--i0", type=int, help="initial excited count")
    sub.add_argument("--lambda", dest="lam", type=float,
                     help="ensemble offspring mean")
    sub.add_argument("--reps", type=int, help="Monte Carlo replicates")
    sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument("--workers", type=int, help="parallel workers")
    sub.add_argument("--digits", type=int, help="exact-solver precision")
    sub.add_argument("--out", help="output file (CSV, or JSON for verify)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avalanche",
        description="Simulation and exact analytics for the chain-binomial "
                    "avalanche Markov chain.",
        epilog="CSV outputs carry a header row and decimal-string values; "
               "verify writes JSON with a schema_version field.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("simulate", "Monte Carlo trajectories; CSV columns replicate,"
                     "T,S,max,truncated plus summary rows"),
        ("exact", "exact expected duration and size; CSV columns "
                  "i,expected_duration,expected_size (full precision)"),
        ("figure", "duration-vs-initial-count curves; CSV columns "
                   "c,i0,expected_duration"),
        ("verify", "bound-verification campaign; JSON report bundle; "
                   "exit code 1 iff any bound is violated"),
        ("deterministic", "mean-field tables; CSV columns k,psi,phi,"
                          "branching_factor,innovation_variance"),
        ("couple", "monotone and maximal coupling diagnostics (JSON to "
                   "stdout)"),
    ]:
        sub = subs.add_parser(name, help=text, description=text)
        _add_common(sub)
    return parser


def config_from_args(args) -> harness.ExperimentConfig:
    overrides = {
        "n": args.n, "p": args.p, "c": args.c, "i0": args.i0,
        "lam": args.lam, "replicates": args.reps,
        "master_seed": args.seed, "workers": args.workers,
        "digits": args.digits, "out": args.out,
    }
    if args.config:
        return harness.ExperimentConfig.from_file(args.config, **overrides)
    return harness.ExperimentConfig(
        **{k: v for k, v in overrides.items() if v is not None})


def _jsonable(obj):
    if isinstance(obj, harness.EstimateWithCI):
        return {"point": obj.point, "stderr": obj.stderr,
                "replicates": obj.replicates}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    return obj


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    if args.command == "simulate":
        print(json.dumps(_jsonable(harness.cmd_simulate(config))))
    elif args.command == "exact":
        result = harness.cmd_exact(config)
        et, es = result["expected_duration"], result["expected_size"]
        show = min(len(et), 10)
        for i in range(show):
            print(f"{i + 1},{et[i]},{es[i]}")
        if not config.out and len(et) > show:
            print(f"... {len(et) - show} more rows (use --out for the "
                  "full table)", file=sys.stderr)
    elif args.command == "figure":
        curves = harness.cmd_figure(config)
        for c, vals in curves.items():
            print(f"c={c}: E(T|1)={vals[0]:.6g} "
                  f"E(T|{len(vals)})={vals[-1]:.6g}")
    elif args.command == "verify":
        bundle = harness.cmd_verify(config)
        print(json.dumps(bundle["counts"]))
        return 1 if bundle["counts"]["violated"] else 0
    elif args.command == "deterministic":
        result = harness.cmd_deterministic(config)
        print(json.dumps(_jsonable({k: v for k, v in result.items()
                                    if k != "rows"})))
    elif args.command == "couple":
        print(json.dumps(_jsonable(harness.cmd_couple(config))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
