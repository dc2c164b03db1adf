"""Command line interface.

Subcommands: simulate | exact | figure | verify | deterministic | couple.
Each subcommand accepts only the settings its command reads, as flags
or as keys of a config file (INI key-value, section [experiment]), and
refuses the rest; flags override file values.
"""

import argparse
import configparser
import dataclasses
import json
import os
import sys

from . import harness
from .exact import MAX_EXACT_N
from .meanfield import stability_interval
from .model import ModelParams


# Each subcommand: its help, and the settings (harness.SETTINGS) its cmd_*
# function reads.  Only these are accepted, as flags or as file keys.
COMMANDS = {
    "simulate": ("Monte Carlo trajectories; CSV columns replicate,"
                 "T,S,max,truncated plus summary rows",
                 ("n", "p", "c", "i0", "replicates", "master_seed",
                  "workers", "out", "max_steps")),
    "exact": ("exact expected duration and size; CSV columns "
              "i,expected_duration,expected_size (full precision)",
              ("n", "p", "c", "digits", "out")),
    "figure": ("duration-vs-initial-count curves; CSV columns "
               "c,i0,expected_duration; exit code 1 iff a shape check "
               "fails", ("n", "digits", "out", "c_list", "i0_max")),
    "verify": ("bound-verification campaign; JSON report bundle; "
               "exit code 1 iff any bound is violated", ("out",)),
    "deterministic": ("mean-field tables; CSV columns k,psi,phi,"
                      "branching_factor,innovation_variance",
                      ("n", "i0", "lam", "out")),
    "couple": ("monotone coupling diagnostics and the exact one-step "
               "divergence probability (JSON to stdout)",
               ("n", "p", "c", "i0", "replicates", "master_seed")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avalanche",
        description="Simulation and exact analytics for the chain-binomial "
                    "avalanche Markov chain.",
        epilog="CSV outputs carry a header row and decimal-string values; "
               "verify writes JSON with a schema_version field.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (text, settings) in COMMANDS.items():
        # no prefix matching: --c must not pass for --config where --c
        # is not accepted
        sub = subs.add_parser(name, help=text, description=text,
                              allow_abbrev=False)
        sub.add_argument("--config",
                         help="INI config file ([experiment] section)")
        # an empty group breaks --help, so only where p or c is read
        p_or_c = (sub.add_mutually_exclusive_group()
                  if "c" in settings else sub)
        for field in settings:
            flag, kind, flag_help = harness.SETTINGS[field]
            if flag:
                (p_or_c if field in ("p", "c") else sub).add_argument(
                    flag, dest=field, type=kind, help=flag_help,
                    metavar=flag[2:].upper())
    return parser


def config_from_args(args) -> harness.ExperimentConfig:
    given = {k: v for k, v in vars(args).items()
             if k in harness.SETTINGS and v is not None}
    if args.config:
        return harness.ExperimentConfig.from_file(
            args.config, keys=COMMANDS[args.command][1], **given)
    return harness.ExperimentConfig(**given)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        settings = COMMANDS[args.command][1]
        # the chain's own checks: n >= 3, 0 < p < 1, one of p or c
        if "c" in settings:
            config.model()
        if "c_list" in settings:
            for c in config.c_list:
                ModelParams.from_intensity(config.n, c)
            # the flattening check compares the spread over i0 = 2..i0_max
            # of the lowest and the highest intensity
            if len(set(config.c_list)) < 2:
                raise ValueError(f"c_list {config.c_list} needs two distinct "
                                 "intensities")
            if min(config.i0_max, config.n - 1) < 3:
                raise ValueError(f"i0_max={config.i0_max}, capped at "
                                 f"n-1={config.n - 1}, is below 3")
        if "digits" in settings and config.n > MAX_EXACT_N:
            raise ValueError(f"exact solves are capped at n={MAX_EXACT_N}, "
                             f"got {config.n}")
        if config.out:   # written only once the work is done
            folder = os.path.dirname(config.out) or "."
            if os.path.isdir(config.out):
                raise ValueError(f"--out {config.out} is a directory")
            if not os.path.isdir(folder):
                raise ValueError(f"--out {config.out}: no directory {folder}")
        if "lam" in settings:   # psi0 = i0/n, and g_lam needs lam > 0
            if config.n < 1:
                raise ValueError(f"need n >= 1, got n={config.n}")
            if not config.lam > 0.0:
                raise ValueError(f"need lambda > 0, got lambda={config.lam}")
            if config.lam > 1.0:
                stability_interval(config.lam)   # refuses a too-large lam
        # a chain starts transient, a mean-field path anywhere in [0, n]
        low = 0 if args.command == "deterministic" else 1
        if "i0" in settings and not low <= config.i0 <= config.n - low:
            raise ValueError(f"i0={config.i0} outside "
                             f"[{low}, {config.n - low}]")
    except (OSError, ValueError, configparser.Error) as exc:
        parser.error(f"{args.command}: {exc}")
    try:
        if args.command == "simulate":
            print(json.dumps(harness.cmd_simulate(config),
                             default=dataclasses.asdict))
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
            try:
                curves = harness.cmd_figure(config)
            except AssertionError as exc:
                print(f"figure shape check failed: {exc}", file=sys.stderr)
                return 1
            for c, vals in curves.items():
                print(f"c={c}: E(T|1)={vals[0]:.6g} "
                      f"E(T|{len(vals)})={vals[-1]:.6g}")
        elif args.command == "verify":
            bundle = harness.cmd_verify(config)
            print(json.dumps(bundle["counts"]))
            return 1 if bundle["counts"]["violated"] else 0
        elif args.command == "deterministic":
            result = harness.cmd_deterministic(config)
            print(json.dumps({k: v for k, v in result.items() if k != "rows"}))
        elif args.command == "couple":
            print(json.dumps(harness.cmd_couple(config),
                             default=dataclasses.asdict))
    except ArithmeticError as exc:   # a numeric refusal; subclasses are bugs
        if type(exc) is not ArithmeticError:
            raise
        print(f"avalanche: {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
