"""Command-line entry point.

Parses argv for the subcommands of `harness.EXPERIMENTS`, which decides
what each runs and writes, and for reproduce and validate; --set
key=value flags override config fields.  Exit codes: 0 success, 2
config error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .core import ConfigError, NumericalError


def _apply_overrides(raw: dict, overrides) -> dict:
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass  # keep as string
        node = raw
        *sections, leaf = key.split(".")
        for p in sections:
            if isinstance(node, dict):
                node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set {key} runs through {node!r}, "
                              "which is not a section")
        node[leaf] = value
    return raw


def _load(args) -> harness.ExperimentConfig:
    if args.config:
        raw = harness.read_json(args.config)
    else:
        raw = dict(harness.bundled_config("default").raw)
    raw = _apply_overrides(raw, args.set)
    return harness.load_config(raw)


def _workers(text: str) -> int:
    """--workers value: an integer >= 1 (argparse exits 2 otherwise)."""
    try:
        n = int(text)
    except ValueError:
        n = 0  # reported below, like any other value < 1
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="echosense",
        description="Spin-echo AC magnetometry simulator and analysis toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("-c", "--config", help="JSON config file "
                        "(default: bundled defaults)")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config field (dotted path)")
        sp.add_argument("-o", "--output-root",
                        help=f"output root (default $"
                             f"{harness.OUTPUT_ROOT_ENV} or ./runs)")
        sp.add_argument("--workers", type=_workers, default=1,
                        help="worker processes (>= 1)")

    for name in harness.EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        add_common(sp)
        if name == "sweep-amplitude":
            sp.add_argument("--dump-trace", action="store_true",
                            help="dump the first grid point's time trace")

    sp = sub.add_parser("reproduce", help="regenerate a figure bundle")
    sp.add_argument("figure", choices=harness.FIGURES)
    sp.add_argument("-o", "--output-root")
    sp.add_argument("--workers", type=_workers, default=1,
                    help="worker processes (>= 1)")

    sp = sub.add_parser("validate", help="validate a config file")
    sp.add_argument("config")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            harness._validate(harness.load_config(args.config))
            print(f"OK: {args.config} is a valid configuration")
            return 0
        if args.command == "reproduce":
            written = harness.reproduce(args.figure, args.output_root,
                                        args.workers)
            for p in written:
                print(p)
            return 0

        cfg = _load(args)
        root = harness.output_root(args.output_root)
        _, _, stem = harness.EXPERIMENTS[args.command]
        rows = harness.run_experiment(args.command, cfg, args.workers)
        outdir = harness.run_directory(args.command, cfg, root)
        written = harness.emit(outdir, {stem: rows})
        if getattr(args, "dump_trace", False):
            written.append(harness.dump_trace(cfg, outdir))
        for p in written:
            print(p)
        return 0
    # an OSError here is an output root or run directory that cannot be
    # written: config files are read through harness.read_json
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
