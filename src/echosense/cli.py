"""Command-line entry point.

Subcommands mirror the experiment catalog; a JSON config drives every
run and --set key=value flags override individual fields.  Exit codes:
0 success, 2 config error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import harness
from .core import ConfigError, NumericalError

SWEEPS = {
    "sweep-amplitude": harness.run_sweep_amplitude,
    "sweep-phase": harness.run_sweep_phase,
    "symmetry": harness.run_symmetry,
    "split-interval": harness.run_split_interval,
    "dd-sweep": harness.run_dd_sweep,
}


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
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = value
    return raw


def _load(args) -> harness.ExperimentConfig:
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
    else:
        raw = dict(harness.bundled_config("default").raw)
    raw = _apply_overrides(raw, args.set)
    return harness.load_config(raw)


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
        sp.add_argument("--workers", type=int, default=1)
        sp.add_argument("--plot", action="store_true",
                        help="also write SVG plots")

    for name in SWEEPS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        add_common(sp)
        if name == "sweep-amplitude":
            sp.add_argument("--dump-trace", action="store_true",
                            help="dump the first grid point's time trace")

    sp = sub.add_parser("sensitivity", help="DD sensitivity pipeline")
    add_common(sp)

    sp = sub.add_parser("reproduce", help="regenerate a figure bundle")
    sp.add_argument("figure", choices=harness.FIGURES)
    sp.add_argument("-o", "--output-root")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--plot", action="store_true")

    sp = sub.add_parser("validate", help="validate a config file")
    sp.add_argument("config")
    return p


def _emit(name, cfg, result, outroot, plot):
    outdir = harness.run_directory(name, cfg, outroot)
    written = []

    def emit_rows(stem, rows):
        path = outdir / f"{stem}.csv"
        harness.write_csv(path, rows)
        written.append(path)

    if name == "split-interval":
        emit_rows("split", harness.split_rows(result))
    elif name in ("symmetry", "dd-sweep"):
        rows = []
        for res in result:
            rows.extend(harness.sweep_rows(res))
        emit_rows(name.replace("-", "_"), rows)
    elif name == "sensitivity":
        rows = harness.reports_to_rows(result)
        for r in rows:
            r["config_hash"] = cfg.hash
            r["seed"] = cfg.seed
        emit_rows("sensitivity", rows)
    else:
        emit_rows(name.replace("-", "_"), harness.sweep_rows(result))

    if plot:
        from .svgplot import plot_csv

        for pth in list(written):
            plot_csv(pth, pth.with_suffix(".svg"))
            written.append(pth.with_suffix(".svg"))
    return written


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            harness.load_config(args.config)
            print(f"OK: {args.config} is a valid configuration")
            return 0
        if args.command == "reproduce":
            written = harness.reproduce(args.figure, args.output_root,
                                        args.workers, args.plot)
            for p in written:
                print(p)
            return 0

        cfg = _load(args)
        if args.command == "sensitivity":
            result = harness.run_sensitivity(cfg, args.workers)
        else:
            result = SWEEPS[args.command](cfg, args.workers)
        written = _emit(args.command, cfg, result, args.output_root, args.plot)

        if getattr(args, "dump_trace", False):
            from . import blochsim
            from .rf import build_synchronized

            seq = cfg.build_sequence()
            import math as _m

            amp = harness._grid(cfg.rf["amplitude_sweep_mt"],
                                harness.MT)[0]
            wave = build_synchronized(
                seq, float(amp), int(cfg.rf.get("n", 1)),
                _m.radians(float(cfg.rf.get("phase_deg", 0.0))),
                cfg.reset_mode())
            # the ensemble and trace grid of grid point 0, as in the sweep
            ens = replace(cfg.ensemble, seed=cfg.point_seed(0))
            tr = blochsim.evolve(cfg.spin_system, seq, wave, ens,
                                 cfg.pulse_mode(), cfg.calibration,
                                 trace_points=cfg.trace_points())
            path = written[0].parent / "trace.csv"
            blochsim.trace_to_csv(tr, path)
            written.append(path)

        for p in written:
            print(p)
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
