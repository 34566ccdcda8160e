#!/usr/bin/env python3
"""Regenerate every figure bundle (fig2-fig5) in one go.

Usage:
    python scripts/reproduce_all.py [--output-root DIR] [--workers N] [--plot]

Each bundle is written to <output-root>/<figure>_<confighash>/ as CSV files
(and SVG plots with --plot).  Output root defaults to $ECHOSENSE_OUTPUT_ROOT
or ./runs.
"""

import argparse
import sys
import time

from echosense import harness


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output-root", default=None,
                    help="output root (default $ECHOSENSE_OUTPUT_ROOT or ./runs)")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--plot", action="store_true", help="also write SVG plots")
    args = ap.parse_args()

    for fig in harness.FIGURES:
        t0 = time.perf_counter()
        written = harness.reproduce(fig, args.output_root,
                                    workers=args.workers, plot=args.plot)
        dt = time.perf_counter() - t0
        print(f"{fig}: {len(written)} files in {dt:.1f} s")
        for p in written:
            print(f"  {p}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
