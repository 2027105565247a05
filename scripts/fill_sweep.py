#!/usr/bin/env python3
"""Sweep the min/max-range strategy against the combined strategy on random
matrices with a fixed per-row fill ratio, looking for the size where the
range scan overtakes the per-row heuristic.

As the dimension grows at fixed fill ratio the result rows become denser,
which favors scanning the tracked index range over sorting the touched
index list. Where (and whether) the curves cross depends entirely on the
machine and interpreter, so this script reports what it sees and writes the
records as CSV for plotting.
"""

import argparse
import sys

from sparsemm.bench import duration, emit_csv, fill_ratio, parse_sizes, positive_int, run_grid
from sparsemm.kernels import StrategyKind


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=parse_sizes, default="1000:32000:x2")
    parser.add_argument("--fill", type=fill_ratio, default=0.001)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--min-seconds", type=duration, default=0.5)
    parser.add_argument("--trials", type=positive_int, default=3)
    parser.add_argument("--csv", help="write the records here")
    args = parser.parse_args(argv)

    records = run_grid(
        ["fill"],
        ["rowmajor"],
        [StrategyKind.MIN_MAX, StrategyKind.COMBINED],
        args.sizes,
        args.seed,
        fill=args.fill,
        min_total_seconds=args.min_seconds,
        trials=args.trials,
    )
    by_size = {}
    for rec in records:
        by_size.setdefault(rec.n, {})[rec.strategy] = rec.mflops
    print(f"{'n':>8} {'minmax MF/s':>14} {'combined MF/s':>14} {'faster':>10}")
    crossover = None
    for n in args.sizes:
        cell = by_size.get(n, {})
        mm = cell.get("minmax")
        cb = cell.get("combined")
        if mm is None or cb is None:
            continue
        faster = "minmax" if mm > cb else "combined"
        if faster == "minmax" and crossover is None:
            crossover = n
        print(f"{n:>8} {mm:>14.4f} {cb:>14.4f} {faster:>10}")
    if crossover is not None:
        print(f"\nrange scan first beats the combined kernel at n={crossover}")
    else:
        print("\nno crossover in the swept range on this machine")
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write(emit_csv(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
