#!/usr/bin/env python3
"""Compare the scatter kernels against the classic inner-product kernel on
the five-point stencil case and print the rate ratio.

The classic kernel pairs every row of A with every column of B, so its cost
grows with n**2 (about fourfold per doubling of --size) while the scatter
kernels grow with the operand nonzeros; the gap widens quickly with size.
"""

import argparse
import sys

from sparsemm.bench import duration, emit_csv, positive_int, run_grid
from sparsemm.kernels import StrategyKind


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=positive_int, default=1024)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--min-seconds", type=duration, default=0.5)
    parser.add_argument("--trials", type=positive_int, default=5)
    parser.add_argument("--csv", help="also write the records here")
    args = parser.parse_args(argv)

    records = run_grid(
        ["fd"],
        ["rowmajor", "mixed", "colmajor", "classic"],
        [StrategyKind.COMBINED],
        [args.size],
        args.seed,
        min_total_seconds=args.min_seconds,
        trials=args.trials,
    )
    rates = {}
    print(f"{'kernel':<10} {'strategy':<10} {'n':>8} {'best seconds':>14} {'MFlop/s':>12}")
    for rec in records:
        rates[rec.kernel] = rec.mflops
        print(f"{rec.kernel:<10} {rec.strategy:<10} {rec.n:>8} "
              f"{rec.best_seconds:>14.5e} {rec.mflops:>12.4f}")
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write(emit_csv(records))
    if "rowmajor" in rates and "classic" in rates:
        ratio = rates["rowmajor"] / rates["classic"]
        print(f"\nrowmajor / classic rate ratio at n={args.size}: {ratio:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
