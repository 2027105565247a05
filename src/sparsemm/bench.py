"""Benchmark harness: timing protocol, experiment grid runner, CSV, CLI.

Measurement protocol: the inner repetition count of a work item is doubled
until one batch takes more than two seconds of wall time, then that count is
fixed and at least five batches are timed; the best per-invocation time is
reported. Rates are in MFlop/s (10**6 flops per MFlop) with the flop count
always taken from the worst-case formula, never from runtime counters.

Setting the environment variable SPARSEMM_CLOCK_OVERRIDE to a float installs
a virtual clock that advances by that many seconds per work invocation, which
makes the protocol deterministic for tests.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, replace

from .formats import CscMatrix, CsrMatrix, csc_to_csr, csr_to_csc
from .genmat import FAMILIES, GenSpec, generate
from .kernels import (
    StrategyKind,
    dense_multiply_reference,
    multiply_classic,
    multiply_colmajor,
    multiply_mixed,
    multiply_rowmajor,
)
from .mtxio import save_matrix_market
from .perfmodel import RooflineParams, count_mults, inner_loop_balance, roofline

CLOCK_OVERRIDE_ENV = "SPARSEMM_CLOCK_OVERRIDE"
CSV_HEADER = "case,family,n,kernel,strategy,seed,inner_iters,best_seconds,mflops"
KERNEL_NAMES = ("classic", "rowmajor", "colmajor", "mixed")
ORACLE_LIMIT = 512  # largest n the dense reference check is run at


class VirtualClock:
    """Deterministic clock for protocol tests: advances only when told to."""

    def __init__(self, tick_seconds: float):
        if tick_seconds <= 0:
            raise ValueError("tick must be positive")
        self.tick_seconds = tick_seconds
        self.now = 0.0

    def read(self) -> float:
        return self.now

    def advance(self, dt: float | None = None) -> None:
        self.now += self.tick_seconds if dt is None else dt


@dataclass(frozen=True)
class TimingResult:
    inner_iters: int
    best_seconds: float
    mflops: float


@dataclass(frozen=True)
class BenchRecord:
    case: str
    family: str
    n: int
    kernel: str
    strategy: str
    seed: int
    inner_iters: int
    best_seconds: float
    mflops: float


@dataclass(frozen=True)
class SkipRecord:
    """Diagnostic for a grid cell that could not be measured."""

    case: str
    n: int
    kernel: str
    strategy: str
    reason: str


@dataclass
class GridResult:
    records: list
    skipped: list


def time_kernel(work, flops: int, *, clock=None, min_total_seconds: float = 2.0,
                trials: int = 5) -> TimingResult:
    """Calibrate, repeat and report the best per-invocation time of ``work``.

    ``work`` must be repeatable with identical inputs (any result is built
    afresh and discarded each call). ``flops`` is the per-invocation flop
    count used for the MFlop/s rate. ``clock`` defaults to the monotonic
    high-resolution clock unless the override environment variable installs
    a virtual one.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if clock is None:
        override = os.environ.get(CLOCK_OVERRIDE_ENV)
        if override is not None:
            vclock = VirtualClock(float(override))
            real_work = work

            def work():
                real_work()
                vclock.advance()

            clock = vclock.read
        else:
            clock = time.perf_counter
    inner = 1
    while True:
        start = clock()
        for _ in range(inner):
            work()
        elapsed = clock() - start
        if elapsed > min_total_seconds:
            break
        if inner > 1 << 40:
            raise RuntimeError("clock does not advance; cannot calibrate")
        inner *= 2
    best = math.inf
    for _ in range(trials):
        start = clock()
        for _ in range(inner):
            work()
        per_call = (clock() - start) / inner
        if per_call < best:
            best = per_call
    return TimingResult(inner_iters=inner, best_seconds=best,
                        mflops=flops / best / 1e6)


def _case_label(family: str, spec: GenSpec, n: int) -> str:
    # no commas: labels land in one CSV field
    if family == "fd":
        return f"fd[n={n}]"
    if family == "random":
        return f"random[n={n};k={spec.k}]"
    return f"fill[n={n};fill={spec.fill:g}]"


def _assert_csr_equal(c: CsrMatrix, ref: CsrMatrix, what: str) -> None:
    ok = (
        (c.rows, c.cols) == (ref.rows, ref.cols)
        and c.row_ptr.tobytes() == ref.row_ptr.tobytes()
        and c.col_idx.tobytes() == ref.col_idx.tobytes()
        and c.values.tobytes() == ref.values.tobytes()
    )
    if not ok:
        raise RuntimeError(f"verification failed: {what}")


def _verify_cell(result, a: CsrMatrix, b: CsrMatrix, label: str) -> None:
    as_csr = csc_to_csr(result) if isinstance(result, CscMatrix) else result
    reference = multiply_rowmajor(a, b, StrategyKind.COMBINED)
    _assert_csr_equal(as_csr, reference, f"{label} disagrees with the scatter kernel")
    if a.rows <= ORACLE_LIMIT and b.cols <= ORACLE_LIMIT and a.cols <= ORACLE_LIMIT:
        # The dense reference adds the same products in the same k order
        # (its zero products change no finite sum), so its bits match.
        expected, _ = dense_multiply_reference(a.to_dense(), b.to_dense())
        _assert_csr_equal(as_csr, CsrMatrix.from_dense(expected),
                          f"{label} disagrees with the dense reference")


def run_grid(families, kernels, strategies, sizes, seed, *, k: int = 5,
             fill: float = 0.001, verify: bool = False,
             min_total_seconds: float = 2.0, trials: int = 5) -> GridResult:
    """Measure every (family, size, kernel, strategy) combination.

    Operands are generated once per (family, size) and converted outside the
    timed region where a kernel's input format requires it; the mixed kernel
    performs its own conversion inside the timed region, matching its
    contract. Invalid combinations become SkipRecords instead of failures.

    The second operand of the random families uses seed + 1 so the two
    matrices differ; the stencil family multiplies the matrix by itself.
    """
    records = []
    skipped = []
    for family in families:
        for n in sizes:
            spec = GenSpec(family=family, n=n, k=min(k, n), fill=fill, seed=seed)
            a = generate(spec)
            if family == "fd":
                b = a
            else:
                b = generate(replace(spec, seed=(seed + 1) & ((1 << 64) - 1)))
            actual_n = a.rows
            label = _case_label(family, spec, actual_n)
            flops = count_mults(a, b).flops
            converted = {}

            def as_csc(m, key):
                if key not in converted:
                    converted[key] = csr_to_csc(m)
                return converted[key]

            for kernel in kernels:
                for strategy in strategies:
                    strategy_name = strategy.value if strategy is not None else "none"
                    if kernel not in KERNEL_NAMES:
                        skipped.append(SkipRecord(label, actual_n, kernel,
                                                  strategy_name, "unknown kernel"))
                        continue
                    if kernel == "classic" and strategy is not None:
                        skipped.append(SkipRecord(
                            label, actual_n, kernel, strategy_name,
                            "classic kernel takes no storing strategy"))
                        continue
                    if kernel != "classic" and strategy is None:
                        skipped.append(SkipRecord(
                            label, actual_n, kernel, strategy_name,
                            "kernel requires a storing strategy"))
                        continue
                    if kernel == "classic":
                        b_csc = as_csc(b, "b")
                        work = lambda a=a, b=b_csc: multiply_classic(a, b)
                    elif kernel == "rowmajor":
                        work = lambda a=a, b=b, s=strategy: multiply_rowmajor(a, b, s)
                    elif kernel == "colmajor":
                        a_csc = as_csc(a, "a")
                        b_csc = as_csc(b, "b")
                        work = lambda a=a_csc, b=b_csc, s=strategy: multiply_colmajor(a, b, s)
                    else:  # mixed: right operand arrives column-major
                        b_csc = as_csc(b, "b")
                        work = lambda a=a, b=b_csc, s=strategy: multiply_mixed(a, b, s)
                    result = work()  # warm caches; also the verification subject
                    if verify:
                        _verify_cell(result, a, b, f"{label}/{kernel}/{strategy_name}")
                    timing = time_kernel(work, flops,
                                         min_total_seconds=min_total_seconds,
                                         trials=trials)
                    records.append(BenchRecord(
                        case=label, family=family, n=actual_n, kernel=kernel,
                        strategy=strategy_name, seed=seed,
                        inner_iters=timing.inner_iters,
                        best_seconds=timing.best_seconds,
                        mflops=timing.mflops))
    return GridResult(records=records, skipped=skipped)


def emit_csv(records) -> str:
    """Render records as CSV, one row per record, in the order given."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.case},{r.family},{r.n},{r.kernel},{r.strategy},{r.seed},"
            f"{r.inner_iters},{r.best_seconds:.5e},{r.mflops:.6g}"
        )
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or malformed CSV header")
    records = []
    for ln in lines[1:]:
        case, family, n, kernel, strategy, seed, inner, best, mflops = ln.split(",")
        records.append(BenchRecord(
            case=case, family=family, n=int(n), kernel=kernel, strategy=strategy,
            seed=int(seed), inner_iters=int(inner), best_seconds=float(best),
            mflops=float(mflops)))
    return records


def parse_sizes(text: str) -> list:
    """Size specs: '64,128,256' or log-spaced ranges like '64:1048576:x2'.
    Every size is at least 1 and a range's factor is finite and above 1;
    anything else raises ValueError, which argparse reports as a usage error."""
    if ":" in text:
        start_s, stop_s, step_s = text.split(":")
        start, stop = int(start_s), int(stop_s)
        if not step_s.startswith("x"):
            raise ValueError(f"range step must look like 'x2', got {step_s!r}")
        factor = float(step_s[1:])
        if not math.isfinite(factor) or factor <= 1.0 or start < 1 or stop < start:
            raise ValueError(f"bad size range {text!r}")
        sizes = []
        value = float(start)
        while math.isfinite(value) and round(value) <= stop:
            n = int(round(value))
            if not sizes or n != sizes[-1]:
                sizes.append(n)
            value *= factor
        return sizes
    sizes = [int(p) for p in text.split(",") if p.strip()]
    if any(n < 1 for n in sizes):
        raise ValueError(f"sizes must be at least 1, got {text!r}")
    return sizes


def _strategy_arg(token: str) -> StrategyKind | None:
    if token == "none":
        return None
    return StrategyKind(token)


def _cmd_run(args) -> int:
    strategies = [_strategy_arg(token) for token in args.strategy]
    result = GridResult(records=[], skipped=[])
    storing = [s for s in strategies if s is not None]
    for kernel in args.kernel:
        # classic takes only the strategy-less cell, every other kernel only
        # the storing strategies; a kernel left with no cell keeps the list
        # it was given, which the grid reports as skipped
        per_kernel = [None] if kernel == "classic" else storing or strategies
        sub = run_grid(args.case, [kernel], per_kernel, args.sizes, args.seed,
                       k=args.k, fill=args.fill, verify=args.verify,
                       min_total_seconds=args.min_seconds, trials=args.trials)
        result.records.extend(sub.records)
        result.skipped.extend(sub.skipped)
    text = emit_csv(result.records)
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for skip in result.skipped:
        print(f"skipped {skip.case} kernel={skip.kernel} strategy={skip.strategy}: "
              f"{skip.reason}", file=sys.stderr)
    if args.strict and result.skipped:
        return 2
    return 0


def _cmd_model(args) -> int:
    params = RooflineParams(peak_flops=args.peak, bandwidth=args.bandwidth,
                            code_balance=args.balance)
    bound = roofline(params)
    memory_limb = params.bandwidth / params.code_balance
    limb = "memory" if memory_limb <= params.peak_flops else "compute"
    detail = (f"{params.bandwidth:g} B/s / {params.code_balance:g} B/F"
              if limb == "memory" else f"peak {params.peak_flops:g} F/s")
    print(f"attainable rate: {bound / 1e6:.6g} MFlop/s ({limb}-bound: {detail})")
    return 0


def _cmd_gen(args) -> int:
    spec = GenSpec(family=args.case, n=args.size, k=args.k, fill=args.fill,
                   seed=args.seed)
    m = generate(spec)
    save_matrix_market(m, args.out)
    print(f"wrote {m.rows} x {m.cols} matrix with {m.nnz} entries to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsemm-bench",
        description="Benchmark sparse matrix-matrix multiplication kernels.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure a grid of cases and emit CSV")
    run.add_argument("--case", nargs="+", choices=FAMILIES, default=["fd"])
    run.add_argument("--kernel", nargs="+", choices=KERNEL_NAMES,
                     default=["rowmajor"])
    run.add_argument("--strategy", nargs="+", default=["combined"],
                     choices=[s.value for s in StrategyKind] + ["none"],
                     help="storing strategy; 'none' only fits the classic kernel")
    run.add_argument("--sizes", type=parse_sizes, default="64:1024:x2",
                     help="comma list or log-spaced range like 64:1048576:x2")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--k", type=int, default=5,
                     help="entries per row for the random family")
    run.add_argument("--fill", type=float, default=0.001,
                     help="per-row fill ratio for the fill family")
    run.add_argument("--csv", help="write CSV here instead of stdout")
    run.add_argument("--verify", action="store_true",
                     help="check every result against reference computations")
    run.add_argument("--strict", action="store_true",
                     help="exit nonzero if any combination was skipped")
    run.add_argument("--min-seconds", type=float, default=2.0,
                     help="wall time one calibrated batch must exceed")
    run.add_argument("--trials", type=int, default=5)
    run.set_defaults(func=_cmd_run)

    model = sub.add_parser("model", help="print the bandwidth-based rate bound")
    model.add_argument("--peak", type=float, required=True,
                       help="peak compute rate in flops/s")
    model.add_argument("--bandwidth", type=float, required=True,
                       help="data-path bandwidth in bytes/s")
    model.add_argument("--balance", type=float,
                       default=inner_loop_balance().bytes_per_flop,
                       help="code balance in bytes/flop "
                            "(default: the scatter inner loop's 16)")
    model.set_defaults(func=_cmd_model)

    gen = sub.add_parser("gen", help="write a generated matrix as Matrix Market")
    gen.add_argument("--case", choices=FAMILIES, required=True)
    gen.add_argument("--size", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--k", type=int, default=5)
    gen.add_argument("--fill", type=float, default=0.001)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
