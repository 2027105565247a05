"""Benchmark harness: timing protocol, experiment grid runner, CSV, CLI.

Measurement protocol: the inner repetition count of a work item is doubled
until one batch takes more than two seconds of wall time, then that count is
fixed and at least five batches are timed; the best per-invocation time is
reported. Rates are in MFlop/s (10**6 flops per MFlop) with the flop count
always taken from the worst-case formula, never from runtime counters.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial

from .formats import CscMatrix, CsrMatrix, csc_to_csr, csr_to_csc, transposed
from .genmat import FAMILIES, GenSpec, generate
from .kernels import (
    KernelStats,
    StrategyKind,
    _prefers_range,
    dense_multiply_reference,
    multiply_classic,
    multiply_colmajor,
    multiply_mixed,
    multiply_rowmajor,
    rowmajor_reference,
)
from .mtxio import _write_matrix_market
from .perfmodel import RooflineParams, count_mults, inner_loop_balance, roofline

CSV_HEADER = "case,family,n,kernel,strategy,seed,inner_iters,best_seconds,mflops"
KERNEL_NAMES = ("classic", "rowmajor", "colmajor", "mixed")
ORACLE_LIMIT = 512  # largest n the dense reference check is run at
MAX_SECONDS = 86400.0  # one day: the largest batch-time bound accepted


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


def time_kernel(work, flops: int, *, clock=None, min_total_seconds: float = 2.0,
                trials: int = 5) -> TimingResult:
    """Calibrate, repeat and report the best per-invocation time of ``work``.

    ``work`` must be repeatable with identical inputs (any result is built
    afresh and discarded each call). ``flops`` is the per-invocation flop
    count used for the MFlop/s rate. ``clock`` defaults to the monotonic
    high-resolution clock; one that reads no time over a batch of 2**20
    calls is a RuntimeError. A ``min_total_seconds`` that is not finite or
    is above ``MAX_SECONDS`` (one day) is a ValueError.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not (math.isfinite(min_total_seconds) and min_total_seconds <= MAX_SECONDS):
        # no batch would exceed the bound in any run meant to finish
        raise ValueError("min_total_seconds must be finite and at most "
                         f"{MAX_SECONDS:g}, got {min_total_seconds}")
    clock = clock or time.perf_counter

    def batch(inner: int) -> float:
        start = clock()
        for _ in range(inner):
            work()
        return clock() - start

    inner = 1
    while (elapsed := batch(inner)) <= min_total_seconds:
        # 2**20 Python calls outlast one tick of even a 16 ms-resolution
        # clock, so a batch that long reading no time means a stuck clock
        if elapsed <= 0 and inner >= 1 << 20:
            raise RuntimeError("clock does not advance; cannot calibrate")
        inner *= 2
    # dividing by the same positive count keeps the minimum bit for bit
    best = min(batch(inner) for _ in range(trials)) / inner
    return TimingResult(inner_iters=inner, best_seconds=best,
                        mflops=flops / best / 1e6)


def _case_label(family: str, spec: GenSpec, n: int) -> str:
    # no commas: labels land in one CSV field
    if family == "fd":
        return f"fd[n={n}]"
    if family == "random":
        return f"random[n={n};k={spec.k}]"
    return f"fill[n={n};fill={spec.fill:g}]"


def _references(a: CsrMatrix, b: CsrMatrix, stats: KernelStats | None = None) -> list:
    """What every product of ``a`` and ``b`` must equal bit for bit, with the
    name each check reports: the per-row reference and, up to ``ORACLE_LIMIT``,
    the dense reference. Neither shares code with the block kernels; both add
    the same products in k order (zero products change no finite sum). The
    per-row reference runs ``combined`` and records its rule into ``stats``."""
    references = [("the per-row reference",
                   rowmajor_reference(a, b, StrategyKind.COMBINED, stats))]
    if max(a.rows, a.cols, b.cols) <= ORACLE_LIMIT:
        expected, _ = dense_multiply_reference(a.to_dense(), b.to_dense())
        references.append(("the dense reference", CsrMatrix.from_dense(expected)))
    return references


def _verify_cell(result, references, label: str) -> None:
    c = csc_to_csr(result) if isinstance(result, CscMatrix) else result
    for what, ref in references:
        if not ((c.rows, c.cols) == (ref.rows, ref.cols)
                and c.row_ptr.tobytes() == ref.row_ptr.tobytes()
                and c.col_idx.tobytes() == ref.col_idx.tobytes()
                and c.values.tobytes() == ref.values.tobytes()):
            raise RuntimeError(f"verification failed: {label} disagrees with {what}")


def _verify_blocks(stats: KernelStats, result, strategy, cell: str) -> None:
    """A recording call's ``blocks`` tile the result's majors once, in order,
    sum its multiplications and follow its rule: ``combined`` scans a block
    exactly when ``_prefers_range`` its slots and products, else sorts, and
    classic (``strategy`` None) meets bit words and scans."""
    majors = result.rows if isinstance(result, CsrMatrix) else result.cols
    rows = [block.rows for block in stats.blocks]
    ends = [0] + [r1 for _, r1 in rows]
    if strategy is None:
        ruled = all(block[2:4] == ("words", "scan") for block in stats.blocks)
    else:
        ruled = strategy is not StrategyKind.COMBINED or all(
            block.mechanism == ("scan" if _prefers_range(block.slots, block.products) else "sort")
            for block in stats.blocks)
    if not (rows == list(zip(ends, ends[1:])) and ends[-1] == majors and ruled
            and sum(block.products for block in stats.blocks) == stats.multiplications):
        raise RuntimeError(f"verification failed: {cell} recorded blocks that do not tile its "
                           f"{majors} majors, sum its multiplications or follow its rule")


def _cells(kernel: str, strategies) -> list:
    """The one cell rule: classic runs its one strategy-less cell, every
    other kernel each storing strategy given, once each and in order. A
    scatter kernel with none left, or an unknown kernel, is a ValueError."""
    strategies = list(dict.fromkeys(StrategyKind(s) for s in strategies))
    if kernel == "classic":
        return [None]
    if kernel not in KERNEL_NAMES:
        raise ValueError(f"unknown kernel {kernel!r}")
    if not strategies:
        raise ValueError(f"kernel {kernel!r} needs a storing strategy")
    return strategies


def run_grid(families, kernels, strategies, sizes, seed, *, k: int = 5,
             fill: float = 0.001, verify: bool = False,
             min_total_seconds: float = 2.0, trials: int = 5) -> list:
    """Measure each kernel on its cells (see ``_cells``) for every (family,
    size) and return the BenchRecords in family, size, kernel, strategy
    order. Repeated families, kernels, strategies and sizes, and fd sizes
    that snap to one grid, count once; the cell rule is checked before any
    operand is generated.

    Per (family, size) the operands, their CSC forms, the flop count and,
    with ``verify``, the references are built once and outside the timed
    region; the mixed kernel converts its right operand inside the timed
    region, matching its contract. With ``verify``, each cell also runs
    once recording ``KernelStats``, outside the timed region: both products
    must equal the references bit for bit, the recorded multiplications the
    flop count's, and the recorded ``row_choices`` the per-row reference's
    under ``combined`` (of the transposed product under colmajor, whose
    majors are result columns) and none under any other cell; its
    ``blocks`` must pass ``_verify_blocks``. The record
    depends on the pattern alone, so when ``b`` is ``a`` and its pattern is
    symmetric, colmajor's is checked against the rowmajor one.

    The second operand of the random families uses seed + 1 so the two
    matrices differ; the stencil family multiplies the matrix by itself.
    """
    plan = {kernel: _cells(kernel, strategies) for kernel in dict.fromkeys(kernels)}
    records = []
    for family in dict.fromkeys(families):
        measured = set()  # fd snaps sizes to squares, so two sizes can give one n
        for n in dict.fromkeys(sizes):
            spec = GenSpec(family=family, n=n, k=min(k, n), fill=fill, seed=seed)
            a = generate(spec)
            if a.rows in measured:
                continue
            measured.add(a.rows)
            if family == "fd":
                b = a
            else:
                b = generate(replace(spec, seed=(seed + 1) & ((1 << 64) - 1)))
            actual_n = a.rows
            label = _case_label(family, spec, actual_n)
            mults = count_mults(a, b)
            a_csc = csr_to_csc(a)
            b_csc = a_csc if b is a else csr_to_csc(b)
            works = {
                "classic": lambda s, stats=None: multiply_classic(a, b_csc, stats),
                "rowmajor": lambda s, stats=None: multiply_rowmajor(a, b, s, stats),
                "colmajor": lambda s, stats=None: multiply_colmajor(a_csc, b_csc, s, stats),
                "mixed": lambda s, stats=None: multiply_mixed(a, b_csc, s, stats),
            }
            references, choices = [], {}
            if verify:
                record = KernelStats()
                references = _references(a, b, record)
                choices = {"rowmajor": record.row_choices, "mixed": record.row_choices}
                # colmajor multiplies b^T a^T, whose pattern, and so record, is
                # a a's when b is a and a's pattern is symmetric (fd's stencil)
                if (b is a and a_csc.col_ptr.tobytes() == a.row_ptr.tobytes()
                        and a_csc.row_idx.tobytes() == a.col_idx.tobytes()):
                    choices["colmajor"] = record.row_choices
                elif StrategyKind.COMBINED in plan.get("colmajor", ()):
                    record = KernelStats()
                    rowmajor_reference(transposed(b_csc), transposed(a_csc),
                                       StrategyKind.COMBINED, record)
                    choices["colmajor"] = record.row_choices
            for kernel, cells in plan.items():
                for strategy in cells:
                    work = partial(works[kernel], strategy)
                    name = "none" if strategy is None else strategy.value
                    result = work()  # warm caches; also the verification subject
                    if verify:
                        cell = f"{label}/{kernel}/{name}"
                        _verify_cell(result, references, cell)
                        # once more recording KernelStats, whose record is checked too
                        stats = KernelStats()
                        _verify_cell(work(stats=stats), references, f"{cell} with KernelStats")
                        if stats.multiplications != mults.multiplications:
                            raise RuntimeError(
                                f"verification failed: {cell} counted {stats.multiplications} "
                                f"multiplications, not {mults.multiplications}")
                        if stats.row_choices != (choices[kernel] if name == "combined" else []):
                            raise RuntimeError(f"verification failed: {cell} recorded row_choices "
                                               "that disagree with the per-row reference")
                        _verify_blocks(stats, result, strategy, cell)
                    timing = time_kernel(work, mults.flops,
                                         min_total_seconds=min_total_seconds,
                                         trials=trials)
                    records.append(BenchRecord(
                        case=label, family=family, n=actual_n, kernel=kernel,
                        strategy=name, seed=seed,
                        inner_iters=timing.inner_iters,
                        best_seconds=timing.best_seconds,
                        mflops=timing.mflops))
    return records


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
    Every size is at least 1, a range's factor is finite and above 1 and
    reaches ``stop`` within 2^20 multiplications, and there is at least one
    size; anything else raises ValueError, which argparse reports as a
    usage error."""
    if ":" in text:
        start_s, stop_s, step_s = text.split(":")
        start, stop = int(start_s), int(stop_s)
        if not step_s.startswith("x"):
            raise ValueError(f"range step must look like 'x2', got {step_s!r}")
        factor = float(step_s[1:])
        if not math.isfinite(factor) or factor <= 1.0 or start < 1 or stop < start:
            raise ValueError(f"bad size range {text!r}")
        if math.log((stop + 0.5) / start) > (1 << 20) * math.log(factor):
            raise ValueError(f"size range {text!r} takes more than 2^20 steps")
        sizes = []
        value = float(start)
        while math.isfinite(value) and round(value) <= stop:
            n = int(round(value))
            if not sizes or n != sizes[-1]:
                sizes.append(n)
            value *= factor
    else:
        sizes = [int(p) for p in text.split(",") if p.strip()]
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError(f"need sizes of at least 1, got {text!r}")
    return sizes


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def duration(text: str) -> float:
    """Seconds from 0 to ``MAX_SECONDS``: a larger bound would keep the
    calibration doubling its batch for longer than any run is meant to last."""
    value = float(text)
    if not 0.0 <= value <= MAX_SECONDS:
        raise argparse.ArgumentTypeError(f"need seconds from 0 to {MAX_SECONDS:g}, got {text!r}")
    return value


def fill_ratio(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"need 0 < fill <= 1, got {text!r}")
    return value


def _open_output(args, flag: str, path: str):
    """``path`` opened for writing before any work; an OSError is a usage error."""
    try:
        return open(path, "w", encoding="ascii")
    except OSError as exc:
        args.error(f"argument {flag}: can't open {path!r}: {exc.strerror}")


def _cmd_run(args) -> int:
    out = _open_output(args, "--csv", args.csv) if args.csv else nullcontext(sys.stdout)
    with out as fh:
        records = run_grid(args.case, args.kernel, args.strategy, args.sizes, args.seed,
                           k=args.k, fill=args.fill, verify=args.verify,
                           min_total_seconds=args.min_seconds, trials=args.trials)
        fh.write(emit_csv(records))
    return 0


def _cmd_model(args) -> int:
    try:
        params = RooflineParams(peak_flops=args.peak, bandwidth=args.bandwidth,
                                code_balance=args.balance)
    except ValueError:
        args.error("--peak, --bandwidth and --balance must all be positive")
    bound = roofline(params)
    memory_limb = params.bandwidth / params.code_balance
    limb = "memory" if memory_limb <= params.peak_flops else "compute"
    detail = (f"{params.bandwidth:g} B/s / {params.code_balance:g} B/F"
              if limb == "memory" else f"peak {params.peak_flops:g} F/s")
    print(f"attainable rate: {bound / 1e6:.6g} MFlop/s ({limb}-bound: {detail})")
    return 0


def _cmd_gen(args) -> int:
    if args.case == "random" and args.k > args.size:
        args.error(f"argument --k: must be at most --size ({args.size}) for the "
                   f"random family, got {args.k}")
    spec = GenSpec(family=args.case, n=args.size, k=args.k, fill=args.fill,
                   seed=args.seed)
    with _open_output(args, "--out", args.out) as fh:
        m = generate(spec)
        _write_matrix_market(m, fh)
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
                     choices=[s.value for s in StrategyKind],
                     help="storing strategies of the scatter kernels; classic "
                          "always runs its one strategy-less cell")
    run.add_argument("--sizes", type=parse_sizes, default="64:1024:x2",
                     help="comma list or log-spaced range like 64:1048576:x2")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--k", type=positive_int, default=5,
                     help="entries per row for the random family")
    run.add_argument("--fill", type=fill_ratio, default=0.001,
                     help="per-row fill ratio for the fill family")
    run.add_argument("--csv", help="write CSV here instead of stdout")
    run.add_argument("--verify", action="store_true",
                     help="check every result, also as computed while recording "
                     "KernelStats, against reference computations, and the "
                     "recorded multiplications, row_choices and blocks")
    run.add_argument("--min-seconds", type=duration, default=2.0,
                     help="wall time one calibrated batch must exceed, "
                     "from 0 to 86400 s (one day)")
    run.add_argument("--trials", type=positive_int, default=5)
    run.set_defaults(func=_cmd_run, error=run.error)

    model = sub.add_parser("model", help="print the bandwidth-based rate bound")
    model.add_argument("--peak", type=float, required=True,
                       help="peak compute rate in flops/s")
    model.add_argument("--bandwidth", type=float, required=True,
                       help="data-path bandwidth in bytes/s")
    model.add_argument("--balance", type=float,
                       default=inner_loop_balance().bytes_per_flop,
                       help="code balance in bytes/flop "
                            "(default: the scatter inner loop's 16)")
    model.set_defaults(func=_cmd_model, error=model.error)

    gen = sub.add_parser("gen", help="write a generated matrix as Matrix Market")
    gen.add_argument("--case", choices=FAMILIES, required=True)
    gen.add_argument("--size", type=positive_int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--k", type=positive_int, default=5)
    gen.add_argument("--fill", type=fill_ratio, default=0.001)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen, error=gen.error)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
