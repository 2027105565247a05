"""Closed-loop timing of a workload's cells, untraced and traced.

One process, one thread: the next product starts only after the previous
one has returned and been checked against the oracle. A round calls every
cell once; each round starts one cell later than the last, so that machine
drift hits every cell alike. As in ``timeit``, the garbage collector is
off inside a timed call and runs between calls, so that every call starts
from the same heap state; with it on, the same call varied by a third.

Set-up is timed inside the run's budget too: after each round it is
repeated for a tenth of that round's time, so that its samples, like the
cells', are spread over the whole run.
"""

from __future__ import annotations

import gc
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from sparsemm.formats import CsrBuilder, csc_to_csr, estimate_nnz
from sparsemm.kernels import KernelStats, RowAccumulator, StrategyKind, store_row

from .workloads import (
    Operands,
    Workload,
    make_call,
    matches_oracle,
    same_matrix,
    scipy_reference,
    setup,
)

clock = time.perf_counter

SETUP_SHARE = 0.1  # set-up time repeated after a round, as a share of it


class Tally:
    """Outputs checked against the oracle, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)


@contextmanager
def gc_paused():
    """Collect garbage, then keep the collector off for the block."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def timed(fn, tally: Tally, what: str):
    """Time one call of ``fn``; return (seconds, result), or (None, None)
    after counting an exception as a failed output."""
    with gc_paused():
        t0 = clock()
        try:
            result = fn()
        except Exception as exc:  # a failing product is counted and the run goes on
            tally.record(False, f"{what}: {type(exc).__name__}: {exc}")
            return None, None
        return clock() - t0, result


class SetupRuns:
    """Repeated set-up of one workload. The operands are the first set-up's;
    every repetition builds the same ones from the same seed."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.totals = []
        self.phases = {}
        self.ops = self._once()

    def _once(self) -> Operands:
        with gc_paused():
            t0 = clock()
            ops, phase_times = setup(self.workload, self.seed)
            self.totals.append(clock() - t0)
        for name, phase_s in phase_times.items():
            self.phases.setdefault(name, []).append(phase_s)
        return ops

    def repeat_for(self, seconds: float) -> None:
        """Set up again, at least once and for at least ``seconds``."""
        end = clock() + seconds
        self._once()
        while clock() < end:
            self._once()


@dataclass
class Rounds:
    """Per-cell call times and per-round summed call times; where a rate
    reference runs, also each call paired with the reference around it."""

    calls: dict = field(default_factory=dict)  # cell name -> [seconds]
    rounds: list = field(default_factory=list)
    pairs: dict = field(default_factory=dict)  # cell name -> [(call s, s per product)]


@dataclass
class TraceCounts:
    kernel_mults: int = 0
    minmax_rows: int = 0
    sort_rows: int = 0


def run_round(calls: dict, offset: int, ops: Operands, tally: Tally,
              into: Rounds, reference=None, trace: TraceCounts | None = None) -> None:
    """Call every cell once, starting at cell ``offset``.

    With ``reference``, reference samples are timed before the first call
    and after every call; a call is paired with the mean of the samples on
    either side of it, which see the same machine speed. With ``trace``,
    each call gets a ``KernelStats``; its multiplication count must equal
    ``count_mults`` and the rowmajor/combined row choices are kept. A round
    with a failed call is not added to ``into.rounds``.
    """
    def reference_sample():
        seconds, _ = timed(reference, tally, "scipy reference")
        return None if seconds is None else seconds / reference.repeats

    names = list(calls)
    start = offset % len(names)
    total = 0.0
    complete = True
    before = None if reference is None else reference_sample()
    for name in names[start:] + names[:start]:
        stats = KernelStats() if trace is not None else None
        seconds, result = timed(lambda: calls[name](stats), tally, name)
        if seconds is None:
            complete = False
            continue
        ok = matches_oracle(result, ops)
        if stats is not None:
            ok = ok and stats.multiplications == ops.mults
            if name == "rowmajor.combined":
                trace.kernel_mults = stats.multiplications
                choices = [choice for _, choice in stats.row_choices]
                trace.minmax_rows = choices.count(StrategyKind.MIN_MAX)
                trace.sort_rows = choices.count(StrategyKind.SORT)
        tally.record(ok, f"{name}: result differs from the oracle")
        total += seconds
        into.calls.setdefault(name, []).append(seconds)
        if reference is not None:
            after = reference_sample()
            if before is not None and after is not None:
                into.pairs.setdefault(name, []).append((seconds, (before + after) / 2))
            before = after
    if complete:
        into.rounds.append(total)


def _cell_calls(workload: Workload, ops: Operands) -> dict:
    return {cell.name: make_call(cell, ops) for cell in workload.cells}


@dataclass
class Untraced:
    setup: SetupRuns
    timing: Rounds
    tally: Tally


def run_untraced(workload: Workload, seed: int, seconds: float) -> Untraced:
    """Rounds of every cell with tracing off, and set-up between them, for
    ``seconds`` in all."""
    deadline = clock() + seconds
    setups = SetupRuns(workload, seed)
    ops = setups.ops
    calls = _cell_calls(workload, ops)
    reference = scipy_reference(ops)
    tally = Tally()
    timing = Rounds()
    for offset in itertools.count():
        t0 = clock()
        run_round(calls, offset, ops, tally, timing, reference)
        setups.repeat_for(SETUP_SHARE * (clock() - t0))
        if clock() + (clock() - t0) > deadline:
            return Untraced(setups, timing, tally)


@dataclass
class Replay:
    """Phase times of one replayed rowmajor product."""

    total_s: float
    tolist_s: float
    accumulate_s: float
    store_s: float
    mults: int
    range_slots: int


def replay_rowmajor(a, b, strategy: StrategyKind):
    """``multiply_rowmajor``'s driver loop, rebuilt from the public
    ``RowAccumulator.accumulate`` and ``store_row`` with each phase timed.

    ``accumulate_s`` includes slicing the left operand's row, and
    ``store_s`` includes the builder appends that ``store_row`` makes.
    ``range_slots`` sums the touched min..max range of every row, for the
    strategies that track it. Returns the product and a ``Replay``.
    """
    t0 = clock()
    out = CsrBuilder(a.rows, b.cols, estimate_nnz(a, b))
    acc = RowAccumulator(b.cols, strategy)
    t1 = clock()
    a_ptr = a.row_ptr.tolist()
    a_idx = a.col_idx.tolist()
    a_val = a.values.tolist()
    b_ptr = b.row_ptr.tolist()
    b_idx = b.col_idx.tolist()
    b_val = b.values.tolist()
    t2 = clock()
    accumulate_s = store_s = 0.0
    mults = range_slots = 0
    for r in range(a.rows):
        lo, hi = a_ptr[r], a_ptr[r + 1]
        if lo != hi:
            s0 = clock()
            mults += acc.accumulate(a_idx[lo:hi], a_val[lo:hi], b_ptr, b_idx, b_val)
            s1 = clock()
            if acc.min_idx <= acc.max_idx:
                range_slots += acc.max_idx - acc.min_idx + 1
            store_row(acc, acc.strategy, out, major=r)
            s2 = clock()
            accumulate_s += s1 - s0
            store_s += s2 - s1
        else:
            out.finalize_row()
    result = out.finish()
    total_s = clock() - t0
    return result, Replay(total_s, t2 - t1, accumulate_s, store_s, mults, range_slots)


def stream_through_builder(m):
    """Time appending every entry of ``m`` to a fresh ``CsrBuilder``.
    Returns (seconds, rebuilt matrix)."""
    ptr = m.row_ptr.tolist()
    idx = m.col_idx.tolist()
    val = m.values.tolist()
    t0 = clock()
    builder = CsrBuilder(m.rows, m.cols, m.nnz)
    append = builder.append
    for r in range(m.rows):
        lo, hi = ptr[r], ptr[r + 1]
        for c, v in zip(idx[lo:hi], val[lo:hi]):
            append(c, v)
        builder.finalize_row()
    rebuilt = builder.finish()
    return clock() - t0, rebuilt


@dataclass
class Traced:
    setup: SetupRuns
    untraced: Rounds
    traced: Rounds
    counts: TraceCounts
    replays: dict  # strategy value -> [Replay]
    csc_to_csr_s: list
    append_s: list
    tally: Tally


def run_traced(workload: Workload, seed: int, seconds: float) -> Traced:
    """Per-layer timing, for ``seconds`` in all.

    Each iteration runs one untraced round, one traced round, a phase
    replay of every rowmajor cell, the CSC-to-CSR conversion that ``mixed``
    makes, a builder stream of the oracle product, and set-up. Every output
    is checked against the oracle.
    """
    deadline = clock() + seconds
    setups = SetupRuns(workload, seed)
    ops = setups.ops
    calls = _cell_calls(workload, ops)
    strategies = [StrategyKind(c.strategy) for c in workload.cells
                  if c.kernel == "rowmajor"]
    tally = Tally()
    out = Traced(setups, Rounds(), Rounds(), TraceCounts(),
                 {s.value: [] for s in strategies}, [], [], tally)
    for offset in itertools.count():
        t0 = clock()
        run_round(calls, offset, ops, tally, out.untraced)
        run_round(calls, offset, ops, tally, out.traced, trace=out.counts)
        for strategy in strategies:
            what = f"replay.{strategy.value}"
            _, replayed = timed(lambda: replay_rowmajor(ops.a, ops.b, strategy),
                                tally, what)
            if replayed is not None:
                result, phases = replayed
                tally.record(matches_oracle(result, ops) and phases.mults == ops.mults,
                             f"{what}: result differs from the oracle")
                out.replays[strategy.value].append(phases)
        seconds_taken, converted = timed(lambda: csc_to_csr(ops.b_csc), tally, "csc_to_csr")
        if converted is not None:
            tally.record(same_matrix(converted, ops.b), "csc_to_csr: differs from B")
            out.csc_to_csr_s.append(seconds_taken)
        _, streamed = timed(lambda: stream_through_builder(ops.expected), tally,
                            "builder stream")
        if streamed is not None:
            append_s, rebuilt = streamed
            tally.record(same_matrix(rebuilt, ops.expected), "builder stream differs")
            out.append_s.append(append_s)
        setups.repeat_for(SETUP_SHARE * (clock() - t0))
        if clock() + (clock() - t0) > deadline:
            return out

