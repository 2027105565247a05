"""Command line, metrics and result lines of the benchmark.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
prints two JSON lines. The first, ``{"details": ...}``, holds the quartiles
and sample counts behind every metric, the metrics that are not gated (the
absolute rates and round time, and those of cells that only some workloads
run), the operand fingerprints, the roofline fields and the environment.
The last line holds ``correct``, ``attempted``, ``failed`` and ``metrics``:
with ``--trace 0`` the gated end-to-end metrics, with ``--trace 1`` the
per-layer metrics that every workload reports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

import numpy as np

from sparsemm.formats import estimate_nnz
from sparsemm.genmat import matrix_fingerprint
from sparsemm.perfmodel import inner_loop_balance

from . import THREAD_VARS
from .measure import Traced, Untraced, run_traced, run_untraced
from .workloads import WORKLOADS, Workload, scipy_version

ROOT = Path(__file__).resolve().parent.parent

# End-to-end cell groups. A group's rate is flops * cells / sum of median
# call times; its gap is the summed time of its calls over the summed time
# of one scipy product timed around each call.
GROUPS = {
    "combined": ("rowmajor.combined",),
    "sort": ("rowmajor.sort",),
    "range": ("rowmajor.minmax", "rowmajor.minmaxchar"),
    "scan": ("rowmajor.bfdouble", "rowmajor.bfbool", "rowmajor.bfchar"),
    "colmajor": ("colmajor.combined",),
    "mixed": ("mixed.combined",),
    "classic": ("classic.none",),
}

EFFICIENCY_OMITTED = (
    "no efficiency ratio: it needs a measured memory bandwidth, and a stream "
    "over arrays of at least 4x the last-level cache does not fit the "
    "benchmark's memory budget")


def _cells_everywhere() -> set:
    """Cell names that every workload runs; only their metrics are gated."""
    return set.intersection(*({c.name for c in w.cells} for w in WORKLOADS.values()))


def quartiles(values) -> tuple:
    """(q1, median, q3) by ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


class Report:
    """Metrics split into those every workload reports and the rest."""

    def __init__(self):
        self.everywhere = _cells_everywhere()
        self.metrics = {}
        self.extra = {}
        self.spread = {}

    def add(self, name: str, value, unit: str, cells=(), samples=None,
            gated: bool = True) -> None:
        """Add a metric; one not gated, or that depends on a cell not run by
        every workload, goes to the details. ``samples`` adds its quartiles."""
        gated = gated and all(c in self.everywhere for c in cells)
        (self.metrics if gated else self.extra)[name] = {"value": value, "unit": unit}
        if samples is not None:
            q1, mid, q3 = quartiles(samples)
            self.spread[name] = {"q1": q1, "median": mid, "q3": q3, "n": len(samples)}


def _time_metrics(report: Report, name: str, samples: list, cells=(),
                  gated: bool = True) -> None:
    if samples:
        report.add(name, statistics.median(samples), "s", cells, samples, gated)


def _gap(report: Report, name: str, pairs: list, cells=()) -> None:
    """Summed call time over summed paired reference time; the quartiles
    are those of the per-call ratios."""
    if pairs:
        report.add(name, sum(c for c, _ in pairs) / sum(r for _, r in pairs), "x", cells,
                   [c / r for c, r in pairs])


def end_to_end(report: Report, run: Untraced, flops: int) -> None:
    """Times, rates and gaps. The round time and the rates follow the
    machine's speed, which moved by up to a half between runs of the same
    code, so they go to the details; the gaps, whose two halves see the same
    machine speed, are gated."""
    timing = run.timing
    _time_metrics(report, "setup_s", run.setup.totals)
    _time_metrics(report, "grid_s", timing.rounds, gated=False)
    _gap(report, "gap.grid", [p for pairs in timing.pairs.values() for p in pairs])
    for group, cells in GROUPS.items():
        calls = [timing.calls.get(c) for c in cells]
        if not all(calls):
            continue
        rate = {
            pick: flops * len(cells) / sum(quartiles(c)[i] for c in calls) / 1e6
            for pick, i in (("q1", 2), ("median", 1), ("q3", 0))
        }
        report.add(f"mflops.{group}", rate["median"], "MFlop/s", gated=False)
        report.spread[f"mflops.{group}"] = dict(rate, n=min(map(len, calls)))
        if all(timing.pairs.get(c) for c in cells):
            _gap(report, f"gap.{group}", [p for c in cells for p in timing.pairs[c]], cells)
    references = [r for pairs in timing.pairs.values() for _, r in pairs]
    if references:
        rates = [flops / seconds / 1e6 for seconds in references]
        report.add("scipy.mflops", statistics.median(rates), "MFlop/s", samples=rates,
                   gated=False)


def per_layer(report: Report, run: Traced, flops: int) -> None:
    ops = run.setup.ops
    for name, samples in run.setup.phases.items():
        _time_metrics(report, name, samples)
    _time_metrics(report, "formats.csc_to_csr_s", run.csc_to_csr_s)
    _time_metrics(report, "formats.append_s", run.append_s)
    report.add("formats.append_calls", ops.expected.nnz, "count")
    replays = [r for rs in run.replays.values() for r in rs]
    _time_metrics(report, "kernels.tolist_s", [r.tolist_s for r in replays])
    for strategy, rs in run.replays.items():
        cells = (f"rowmajor.{strategy}",)
        _time_metrics(report, f"kernels.accumulate_s.{strategy}",
                      [r.accumulate_s for r in rs], cells)
        _time_metrics(report, f"kernels.store_s.{strategy}",
                      [r.store_s for r in rs], cells)
    for cell, samples in run.traced.calls.items():
        _time_metrics(report, f"kernels.{cell}.call_s", samples, (cell,))
    counts = run.counts
    report.add("kernels.combined.minmax_rows", counts.minmax_rows, "count")
    report.add("kernels.combined.sort_rows", counts.sort_rows, "count")
    report.add("kernels.mults", counts.kernel_mults, "count")
    nnz = ops.expected.nnz
    report.add("kernels.reuse", nnz / ops.mults, "ratio")
    report.add("formats.capacity_used", nnz / estimate_nnz(ops.a, ops.b), "ratio")
    combined = run.replays.get("combined")
    if combined:
        report.add("kernels.range_useful", nnz / combined[0].range_slots, "ratio")
    report.add("kernels.scan_useful", nnz / (ops.a.rows * ops.b.cols), "ratio")
    report.add("perfmodel.bytes_computed",
               inner_loop_balance().bytes_per_flop * flops, "B")
    median = statistics.median
    if run.untraced.rounds and run.traced.rounds:
        report.add("trace.overhead",
                   median(run.traced.rounds) / median(run.untraced.rounds) - 1, "ratio")
    pairs = [(median([r.total_s for r in rs]), median(run.untraced.calls[f"rowmajor.{s}"]))
             for s, rs in run.replays.items()
             if rs and run.untraced.calls.get(f"rowmajor.{s}")]
    if pairs:
        replayed, direct = zip(*pairs)
        report.add("kernels.replay_ratio", sum(replayed) / sum(direct), "ratio")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_revision() -> dict:
    """Revision and dirty flag of the checkout, or nulls outside a git tree."""
    if not (ROOT / ".git").exists():
        return {"revision": None, "dirty": None}
    try:
        revision = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=True,
                                  timeout=30).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, check=True,
                                timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return {"revision": None, "dirty": None}
    return {"revision": revision, "dirty": bool(status.strip())}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "git": _git_revision(),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool):
    """Measure one workload; return (details, result) as printed."""
    run = (run_traced if trace else run_untraced)(workload, seed, seconds)
    ops = run.setup.ops
    flops = 2 * ops.mults
    report = Report()
    if trace:
        per_layer(report, run, flops)
    else:
        end_to_end(report, run, flops)
    bytes_computed = inner_loop_balance().bytes_per_flop * flops
    details = {
        "workload": workload.name,
        "family": workload.family,
        "n": ops.a.rows,
        "k": workload.k if workload.family != "fd" else None,
        "seed": seed,
        "seed_used": workload.family != "fd",
        "trace": int(trace),
        "seconds": seconds,
        "loop": "closed, one process, one thread",
        "cells": [c.name for c in workload.cells],
        "oracle": ops.oracle,
        "fingerprint": {"a": matrix_fingerprint(ops.a), "b": matrix_fingerprint(ops.b)},
        "mults": ops.mults,
        "result_nnz": ops.expected.nnz,
        "roofline": {
            "flops": flops,
            "bytes_computed": bytes_computed,
            "flops_per_byte": flops / bytes_computed,
            "efficiency": EFFICIENCY_OMITTED,
        },
        "spread": report.spread,
        "extra_metrics": report.extra,
        "errors": run.tally.errors,
        "environment": environment(),
    }
    tally = run.tally
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report.metrics,
    }
    return details, result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfbench", description="Closed-loop SpGEMM benchmark of sparsemm.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    details, result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                   bool(args.trace))
    print(json.dumps({"details": details}))
    print(json.dumps(result), flush=True)
    return 0
