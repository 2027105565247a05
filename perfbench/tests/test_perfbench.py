"""Tests of the benchmark itself, at tiny operand sizes.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import workloads
from perfbench.measure import replay_rowmajor
from perfbench.report import ROOT, run_workload
from perfbench.workloads import WORKLOADS, OracleUnavailable, oracle_product, same_matrix, setup
from sparsemm.formats import CsrMatrix
from sparsemm.genmat import gen_fd
from sparsemm.kernels import StrategyKind, multiply_rowmajor

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# The rate groups each workload runs. Every rate goes to the details; so do
# the gaps of the groups that not every workload runs.
_COMMON = {"combined", "sort", "range", "colmajor", "mixed"}
GROUPS = {
    "fd-16384": _COMMON,
    "random-1024-k32": _COMMON | {"scan"},
    "fd-1024": _COMMON | {"scan", "classic"},
}


def tiny(name: str):
    """The named workload with the same cells on operands of about 20 rows."""
    return dataclasses.replace(WORKLOADS[name], n=16 if WORKLOADS[name].family == "fd" else 24,
                               k=3)


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(name, trace):
    details, result = run_workload(tiny(name), seed=7, seconds=0.01, trace=bool(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == _declared("per_layer" if trace else "end_to_end")
    if not trace:
        extra = {k: v["unit"] for k, v in details["extra_metrics"].items()}
        expected = {f"mflops.{g}": "MFlop/s" for g in GROUPS[name]}
        expected.update({f"gap.{g}": "x" for g in GROUPS[name] - _COMMON})
        expected.update({"scipy.mflops": "MFlop/s", "grid_s": "s"})
        assert extra == expected
    else:
        strategies = {c.strategy for c in WORKLOADS[name].cells if c.kernel == "rowmajor"}
        for s in strategies:
            for metric in (f"kernels.accumulate_s.{s}", f"kernels.store_s.{s}",
                           f"kernels.rowmajor.{s}.call_s"):
                assert metric in result["metrics"] or metric in details["extra_metrics"]
    for values in details["spread"].values():
        assert values["q1"] <= values["median"] <= values["q3"]


def test_declared_workloads_are_the_defined_ones():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def _off_by_one_ulp(a, b, strategy=StrategyKind.COMBINED, stats=None):
    c = multiply_rowmajor(a, b, strategy, stats)
    values = c.values.copy()
    values[0] = np.nextafter(values[0], np.inf)
    return CsrMatrix.from_arrays(c.rows, c.cols, c.row_ptr, c.col_idx, values)


def _raises(*args, **kwargs):
    raise RuntimeError("kernel broke")


@pytest.mark.parametrize("kernel, fake", [("multiply_rowmajor", _off_by_one_ulp),
                                          ("multiply_colmajor", _raises)])
@pytest.mark.parametrize("trace", [False, True])
def test_wrong_or_failing_product_is_counted_as_failed(monkeypatch, kernel, fake, trace):
    _, good = run_workload(tiny("fd-1024"), seed=7, seconds=0.01, trace=trace)
    monkeypatch.setattr(workloads, kernel, fake)
    _, bad = run_workload(tiny("fd-1024"), seed=7, seconds=0.01, trace=trace)
    assert bad["failed"] > 0 and not bad["correct"]
    assert bad["attempted"] == good["attempted"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("strategy", list(StrategyKind))
def test_phase_replay_is_bit_identical_to_the_oracle(name, strategy):
    ops, _ = setup(tiny(name), seed=123)
    result, phases = replay_rowmajor(ops.a, ops.b, strategy)
    assert same_matrix(result, ops.expected)
    assert phases.mults == ops.mults
    assert phases.total_s >= phases.accumulate_s + phases.store_s + phases.tolist_s


def test_dense_fallback_agrees_with_scipy_and_refuses_large_operands(monkeypatch):
    if workloads.scipy_sparse is None:
        pytest.skip("scipy is not installed")
    ops, _ = setup(tiny("random-1024-k32"), seed=5)
    monkeypatch.setattr(workloads, "scipy_sparse", None)
    expected, expected_csc, oracle = oracle_product(ops.a, ops.b)
    assert oracle == "dense"
    assert same_matrix(expected, ops.expected)
    assert same_matrix(expected_csc, ops.expected_csc)
    big = gen_fd(33)  # 1089 rows, above the dense limit
    with pytest.raises(OracleUnavailable):
        oracle_product(big, big)


def test_seed_reproduces_operands_and_fd_ignores_it():
    fingerprint = lambda name, seed: run_workload(  # noqa: E731
        tiny(name), seed, 0.01, False)[0]["fingerprint"]
    assert fingerprint("random-1024-k32", 3) == fingerprint("random-1024-k32", 3)
    assert fingerprint("random-1024-k32", 3) != fingerprint("random-1024-k32", 4)
    assert fingerprint("fd-1024", 3) == fingerprint("fd-1024", 4)


def test_fails_without_a_result_when_the_source_is_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fd-1024", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
