"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The shared corpus is 200 seeded random operand pairs with dimensions in
4..64 plus the five-point stencil matrices for grids 1..16, multiplied by
themselves.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest

from sparsemm_helpers import (
    SRC,
    assert_csr_bitwise_equal,
    identity_csr,
    random_pair,
)
from sparsemm.bench import VirtualClock, run_grid, time_kernel
from sparsemm.formats import csc_to_csr, csr_to_csc, estimate_nnz
from sparsemm.genmat import gen_fd, gen_random_k
from sparsemm.kernels import (
    KernelStats,
    StrategyKind,
    combined_select,
    dense_multiply_reference,
    multiply_classic,
    multiply_colmajor,
    multiply_mixed,
    multiply_rowmajor,
)
from sparsemm.perfmodel import RooflineParams, count_mults, roofline

RTOL = 1e-12
ALL_STRATEGIES = list(StrategyKind)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:>2} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num:>2} ({name}): PASS")


@lru_cache(maxsize=1)
def corpus():
    inputs = []
    for seed in range(200):
        a, b = random_pair(seed)
        inputs.append((f"random-{seed}", a, b))
    for grid in range(1, 17):
        a = gen_fd(grid)
        inputs.append((f"fd-{grid}", a, a))
    return inputs


def check_against_dense(result, expected, label):
    got = result.to_dense()
    assert np.array_equal(got != 0.0, expected != 0.0), f"{label}: pattern differs"
    assert np.allclose(got, expected, rtol=RTOL, atol=0.0), f"{label}: values differ"


def test_criterion_01_oracle_equivalence():
    """Every kernel and strategy agrees with the dense reference on the
    whole corpus, within 1e-12 relative, with identical sparsity."""
    with criterion(1, "oracle equivalence"):
        started = time.perf_counter()
        for label, a, b in corpus():
            expected, _ = dense_multiply_reference(a.to_dense(), b.to_dense())
            ac, bc = csr_to_csc(a), csr_to_csc(b)
            for strategy in ALL_STRATEGIES:
                check_against_dense(multiply_rowmajor(a, b, strategy), expected,
                                    f"{label}/rowmajor/{strategy.value}")
                check_against_dense(multiply_colmajor(ac, bc, strategy), expected,
                                    f"{label}/colmajor/{strategy.value}")
            check_against_dense(multiply_classic(a, bc), expected, f"{label}/classic")
            for pair_label, left, right in (
                ("rr", a, b), ("rc", a, bc), ("cr", ac, b), ("cc", ac, bc),
            ):
                check_against_dense(multiply_mixed(left, right), expected,
                                    f"{label}/mixed-{pair_label}")
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.1f} s, budget is 60 s"


def test_criterion_02_strategy_unanimity():
    """All seven strategies produce bitwise identical output on every
    corpus input."""
    with criterion(2, "strategy unanimity"):
        for label, a, b in corpus():
            baseline = multiply_rowmajor(a, b, ALL_STRATEGIES[0])
            for strategy in ALL_STRATEGIES[1:]:
                other = multiply_rowmajor(a, b, strategy)
                assert baseline.row_ptr.tobytes() == other.row_ptr.tobytes(), label
                assert baseline.col_idx.tobytes() == other.col_idx.tobytes(), label
                assert baseline.values.tobytes() == other.values.tobytes(), label


def test_criterion_03_estimator_soundness():
    """The reservation estimate never undershoots the product's nnz, is
    exact on identity inputs, and equals the multiplication count."""
    with criterion(3, "estimator soundness"):
        for label, a, b in corpus():
            product, _ = dense_multiply_reference(a.to_dense(), b.to_dense())
            estimate = estimate_nnz(a, b)
            assert estimate >= np.count_nonzero(product), label
            assert estimate == count_mults(a, b).multiplications, label
        for n in (1, 5, 32):
            eye = identity_csr(n)
            b = gen_random_k(n, min(3, n), seed=n)
            assert estimate_nnz(eye, b) == b.nnz
            assert estimate_nnz(b, eye) == b.nnz
            assert estimate_nnz(eye, eye) == n


def test_criterion_04_flop_formula():
    """Hand-summed stencil flop count, and agreement between the formula
    and the kernels' instrumented multiplication counters."""
    with criterion(4, "flop formula"):
        stencil = gen_fd(2)
        fc = count_mults(stencil, stencil)
        assert fc.multiplications == 36
        assert fc.flops == 72
        for label, a, b in corpus():
            expected = count_mults(a, b).multiplications
            stats = KernelStats()
            multiply_rowmajor(a, b, StrategyKind.COMBINED, stats)
            assert stats.multiplications == expected, label
        for label, a, b in corpus()[:25]:
            expected = count_mults(a, b).multiplications
            stats = KernelStats()
            multiply_classic(a, csr_to_csc(b), stats)
            assert stats.multiplications == expected, label
            stats = KernelStats()
            multiply_colmajor(csr_to_csc(a), csr_to_csc(b), StrategyKind.SORT, stats)
            assert stats.multiplications == expected, label


def test_criterion_05_model_numbers():
    """The documented rate bounds come out exactly."""
    with criterion(5, "model numbers"):
        assert roofline(RooflineParams(7.6e9, 60.8e9, 16.0)) / 1e6 == 3800.0
        assert roofline(RooflineParams(7.6e9, 18.24e9, 16.0)) / 1e6 == 1140.0


def test_criterion_06_conversion():
    """Round-trip format conversion is bit-identical on 100 seeds and the
    mixed kernel converts exactly as often as the format pair demands."""
    with criterion(6, "conversion"):
        for seed in range(100):
            a = gen_random_k(8 + seed % 57, min(5, 8 + seed % 57), seed)
            assert_csr_bitwise_equal(csc_to_csr(csr_to_csc(a)), a)
        a, b = random_pair(123)
        ac, bc = csr_to_csc(a), csr_to_csc(b)
        for left, right, expected_conversions in (
            (a, b, 0), (ac, bc, 0), (a, bc, 1), (ac, b, 1),
        ):
            stats = KernelStats()
            multiply_mixed(left, right, StrategyKind.COMBINED, stats)
            assert stats.conversions == expected_conversions


def test_criterion_07_combined_rule():
    """The per-row strategy choice follows the strict-inequality rule and
    the kernel's recorded decisions match it on 50 random inputs."""
    with criterion(7, "combined rule"):
        assert combined_select(10, 6) is StrategyKind.MIN_MAX
        assert combined_select(12, 6) is StrategyKind.SORT
        assert combined_select(1, 1) is StrategyKind.MIN_MAX
        for seed in range(50):
            a, b = random_pair(seed + 1000)
            stats = KernelStats()
            out = multiply_rowmajor(a, b, StrategyKind.COMBINED, stats)
            ptr = out.row_ptr.tolist()
            idx = out.col_idx.tolist()
            expected = []
            for r in range(out.rows):
                lo, hi = ptr[r], ptr[r + 1]
                if lo == hi:
                    continue
                # positive operand values: the stored row is exactly the
                # touched region, so its span and count feed the rule
                expected.append((r, combined_select(idx[hi - 1] - idx[lo] + 1,
                                                    hi - lo)))
            assert stats.row_choices == expected


def test_criterion_08_protocol():
    """Under the fake clock the timing loop accumulates beyond two seconds,
    runs at least five trials, and reports the minimum."""
    with criterion(8, "measurement protocol"):
        trial_dts = [0.001, 0.0008, 0.0012, 0.0009, 0.001]
        clock = VirtualClock(0.001)
        calls = []

        def work():
            call = len(calls)
            calls.append(None)
            clock.advance(0.001 if call < 4095 else trial_dts[(call - 4095) // 2048])

        result = time_kernel(work, flops=72, clock=clock.read)
        assert result.inner_iters * 0.001 > 2.0
        assert len(calls) == 4095 + 5 * 2048
        assert result.best_seconds == pytest.approx(min(trial_dts), rel=1e-9)


def test_criterion_09_generators():
    """A fixed generator configuration reproduces bit-identical matrices in
    a fresh process, and the grid-32 stencil has exactly 4992 nonzeros."""
    with criterion(9, "generator determinism"):
        assert gen_fd(32).nnz == 4992
        code = (
            "from sparsemm.genmat import GenSpec, generate, matrix_fingerprint\n"
            "print(matrix_fingerprint(generate(GenSpec('random', 64, k=5, seed=42))))\n"
            "print(matrix_fingerprint(generate(GenSpec('fd', 256))))\n"
            "print(matrix_fingerprint(generate(GenSpec('fill', 1000, fill=0.001, seed=9))))\n"
        )
        env = dict(os.environ,
                   PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, check=True)
        from sparsemm.genmat import GenSpec, generate, matrix_fingerprint

        assert proc.stdout.splitlines() == [
            matrix_fingerprint(generate(GenSpec("random", 64, k=5, seed=42))),
            matrix_fingerprint(generate(GenSpec("fd", 256))),
            matrix_fingerprint(generate(GenSpec("fill", 1000, fill=0.001, seed=9))),
        ]


def test_criterion_10_informational_performance_shape():
    """Informational, not gating: relative kernel speeds on this machine.

    Runs a reduced-size comparison (the classic kernel pairs every row with
    every column, so its cost grows with n**2) and reports the measured
    ratio; scripts/kernel_compare.py and scripts/fill_sweep.py run the
    full-size experiments.
    """
    result = run_grid(["fd"], ["rowmajor", "classic"],
                      [StrategyKind.COMBINED, None], [512], seed=1,
                      min_total_seconds=0.1, trials=3)
    rates = {rec.kernel: rec.mflops for rec in result.records}
    ratio = rates["rowmajor"] / rates["classic"]
    print(f"[acceptance] criterion 10 (performance shape): INFO "
          f"rowmajor {rates['rowmajor']:.2f} MFlop/s vs classic "
          f"{rates['classic']:.2f} MFlop/s at n=512 ({ratio:.0f}x); "
          f"fill-ratio sweep: scripts/fill_sweep.py")
    assert rates["rowmajor"] > 0 and rates["classic"] > 0
