"""Shared helpers for the test suite: operand builders, bitwise
assertions, the scalar classic reference kernel and the virtual clock of the
timing protocol tests. Importing it puts the checkout's ``src`` first on
``sys.path``. It is not named ``conftest``, so that the test modules'
imports cannot pick up another suite's conftest when both suites run in one
session."""

import math
import os
import sys

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from sparsemm.formats import (  # noqa: E402
    CscMatrix,
    CsrBuilder,
    CsrMatrix,
    csc_to_csr,
    estimate_nnz,
)
from sparsemm.genmat import SplitMix64, gen_random_k  # noqa: E402


class VirtualClock:
    """Deterministic clock for protocol tests: advances only when told to."""

    def __init__(self, tick_seconds: float):
        if not 0.0 < tick_seconds < math.inf:
            raise ValueError(f"tick must be positive and finite, got {tick_seconds}")
        self.tick_seconds = tick_seconds
        self.now = 0.0

    def read(self) -> float:
        return self.now

    def advance(self, dt: float | None = None) -> None:
        self.now += self.tick_seconds if dt is None else dt


def csr(dense) -> CsrMatrix:
    return CsrMatrix.from_dense(np.asarray(dense, dtype=float))


def csc(dense) -> CscMatrix:
    return CscMatrix.from_dense(np.asarray(dense, dtype=float))


def identity_csr(n: int) -> CsrMatrix:
    return csr(np.eye(n))


def assert_csr_bitwise_equal(a: CsrMatrix, b: CsrMatrix) -> None:
    assert (a.rows, a.cols) == (b.rows, b.cols)
    assert a.row_ptr.tobytes() == b.row_ptr.tobytes()
    assert a.col_idx.tobytes() == b.col_idx.tobytes()
    assert a.values.tobytes() == b.values.tobytes()


def assert_csc_bitwise_equal(a: CscMatrix, b: CscMatrix) -> None:
    assert (a.rows, a.cols) == (b.rows, b.cols)
    assert a.col_ptr.tobytes() == b.col_ptr.tobytes()
    assert a.row_idx.tobytes() == b.row_idx.tobytes()
    assert a.values.tobytes() == b.values.tobytes()


def assert_matches_dense(sparse, expected: np.ndarray, rtol: float = 1e-12) -> None:
    """Same sparsity pattern and entrywise values within relative tolerance."""
    got = sparse.to_dense()
    assert np.array_equal(got != 0.0, expected != 0.0), "sparsity patterns differ"
    assert np.allclose(got, expected, rtol=rtol, atol=0.0)


def random_pair(seed: int, n_min: int = 4, n_max: int = 64):
    """Deterministic random operand pair; the dimension itself is drawn from
    the seed and the per-row count is 5 capped at the dimension."""
    rng = SplitMix64(seed ^ 0xA5A5A5A5)
    n = n_min + rng.next_below(n_max - n_min + 1)
    k = min(5, n)
    a = gen_random_k(n, k, seed)
    b = gen_random_k(n, k, seed + 1)
    return a, b


def random_k_reference(n: int, k: int, seed: int) -> CsrMatrix:
    """``gen_random_k`` drawn one output at a time through ``SplitMix64``:
    the reference that the bulk stream and walk must equal bit for bit."""
    rng = SplitMix64(seed)
    entries = []
    for _ in range(n):
        row = {}
        while len(row) < k:
            c = rng.next_below(n)
            if c not in row:
                row[c] = rng.next_unit()
        entries += sorted(row.items())
    cols, values = zip(*entries)
    builder = CsrBuilder(n, n, n * k)
    builder.append_rows(np.full(n, k), cols, values)
    return builder.finish()


def classic_reference(a: CsrMatrix, b: CscMatrix, stats=None) -> CsrMatrix:
    """The classic product one result position at a time: merge the sorted
    indices of row r of ``a`` with those of column c of ``b`` and sum the
    products of the common ones in k order. The reference that the block
    kernel ``multiply_classic`` must equal bit for bit, ``KernelStats``
    included."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.cols} (cols of a) != {b.rows} (rows of b)")
    out = CsrBuilder(a.rows, b.cols, estimate_nnz(a, csc_to_csr(b)))
    a_ptr = a.row_ptr.tolist()
    a_idx = a.col_idx.tolist()
    a_val = a.values.tolist()
    b_ptr = b.col_ptr.tolist()
    b_idx = b.row_idx.tolist()
    b_val = b.values.tolist()
    mults = 0
    for r in range(a.rows):
        row_lo, row_hi = a_ptr[r], a_ptr[r + 1]
        if row_lo != row_hi:
            for c in range(b.cols):
                i = row_lo
                j = b_ptr[c]
                j_hi = b_ptr[c + 1]
                total = 0.0
                matched = False
                while i < row_hi and j < j_hi:
                    ka = a_idx[i]
                    kb = b_idx[j]
                    if ka < kb:
                        i += 1
                    elif kb < ka:
                        j += 1
                    else:
                        total += a_val[i] * b_val[j]
                        matched = True
                        mults += 1
                        i += 1
                        j += 1
                if matched and total != 0.0:
                    out.append(c, total)
        out.finalize_row()
    if stats is not None:
        stats.multiplications += mults
    return out.finish()
