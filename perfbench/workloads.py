"""Workloads, operand set-up and the independent bitwise oracle.

A workload is a fixed operand family and size plus a fixed list of cells,
each cell one (kernel, strategy) pair. Operands come from
``sparsemm.genmat.generate`` with the seed given on the command line; as in
``sparsemm.bench.run_grid``, random operands use ``B = generate(seed + 1)``
and fd operands use ``B = A``. The fd family ignores the seed: every seed
gives the same stencil.

The oracle is scipy's compiled SMMP product (``csr @ csr`` followed by
``sort_indices()``), which accumulates each result entry in the same k order
as the scatter kernels and so must agree with them bit for bit. It shares no
code with the kernels under test. Without scipy, operands of at most
``DENSE_ORACLE_LIMIT`` rows and columns fall back to
``dense_multiply_reference``.

The same scipy product, timed right after each kernel call, is the rate
reference against which the end-to-end gaps are measured.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from sparsemm.formats import CscMatrix, CsrMatrix, csr_to_csc
from sparsemm.genmat import GenSpec, generate
from sparsemm.kernels import (
    StrategyKind,
    dense_multiply_reference,
    multiply_classic,
    multiply_colmajor,
    multiply_mixed,
    multiply_rowmajor,
)
from sparsemm.perfmodel import count_mults

try:
    import scipy
    import scipy.sparse as scipy_sparse
except ImportError:  # the dense fallback covers small operands
    scipy = scipy_sparse = None

DENSE_ORACLE_LIMIT = 1024
REFERENCE_SAMPLE_S = 0.01  # one reference sample repeats the product this long
_SEED_MASK = (1 << 64) - 1


class OracleUnavailable(RuntimeError):
    """No independent oracle can check products of this size."""


@dataclass(frozen=True)
class Cell:
    kernel: str  # classic, rowmajor, colmajor or mixed
    strategy: str  # a StrategyKind value, or "none" for classic

    @property
    def name(self) -> str:
        return f"{self.kernel}.{self.strategy}"


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    n: int
    k: int
    cells: tuple


def _rowmajor(*strategies) -> tuple:
    return tuple(Cell("rowmajor", s.value) for s in strategies)


_FRONT_ENDS = (Cell("colmajor", "combined"), Cell("mixed", "combined"))

# Brute-force scans are left out of fd-16384 (about 10 s per call) and the
# O(n^2) classic merge runs only at fd-1024, the one size where it is
# tractable.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fd-16384", "fd", 16384, 5,
                 _rowmajor(StrategyKind.COMBINED, StrategyKind.SORT,
                           StrategyKind.MIN_MAX, StrategyKind.MIN_MAX_CHAR)
                 + _FRONT_ENDS),
        Workload("random-1024-k32", "random", 1024, 32,
                 _rowmajor(*StrategyKind) + _FRONT_ENDS),
        Workload("fd-1024", "fd", 1024, 5,
                 (Cell("classic", "none"),) + _rowmajor(*StrategyKind) + _FRONT_ENDS),
    )
}


@dataclass(frozen=True)
class Operands:
    a: CsrMatrix
    b: CsrMatrix
    a_csc: CscMatrix
    b_csc: CscMatrix
    mults: int
    expected: CsrMatrix  # the oracle product
    expected_csc: CscMatrix  # the same product in column order, for colmajor
    oracle: str  # "scipy" or "dense"


def setup(workload: Workload, seed: int):
    """Build the operands of one workload and the oracle product.

    Returns the operands and the wall time of each phase; ``setup_s`` is the
    sum of the phases.
    """
    clock = time.perf_counter
    t0 = clock()
    spec = GenSpec(family=workload.family, n=workload.n, k=workload.k, seed=seed)
    a = generate(spec)
    if workload.family == "fd":
        b = a
    else:
        b = generate(GenSpec(family=workload.family, n=workload.n, k=workload.k,
                             seed=(seed + 1) & _SEED_MASK))
    t1 = clock()
    a_csc = csr_to_csc(a)
    b_csc = csr_to_csc(b)
    t2 = clock()
    mults = count_mults(a, b).multiplications
    t3 = clock()
    expected, expected_csc, oracle = oracle_product(a, b)
    t4 = clock()
    phases = {
        "genmat.generate_s": t1 - t0,
        "formats.csr_to_csc_s": t2 - t1,
        "perfmodel.count_mults_s": t3 - t2,
        "oracle.scipy_s": t4 - t3,
    }
    return Operands(a, b, a_csc, b_csc, mults, expected, expected_csc, oracle), phases


def oracle_product(a: CsrMatrix, b: CsrMatrix):
    """The product a @ b in both storage orders, from code independent of the
    kernels, and the name of the oracle used."""
    if scipy_sparse is not None:
        prod = _to_scipy(a) @ _to_scipy(b)
        prod.sort_indices()
        by_col = prod.tocsc()
        by_col.sort_indices()
        return (CsrMatrix.from_arrays(a.rows, b.cols, prod.indptr, prod.indices, prod.data),
                CscMatrix.from_arrays(a.rows, b.cols, by_col.indptr, by_col.indices,
                                      by_col.data),
                "scipy")
    if max(a.rows, a.cols, b.cols) > DENSE_ORACLE_LIMIT:
        raise OracleUnavailable(
            f"scipy is missing and {a.rows}x{a.cols} @ {b.rows}x{b.cols} is above "
            f"the dense oracle limit of {DENSE_ORACLE_LIMIT}")
    dense, _ = dense_multiply_reference(a.to_dense(), b.to_dense())
    return CsrMatrix.from_dense(dense), CscMatrix.from_dense(dense), "dense"


def _to_scipy(m: CsrMatrix):
    return scipy_sparse.csr_matrix((m.values, m.col_idx, m.row_ptr), shape=(m.rows, m.cols))


class ScipyReference:
    """One sample of the rate reference: scipy's product of the operands,
    repeated ``repeats`` times so that a sample lasts about
    ``REFERENCE_SAMPLE_S``."""

    def __init__(self, ops: Operands):
        self.a = _to_scipy(ops.a)
        self.b = _to_scipy(ops.b)
        self.repeats = 1
        single = min(_seconds(self) for _ in range(3))
        self.repeats = max(1, round(REFERENCE_SAMPLE_S / max(single, 1e-9)))

    def __call__(self) -> None:
        for _ in range(self.repeats):
            (self.a @ self.b).sort_indices()


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def scipy_reference(ops: Operands):
    """The rate reference for these operands, or None without scipy."""
    return None if scipy_sparse is None else ScipyReference(ops)


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _arrays(m):
    if isinstance(m, CscMatrix):
        return m.col_ptr, m.row_idx, m.values
    return m.row_ptr, m.col_idx, m.values


def same_matrix(x, y) -> bool:
    """Same type, shape, and pointer, index and value arrays bit for bit."""
    return (type(x) is type(y) and (x.rows, x.cols) == (y.rows, y.cols)
            and all(_same_bits(p, q) for p, q in zip(_arrays(x), _arrays(y))))


def matches_oracle(result, ops: Operands) -> bool:
    """The product equals the oracle's, in the result's storage order."""
    expected = ops.expected_csc if isinstance(result, CscMatrix) else ops.expected
    return same_matrix(result, expected)


def make_call(cell: Cell, ops: Operands):
    """A function ``call(stats=None)`` that computes one product of the cell.

    Operands are prepared outside the call; ``mixed`` gets a column-major
    right operand and so converts it inside the call, by its contract.
    """
    if cell.kernel == "classic":
        return lambda stats=None: multiply_classic(ops.a, ops.b_csc, stats)
    strategy = StrategyKind(cell.strategy)
    if cell.kernel == "rowmajor":
        return lambda stats=None: multiply_rowmajor(ops.a, ops.b, strategy, stats)
    if cell.kernel == "colmajor":
        return lambda stats=None: multiply_colmajor(ops.a_csc, ops.b_csc, strategy, stats)
    if cell.kernel == "mixed":
        return lambda stats=None: multiply_mixed(ops.a, ops.b_csc, strategy, stats)
    raise ValueError(f"unknown kernel {cell.kernel!r}")


def scipy_version():
    return None if scipy is None else scipy.__version__
