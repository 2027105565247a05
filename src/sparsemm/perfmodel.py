"""Flop accounting and the bandwidth-based upper bound on kernel performance.

The multiplication count of a sparse product C = A * B is

    sum over k of (nonzeros in column k of A) * (nonzeros in row k of B)

and the flop count is taken as twice that (worst case: one add per multiply).
The attainable rate of a data-streaming loop is bounded by the smaller of the
machine's peak rate and bandwidth divided by the loop's code balance; this is
a light-speed estimate, not a prediction. ``roofline`` and
``inner_loop_balance`` (16 B/flop) model the scalar per-row loop
(``kernels.RowAccumulator`` and ``kernels.store_row``), not the block
kernels, whose row blocks are sized to stay in cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formats import CsrMatrix, _require_types, estimate_nnz


@dataclass(frozen=True)
class FlopCount:
    multiplications: int

    @property
    def flops(self) -> int:
        """Worst-case flop count: one addition per multiplication."""
        return 2 * self.multiplications


@dataclass(frozen=True)
class RooflineParams:
    """Machine peak rate (flops/s), bandwidth (bytes/s) and code balance
    (bytes/flop) of the loop under consideration."""

    peak_flops: float
    bandwidth: float
    code_balance: float

    def __post_init__(self):
        # "not > 0" rejects NaN as well; infinite values are allowed
        if not (self.peak_flops > 0 and self.bandwidth > 0 and self.code_balance > 0):
            raise ValueError("all roofline parameters must be strictly positive")


@dataclass(frozen=True)
class InnerLoopTraffic:
    """Per-iteration load/store tally of the scatter update
    ``dense[idx] += left_value * right_value``."""

    loads: int
    stores: int
    bytes_per_value: int
    flops: int

    @property
    def bytes_per_iteration(self) -> int:
        return (self.loads + self.stores) * self.bytes_per_value

    @property
    def bytes_per_flop(self) -> float:
        return self.bytes_per_iteration / self.flops


def count_mults(a: CsrMatrix, b: CsrMatrix) -> FlopCount:
    """Multiplication count: for every stored entry of ``a`` with column k,
    row k of ``b`` contributes its nonzero count. This is the same sum as
    the result-size estimate used for builder reservations, so it is
    computed by ``estimate_nnz``. O(nnz(a)), vectorised.
    """
    _require_types("count_mults", a, CsrMatrix, b, CsrMatrix)
    return FlopCount(estimate_nnz(a, b))


def count_mults_via_columns(a: CsrMatrix, b: CsrMatrix) -> FlopCount:
    """Same count computed the other way round: histogram the columns of
    ``a`` and pair each bucket with the matching row of ``b``. Serves as an
    independent cross-check of count_mults."""
    _require_types("count_mults_via_columns", a, CsrMatrix, b, CsrMatrix)
    per_col = [0] * a.cols
    for k in a.col_idx.tolist():
        per_col[k] += 1
    b_ptr = b.row_ptr.tolist()
    total = 0
    for k in range(a.cols):
        total += per_col[k] * (b_ptr[k + 1] - b_ptr[k])
    return FlopCount(total)


def roofline(params: RooflineParams) -> float:
    """Upper bound on the loop's rate in flops/s: the tighter of the compute
    limb and the memory limb. A loop can never beat either limit, so the
    bound is the minimum of the two."""
    return min(params.peak_flops, params.bandwidth / params.code_balance)


def inner_loop_balance() -> InnerLoopTraffic:
    """Traffic of the scatter kernel's inner loop.

    Each iteration loads the right-operand index and value and the current
    accumulator slot, multiplies, adds, and stores the slot back: 3 loads
    plus 1 store of 8 bytes each against 2 flops, i.e. 16 bytes/flop.
    """
    return InnerLoopTraffic(loads=3, stores=1, bytes_per_value=8, flops=2)
