"""Sparse matrix-matrix multiplication kernels.

Two algorithm families are implemented:

* the classic kernel, which forms every result element as the dot product
  of a sparse row of the left operand with a sparse column of the right
  operand, so its work grows with rows(A) x nnz(B), and
* the row-major kernel (Gustavson's), which scatters each nonzero of a
  left-operand row into a dense accumulator spanning one result row, then
  compresses that row into the output. The column-major kernel is the
  row-major one applied to the transposed operands, since
  (A B)^T = B^T A^T.

Compression of the dense accumulator is pluggable: ``StrategyKind`` selects
how the nonzero positions are found (full scan, bit or byte lookup vector,
tracked min/max range, or sorting a list of touched indices). All strategies
append the same entries in the same order, so their outputs are identical
down to the bit. ``CsrBuilder`` stores every NaN as the canonical quiet NaN,
so a NaN's sign and payload, which follow the operand order of an addition,
do not tell the kernels and references apart.

Both kernels run on blocks of consecutive rows with whole-array numpy
operations and add each block's products into a dense block with
``np.add.at``, which adds in array order: the k order of the scalar loops,
so every result bit is theirs. ``multiply_rowmajor`` takes a block's
products from one of three sources: a right operand whose rows all hold the
same count w is a (rows, w) table, ELLPACK's layout, and each entry takes
its row whole; any other is expanded slice by slice with repeat/offset
arithmetic; and a block of diagonal windows (below) that ``combined``
scans needs no keys, so it sums diagonal pairs: with each operand stored by
diagonal, when both are finite and that takes no more slots than their
entries and the multiplications, a[r, r + d] b[r + d, r + d + e] for the block's rows r
in one multiply-add per pair (d, e) of a diagonal of ``a`` and one of
``b``, DIA's own product. Ascending d is ascending k, so each slot adds in
k order. An entry an operand does not store reads 0.0; its products are
±0.0, which leave a nonzero sum's bits as they are and a zero sum zero, and
zeros are dropped. An operand that holds an inf or NaN, whose 0 x inf would
be a NaN, takes the keys of the diagonal windows, as ``sort`` does.
Each row takes only the slots its strategy scans, the whole row
for the brute-force strategies and the touched range for the others, and
the strategy's own mechanism finds the nonzeros. ``sort`` and ``combined``,
which find their slots from the keys, take fewer when the product is
banded: one slot per diagonal of the product, every sum of a diagonal of
``a`` and one of ``b``, in DIA's layout (Saad, *Iterative Methods for Sparse
Linear Systems*, 2nd ed., 2003, section 3.4), when that is fewer slots than
a lower bound of the touched ranges, read at each row's first and last
entry before any range is built; a 5-point stencil squared takes 13 a row,
not 4g + 1 for grid side g. ``multiply_classic`` tests
up to 64 rows of a block against each entry of the right operand in one
64-bit word, reads the met values a[r, k] from a (k, r) table, adds the
products in entry order and finds the stored slots by scanning the block.
``bfbool`` packs a block's byte marks into a bit field, and one reader,
``_set_bits``, lists its set bits and classic's. ``combined`` scans a
block's windows when they hold fewer slots than twice its products, which
bound its distinct slots, and otherwise sorts its keys; it keeps no lookup
vector. ``multiply_rowmajor`` plans a product once from the operands'
patterns (SMMP's symbolic phase: Bank and Douglas, 1993), then executes
the plan on their values; ``combined``'s per-row rule, which a
``KernelStats`` records, depends on the pattern alone, so a recording call
executes the plan once more, untraced, on values 1.0: no sum there
cancels, so each row holds exactly its distinct touched slots, between the
ends of its touched range. One block driver runs both block kernels: each
block writes its entries into the result's reserved storage,
``CsrBuilder._room``, and returns its ``BlockRecord``, which the driver
keeps in the stats' ``blocks``, so no block sees them. A product reserves
its multiplication count or the slots of its windows, whichever is fewer,
and classic its count or rows x columns: a result keeps no more.
``RowAccumulator``, ``store_row`` and ``combined_select`` are the row-major
algorithm one row at a time, in plain Python: the public per-row API.
``rowmajor_reference`` drives it over a whole product; the tests and
``sparsemm-bench run --verify`` check the block kernels against it. Its
strategies share one scatter loop and one compress loop, and differ only
in the state they mark and the slots they visit.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .formats import (
    CscMatrix,
    CsrBuilder,
    CsrMatrix,
    _dense_2d,
    _intp,
    _require_sizes,
    _require_types,
    count_products,
    csc_to_csr,
    csr_to_csc,
    transposed,
)


class StrategyKind(str, Enum):
    """How a fully accumulated dense row is compressed into the result."""

    BRUTE_FORCE_DOUBLE = "bfdouble"
    BRUTE_FORCE_BOOL = "bfbool"
    BRUTE_FORCE_CHAR = "bfchar"
    MIN_MAX = "minmax"
    MIN_MAX_CHAR = "minmaxchar"
    SORT = "sort"
    COMBINED = "combined"


_BIT = (1, 2, 4, 8, 16, 32, 64, 128)

# The row-block limits size a block's arrays to a per-core 2 MiB L2 cache:
# the dense block takes at most 8 B x BLOCK_SLOTS (2 MiB), and each
# product-length temporary (keys, gather positions, products, and the ranks
# of diagonal windows) 8 B x BLOCK_PRODUCTS (256 KiB). Half a dozen of them
# live at once, so together they fit beside the block's windows. Larger
# limits cost page faults as well as cache misses: with 8 MiB temporaries
# (2^20), a call that ran as one block paid thousands of minor page faults
# to map them afresh. A stencil's 13-slot diagonal windows end its blocks
# at BLOCK_PRODUCTS, not BLOCK_SLOTS, and there 1 MiB temporaries (2^17)
# ran fd-16384's combined slower than 256 KiB ones.
BLOCK_SLOTS = 1 << 18  # most dense slots in one row block, unless one row needs more
BLOCK_PRODUCTS = 1 << 15  # most expanded products in one row block
_WORD_BITS = np.ones(64, dtype="<u8") << np.arange(64, dtype="<u8")  # bit j of a 64-bit word

_NEEDS_BITS = frozenset({StrategyKind.BRUTE_FORCE_BOOL})
_NEEDS_BYTES = frozenset({StrategyKind.BRUTE_FORCE_CHAR, StrategyKind.MIN_MAX_CHAR})
_NEEDS_TOUCHED = frozenset({StrategyKind.SORT, StrategyKind.COMBINED})
_NEEDS_RANGE = frozenset({StrategyKind.MIN_MAX, StrategyKind.MIN_MAX_CHAR, StrategyKind.COMBINED})
_SCANS_WHOLE_ROW = frozenset({StrategyKind.BRUTE_FORCE_DOUBLE, StrategyKind.BRUTE_FORCE_BOOL,
                              StrategyKind.BRUTE_FORCE_CHAR})


BlockRecord = namedtuple("BlockRecord", "rows layout source mechanism products slots")


@dataclass
class KernelStats:
    """Optional instrumentation: pass to a kernel to record what it did.
    ``row_choices`` holds ``combined``'s per-row choices, which the block
    kernel reads from its plan executed on values 1.0. ``blocks`` holds one
    ``BlockRecord`` per block of a block kernel's call, in major order: its
    ``rows``, (first, end) majors; its windows' ``layout``, ``columns`` or
    ``diagonals``; the ``source`` of its products, ``b``'s row ``table``,
    ``slices`` of ``b`` expanded, diagonal ``pairs`` or classic's bit
    ``words``; the ``mechanism`` that found its slots, ``scan``, ``bytes``,
    ``bits`` or ``sort``; its ``products``; and its windows' ``slots``. The
    per-row references record no blocks, and ``==`` ignores them. Recording
    never changes how a block is computed or what it stores."""

    multiplications: int = 0
    conversions: int = 0
    row_choices: list = field(default_factory=list)  # (major index, StrategyKind)
    blocks: list = field(default_factory=list, compare=False)  # BlockRecord


class RowAccumulator:
    """Dense scratch vector plus the auxiliary state one strategy needs.

    Within a row, ``touched`` (if kept) lists every index a slice touched,
    repeats included, and the min/max trackers (if kept) bound the touched
    range, widened once per slice. Between rows every slot of ``dense`` is
    exactly zero, the lookup vector (if any) is all-clear, the touched list
    is empty and the min/max trackers sit at their empty-range sentinels
    (min at ``length``, max at -1). ``accumulate`` and ``store_row``
    maintain that invariant together.
    """

    def __init__(self, length: int, strategy: StrategyKind):
        _require_sizes("length", length=length)
        self.length = length
        self.strategy = strategy = StrategyKind(strategy)
        self.dense = [0.0] * length
        self.lookup_bits = bytearray((length + 7) >> 3) if strategy in _NEEDS_BITS else None
        self.lookup = bytearray(length) if strategy in _NEEDS_BYTES else None
        self.touched = [] if strategy in _NEEDS_TOUCHED else None
        self.tracks_range = strategy in _NEEDS_RANGE
        self.min_idx = length
        self.max_idx = -1

    def accumulate(self, maj_idx, maj_val, other_ptr, other_idx, other_val) -> int:
        """Scatter one major slice of the left operand against the right one.

        ``maj_idx``/``maj_val`` hold the entries of the current slice (a row
        of A in the row-major kernel); for each entry k the slice
        ``other_ptr[k]:other_ptr[k + 1]`` of the right operand is scaled and
        added into ``dense``, and its indices are marked in the strategy's
        state. Returns the number of multiplications done.

        Precondition: the indices inside every slice of the right operand
        are sorted (the CSR invariant), so each slice widens the tracked
        range by its head and tail alone.
        """
        dense, touched, bits, lookup = self.dense, self.touched, self.lookup_bits, self.lookup
        mults = 0
        for pos, k in enumerate(maj_idx):
            lo, hi = other_ptr[k], other_ptr[k + 1]
            if lo == hi:
                continue
            av = maj_val[pos]
            cols = other_idx[lo:hi]
            for x, bv in zip(cols, other_val[lo:hi]):
                dense[x] += av * bv
            mults += hi - lo
            if self.tracks_range:
                self.min_idx = min(self.min_idx, cols[0])
                self.max_idx = max(self.max_idx, cols[-1])
            if touched is not None:
                touched.extend(cols)
            elif bits is not None:
                for x in cols:
                    bits[x >> 3] |= _BIT[x & 7]
            elif lookup is not None:
                for x in cols:
                    lookup[x] = 1
        return mults


def _prefers_range(range_len, row_nnz):
    """The combined rule, on numbers or arrays: scan the range when it is
    shorter than twice the row's count of distinct touched slots."""
    return range_len < 2 * row_nnz


def combined_select(range_len: int, row_nnz: int) -> StrategyKind:
    """Per-row choice of the combined kernel: range scan when the touched
    region is smaller than twice the row's count of distinct touched
    slots, otherwise sort."""
    if _prefers_range(range_len, row_nnz):
        return StrategyKind.MIN_MAX
    return StrategyKind.SORT


# combined's choice of a row, indexed by _prefers_range
_CHOICES = np.array([StrategyKind.SORT, StrategyKind.MIN_MAX], dtype=object)


def store_row(acc: RowAccumulator, strategy: StrategyKind, builder,
              stats: KernelStats | None = None, major: int = 0) -> None:
    """Compress the accumulated row into the builder and reset the accumulator.

    ``combined`` first settles the row as ``minmax`` or ``sort``. Each
    strategy then names its candidate slots in increasing order, the
    byte-lookup ones keeping only the marked candidates, and one loop
    appends every candidate that holds a nonzero and zeroes it: values that
    accumulated to exactly zero are dropped, and a slot listed twice reads
    0.0 the second time. Seals the current major slice on the builder and
    leaves the accumulator all-clear for the next row. ``major`` is only
    used to tag instrumentation records.
    """
    strategy = StrategyKind(strategy)
    if strategy is not acc.strategy:
        raise ValueError(
            f"accumulator was built for {acc.strategy.value}, not {strategy.value}"
        )
    span = range(acc.min_idx, acc.max_idx + 1)  # empty unless a range is tracked
    if strategy is StrategyKind.COMBINED and span:
        strategy = combined_select(len(span), len(set(acc.touched)))
        if stats is not None:
            stats.row_choices.append((major, strategy))
    if strategy is StrategyKind.BRUTE_FORCE_BOOL:
        bits = acc.lookup_bits
        slots = [base + bit for base, byte in zip(range(0, acc.length, 8), bits) if byte
                 for bit in range(8) if byte & _BIT[bit]]
        bits[:] = bytes(len(bits))
    elif strategy in (StrategyKind.BRUTE_FORCE_DOUBLE, StrategyKind.BRUTE_FORCE_CHAR):
        slots = range(acc.length)
    elif strategy is StrategyKind.SORT:
        slots = sorted(acc.touched)
    else:  # minmax, minmaxchar, or combined on an untouched row
        slots = span
    lookup = acc.lookup
    if lookup is not None:
        slots = [x for x in slots if lookup[x]]
        for x in slots:
            lookup[x] = 0
    dense = acc.dense
    append = builder.append
    for x in slots:
        v = dense[x]
        if v != 0.0:
            append(x, v)
            dense[x] = 0.0
    if acc.touched is not None:
        acc.touched.clear()
    acc.min_idx = acc.length
    acc.max_idx = -1
    builder.finalize_row()


def rowmajor_reference(a: CsrMatrix, b: CsrMatrix,
                       strategy: StrategyKind = StrategyKind.COMBINED,
                       stats: KernelStats | None = None) -> CsrMatrix:
    """``multiply_rowmajor`` one row at a time through ``RowAccumulator`` and
    ``store_row``, sharing only ``CsrBuilder`` and ``_prefers_range`` with
    it: the reference the block kernels must equal bit for bit, ``stats``
    too, its record counted from each row's touched list."""
    _require_types("rowmajor_reference", a, CsrMatrix, b, CsrMatrix)
    out = CsrBuilder(a.rows, b.cols, count_products(a.col_idx, np.diff(b.row_ptr)))
    acc = RowAccumulator(b.cols, strategy)
    a_ptr, a_idx, a_val = a.row_ptr.tolist(), a.col_idx.tolist(), a.values.tolist()
    b_arrays = b.row_ptr.tolist(), b.col_idx.tolist(), b.values.tolist()
    mults = 0
    for r, (lo, hi) in enumerate(zip(a_ptr, a_ptr[1:])):
        mults += acc.accumulate(a_idx[lo:hi], a_val[lo:hi], *b_arrays)
        store_row(acc, acc.strategy, out, stats, r)
    if stats is not None:
        stats.multiplications += mults
    return out.finish()


def multiply_rowmajor(a: CsrMatrix, b: CsrMatrix,
                      strategy: StrategyKind = StrategyKind.COMBINED,
                      stats: KernelStats | None = None) -> CsrMatrix:
    """Row-major product of two CSR matrices.

    Each nonzero a[r, k] scales row k of ``b`` into a dense accumulator for
    result row r, which the chosen strategy then compresses into the
    result. A ``_Plan`` of the operands' patterns gives each row a window
    of a block of rows, which ends before its windows pass ``BLOCK_SLOTS``
    slots or its products ``BLOCK_PRODUCTS`` (sized to a 2 MiB per-core L2
    cache) and holds at least one row, and reserves the result's storage
    once: the multiplication count or the windows' slots, whichever is
    fewer, since each product and each row's entries lie in its windows.
    The plan then executes on the operands' values. Every slot sums its
    products in the order of the per-row ``RowAccumulator``/``store_row``
    loop, so the result and ``stats`` equal that loop's bit for bit.
    """
    _require_types("multiply_rowmajor", a, CsrMatrix, b, CsrMatrix)
    plan = _Plan(a, b, StrategyKind(strategy))
    out = plan.execute(a.values, b.values, stats)
    if stats is not None and plan.strategy is StrategyKind.COMBINED:
        stats.row_choices.extend(_row_choices(plan))
    return out


def _row_choices(plan: _Plan) -> list:
    """``combined``'s per-row rule, as (row, StrategyKind) pairs for each
    touched row, read from ``plan`` executed on the values 1.0: no sum there
    cancels, so row r holds exactly r's distinct touched slots, and its
    first and last columns bound r's touched range."""
    ones = np.ones(plan.a.nnz)
    pattern = plan.execute(ones, ones if plan.b.nnz == plan.a.nnz else np.ones(plan.b.nnz))
    ptr, idx = _intp(pattern.row_ptr), _intp(pattern.col_idx)
    rows = np.flatnonzero(np.diff(ptr))
    first, end = ptr[rows], ptr[rows + 1]
    by_range = _prefers_range(idx[end - 1] - idx[first] + 1, end - first)
    return list(zip(rows.tolist(), _CHOICES[by_range.view(np.uint8)]))


def _distinct(keys: np.ndarray, n_slots: int) -> np.ndarray:
    """The sorted distinct ``keys``, slots of a block of ``n_slots``, as
    ``intp``. A block of fewer than 2^31 slots sorts them as ``int32``,
    about twice as fast as 64-bit keys. Not ``np.unique``: on numpy 2.4
    that took about thirty times as long on 262k keys."""
    keys = keys.astype(np.int32 if n_slots < 1 << 31 else np.intp)  # a copy, sorted in place
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.compress(first, keys).astype(np.intp, copy=False)


def _set_bits(field: np.ndarray) -> np.ndarray:
    """The set bits of a little-endian bit ``field``, read as bytes, in
    increasing order: bit j of byte i as 8 i + j, so bit j of 64-bit word i
    as 64 i + j. Only the nonzero bytes are unpacked."""
    octets = field.view(np.uint8)
    byte = np.flatnonzero(octets != 0)
    bit = np.flatnonzero(np.unpackbits(octets[byte], bitorder="little").view(bool))
    return byte[bit >> 3] << 3 | bit & 7


def _nonzero(dense: np.ndarray, n_slots: int) -> np.ndarray:
    """The slots among the first ``n_slots`` of ``dense`` that hold a nonzero,
    ±0.0 being zero and NaN nonzero, scanned through a bool mask: numpy's
    ``flatnonzero`` reads that several times faster than doubles."""
    return np.flatnonzero(dense[:n_slots] != 0.0)


def _clear(state: np.ndarray, slots: np.ndarray, n_slots: int) -> None:
    """Clear the ``slots`` listed in the first ``n_slots`` of ``state``: in one write when
    that is under 64 bytes per listed slot, about what clearing one listed slot costs."""
    where = slice(n_slots) if len(slots) * 64 > n_slots * state.itemsize else slots
    state[where] = 0


def _take_rows(dense: np.ndarray, slots: np.ndarray, bounds: np.ndarray, shift,
               counts_to: np.ndarray, idx_to: np.ndarray, val_to: np.ndarray,
               columns: np.ndarray | None = None) -> int:
    """Read the sorted ``slots`` of a dense block, clear them, and write the
    nonzero ones to ``counts_to`` (entries per row) and to the front of the
    ``CsrBuilder._room`` ``idx_to``/``val_to``; returns how many. Row r owns the
    slots ``bounds[r]:bounds[r + 1]``, and its slot s holds column ``s - shift[r]``,
    or, given a ``columns`` table, column ``columns[s] - shift``."""
    # the slots are in range: "clip" skips the copy that "raise" makes of out
    values = np.take(dense, slots, out=val_to[:len(slots)], mode="clip")
    _clear(dense, slots, bounds[-1])
    nonzero = values != 0.0
    if not nonzero.all():  # a sum cancelled: only then pay for the two gathers
        slots = slots[nonzero]
        values[:len(slots)] = values[nonzero]
    counts_to[:] = np.diff(np.searchsorted(slots, bounds))
    idx = idx_to[:len(slots)]
    if columns is None:
        np.subtract(slots, np.repeat(shift, counts_to), out=idx)
    else:
        np.subtract(np.take(columns, slots, out=idx, mode="clip"), shift, out=idx)
    return len(slots)


def _diagonals(m: CsrMatrix, limit: int) -> np.ndarray | None:
    """The sorted distinct diagonals (column less row) of ``m``'s entries,
    or None once they number ``limit``. The rows that hold the first
    4 x ``limit`` entries go first: a matrix with that many diagonals shows
    most of them there, and stops before the rest are read. They are marked
    in a bool array no larger than ``m``'s column indices, or else sorted:
    a hypersparse ``m``'s may span 2^62 diagonals."""
    ptr, idx = _intp(m.row_ptr), _intp(m.col_idx)
    lens = np.diff(ptr)
    probe = min(m.rows, int(ptr.searchsorted(4 * limit)))
    marks = np.zeros(m.rows + m.cols, dtype=bool) if m.rows + m.cols <= 8 * m.nnz else None
    found = np.empty(0, dtype=np.intp)  # as diagonal d at m.rows + d
    for r0, r1 in ((0, probe), (probe, m.rows)):
        at = idx[ptr[r0]:ptr[r1]] + np.repeat(np.arange(m.rows - r0, m.rows - r1, -1),
                                               lens[r0:r1])
        if marks is None:
            found = _distinct(np.concatenate((found, at)), m.rows + m.cols)
        else:
            marks[at] = True
            found = np.flatnonzero(marks)
        if len(found) >= limit:
            return None
    return found - m.rows


def _product_diagonals(a: CsrMatrix, b: CsrMatrix, touched: int,
                       mults: int) -> np.ndarray | None:
    """The diagonals the product ``a b`` can touch, every sum of a diagonal
    of ``a`` and one of ``b``, sorted, when they are fewer per row than
    ``touched`` slots, a lower bound of its rows' touched ranges; None
    otherwise. It stops at ``b``'s diagonals, then at ``a``'s, as soon as
    either is that many, and forms the sums only when there are at most
    ``mults`` of them and they span fewer than ``touched`` diagonals: each
    operand's span lies inside, so no array that spans one, here, in
    ``rank`` or in ``_by_diagonal``, outgrows the touched slots. Returns
    ``a``'s diagonals, ``b``'s and the product's. Operands that store one
    pattern, in the same arrays or in equal ones, read its diagonals once,
    and get the same array for both."""
    limit = -(-touched // a.rows)  # from this many diagonals on, no fewer slots
    db = _diagonals(b, limit)
    if db is None or all(x is y or np.array_equal(x, y) for x, y in
                         ((a.row_ptr, b.row_ptr), (a.col_idx, b.col_idx))):
        da = db
    else:
        da = _diagonals(a, limit)
    if da is None or len(da) * len(db) > mults or da[-1] + db[-1] - da[0] - db[0] >= touched:
        return None
    low = da[0] + db[0]
    sums = np.zeros(da[-1] + db[-1] - low + 1, dtype=bool)
    sums[(da[:, None] + (db - low)).ravel()] = True
    diagonals = np.flatnonzero(sums) + low
    return (da, db, diagonals) if a.rows * len(diagonals) < touched else None


def _by_diagonal(m: CsrMatrix, diagonals: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values``, one per entry of ``m``, in DIA's layout: a (len(diagonals),
    m.rows) array whose [i, r] holds the value of row r's entry on diagonal
    ``diagonals[i]``, 0.0 where ``m`` stores none."""
    rows = np.repeat(np.arange(m.rows), np.diff(_intp(m.row_ptr)))
    offset = np.zeros(diagonals[-1] - diagonals[0] + 1, dtype=np.intp)  # of diagonal i's row
    offset[diagonals - diagonals[0]] = np.arange(0, len(diagonals) * m.rows, m.rows)
    at = _intp(m.col_idx) - rows
    at -= diagonals[0]
    at = np.take(offset, at)
    at += rows
    out = np.zeros(len(diagonals) * m.rows)
    out[at] = values
    return out.reshape(len(diagonals), m.rows)


def _block_bounds(row_products: np.ndarray, base: np.ndarray) -> list:
    """(first row, end row) of each block: as many rows as the two limits
    allow, and at least one."""
    bounds, r0, rows = [], 0, len(base) - 1
    while r0 < rows:  # the array methods: np.searchsorted's dispatch took half the loop
        r1 = min(row_products.searchsorted(row_products[r0] + BLOCK_PRODUCTS, "right"),
                 base.searchsorted(base[r0] + BLOCK_SLOTS, "right")) - 1
        r1 = max(r0 + 1, int(r1))
        bounds.append((r0, r1))
        r0 = r1
    return bounds


def _run_blocks(shape: tuple, reserve: int, bounds: list, compress,
                stats: KernelStats | None) -> CsrMatrix:
    """The block driver: a ``shape`` product that keeps at most ``reserve``
    entries. ``compress(r0, r1, counts, idx, val)`` writes each block's rows
    to their entry counts and to the front of the result's reserved storage,
    ``CsrBuilder._room``, and returns how many entries and the block's
    ``BlockRecord`` fields after ``rows``; one ``append_rows`` call commits
    them all. ``stats`` keeps each record and sums their products."""
    out = CsrBuilder(*shape, reserve)
    idx, val = out._room()
    counts, done = np.empty(shape[0], dtype=np.intp), 0  # entries per row, and in all
    with np.errstate(over="ignore", invalid="ignore"):  # IEEE results, as in the per-row loops
        for r0, r1 in bounds:
            n, record = compress(r0, r1, counts[r0:r1], idx[done:], val[done:])
            done += n
            if stats is not None:  # built only when asked: an untraced call pays for none
                stats.blocks.append(BlockRecord((r0, r1), *record))
                stats.multiplications += stats.blocks[-1].products
    out.append_rows(counts, idx[:done], val[:done])
    return out.finish()


class _Plan:
    """The row-major product of ``a``'s and ``b``'s patterns, planned once
    in blocks of result rows; ``execute`` computes it for their values.

    Each result row owns a window of the block's dense accumulator, and
    the windows lie end to end from the block's first slot: row r's window
    starts at slot ``base[r]``, less the block's first. ``combined`` scans
    a block's windows or sorts its keys by its rule on the block's totals.
    There are two layouts of a window.

    * Column windows: the whole row for the brute-force strategies, which
      scan every column; the touched range for the others. Column c of row
      r sits at slot ``base[r] + c - first[r]``, where ``first[r]`` is the
      window's first column, and the lookup vector a strategy keeps has the
      same layout.
    * Diagonal windows, DIA's layout, for ``sort`` and ``combined``, which
      find their slots from the keys: taken when the product's diagonals,
      the sums of a diagonal (column less row) of ``a`` and one of ``b``,
      number fewer per row than a lower bound of the touched ranges' slots:
      row r's span from the head of the slice of ``b`` its first entry
      scales to the tail of its last one's. The layout is settled on that
      bound before any column range is built; where it falls below the
      exact count, as when an end entry meets an empty row of ``b``, the
      product may keep column windows the exact count would not. Each row gets one
      slot per diagonal, in diagonal order, so column c of row r sits at
      slot ``base[r] + rank[c - r - diagonals[0]]``; ``columns`` maps a
      block's slot back to its column, less the block's first row. A
      5-point stencil squared takes 13 slots per row where its touched
      range spans 4g + 1, g the grid side.

    Between blocks, and so between executions, every slot and lookup entry
    is clear, or holds -0.0. A block lists its products in entry order,
    then slice order, from one of two sources: ``b_table``, ``b``'s index
    and value arrays viewed as a (rows, w) table when every row of ``b``
    holds w entries, from which each entry of ``a`` takes its row whole;
    otherwise, the entries' slice lengths and starts, gathered per block
    and expanded into one position per product. A third, ``pairs``, lists
    none: it serves the blocks of diagonal windows that ``combined`` scans,
    when both operands are finite. Index arrays are read through zero-copy
    ``intp`` views, and no array with one element per stored entry of ``a``
    outlives ``__init__``. Per-row arrays are sized by the operands;
    per-block ones by the largest block of ``bounds``: the block limits, or
    the widest window when that is larger.
    """

    def __init__(self, a: CsrMatrix, b: CsrMatrix, strategy: StrategyKind):
        self.a, self.b, self.strategy = a, b, strategy
        self.a_ptr = a_ptr = _intp(a.row_ptr)
        self.a_idx = a_idx = _intp(a.col_idx)
        self.b_ptr = b_ptr = _intp(b.row_ptr)
        self.b_idx = b_idx = _intp(b.col_idx)
        self.b_lens = b_lens = np.diff(b_ptr)
        row_len = b_lens.max(initial=0)
        self.b_table = (b_idx.reshape(b.rows, row_len)
                        if row_len and b.rows * row_len == b.nnz else None)
        before = np.zeros(a.nnz + 1, dtype=np.intp)  # products before each entry
        np.cumsum(b_lens[a_idx], out=before[1:])
        self.row_products = before[a_ptr]
        self.mults = int(before[-1])
        del before  # freed before the range arrays: fewer fresh pages per call
        found = None
        if strategy in _NEEDS_TOUCHED and self.mults:
            # the touched slots' lower bound (see the class docstring); an
            # empty slice, of head b.cols or tail -1, spans nothing
            full = np.flatnonzero(np.diff(a_ptr))  # rows of a that store an entry
            k0, k1 = a_idx[a_ptr[full]], a_idx[a_ptr[full + 1] - 1]
            head = np.where(b_lens[k0] > 0, b_idx.take(b_ptr[k0], mode="clip"), b.cols)
            tail = np.where(b_lens[k1] > 0, b_idx.take(b_ptr[k1 + 1] - 1, mode="clip"), -1)
            found = _product_diagonals(a, b, int(np.maximum(tail - head + 1, 0).sum()),
                                       self.mults)
        self.rank = self.columns = self.pair_slot = None
        if found is None:
            if strategy in _SCANS_WHOLE_ROW:
                first = np.zeros(a.rows, dtype=np.intp)
                width = np.full(a.rows, b.cols, dtype=np.intp)
            else:
                # A row's touched range runs from the smallest head to the
                # largest tail of its sorted slices of b. An empty slice has
                # head b.cols and tail -1, so it widens nothing.
                stored = b_lens > 0
                head = np.full(b.rows, b.cols, dtype=np.intp)
                head[stored] = b_idx[b_ptr[:-1][stored]]
                tail = np.full(b.rows, -1, dtype=np.intp)
                tail[stored] = b_idx[b_ptr[1:][stored] - 1]
                rows = np.repeat(np.arange(a.rows), np.diff(a_ptr))
                first = np.full(a.rows, b.cols, dtype=np.intp)
                np.minimum.at(first, rows, head[a_idx])
                last = np.full(a.rows, -1, dtype=np.intp)
                np.maximum.at(last, rows, tail[a_idx])
                width = np.maximum(last - first + 1, 0)
            self.base = np.zeros(a.rows + 1, dtype=np.intp)  # slots before each window
            np.cumsum(width, out=self.base[1:])
            self.shift = self.base[:-1] - first  # slot minus column, in row r
        else:
            da, db, diagonals = found
            per_row = len(diagonals)
            self.base = np.arange(0, (a.rows + 1) * per_row, per_row)
            self.shift = -diagonals[0] - np.arange(a.rows)  # rank index minus column
            self.rank = np.zeros(diagonals[-1] - diagonals[0] + 1, dtype=np.intp)
            self.rank[diagonals - diagonals[0]] = np.arange(per_row)
        self.layout = "columns" if found is None else "diagonals"
        self.bounds = _block_bounds(self.row_products, self.base)
        self.reserve = min(self.mults, int(self.base[-1]))  # each row's entries lie in its window
        slots = max((int(self.base[r1] - self.base[r0]) for r0, r1 in self.bounds), default=0)
        self.dense = np.zeros(slots, dtype=np.float64)
        marks = strategy in _NEEDS_BYTES | _NEEDS_BITS
        self.lookup = np.zeros(slots, dtype=bool) if marks else None
        if found is not None:  # column of a block's slot, less the block's first row
            self.columns = np.add.outer(np.arange(slots // per_row), diagonals).ravel()
        # combined's scanned blocks sum diagonal pairs, with each finite operand
        # laid out by diagonal when that takes no more slots than the
        # operands hold entries and the product multiplications
        if (found is not None and strategy is StrategyKind.COMBINED
                and len(da) * a.rows + len(db) * b.rows <= a.nnz + b.nnz + self.mults):
            self.da, self.db = da, db
            slot = self.rank[np.add.outer(da, db) - diagonals[0]].tolist()  # of d + e
            self.pair_slot = list(zip(da.tolist(), slot))
            self.sums = np.empty(slots)  # diagonal-major: slot p of row r at p * rows + r

    def execute(self, a_val: np.ndarray, b_val: np.ndarray,
                stats: KernelStats | None = None) -> CsrMatrix:
        """The product of ``a``'s pattern holding ``a_val`` and ``b``'s holding
        ``b_val``, through the block driver. The values step first views
        ``b_val`` as the row table and, given pair slots, lays out operands
        that are both finite by diagonal (one pattern of equal values once)."""
        self.a_val, self.b_val = a_val, b_val
        if self.b_table is not None:
            self.b_table_val = b_val.reshape(self.b_table.shape)
        self.pairs = None
        if self.pair_slot is not None:
            shared = self.da is self.db and (a_val is b_val or np.array_equal(a_val, b_val))
            if np.isfinite(a_val).all() and (shared or np.isfinite(b_val).all()):
                a_diag = _by_diagonal(self.a, self.da, a_val)
                self.pairs = a_diag, a_diag if shared else _by_diagonal(self.b, self.db, b_val)
        return _run_blocks((self.a.rows, self.b.cols), self.reserve, self.bounds, self.compress,
                           stats)

    def compress(self, r0: int, r1: int, *room) -> tuple:
        """Rows ``r0:r1`` of the product, which ``_take_rows`` writes to
        ``room`` (counts, indices, values); returns how many entries and the
        block's record, as ``_run_blocks`` takes them."""
        row_products = self.row_products[r0:r1 + 1]
        s0 = self.base[r0]
        bounds = self.base[r0:r1 + 1] - s0
        n_products = int(row_products[-1] - row_products[0])
        sizes = n_products, int(bounds[-1])  # the record's products and slots
        if self.pairs is not None and _prefers_range(bounds[-1], n_products):  # scanned: no keys
            return self._from_pairs(r0, r1, bounds, room), (self.layout, "pairs", "scan", *sizes)
        shift = self.shift[r0:r1] if self.rank is not None else self.shift[r0:r1] - s0
        e0, e1 = self.a_ptr[r0], self.a_ptr[r1]
        ks = self.a_idx[e0:e1]
        if self.b_table is not None:  # each entry of a takes its row of b whole
            keys, products = (np.take(t, ks, axis=0) for t in (self.b_table, self.b_table_val))
            keys += np.repeat(shift, np.diff(self.a_ptr[r0:r1 + 1]))[:, None]
            products *= self.a_val[e0:e1, None]
            keys, products = keys.ravel(), products.ravel()
        else:
            lens = self.b_lens[ks]  # the slice of b each entry of a scales
            start = self.b_ptr[1:][ks]  # slice ends, less the block's products up to them:
            start -= np.cumsum(lens)  # product p of the block reads b at start + p
            pos = np.repeat(start, lens)
            pos += np.arange(n_products)
            keys = self.b_idx[pos]
            keys += np.repeat(shift, np.diff(row_products))
            products = self.b_val[pos]
            products *= np.repeat(self.a_val[e0:e1], lens)
        if self.rank is not None:  # diagonal windows: the key's diagonal's slot in its row
            keys = np.take(self.rank, keys)
            keys += np.repeat(bounds[:-1], np.diff(row_products))
        # ufunc.at adds in array order, that is in entry (k) order and then
        # in slice order: the order of the per-row loop.
        np.add.at(self.dense, keys, products)
        slots, mechanism = self._find(keys, bounds[-1])
        count = _take_rows(self.dense, slots, bounds, shift if self.rank is None else -r0,
                           *room, columns=self.columns)
        source = "slices" if self.b_table is None else "table"
        return count, (self.layout, source, mechanism, *sizes)

    def _from_pairs(self, r0: int, r1: int, bounds, room) -> int:
        """``compress`` for a scanned block of diagonal windows: a[r, r + d]
        b[r + d, r + d + e] added at row r's slot for d + e, one multiply-add
        per pair (d, e), ascending d first, from the operands by diagonal."""
        sums = self.sums[:bounds[-1]].reshape(-1, r1 - r0)
        sums.fill(0.0)
        a_diag, b_diag = self.pairs
        for i, (d, slots) in enumerate(self.pair_slot):
            lo, hi = max(r0, -d), min(r1, b_diag.shape[1] - d)
            if lo >= hi:
                continue
            a_part, part = a_diag[i, lo:hi], sums[:, lo - r0:hi - r0]
            for s, b_part in zip(slots, b_diag[:, lo + d:hi + d]):
                part[s] += a_part * b_part
        self.dense[:bounds[-1]].reshape(r1 - r0, -1)[:] = sums.T
        slots = _nonzero(self.dense, bounds[-1])
        return _take_rows(self.dense, slots, bounds, -r0, *room, columns=self.columns)

    def _marked(self, keys, n_slots: int, packed: bool = False) -> np.ndarray:
        """The distinct ``keys``, found through the lookup vector: a bool
        array, one byte per slot, which is left clear. ``packed`` reads the
        marks as a bit field, packed eight to a byte."""
        lookup = self.lookup
        lookup[keys] = True
        marks = lookup[:n_slots]
        slots = (_set_bits(np.packbits(marks, bitorder="little")) if packed
                 else np.flatnonzero(marks))
        _clear(lookup, slots, n_slots)
        return slots

    def _find(self, keys, n_slots: int) -> tuple:
        """The sorted distinct slots among the first ``n_slots`` that may hold
        a nonzero, and the mechanism that found them, the strategy's own over
        the block's windows; clears the lookup vector it used. ``combined``
        applies its rule to the block's totals, whose products bound its
        distinct slots: minmax's scan of the windows, or sort's sort."""
        strategy = self.strategy
        if strategy is StrategyKind.COMBINED:
            strategy = (StrategyKind.MIN_MAX if _prefers_range(n_slots, len(keys))
                        else StrategyKind.SORT)
        if strategy in (StrategyKind.BRUTE_FORCE_DOUBLE, StrategyKind.MIN_MAX):
            return _nonzero(self.dense, n_slots), "scan"
        if strategy in (StrategyKind.BRUTE_FORCE_CHAR, StrategyKind.MIN_MAX_CHAR):
            return self._marked(keys, n_slots), "bytes"
        if strategy is StrategyKind.BRUTE_FORCE_BOOL:
            return self._marked(keys, n_slots, packed=True), "bits"
        return _distinct(keys, n_slots), "sort"


def multiply_colmajor(a: CscMatrix, b: CscMatrix,
                      strategy: StrategyKind = StrategyKind.COMBINED,
                      stats: KernelStats | None = None) -> CscMatrix:
    """Column-major product of two CSC matrices.

    Walks the columns of ``b``; each nonzero b[k, c] scales column k of
    ``a`` into the accumulator, producing result column c. That is exactly
    ``multiply_rowmajor`` on the transposes, (a b)^T = b^T a^T, with the same
    arithmetic in the same order; ``stats`` records result columns as majors.
    """
    _require_types("multiply_colmajor", a, CscMatrix, b, CscMatrix)
    return transposed(multiply_rowmajor(transposed(b), transposed(a), strategy, stats))


def multiply_classic(a: CsrMatrix, b: CscMatrix,
                     stats: KernelStats | None = None) -> CsrMatrix:
    """Classic product: the dot product of row r of ``a`` with column c of
    ``b`` for every result position (r, c). An entry is stored only when
    the two share at least one index k and the sum is nonzero.

    The kernel stays an inner product: its work grows with
    rows(a) x nnz(b), O(n^2) for square operands. Rows go through in blocks
    of at most 64, fewer if ``BLOCK_SLOTS`` slots hold fewer rows of
    ``a.cols`` or ``b.cols``. Bit r of little-endian word k is set when row r
    of the block stores a[r, k], so gathering the words at the row index k
    of ``b``'s entries meets every row with every entry at once: all of
    ``b`` in one pass when the block's products fit ``BLOCK_PRODUCTS``, else
    in chunks that meet at most that many; a (k, r) table holds the value of
    each a[r, k] the block stores. The met products go into the dense
    block in entry order, k order per slot, as the merge of the two sorted
    index lists adds them: the result is that merge's bit for bit. A scan
    of the dense block finds the stored slots. The result reserves the
    multiplication count or ``a.rows`` x ``b.cols`` slots, whichever is
    fewer.
    """
    _require_types("multiply_classic", a, CsrMatrix, b, CscMatrix)
    a_ptr = _intp(a.row_ptr)
    a_idx = _intp(a.col_idx)
    entry_row = np.repeat(np.arange(a.rows), np.diff(a_ptr))
    b_k = _intp(b.row_idx)
    b_col = np.repeat(np.arange(b.cols), np.diff(_intp(b.col_ptr)))
    block_rows = max(1, min(64, BLOCK_SLOTS // max(a.cols, b.cols, 1)))
    words = np.zeros(a.cols, dtype="<u8")
    table = np.empty(a.cols * block_rows, dtype=np.float64)  # a[r, k] at k * block_rows + r
    dense = np.zeros(block_rows * b.cols, dtype=np.float64)
    # every stored a[r, k] meets every stored b[k, c]: the multiplication count
    b_row_nnz = np.bincount(b_k, minlength=b.rows)
    mults = count_products(a.col_idx, b_row_nnz)

    def compress(r0, r1, *room):
        e0, e1 = a_ptr[r0], a_ptr[r1]
        rows, ks = entry_row[e0:e1] - r0, a_idx[e0:e1]
        np.bitwise_or.at(words, ks, _WORD_BITS[rows])
        table[ks * block_rows + rows] = a.values[e0:e1]
        # The block's met pairs are its products: one pass over b when
        # they fit BLOCK_PRODUCTS; else chunks of b's entries, each of
        # which meets at most the rows that store its row index k.
        pairs = int(b_row_nnz[ks].sum())
        chunk = max(1, b.nnz if pairs <= BLOCK_PRODUCTS
                    else BLOCK_PRODUCTS // int(np.bincount(ks).max()))
        for c0 in range(0, b.nnz, chunk):
            # the set bits are the met (entry of b, row) pairs, in order
            met = _set_bits(words[b_k[c0:c0 + chunk]])
            b_entry, row = c0 + (met >> 6), met & 63
            products = table[b_k[b_entry] * block_rows + row] * b.values[b_entry]
            np.add.at(dense, row * b.cols + b_col[b_entry], products)  # in array order
        words[ks] = 0
        bounds = np.arange(r1 - r0 + 1) * b.cols
        n = _take_rows(dense, _nonzero(dense, bounds[-1]), bounds, bounds[:-1], *room)
        return n, ("columns", "words", "scan", pairs, int(bounds[-1]))

    bounds = [(r0, min(r0 + block_rows, a.rows)) for r0 in range(0, a.rows, block_rows)]
    return _run_blocks((a.rows, b.cols), min(mults, a.rows * b.cols), bounds, compress, stats)


def multiply_mixed(a, b, strategy: StrategyKind = StrategyKind.COMBINED,
                   stats: KernelStats | None = None):
    """Product of operands in any storage-order combination.

    A right operand that is not in the left operand's storage order is
    converted into it (one conversion, counted in ``stats``); then the
    kernel of the left operand's order runs, so the result is always in the
    left operand's storage order.
    """
    either = (CsrMatrix, CscMatrix)
    _require_types("multiply_mixed", a, either, b, either)
    rowmajor = isinstance(a, CsrMatrix)
    if isinstance(b, CsrMatrix) is not rowmajor:
        if stats is not None:
            stats.conversions += 1
        b = csc_to_csr(b) if rowmajor else csr_to_csc(b)
    kernel = multiply_rowmajor if rowmajor else multiply_colmajor
    return kernel(a, b, strategy, stats)


def dense_multiply_reference(a, b) -> tuple[np.ndarray, int]:
    """Dense reference product for tests, independent of the sparse kernels.

    Accumulates over the shared dimension in ascending order, the same
    per-element order the sparse kernels use. Also returns the number of
    multiplications restricted to pairs of structurally nonzero operands.
    Intended for desk-scale operands (n <= 512). Complex operands are a
    ``TypeError``, as in ``CsrMatrix.from_dense``.
    """
    a, b = _dense_2d(a), _dense_2d(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
    for k in range(a.shape[1]):
        out += np.outer(a[:, k], b[k, :])
    mults = int(np.count_nonzero(a, axis=0) @ np.count_nonzero(b, axis=1))
    return out, mults
