"""Compressed sparse row/column storage and the streaming builder used to fill it.

Matrices are plain structs over three numpy arrays (pointer, index, value).
They are immutable once constructed; anything that needs to create one goes
through ``CsrBuilder``, which reserves all memory up front and takes whole
rows in bulk or single entries. A CSC matrix is the CSR matrix of its
transpose over the same three arrays, so every column-major operation is its
row-major twin applied to the O(1) view ``transposed``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields

import numpy as np

INDEX_DTYPE = np.uint64
VALUE_DTYPE = np.float64


class ValidationError(ValueError):
    """A stored matrix violates a format invariant."""


class BuilderError(RuntimeError):
    """A streaming builder was driven outside its contract."""


class CapacityError(BuilderError):
    """More entries appended than were reserved (broken nnz estimate)."""


class OrderingError(BuilderError):
    """Entries appended out of strictly increasing index order."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _require_type(func: str, name: str, m, want) -> None:
    """TypeError unless operand ``name`` of ``func`` is in the storage order
    ``func`` reads (``want``: a type or a tuple of types)."""
    if not isinstance(m, want):
        wanted = (want.__name__ if isinstance(want, type)
                  else " or ".join(t.__name__ for t in want))
        raise TypeError(f"{func} needs {name} as a {wanted}, not a {type(m).__name__}")


def _require_types(func: str, a, a_type, b, b_type) -> None:
    """``_require_type`` for both operands of a product, then ValueError
    unless ``a @ b`` is defined: the columns of ``a`` must match the rows
    of ``b``."""
    _require_type(func, "a", a, a_type)
    _require_type(func, "b", b, b_type)
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.cols} (cols of a) != {b.rows} (rows of b)")


def validate_csr(m: CsrMatrix) -> None:
    """Check of every CsrMatrix invariant; ``from_arrays`` makes it, the
    kernels do not."""
    _require_type("validate_csr", "m", m, CsrMatrix)
    _validate_compressed(m.rows, m.cols, m.row_ptr, m.col_idx, m.values, "row")


def validate_csc(m: CscMatrix) -> None:
    """Check of every CscMatrix invariant; ``from_arrays`` makes it, the
    kernels do not."""
    _require_type("validate_csc", "m", m, CscMatrix)
    _validate_compressed(m.cols, m.rows, m.col_ptr, m.row_idx, m.values, "column")


@dataclass(eq=False)
class _Compressed:
    """What CsrMatrix and CscMatrix share: two dimensions, then pointer,
    index and value arrays, named by each in its own order and frozen."""

    rows: int
    cols: int

    def __post_init__(self):
        for f in fields(self)[2:]:
            _frozen(getattr(self, f.name))

    @property
    def nnz(self) -> int:
        return len(self.values)

    @classmethod
    def from_arrays(cls, rows, cols, ptr, idx, values):
        """A copy of the three arrays; raises ``ValidationError`` unless
        they hold a valid matrix in this storage order."""
        ptr, idx = np.asarray(ptr), np.asarray(idx)
        for name, arr in (("pointer", ptr), ("index", idx)):
            if arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0):
                raise ValidationError(f"{name} array must hold non-negative integers")
        m = cls(rows, cols, ptr.astype(INDEX_DTYPE), idx.astype(INDEX_DTYPE),
                _real(values, "values", copy=True))
        cls._validate(m)
        return m


@dataclass(eq=False)
class CsrMatrix(_Compressed):
    """Compressed sparse row matrix.

    ``row_ptr`` has length ``rows + 1``; the nonzeros of row ``r`` live at
    positions ``row_ptr[r]:row_ptr[r + 1]`` of ``col_idx`` / ``values``,
    with strictly increasing column indices inside each row.
    """

    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    _validate = staticmethod(validate_csr)

    @classmethod
    def from_dense(cls, dense) -> "CsrMatrix":
        dense = _dense_2d(dense)
        rows, cols = dense.shape
        r, c = np.nonzero(dense)
        builder = CsrBuilder(rows, cols, len(c))
        builder.append_rows(np.bincount(r, minlength=rows), c, dense[r, c])
        return builder.finish()

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=VALUE_DTYPE)
        if self.nnz:
            per_row = np.diff(self.row_ptr).astype(np.intp)
            r = np.repeat(np.arange(self.rows), per_row)
            out[r, self.col_idx.astype(np.intp)] = self.values
        return out


@dataclass(eq=False)
class CscMatrix(_Compressed):
    """Compressed sparse column matrix: the CsrMatrix of the transpose over
    the same three arrays (see ``transposed``)."""

    col_ptr: np.ndarray
    row_idx: np.ndarray
    values: np.ndarray

    _validate = staticmethod(validate_csc)

    @classmethod
    def from_dense(cls, dense) -> "CscMatrix":
        return transposed(CsrMatrix.from_dense(_dense_2d(dense).T))

    def to_dense(self) -> np.ndarray:
        return transposed(self).to_dense().T


def _real(values, what: str, copy: bool = False) -> np.ndarray:
    """``values`` as a float64 array, a copy if ``copy``: a complex value is
    a TypeError, not a real part kept in silence."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise TypeError(f"{what} must be real, got dtype {values.dtype}")
    return values.astype(VALUE_DTYPE, copy=copy)


def _require_sizes(what: str, **sizes) -> None:
    """ValueError unless each of ``sizes``, which ``what`` names together,
    is a non-negative integer; a bool is not one."""
    for name, size in sizes.items():
        try:
            if isinstance(size, bool):  # operator.index takes it, as 1 or 0
                raise TypeError
            if operator.index(size) < 0:
                raise ValueError(f"{what} must be non-negative")
        except TypeError:
            raise ValueError(f"{name} must be an integer, not {type(size).__name__}") from None


def _dense_2d(dense) -> np.ndarray:
    """``dense`` as a float64 array, checked to be real (``_real``) and
    two-dimensional."""
    dense = _real(dense, "a dense matrix")
    if dense.ndim != 2:
        raise ValueError(f"a dense matrix must be two-dimensional, got shape {dense.shape}")
    return dense


def transposed(m):
    """The transpose of ``m`` over the same arrays, in the other storage
    order: ``CsrMatrix(r, c, ptr, idx, val)`` becomes
    ``CscMatrix(c, r, ptr, idx, val)`` and back. O(1); copies nothing."""
    _require_type("transposed", "m", m, (CsrMatrix, CscMatrix))
    if isinstance(m, CsrMatrix):
        return CscMatrix(m.cols, m.rows, m.row_ptr, m.col_idx, m.values)
    return CsrMatrix(m.cols, m.rows, m.col_ptr, m.row_idx, m.values)


class CsrBuilder:
    """Builds a CsrMatrix row by row in memory reserved in ``__init__``.

    Bulk producers hand whole rows to ``append_rows``; the per-entry
    ``append``/``finalize_row`` path serves ``store_row`` and perfbench's
    builder stream; the block kernels fill ``_room``, then commit it once.
    Within a row, indices must rise strictly, and every row must be sealed
    exactly once. Both store every NaN as the canonical quiet NaN
    ``np.nan``: IEEE 754 leaves the sign and payload of a propagated NaN
    open, and which NaN a sum keeps follows the order of its operands.
    """

    def __init__(self, rows: int, cols: int, capacity: int):
        _require_sizes("dimensions and capacity", rows=rows, cols=cols, capacity=capacity)
        self.rows = rows
        self.cols = cols
        self.capacity = capacity
        self.cursor = 0
        self.majors_done = 0
        self._last_idx = -1
        self._ptr = np.zeros(rows + 1, dtype=INDEX_DTYPE)
        self._idx = np.empty(capacity, dtype=INDEX_DTYPE)
        self._val = np.empty(capacity, dtype=VALUE_DTYPE)

    def append(self, idx: int, value: float) -> None:
        try:
            if isinstance(idx, bool):  # operator.index takes it; append_rows does not
                raise TypeError
            idx = operator.index(idx)
        except TypeError:
            raise ValueError(f"index must be an integer, not {type(idx).__name__}") from None
        if idx >= self.cols:
            raise ValueError(f"index {idx} out of range (< {self.cols})")
        if idx <= self._last_idx:
            raise OrderingError(
                f"index {idx} not strictly greater than previous {self._last_idx}"
            )
        cursor = self.cursor
        if cursor >= self.capacity:
            raise CapacityError(
                f"reserved capacity {self.capacity} exhausted; nnz estimate was too low"
            )
        self._idx[cursor] = idx
        self._val[cursor] = np.nan if value != value else value
        self.cursor = cursor + 1
        self._last_idx = idx

    def finalize_row(self) -> None:
        if self.majors_done >= self.rows:
            raise BuilderError(f"all {self.rows} rows already finalized")
        self.majors_done += 1
        self._ptr[self.majors_done] = self.cursor
        self._last_idx = -1

    def _room(self) -> tuple[np.ndarray, np.ndarray]:
        """Writable index (as intp) and value views past the cursor: scratch until committed."""
        return self._idx.view(np.intp)[self.cursor:], self._val[self.cursor:]

    def append_rows(self, counts, idx, values) -> None:
        """Append and seal ``len(counts)`` whole rows: row i takes the next
        ``counts[i]`` entries of ``idx``/``values``.

        Makes every check that ``append`` and ``finalize_row`` make, over the
        whole batch and before writing anything, and raises the same
        exception classes; a row opened by ``append`` must be sealed first.
        """
        counts, idx, values = np.asarray(counts), np.asarray(idx), _real(values, "values")
        if counts.ndim != 1 or idx.ndim != 1 or values.ndim != 1:
            raise ValueError("row counts, indices and values must be one-dimensional")
        if counts.size and counts.dtype.kind not in "iu":
            raise ValueError(f"row counts must be integers, not {counts.dtype}")
        counts = counts.astype(np.intp, copy=False)
        ends = np.cumsum(counts)
        n = len(idx)
        if self._last_idx != -1:
            raise BuilderError("a row opened by append is not finalized")
        if len(counts) > self.rows - self.majors_done:
            raise BuilderError(
                f"{len(counts)} rows given but only {self.rows - self.majors_done} remain"
            )
        if len(values) != n or (ends[-1] if len(ends) else 0) != n or (counts < 0).any():
            raise ValueError("row counts, indices and values disagree")
        if n:
            if idx.dtype.kind not in "iu":
                raise ValueError(f"indices must be integers, not {idx.dtype}")
            # Rows that all rise hold their extremes at their ends: read only
            # those. An empty row reads another row's entry: a leading one
            # wraps to the last entry, a trailing one is clipped to it.
            # Compared in the given dtype, so a uint64 index of 2^63 or more
            # is out of range, not negative.
            pos = _first_out_of_order(idx, ends)
            if pos is None:
                top = np.take(idx, ends - 1, mode="wrap").max()
                bottom = np.take(idx, ends - counts, mode="clip").min()
            else:
                top, bottom = idx.max(), idx.min()
            if top >= self.cols:
                raise ValueError(f"index {top} out of range (< {self.cols})")
            idx = idx.astype(np.intp, copy=False)
            if bottom < 0:
                raise OrderingError(f"index {bottom} not strictly greater than -1")
            if pos is not None:
                raise OrderingError(
                    f"index {idx[pos]} not strictly greater than previous {idx[pos - 1]}"
                )
        cursor = self.cursor
        if cursor + n > self.capacity:
            raise CapacityError(
                f"reserved capacity {self.capacity} exhausted; nnz estimate was too low"
            )
        self._idx.view(np.intp)[cursor:cursor + n] = idx
        stored = self._val[cursor:cursor + n]
        stored[:] = values
        nan = np.isnan(stored)
        if nan.any():
            stored[nan] = np.nan
        done = self.majors_done
        self._ptr[done + 1:done + 1 + len(counts)] = cursor + ends
        self.cursor = cursor + n
        self.majors_done = done + len(counts)

    def finish(self) -> CsrMatrix:
        if self.majors_done != self.rows:
            raise BuilderError(f"only {self.majors_done} of {self.rows} rows finalized")
        if int(self._ptr[self.rows]) != self.cursor:
            raise BuilderError("entries appended after the last row was finalized")
        return CsrMatrix(self.rows, self.cols, self._ptr,
                         self._idx[: self.cursor], self._val[: self.cursor])


def _validate_compressed(n_major, n_minor, ptr, idx, val, major_name) -> None:
    for size in (n_major, n_minor):
        if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
            raise ValidationError(f"dimensions must be integers, not {type(size).__name__}")
    if n_major < 0 or n_minor < 0:
        raise ValidationError(f"negative dimension {min(n_major, n_minor)}")
    if ptr.ndim != 1 or idx.ndim != 1 or val.ndim != 1:
        raise ValidationError("pointer, index and value arrays must be one-dimensional")
    if ptr.dtype != INDEX_DTYPE or idx.dtype != INDEX_DTYPE:
        raise ValidationError("index arrays must be 64-bit unsigned integers")
    if val.dtype != VALUE_DTYPE:
        raise ValidationError("values must be IEEE-754 doubles")
    if len(ptr) != n_major + 1:
        raise ValidationError(f"pointer array has length {len(ptr)}, expected {n_major + 1}")
    if ptr[0] != 0:
        raise ValidationError("pointer array must start at 0")
    if len(idx) != len(val):
        raise ValidationError("index and value arrays differ in length")
    if int(ptr[-1]) != len(idx):
        raise ValidationError(
            f"pointer array ends at {int(ptr[-1])} but {len(idx)} entries are stored"
        )
    falls = ptr[1:] < ptr[:-1]
    if falls.any():
        raise ValidationError(f"pointer array decreases at {major_name} {np.argmax(falls)}")
    if len(idx) and idx.max() >= n_minor:
        pos = int(np.argmax(idx >= n_minor))
        raise ValidationError(
            f"index {idx[pos]} out of range in {major_name} {_major_of(ptr, pos)}"
        )
    pos = _first_out_of_order(idx, ptr)
    if pos is not None:
        raise ValidationError(
            f"indices not strictly increasing in {major_name} {_major_of(ptr, pos)}"
        )


def _first_out_of_order(idx: np.ndarray, starts: np.ndarray) -> int | None:
    """The first position whose index is not greater than the one before it
    although no slice starts there (``starts`` holds the positions where
    slices start); None if there is none."""
    falls = idx[1:] <= idx[:-1]  # falls[p - 1]: no rise into position p
    starts = starts[(starts > 0) & (starts < len(idx))]
    falls[starts - 1] = False
    return int(np.argmax(falls)) + 1 if falls.any() else None


def _major_of(ptr: np.ndarray, pos: int) -> int:
    """The major slice that holds entry ``pos``."""
    return int(np.searchsorted(ptr, pos, side="right")) - 1


def estimate_nnz(a: CsrMatrix, b: CsrMatrix) -> int:
    """Upper bound on nnz(a @ b): the number of scalar multiplications.

    Sums, over every stored entry of ``a`` with column k, the nonzero count
    of row k of ``b``. Each multiplication lands on a result slot at most
    once as a fresh entry, so this never underestimates the result's nnz.
    O(nnz(a)) using pointer differences of ``b``.
    """
    _require_types("estimate_nnz", a, CsrMatrix, b, CsrMatrix)
    return count_products(a.col_idx, np.diff(b.row_ptr))


def count_products(a_cols: np.ndarray, b_row_nnz: np.ndarray) -> int:
    """The number of scalar multiplications of a @ b, from the column index
    of every stored entry of ``a`` and the nonzero count of each row of
    ``b``: each entry with column k meets the nonzeros of row k of ``b``."""
    return int(b_row_nnz[_intp(a_cols)].sum())


def _intp(arr: np.ndarray) -> np.ndarray:
    """A pointer or index array as ``intp``, for indexing. An ``INDEX_DTYPE``
    array, as every builder and ``from_arrays`` store, is viewed without a
    copy: its indices are below 2^63, so the bits read the same. Any other
    integer dtype, as a matrix built directly may hold, is converted."""
    return arr.view(np.intp) if arr.dtype == INDEX_DTYPE else arr.astype(np.intp, copy=False)


def estimate_nnz_csc(a: CscMatrix, b: CscMatrix) -> int:
    """estimate_nnz for CSC operands, through (a @ b)^T = b^T @ a^T."""
    _require_types("estimate_nnz_csc", a, CscMatrix, b, CscMatrix)
    return estimate_nnz(transposed(b), transposed(a))


def csr_to_csc(a: CsrMatrix) -> CscMatrix:
    """Convert storage order by a stable sort of the entries by column.

    The entries are in row-major order, so stability keeps the rows inside
    each column increasing: this is Gustavson's permuted transpose. With at
    most 2^16 columns the keys are sorted as ``uint16``, which numpy's stable
    sort orders by radix in O(nnz); a stable sort's permutation is unique,
    so the result is the same. O(nnz + rows + cols) then, and
    O(nnz log nnz + rows + cols) for wider matrices, all in numpy.
    """
    _require_type("csr_to_csc", "a", a, CsrMatrix)
    cols = _intp(a.col_idx)
    order = np.argsort(cols.astype(np.uint16) if a.cols <= 1 << 16 else cols, kind="stable")
    col_ptr = np.zeros(a.cols + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(cols, minlength=a.cols), out=col_ptr[1:])
    rows = np.repeat(np.arange(a.rows, dtype=INDEX_DTYPE), np.diff(_intp(a.row_ptr)))
    return CscMatrix(a.rows, a.cols, col_ptr, rows[order], a.values[order])


def csc_to_csr(a: CscMatrix) -> CsrMatrix:
    """Convert storage order: csr_to_csc applied to the transpose."""
    _require_type("csc_to_csr", "a", a, CscMatrix)
    return transposed(csr_to_csc(transposed(a)))
