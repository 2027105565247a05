"""Matrix Market coordinate I/O (ASCII, 1-based, real general).

Entries are written in row-major order; the loader accepts any entry order
but rejects duplicate positions, since stored matrices never coalesce.
"""

from __future__ import annotations

import os

import numpy as np

from .formats import CsrBuilder, CsrMatrix, _require_type

HEADER = "%%MatrixMarket matrix coordinate real general"
_ENTRY = np.dtype([("row", np.intp), ("col", np.intp), ("value", np.float64)])


def save_matrix_market(m: CsrMatrix, path: str | os.PathLike) -> None:
    _require_type("save_matrix_market", "m", m, CsrMatrix)
    with open(path, "w", encoding="ascii") as fh:
        _write_matrix_market(m, fh)


def _write_matrix_market(m: CsrMatrix, fh) -> None:
    """Write ``m`` to the text file ``fh``, opened for writing."""
    rows = np.repeat(np.arange(m.rows), np.diff(m.row_ptr).astype(np.intp))
    fh.write(f"{HEADER}\n{m.rows} {m.cols} {m.nnz}\n")
    for r, c, v in zip(rows.tolist(), m.col_idx.tolist(), m.values.tolist()):
        fh.write(f"{r + 1} {c + 1} {v:.17g}\n")


def load_matrix_market(path: str | os.PathLike) -> CsrMatrix:
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        lines = _ascii_lines(fh)
        header = next(lines, (1, ""))[1]
        fields = header.strip().lower().split()
        if fields != ["%%matrixmarket", "matrix", "coordinate", "real", "general"]:
            raise ValueError(f"unsupported Matrix Market header: {header.strip()!r}")
        for lineno, size_line in lines:
            if size_line.strip() and not size_line.startswith("%"):
                break
        else:
            raise ValueError("missing size line")
        try:
            rows, cols, nnz = (int(p) for p in size_line.split())
            if min(rows, cols, nnz) < 0:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"line {lineno}: malformed size line {size_line.strip()!r}") from None
        entries = np.array(list(_read_entries(lines, rows, cols)), dtype=_ENTRY)
    if len(entries) != nnz:
        raise ValueError(f"size line promises {nnz} entries, file holds {len(entries)}")
    entries = entries[np.lexsort((entries["col"], entries["row"]))]
    r, c = entries["row"], entries["col"]
    repeats = (r[1:] == r[:-1]) & (c[1:] == c[:-1])
    if repeats.any():
        first = int(np.argmax(repeats))
        raise ValueError(f"duplicate entry at row {r[first] + 1}, column {c[first] + 1}")
    builder = CsrBuilder(rows, cols, nnz)
    builder.append_rows(np.bincount(r, minlength=rows), c, entries["value"])
    return builder.finish()


def _ascii_lines(fh):
    """Yield (line number, line) of each line of ``fh``, opened with
    ``errors="surrogateescape"``; ValueError naming the first line that is
    not ASCII."""
    for lineno, line in enumerate(fh, start=1):
        if not line.isascii():
            raise ValueError(f"line {lineno}: not ASCII text")
        yield lineno, line


def _read_entries(lines, rows: int, cols: int):
    """Yield the 0-based (row, column, value) of each entry line of the
    numbered ``lines``; ValueError naming the line of the first malformed
    one."""
    for lineno, line in lines:
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(
                f"line {lineno}: expected row, column and value, got {line!r}")
        r_s, c_s, v_s = fields
        try:
            r, c, v = int(r_s) - 1, int(c_s) - 1, float(v_s)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: malformed entry {line!r}: {exc}") from None
        if not (0 <= r < rows and 0 <= c < cols):
            raise ValueError(f"line {lineno}: entry ({r_s}, {c_s}) outside {rows} x {cols}")
        yield r, c, v
