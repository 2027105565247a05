"""Matrix Market coordinate I/O (ASCII, 1-based, real general).

Entries are written in row-major order; the loader accepts any entry order
but rejects duplicate positions, since stored matrices never coalesce.
"""

from __future__ import annotations

import os

from .formats import CsrBuilder, CsrMatrix

HEADER = "%%MatrixMarket matrix coordinate real general"


def save_matrix_market(m: CsrMatrix, path: str | os.PathLike) -> None:
    ptr = m.row_ptr.tolist()
    idx = m.col_idx.tolist()
    val = m.values.tolist()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(HEADER + "\n")
        fh.write(f"{m.rows} {m.cols} {m.nnz}\n")
        for r in range(m.rows):
            for pos in range(ptr[r], ptr[r + 1]):
                fh.write(f"{r + 1} {idx[pos] + 1} {val[pos]:.17g}\n")


def load_matrix_market(path: str | os.PathLike) -> CsrMatrix:
    with open(path, encoding="ascii") as fh:
        header = fh.readline()
        fields = header.strip().lower().split()
        if fields[:1] != ["%%matrixmarket"] or fields[1:] != [
            "matrix", "coordinate", "real", "general",
        ]:
            raise ValueError(f"unsupported Matrix Market header: {header.strip()!r}")
        size_line = fh.readline()
        lineno = 2
        while size_line.startswith("%") or not size_line.strip():
            size_line = fh.readline()
            lineno += 1
            if not size_line:
                raise ValueError("missing size line")
        try:
            rows, cols, nnz = (int(p) for p in size_line.split())
            if min(rows, cols, nnz) < 0:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"line {lineno}: malformed size line {size_line.strip()!r}") from None
        entries = []
        for lineno, line in enumerate(fh, start=lineno + 1):
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
            entries.append((r, c, v))
    if len(entries) != nnz:
        raise ValueError(f"size line promises {nnz} entries, file holds {len(entries)}")
    entries.sort(key=lambda e: (e[0], e[1]))
    builder = CsrBuilder(rows, cols, nnz)
    row = 0
    prev = (-1, -1)
    for r, c, v in entries:
        if (r, c) == prev:
            raise ValueError(f"duplicate entry at row {r + 1}, column {c + 1}")
        prev = (r, c)
        while row < r:
            builder.finalize_row()
            row += 1
        builder.append(c, v)
    while row < rows:
        builder.finalize_row()
        row += 1
    return builder.finish()
