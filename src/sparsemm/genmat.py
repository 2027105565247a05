"""Deterministic, seeded generators for the benchmark matrix families.

Three families: the five-point stencil of a Dirichlet boundary value problem
on a square grid (``fd``), square matrices with a fixed number of random
entries per row (``random``), and the same construction with a per-row fill
ratio instead of a fixed count (``fill``).

Randomness comes from splitmix64 so a given seed reproduces bit-identical
matrices on any platform or interpreter.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass

import numpy as np

from .formats import CsrBuilder, CsrMatrix

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64: 64-bit state advanced by a fixed increment, then mixed."""

    def __init__(self, seed: int):
        self._state = operator.index(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        # Modulo draw; bias is negligible for n far below 2**64 and the
        # reduction is trivially portable across languages.
        return self.next_u64() % operator.index(n)

    def next_unit(self) -> float:
        """Uniform double in (0, 1], built from the top 53 bits."""
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53


FAMILIES = ("fd", "random", "fill")


def _integer(value) -> int:
    """``operator.index(value)``, which refuses a float, refusing a bool
    too: it would take True and False as 1 and 0."""
    if isinstance(value, bool):
        raise TypeError("'bool' object cannot be interpreted as an integer here")
    return operator.index(value)


@dataclass(frozen=True)
class GenSpec:
    """One generator configuration.

    ``n`` is the matrix dimension; for the ``fd`` family the generator picks
    the grid side closest to sqrt(n) and the actual dimension is its square.
    ``n``, ``k`` and ``seed`` must be integers (numpy integers included,
    bools not) and are stored as Python ints.
    """

    family: str
    n: int
    k: int = 5
    fill: float = 0.001
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "k", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name)))
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.family == "random" and not 1 <= self.k <= self.n:
            raise ValueError("need 1 <= k <= n")
        if self.family == "fill" and not 0.0 < self.fill <= 1.0:
            raise ValueError("need 0 < fill <= 1")


def gen_fd(grid: int) -> CsrMatrix:
    """Five-point stencil matrix on a grid x grid square, N = grid**2.

    Row i holds 4.0 on the diagonal and -1.0 for each of the up to four grid
    neighbors; neighbor links are suppressed across the grid boundary, so
    interior points have 5 entries, edge points 4 and corner points 3.
    """
    grid = _integer(grid)
    if grid < 1:
        raise ValueError("grid must be at least 1")
    n = grid * grid
    i = np.arange(n)
    x, y = i % grid, i // grid
    # the five stencil columns of each row in increasing order, and which exist
    cols = i[:, None] + np.array([-grid, -1, 0, 1, grid])
    keep = np.stack((y > 0, x > 0, np.full(n, True), x < grid - 1, y < grid - 1), axis=1)
    values = np.broadcast_to(np.array([-1.0, -1.0, 4.0, -1.0, -1.0]), cols.shape)
    counts = keep.sum(axis=1)
    builder = CsrBuilder(n, n, int(counts.sum()))
    builder.append_rows(counts, cols[keep], values[keep])
    return builder.finish()


def _splitmix64_outputs(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs ``start`` ... ``start + count - 1`` of ``SplitMix64(seed)``.

    Output j is ``mix(seed + (j + 1) * gamma mod 2**64)``, a pure function of
    j, so the whole range is computed at once in wrapping uint64 arithmetic.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(operator.index(seed) & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def gen_random_k(n: int, k: int, seed: int) -> CsrMatrix:
    """n x n matrix with exactly k entries per row at distinct random columns.

    Each row draws columns uniformly from the splitmix64 stream and rejects
    repeats; an accepted column takes the next output as its value, uniform
    in (0, 1], and a rejected one consumes nothing more. The stream is a pure
    function of the draw index and is computed in bulk; only the walk that
    picks the accepted positions is sequential. Rows are sorted by column
    and appended in one call. The bits equal drawing through ``SplitMix64``.
    """
    n, k, seed = _integer(n), _integer(k), _integer(seed)
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    chunks = [_splitmix64_outputs(seed, 0, 2 * n * k)]
    cols = (chunks[0] % np.uint64(n)).tolist()
    accepted = []
    p = 0
    for r in range(n):
        row = set()
        while len(row) < k:
            c = cols[p]
            if c in row:
                p += 1
                # the stream always holds two outputs for each entry still due
                if p + 2 * (k * (n - r) - len(row)) > len(cols):
                    chunks.append(_splitmix64_outputs(seed, len(cols), 2 * k * (n - r)))
                    cols += (chunks[-1] % np.uint64(n)).tolist()
            else:
                row.add(c)
                accepted.append(p)
                p += 2
    u = np.concatenate(chunks)
    pos = np.array(accepted, dtype=np.intp).reshape(n, k)
    col_idx = u[pos] % np.uint64(n)
    values = ((u[pos + 1] >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53
    order = np.argsort(col_idx, axis=1)
    builder = CsrBuilder(n, n, n * k)
    builder.append_rows(np.full(n, k), np.take_along_axis(col_idx, order, axis=1).ravel(),
                        np.take_along_axis(values, order, axis=1).ravel())
    return builder.finish()


def fill_row_count(n: int, fill: float) -> int:
    """Entries per row implied by a fill ratio: round half up, at least 1."""
    if not 0.0 < fill <= 1.0:
        raise ValueError("need 0 < fill <= 1")
    return max(1, int(fill * n + 0.5))


def gen_fill_ratio(n: int, fill: float, seed: int) -> CsrMatrix:
    """Random matrix with a per-row fill ratio instead of a fixed count."""
    return gen_random_k(n, fill_row_count(n, fill), seed)


def generate(spec: GenSpec) -> CsrMatrix:
    if spec.family == "fd":
        grid = max(1, round(math.sqrt(spec.n)))
        return gen_fd(grid)
    if spec.family == "random":
        return gen_random_k(spec.n, spec.k, spec.seed)
    return gen_fill_ratio(spec.n, spec.fill, spec.seed)


def matrix_fingerprint(m: CsrMatrix) -> str:
    """sha256 over the canonical little-endian bytes of a CSR matrix.

    Two matrices get the same fingerprint iff their dimensions and all three
    arrays are bit-identical; used to assert reproducibility across processes.
    """
    h = hashlib.sha256()
    h.update(f"csr:{m.rows}:{m.cols}:".encode())
    h.update(np.ascontiguousarray(m.row_ptr, dtype="<u8").tobytes())
    h.update(np.ascontiguousarray(m.col_idx, dtype="<u8").tobytes())
    h.update(np.ascontiguousarray(m.values, dtype="<f8").tobytes())
    return h.hexdigest()
