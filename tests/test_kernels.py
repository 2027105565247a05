import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsemm.kernels as kernels_module
from sparsemm_helpers import (
    assert_csc_bitwise_equal,
    assert_csr_bitwise_equal,
    assert_matches_dense,
    classic_reference,
    csc,
    csr,
    identity_csr,
    random_pair,
)
from sparsemm.formats import (
    CscMatrix,
    CsrBuilder,
    CsrMatrix,
    _intp,
    csc_to_csr,
    csr_to_csc,
    estimate_nnz,
    transposed,
)
from sparsemm.genmat import GenSpec, gen_fd, gen_random_k, generate
from sparsemm.kernels import (
    KernelStats,
    RowAccumulator,
    StrategyKind,
    combined_select,
    dense_multiply_reference,
    multiply_classic,
    multiply_colmajor,
    multiply_mixed,
    multiply_rowmajor,
    rowmajor_reference,
    store_row,
)

ALL_STRATEGIES = list(StrategyKind)


class TestDenseReference:
    def test_identity(self):
        eye = np.eye(2)
        out, mults = dense_multiply_reference(eye, eye)
        assert np.array_equal(out, eye)
        assert mults == 2

    def test_hand_arithmetic(self):
        out, mults = dense_multiply_reference([[1.0, 2.0], [0.0, 1.0]],
                                              [[1.0, 0.0], [3.0, 1.0]])
        assert np.array_equal(out, [[7.0, 2.0], [3.0, 1.0]])
        # column counts of the left operand (1, 2) against row counts of the
        # right one (1, 2)
        assert mults == 5

    def test_matches_scatter_kernel_on_stencil(self):
        a = gen_fd(3)
        expected, _ = dense_multiply_reference(a.to_dense(), a.to_dense())
        got = multiply_rowmajor(a, a)
        assert np.array_equal(got.to_dense(), expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dense_multiply_reference(np.eye(2), np.eye(3))


class TestRowMajor:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_identity_returns_operand_bitwise(self, strategy):
        b = gen_random_k(24, 4, 11)
        out = multiply_rowmajor(identity_csr(24), b, strategy)
        assert_csr_bitwise_equal(out, b)

    def test_stencil_squared_matches_reference(self):
        a = gen_fd(2)
        expected, _ = dense_multiply_reference(a.to_dense(), a.to_dense())
        assert_matches_dense(multiply_rowmajor(a, a), expected)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_random_pairs_match_reference(self, strategy):
        for seed in range(12):
            a, b = random_pair(seed)
            expected, _ = dense_multiply_reference(a.to_dense(), b.to_dense())
            assert_matches_dense(multiply_rowmajor(a, b, strategy), expected)

    def test_strategies_agree_bitwise(self):
        for seed in (0, 7, 23):
            a, b = random_pair(seed)
            baseline = multiply_rowmajor(a, b, StrategyKind.BRUTE_FORCE_DOUBLE)
            for strategy in ALL_STRATEGIES[1:]:
                assert_csr_bitwise_equal(multiply_rowmajor(a, b, strategy), baseline)

    def test_result_never_exceeds_reservation(self):
        recorded = []

        class RecordingBuilder(CsrBuilder):
            def __init__(self, rows, cols, capacity):
                super().__init__(rows, cols, capacity)
                recorded.append(self)

            def append(self, idx, value):
                super().append(idx, value)
                assert self.cursor <= self.capacity

            def append_rows(self, counts, idx, values):
                super().append_rows(counts, idx, values)
                assert self.cursor <= self.capacity

        old = kernels_module.CsrBuilder
        kernels_module.CsrBuilder = RecordingBuilder
        try:
            for seed in range(8):
                a, b = random_pair(seed)
                multiply_rowmajor(a, b, StrategyKind.COMBINED)
                multiply_classic(a, csr_to_csc(b))
                for built in (recorded.pop(), recorded.pop()):
                    assert built.cursor <= estimate_nnz(a, b)
        finally:
            kernels_module.CsrBuilder = old

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            multiply_rowmajor(csr(np.ones((2, 3))), csr(np.ones((2, 2))))

    def test_rejects_column_major_operand(self):
        with pytest.raises(TypeError, match="b as a CsrMatrix, not a CscMatrix"):
            multiply_rowmajor(csr(np.eye(2)), csc(np.eye(2)))

    def test_per_row_reference_checks_operands_like_the_kernel(self):
        with pytest.raises(TypeError, match="rowmajor_reference needs b as a CsrMatrix, "
                                            "not a CscMatrix"):
            rowmajor_reference(csr(np.eye(2)), csc(np.eye(2)))
        with pytest.raises(TypeError, match="needs a as a CsrMatrix, not a ndarray"):
            rowmajor_reference(np.eye(2), csr(np.eye(2)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            rowmajor_reference(csr(np.ones((2, 3))), csr(np.ones((2, 2))))

    def test_exact_cancellation_dropped_by_every_strategy(self):
        a = csr([[1.0, -1.0]])
        b = csr([[5.0, 2.0], [5.0, 0.0]])
        # column 0 sums to exactly zero, column 1 survives
        for strategy in ALL_STRATEGIES:
            for kernel in (multiply_rowmajor, rowmajor_reference):
                out = kernel(a, b, strategy)
                assert out.col_idx.tolist() == [1]
                assert out.values.tolist() == [2.0]

    def test_transient_zero_does_not_duplicate_entries(self):
        # the accumulator passes through exact zero mid-row, which makes the
        # touched-index list record the slot twice; the per-row store reads
        # it as 0.0 the second time
        a = csr([[1.0, 1.0, 1.0]])
        b = csr([[2.0], [-2.0], [3.0]])
        for strategy in ALL_STRATEGIES:
            for kernel in (multiply_rowmajor, rowmajor_reference):
                out = kernel(a, b, strategy)
                assert out.col_idx.tolist() == [0]
                assert out.values.tolist() == [3.0]

    @given(seed=st.integers(min_value=0, max_value=2**32),
           strategy=st.sampled_from(ALL_STRATEGIES))
    @settings(max_examples=30, deadline=None)
    def test_property_matches_reference(self, seed, strategy):
        a, b = random_pair(seed, n_max=24)
        expected, _ = dense_multiply_reference(a.to_dense(), b.to_dense())
        assert_matches_dense(multiply_rowmajor(a, b, strategy), expected)


_ENTRY_VALUES = st.sampled_from(
    [1.0, -1.0, 0.5, 3.0, -2.5, 0.0, -0.0, 1e16, -1e16, math.inf, -math.inf, math.nan])


@st.composite
def stored_matrices(draw, rows, cols):
    """A CSR matrix storing any subset of its slots, explicit zeros and
    non-finite values included."""
    stored = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    flat = [i for i, keep in enumerate(stored) if keep]
    values = draw(st.lists(_ENTRY_VALUES, min_size=len(flat), max_size=len(flat)))
    counts = np.bincount([i // cols for i in flat], minlength=rows) if cols else np.zeros(rows)
    ptr = np.concatenate(([0], np.cumsum(counts))).astype(np.uint64)
    return CsrMatrix.from_arrays(rows, cols, ptr, [i % cols for i in flat], values)


@st.composite
def block_edge_operands(draw, max_dim=40):
    """Operands a (m x k) and b (k x n), each dimension 0 to ``max_dim``,
    with runs of empty rows in both and rows of ``a`` whose entries meet
    only empty rows of ``b``, or, in some draws, a ``b`` whose every row
    stores the same count w of entries, 1 <= w <= n, full rows included:
    the row-table source of products. Values are small integers and zeros,
    so sums cancel exactly, and, in some draws, infinities and NaN."""
    m, k, n = (draw(st.integers(min_value=0, max_value=max_dim)) for _ in range(3))
    rows_alike = n > 0 and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    fraction = st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0])
    pool = [1.0, -1.0, 2.0, -2.0, 0.5, 0.0] + ([math.inf, math.nan] if draw(st.booleans()) else [])

    def stored(rows, cols):
        mask = rng.random((rows, cols)) < draw(fraction)
        mask[rng.random(rows) < draw(fraction)] = False  # empty rows
        return mask

    def matrix(mask):
        ptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1))))
        cols = np.nonzero(mask)[1]
        return CsrMatrix.from_arrays(*mask.shape, ptr, cols, rng.choice(pool, len(cols)))

    a_mask = stored(m, k)
    if rows_alike:  # w random columns in every row of b
        w = draw(st.one_of(st.just(n), st.integers(min_value=1, max_value=n)))
        b_mask = rng.random((k, n)).argsort(axis=1) < w
    else:
        b_mask = stored(k, n)
    lonely = rng.random(m) < draw(fraction)  # rows that meet only empty rows of b
    a_mask[np.ix_(lonely, b_mask.any(axis=1))] = False
    return matrix(a_mask), matrix(b_mask)


@st.composite
def banded_operands(draw, max_dim=48):
    """Operands a (m x k) and b (k x n) that store entries only on 1 to 5 of
    a 5-point stencil's diagonals (column less row), -g, -1, 0, 1 and g for
    one g drawn for both, most of their slots there, and in some draws with
    runs of empty rows. Dimensions are 0 to ``max_dim``: near one another
    in most draws, any three in some, and one of them 0 in a tenth. Values
    include exact cancellations to ±0.0 and, in half the draws, infinities
    and NaN. In about a third of the draws sort and combined take diagonal
    windows."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    dims = np.clip(rng.integers(0, max_dim + 1) + rng.integers(-3, 4, size=3), 0, max_dim)
    if rng.random() < 0.2:
        dims = rng.integers(0, max_dim + 1, size=3)
    if rng.random() < 0.1:
        dims[rng.integers(3)] = 0
    m, k, n = dims.tolist()
    g = rng.integers(max(2, m // 8), max(3, m // 4) + 1)
    pool = [1.0, -1.0, 2.0, 0.5, 0.0, -0.0] + ([math.inf, -math.inf, math.nan]
                                              if rng.random() < 0.5 else [])

    def matrix(rows, cols):
        diagonals = rng.choice([-g, -1, 0, 1, g], size=rng.choice([1, 2, 3, 4, 5, 5, 5]),
                               replace=False)
        mask = np.isin(np.subtract.outer(np.arange(cols), np.arange(rows)).T, diagonals)
        mask &= rng.random((rows, cols)) < rng.choice([0.8, 1.0])
        mask[rng.random(rows) < rng.choice([0.0, 0.2])] = False  # empty rows
        ptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1))))
        cols_of = np.nonzero(mask)[1]
        return CsrMatrix.from_arrays(rows, cols, ptr, cols_of, rng.choice(pool, len(cols_of)))

    return matrix(m, k), matrix(k, n)


def assert_equals_reference(a, b, strategy):
    """The block kernel and the per-row reference agree bit for bit,
    ``KernelStats`` included, and so does the block kernel's untimed path,
    which records nothing."""
    got_stats, want_stats = KernelStats(), KernelStats()
    got = multiply_rowmajor(a, b, strategy, got_stats)
    want = rowmajor_reference(a, b, strategy, want_stats)
    assert_csr_bitwise_equal(got, want)
    assert got_stats == want_stats
    assert_csr_bitwise_equal(multiply_rowmajor(a, b, strategy), want)


def assert_classic_equals_reference(a, b):
    """The block kernel and the per-pair merge agree bit for bit,
    ``KernelStats`` included."""
    got_stats, want_stats = KernelStats(), KernelStats()
    got = multiply_classic(a, b, got_stats)
    want = classic_reference(a, b, want_stats)
    assert_csr_bitwise_equal(got, want)
    assert got_stats == want_stats


def assert_all_kernels_equal_references_at_limits(a, b, slots, products):
    """Every strategy and the classic kernel equal their per-row references
    bit for bit, ``KernelStats`` included, at the given block limits."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels_module, "BLOCK_SLOTS", slots)
        patch.setattr(kernels_module, "BLOCK_PRODUCTS", products)
        for strategy in ALL_STRATEGIES:
            assert_equals_reference(a, b, strategy)
        got_stats, want_stats = KernelStats(), KernelStats()
        got = multiply_classic(a, csr_to_csc(b), got_stats)
    assert_csr_bitwise_equal(got, rowmajor_reference(a, b, StrategyKind.SORT, want_stats))
    assert got_stats == want_stats


@pytest.fixture
def appended_blocks(monkeypatch):
    """The rows of each ``_take_rows`` call the kernels make during the
    test: both block kernels store each block with one call."""
    blocks = []
    take_rows = kernels_module._take_rows

    def counting(dense, slots, bounds, *args):
        blocks.append(len(bounds) - 1)
        return take_rows(dense, slots, bounds, *args)

    monkeypatch.setattr(kernels_module, "_take_rows", counting)
    return blocks


@pytest.fixture
def sorts(monkeypatch):
    """The number of keys of each ``_distinct`` call the kernels make during
    the test: one entry per sorted block, and one per exact count of a
    scanned block, which sorts the touched slots whose sum is zero."""
    calls = []
    distinct = kernels_module._distinct

    def counting(keys, n_slots):
        calls.append(len(keys))
        return distinct(keys, n_slots)

    monkeypatch.setattr(kernels_module, "_distinct", counting)
    return calls


@pytest.fixture
def scans(monkeypatch):
    """The slots of each ``_nonzero`` call the kernels make during the test:
    one entry per scanned block."""
    calls = []
    nonzero = kernels_module._nonzero

    def counting(dense, n_slots):
        calls.append(n_slots)
        return nonzero(dense, n_slots)

    monkeypatch.setattr(kernels_module, "_nonzero", counting)
    return calls


class _Writes(np.ndarray):
    """A view that records the key of every item assignment made through it."""

    def __setitem__(self, key, value):
        self.keys.append(key)
        super().__setitem__(key, value)


@pytest.fixture
def clears(monkeypatch):
    """(dtype, contiguous) of each ``_clear`` call the kernels make during
    the test, contiguous when the call wrote one slice and not a list of
    slots. Each call must leave the whole dense block or lookup vector
    clear."""
    calls = []
    clear = kernels_module._clear

    def checking(state, slots, n_slots):
        view = state.view(_Writes)
        view.keys = []
        clear(view, slots, n_slots)
        assert len(view.keys) == 1 and not state.any()
        calls.append((state.dtype, isinstance(view.keys[0], slice)))

    monkeypatch.setattr(kernels_module, "_clear", checking)
    return calls


@pytest.fixture
def commits(monkeypatch):
    """(builder, idx, values) of each ``CsrBuilder.append_rows`` call the
    kernels make during the test."""
    calls = []

    class RecordingBuilder(CsrBuilder):
        def append_rows(self, counts, idx, values):
            calls.append((self, idx, values))
            super().append_rows(counts, idx, values)

    monkeypatch.setattr(kernels_module, "CsrBuilder", RecordingBuilder)
    return calls


# a = [[0, 1]] times b = [[inf], [nan]], all four entries stored
_NAN_SIGN_OPERANDS = (CsrMatrix.from_arrays(1, 2, [0, 2], [0, 1], [0.0, 1.0]),
                      CsrMatrix.from_arrays(2, 1, [0, 1, 2], [0, 0], [math.inf, math.nan]))


class TestBlockKernel:
    @given(data=st.data(), strategy=st.sampled_from(ALL_STRATEGIES))
    @settings(max_examples=300, deadline=None)
    def test_equals_per_row_reference(self, data, strategy):
        m, k, n = (data.draw(st.integers(min_value=0, max_value=6)) for _ in range(3))
        a = data.draw(stored_matrices(m, k))
        b = data.draw(stored_matrices(k, n))
        assert_equals_reference(a, b, strategy)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_equals_per_row_reference_on_stencil(self, strategy, layouts):
        # the 5-point stencil squared at n = 1024 (a 32 x 32 grid): 1,024
        # rows, far more than the random and hypothesis operands above,
        # in diagonal windows under sort and combined
        a = gen_fd(32)
        assert a.rows == 1024
        assert_equals_reference(a, a, strategy)
        assert set(layouts) == {strategy in _KEYED}

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_slot_sums_in_k_order(self, strategy):
        # 1e16 + 1.0 rounds back to 1e16, so the order of the three
        # additions into the one slot decides the result
        a = csr([[1.0, 1.0, 1.0]])
        for column, expected in (([1e16, 1.0, -1e16], []), ([1e16, -1e16, 1.0], [1.0])):
            b = csr(np.array(column)[:, None])
            assert multiply_rowmajor(a, b, strategy).values.tolist() == expected
            assert_equals_reference(a, b, strategy)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_rows_spanning_several_blocks(self, strategy, monkeypatch):
        monkeypatch.setattr(kernels_module, "BLOCK_SLOTS", 1 << 20)
        cols = 300_000
        assert kernels_module.BLOCK_SLOTS // cols == 3
        rng = np.random.default_rng(5)
        b_idx = np.concatenate([np.sort(rng.choice(cols, size=6, replace=False))
                                for _ in range(4)])
        b = CsrMatrix.from_arrays(4, cols, [0, 6, 12, 18, 24], b_idx, rng.standard_normal(24))
        a = csr(np.where(rng.random((7, 4)) < 0.6, rng.standard_normal((7, 4)), 0.0))
        assert_equals_reference(a, b, strategy)

    @pytest.mark.parametrize("limit", [7, 60])
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_blocks_split_by_product_count(self, strategy, limit, monkeypatch,
                                           appended_blocks):
        # rows hold 25 products: a block ends at the product limit, but
        # always holds at least one row
        monkeypatch.setattr(kernels_module, "BLOCK_PRODUCTS", limit)
        for seed in (3, 11):
            a, b = random_pair(seed, n_max=24)
            appended_blocks.clear()
            multiply_rowmajor(a, b, strategy)
            assert len(appended_blocks) > 1 and sum(appended_blocks) == a.rows
            assert_equals_reference(a, b, strategy)

    @pytest.mark.parametrize("limit", [8, 50])
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_blocks_split_by_window_width(self, strategy, limit, monkeypatch,
                                          appended_blocks):
        # windows are at most 24 slots wide, so each limit cuts every
        # strategy's rows into several blocks, the narrow touched ranges too
        monkeypatch.setattr(kernels_module, "BLOCK_SLOTS", limit)
        for seed in (3, 11):
            a, b = random_pair(seed, n_max=24)
            appended_blocks.clear()
            multiply_rowmajor(a, b, strategy)
            assert len(appended_blocks) > 1 and sum(appended_blocks) == a.rows
            assert_equals_reference(a, b, strategy)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_banded_rows_are_cut_by_window_width(self, strategy, monkeypatch,
                                                  appended_blocks):
        # result row r touches columns 64(r-1)..64(r+1)+3: a window of 132
        # slots in a row of 16384. Full rows fit 64 to a block of 2^20
        # slots, touched ranges all 256 rows in one.
        monkeypatch.setattr(kernels_module, "BLOCK_SLOTS", 1 << 20)
        n, cols = 256, 16384
        b_idx = (64 * np.arange(n)[:, None] + np.arange(4)).ravel()
        b = CsrMatrix.from_arrays(n, cols, np.arange(0, 4 * n + 1, 4), b_idx,
                                  np.arange(1.0, 4 * n + 1))
        a = csr(np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1))
        multiply_rowmajor(a, b, strategy)
        whole_rows = strategy in (StrategyKind.BRUTE_FORCE_DOUBLE, StrategyKind.BRUTE_FORCE_BOOL,
                                  StrategyKind.BRUTE_FORCE_CHAR)
        assert appended_blocks == ([64] * 4 if whole_rows else [n])

    @pytest.mark.parametrize("limit", [1, 8, 50, 1 << 20])
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_dense_block_holds_at_most_the_limit_or_one_window(self, strategy, limit,
                                                               monkeypatch):
        monkeypatch.setattr(kernels_module, "BLOCK_SLOTS", limit)
        for seed in (3, 11, 40):
            a, b = random_pair(seed)
            blocks = kernels_module._RowBlocks(a, b, strategy)
            widest = int(np.diff(blocks.base).max())
            assert len(blocks.dense) <= max(limit, widest)
            for r0, r1 in blocks.bounds:
                slots = blocks.base[r1] - blocks.base[r0]
                assert slots <= len(blocks.dense)
                assert slots <= limit or r1 == r0 + 1

    @pytest.mark.parametrize("family,n,k,strategy", [
        ("random", 1024, 32, StrategyKind.COMBINED),
        ("random", 1024, 32, StrategyKind.BRUTE_FORCE_DOUBLE),
        ("fd", 16384, 5, StrategyKind.COMBINED),
        ("fd", 16384, 5, StrategyKind.SORT),
    ])
    def test_default_limits_bound_blocks_at_benchmark_shapes(self, family, n, k, strategy):
        # the benchmark's operands (B = A for fd), laid out but not multiplied
        a = generate(GenSpec(family=family, n=n, k=k, seed=7))
        b = a if family == "fd" else generate(GenSpec(family=family, n=n, k=k, seed=8))
        blocks = kernels_module._RowBlocks(a, b, strategy)
        bounds = blocks.bounds
        assert [r0 for r0, _ in bounds] == [0] + [r1 for _, r1 in bounds[:-1]]
        assert bounds[-1][1] == a.rows
        for r0, r1 in bounds:
            assert r0 < r1
            products = blocks.row_products[r1] - blocks.row_products[r0]
            slots = blocks.base[r1] - blocks.base[r0]
            assert r1 == r0 + 1 or (products <= kernels_module.BLOCK_PRODUCTS
                                    and slots <= kernels_module.BLOCK_SLOTS)
        widest = int(np.diff(blocks.base).max())
        assert len(blocks.dense) <= max(kernels_module.BLOCK_SLOTS, widest)

    def test_combined_counts_distinct_touched_slots(self):
        # every row of b stores an explicit zero at column 0, so the slot is
        # touched six times while still exactly zero; distinct touched
        # slots are 2 against a range of 10, so the rule picks sort
        a = csr([[1.0] * 6])
        b = CsrMatrix.from_arrays(6, 10, [0, 2, 3, 4, 5, 6, 7], [0, 9, 0, 0, 0, 0, 0],
                                  [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        for kernel in (multiply_rowmajor, rowmajor_reference):
            stats = KernelStats()
            out = kernel(a, b, StrategyKind.COMBINED, stats)
            assert stats.row_choices == [(0, StrategyKind.SORT)]
            assert out.col_idx.tolist() == [9]
            assert out.values.tolist() == [1.0]

    @pytest.mark.parametrize("limit", [4, 1 << 20])
    def test_combined_rule_from_product_bound_or_exact_count(self, limit, monkeypatch):
        # A row touches at most as many distinct slots as it has products.
        # Rows 0 and 4 pick sort even at that count. Rows 1 and 2 need the
        # exact count: that of row 1 includes columns 1 and 2, which only
        # explicit zeros touch (range), and row 2 touches 3 distinct slots
        # with 4 products (sort). One block mixes both choices; with 4 slots
        # per block rows 1 and 2 are counted in successive blocks.
        monkeypatch.setattr(kernels_module, "BLOCK_SLOTS", limit)
        b = CsrMatrix.from_arrays(
            5, 10, [0, 4, 6, 8, 10, 12], [0, 1, 2, 3, 0, 9, 0, 5, 0, 3, 1, 2],
            [1.0, 2.0, 3.0, 4.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        a = CsrMatrix.from_arrays(5, 5, [0, 1, 3, 5, 5, 6], [1, 3, 4, 2, 3, 2], [1.0] * 6)
        stats = KernelStats()
        out = multiply_rowmajor(a, b, StrategyKind.COMBINED, stats)
        assert stats.row_choices == [
            (0, StrategyKind.SORT), (1, StrategyKind.MIN_MAX), (2, StrategyKind.SORT),
            (4, StrategyKind.SORT)]
        assert out.to_dense().tolist()[1] == [1.0, 0, 0, 1.0] + [0] * 6
        assert_equals_reference(a, b, StrategyKind.COMBINED)

    # Rows of b for the nonzero-bound tests below, one result row per pair:
    # rows 0 and 1 give row 0, 4 nonzeros over a range of 4, which its
    # nonzero count settles as range; rows 2 and 3 give row 1, whose column
    # 0 cancels (1*1 + 1*(-1)), so 1 nonzero but 2 distinct slots over a
    # range of 2: range through the exact count; rows 4 and 5 give row 2,
    # 2 distinct slots over a range of 4: sort through the exact count;
    # row 6 gives row 3, 2 products over a range of 10: sort by the product
    # bound.
    _BOUND_B = CsrMatrix.from_arrays(
        7, 10, [0, 3, 6, 8, 10, 12, 14, 16],
        [0, 1, 2, 1, 2, 3, 0, 1, 0, 1, 0, 3, 0, 3, 0, 9],
        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0])

    def test_combined_nonzero_count_settles_rows_without_exact_count(self, sorts):
        a = CsrMatrix.from_arrays(3, 7, [0, 2, 3, 5], [0, 1, 6, 0, 1], [1.0] * 5)
        stats = KernelStats()
        multiply_rowmajor(a, self._BOUND_B, StrategyKind.COMBINED, stats)
        assert sorts == []
        assert stats.row_choices == [
            (0, StrategyKind.MIN_MAX), (1, StrategyKind.SORT), (2, StrategyKind.MIN_MAX)]
        assert_equals_reference(a, self._BOUND_B, StrategyKind.COMBINED)

    @pytest.mark.parametrize("limit", [4, 1 << 20])
    def test_combined_exact_count_only_for_blocks_left_open(self, limit, monkeypatch,
                                                            appended_blocks, sorts):
        # With 4 slots per block each row is a block of its own. Rows 0-2
        # hold fewer slots than twice their products, so their blocks scan,
        # and row 3 sorts its 2 keys, 10 slots for 2 products. As one block,
        # 20 slots for 16 products, all four scan: no sort without stats.
        monkeypatch.setattr(kernels_module, "BLOCK_SLOTS", limit)
        a = CsrMatrix.from_arrays(4, 7, [0, 2, 4, 6, 7], [0, 1, 2, 3, 4, 5, 6], [1.0] * 7)
        multiply_rowmajor(a, self._BOUND_B, StrategyKind.COMBINED)
        assert sorts == ([2] if limit == 4 else [])
        sorts.clear()
        appended_blocks.clear()
        stats = KernelStats()
        out = multiply_rowmajor(a, self._BOUND_B, StrategyKind.COMBINED, stats)
        assert stats.row_choices == [
            (0, StrategyKind.MIN_MAX), (1, StrategyKind.MIN_MAX), (2, StrategyKind.SORT),
            (3, StrategyKind.SORT)]
        # Only stats count exactly: once per block with an open row, sorting
        # its touched zero sums (row 1's column 0, touched twice; none of
        # row 2's), before row 3's own sort.
        assert sorts == ([2, 0, 2] if limit == 4 else [2])
        assert appended_blocks == ([1, 1, 1, 1] if limit == 4 else [4])
        assert out.to_dense().tolist()[1] == [0.0, 2.0] + [0.0] * 8
        assert_equals_reference(a, self._BOUND_B, StrategyKind.COMBINED)

    @pytest.mark.parametrize("limit", [8, 50, 1 << 18])
    def test_combined_scans_a_block_exactly_when_under_twice_its_products(
            self, limit, monkeypatch, sorts, scans):
        # The products bound a block's distinct slots, so combined scans a
        # block whose windows hold fewer slots than twice its products and
        # sorts the keys of any other, with or without stats.
        monkeypatch.setattr(kernels_module, "BLOCK_SLOTS", limit)
        both = set()
        for seed in (3, 11, 40):
            a, b = random_pair(seed)
            blocks = kernels_module._RowBlocks(a, b, StrategyKind.COMBINED)
            totals = [(blocks.base[r1] - blocks.base[r0],
                       blocks.row_products[r1] - blocks.row_products[r0])
                      for r0, r1 in blocks.bounds]
            scanned = [n_slots for n_slots, products in totals if n_slots < 2 * products]
            sorted_keys = [products for n_slots, products in totals if n_slots >= 2 * products]
            both.update(bool(n_slots < 2 * products) for n_slots, products in totals)
            for stats in (None, KernelStats()):
                sorts.clear()
                scans.clear()
                multiply_rowmajor(a, b, StrategyKind.COMBINED, stats)
                assert scans == scanned
                # an exact count sorts a scanned block's zero sums: none here
                assert [n for n in sorts if n] == sorted_keys
        # one block per product scans; smaller blocks take both mechanisms
        assert both == ({True} if limit == 1 << 18 else {False, True})

    def test_combined_sorts_a_mixed_block_whose_windows_outnumber_twice_its_products(
            self, sorts, scans):
        # Row 0 of the product takes b's row {0, 1} and rows 1-3 take its row
        # {0, 99}: one block of 2 + 3 x 100 = 302 slots for 8 products, which
        # combined sorts, although row 0 alone picks the range scan.
        b = CsrMatrix.from_arrays(2, 100, [0, 2, 4], [0, 1, 0, 99], [1.0, 2.0, 3.0, 4.0])
        a = CsrMatrix.from_arrays(4, 2, [0, 1, 2, 3, 4], [0, 1, 1, 1], [1.0, 2.0, 3.0, 4.0])
        for stats in (None, KernelStats()):
            sorts.clear()
            got = multiply_rowmajor(a, b, StrategyKind.COMBINED, stats)
            assert scans == [] and sorts == [8]
        assert stats.row_choices == [(0, StrategyKind.MIN_MAX), (1, StrategyKind.SORT),
                                     (2, StrategyKind.SORT), (3, StrategyKind.SORT)]
        want_stats = KernelStats()
        assert_csr_bitwise_equal(got, rowmajor_reference(a, b, StrategyKind.COMBINED,
                                                         want_stats))
        assert want_stats == stats

    @pytest.mark.parametrize("family,n,k", [("fd", 16384, 5), ("random", 1024, 32),
                                            ("fd", 1024, 5)])
    @pytest.mark.parametrize("orientation", ["rowmajor", "colmajor"])
    def test_combined_scans_every_block_of_the_benchmark_products(
            self, family, n, k, orientation, sorts, scans):
        # perfbench's three workloads (seed 7): every block scans, sorting no key
        a = generate(GenSpec(family, n, k=k, seed=7))
        b = a if family == "fd" else generate(GenSpec(family, n, k=k, seed=8))
        if orientation == "rowmajor":
            multiply_rowmajor(a, b, StrategyKind.COMBINED)
        else:
            multiply_colmajor(csr_to_csc(a), csr_to_csc(b), StrategyKind.COMBINED)
        assert sorts == [] and scans

    @pytest.mark.parametrize("limit", [1, 1 << 18])
    def test_combined_exact_count_of_zero_and_nan_sums(self, limit, monkeypatch):
        # The nonzero count leaves both rows open, and each picks the range
        # only if all three kinds of touched slot count once. Row 0 takes a
        # -0.0 product in column 0 and 1.0 in column 1. Row 1 sums
        # inf - inf to NaN in column 0, cancels column 2 and keeps column 4.
        monkeypatch.setattr(kernels_module, "BLOCK_SLOTS", limit)
        inf = math.inf
        b = CsrMatrix.from_arrays(3, 5, [0, 2, 5, 7], [0, 1, 0, 2, 4, 0, 2],
                                  [-0.0, 1.0, inf, 1.0, 1.0, -inf, -1.0])
        a = CsrMatrix.from_arrays(2, 3, [0, 1, 3], [0, 1, 2], [1.0] * 3)
        stats = KernelStats()
        out = multiply_rowmajor(a, b, StrategyKind.COMBINED, stats)
        assert stats.row_choices == [(0, StrategyKind.MIN_MAX), (1, StrategyKind.MIN_MAX)]
        assert out.col_idx.tolist() == [1, 0, 4]
        assert_equals_reference(a, b, StrategyKind.COMBINED)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_non_finite_and_zero_sums_found_by_every_scan(self, strategy):
        # Row 0 sums to NaN (inf - inf), inf, -inf, 0.0 by cancellation, a
        # product of -0.0 and a plain 2.5; row 1 (sort for combined) to
        # NaN, 1.0 and 0.0. NaN and inf are stored, the zeros dropped.
        inf, nan = math.inf, math.nan
        b = CsrMatrix.from_arrays(
            4, 10, [0, 6, 10, 13, 15],
            [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 0, 1, 9, 0, 9],
            [inf, inf, -inf, 1.0, -0.0, 2.5, -inf, 1.0, -1.0, -1.0, inf, 1.0, 1.0, -inf, -1.0])
        a = CsrMatrix.from_arrays(2, 4, [0, 2, 4], [0, 1, 2, 3], [1.0] * 4)
        out = multiply_rowmajor(a, b, strategy)
        assert out.row_ptr.tolist() == [0, 4, 6]
        assert out.col_idx.tolist() == [0, 1, 2, 5, 0, 1]
        got = out.values.tolist()
        assert math.isnan(got[0]) and math.isnan(got[4])
        assert got[1:4] + got[5:] == [inf, -inf, 2.5, 1.0]
        assert_equals_reference(a, b, strategy)
        # row 0 alone makes a block that combined scans whole
        assert_equals_reference(CsrMatrix.from_arrays(1, 4, [0, 2], [0, 1], [1.0] * 2), b,
                                strategy)
        # 0 * inf and 1 * nan are NaNs of opposite signs in one slot
        assert_equals_reference(*_NAN_SIGN_OPERANDS, strategy)

    @pytest.mark.parametrize("kernel", ALL_STRATEGIES + ["classic"])
    def test_zero_filter_in_blocks_with_and_without_a_cancelled_sum(self, kernel, monkeypatch,
                                                                    appended_blocks):
        # Every row touches all three columns, so 8 slots hold two rows of
        # every strategy's windows and of the classic kernel. Rows 0 and 1
        # keep every sum. Row 2 cancels 1 - 1 in column 0, and rows 2 and 3
        # each add two -0.0 products (of stored -0.0 entries) in column 2:
        # all three slots read zero and are dropped.
        monkeypatch.setattr(kernels_module, "BLOCK_SLOTS", 8)
        a = CsrMatrix.from_arrays(4, 4, [0, 2, 4, 6, 8], [0, 1, 0, 1, 2, 3, 2, 3],
                                  [1.0, 1.0, 2.0, 3.0, 1.0, 1.0, 2.0, 1.0])
        b = CsrMatrix.from_arrays(4, 3, [0, 3, 6, 9, 12], [0, 1, 2] * 4,
                                  [1.0, 2.0, 3.0, 4.0, 5.0, 6.0,
                                   1.0, 1.0, -0.0, -1.0, 2.0, -0.0])
        got_stats, want_stats = KernelStats(), KernelStats()
        if kernel == "classic":
            got = multiply_classic(a, csr_to_csc(b), got_stats)
            kernel = StrategyKind.SORT
        else:
            got = multiply_rowmajor(a, b, kernel, got_stats)
        want = rowmajor_reference(a, b, kernel, want_stats)
        assert_csr_bitwise_equal(got, want)
        assert got_stats == want_stats
        assert appended_blocks == [2, 2]
        assert got.to_dense().tolist() == [[5.0, 7.0, 9.0], [14.0, 19.0, 24.0],
                                           [0.0, 3.0, 0.0], [1.0, 4.0, 0.0]]
        assert got.col_idx.tolist() == [0, 1, 2, 0, 1, 2, 1, 0, 1]

    @pytest.mark.parametrize("kernel", ALL_STRATEGIES + ["classic"])
    def test_blocks_without_products(self, kernel, monkeypatch):
        # Rows 3..6 of b are empty. Rows 4..9 of a are empty and rows
        # 10..15 store entries only in columns 3..6, so rows 4..15 have no
        # products; every other row has more than BLOCK_PRODUCTS, so it is
        # a block of its own and the rows between form blocks without
        # products, which the brute-force strategies still scan.
        monkeypatch.setattr(kernels_module, "BLOCK_SLOTS", 20)
        monkeypatch.setattr(kernels_module, "BLOCK_PRODUCTS", 4)
        rng = np.random.default_rng(8)
        b = rng.standard_normal((12, 10)) * (rng.random((12, 10)) < 0.6)
        b[:, :2] = 1.0  # every stored row of b holds at least two entries
        b[3:7] = 0.0
        a = rng.standard_normal((22, 12))
        a[4:10] = 0.0
        a[10:16] = 0.0
        a[10:16, 3:7] = rng.standard_normal((6, 4)) * (rng.random((6, 4)) < 0.7)
        a[10, 3] = 1.0
        a, b = csr(a), csr(b)
        got_stats, want_stats = KernelStats(), KernelStats()
        if kernel == "classic":
            got = multiply_classic(a, csr_to_csc(b), got_stats)
            kernel = StrategyKind.SORT
        else:
            blocks = kernels_module._RowBlocks(a, b, kernel)
            assert any(blocks.row_products[r0] == blocks.row_products[r1] and r1 - r0 > 1
                       for r0, r1 in blocks.bounds)
            out = CsrBuilder(a.rows, b.cols, blocks.mults)
            counts, (idx, val) = np.empty(a.rows, dtype=np.intp), out._room()
            for r0, r1 in blocks.bounds:  # each block leaves its state clear
                blocks.compress(r0, r1, None, counts[r0:r1], idx, val)
                for state in (blocks.dense, blocks.lookup):
                    assert state is None or not state.any()
            got = multiply_rowmajor(a, b, kernel, got_stats)
        want = rowmajor_reference(a, b, kernel, want_stats)
        assert_csr_bitwise_equal(got, want)
        assert got_stats == want_stats
        assert np.diff(got.row_ptr)[4:16].tolist() == [0] * 12
        assert got.nnz > 0

    @given(operands=block_edge_operands(),
           slots=st.integers(min_value=1, max_value=64),
           products=st.integers(min_value=1, max_value=64))
    @settings(max_examples=80, deadline=None)
    def test_equals_per_row_reference_at_small_block_limits(self, operands, slots, products):
        # Limits of 1-64 cut operands of up to 40 x 40 into many blocks, at
        # every kind of row edge: empty rows, rows without products and
        # rows wider than a block, from either source of products.
        assert_all_kernels_equal_references_at_limits(*operands, slots, products)

    @given(operands=banded_operands(),
           slots=st.integers(min_value=1, max_value=64),
           products=st.integers(min_value=1, max_value=64))
    @settings(max_examples=100, deadline=None)
    def test_banded_operands_equal_per_row_reference_at_small_block_limits(
            self, operands, slots, products):
        # the test above on banded operands, which sort and combined lay out
        # in diagonal windows in about a third of the draws
        assert_all_kernels_equal_references_at_limits(*operands, slots, products)

    def test_cold_references_equal_the_block_kernels(self):
        # Which NaN of the sum 0 * inf + 1 * nan survives follows the operand
        # order of the add, and CPython's first, unspecialised calls of a
        # function can order it otherwise than its later ones. The first
        # call in a fresh interpreter is such a call.
        code = (
            "import math\n"
            "from sparsemm_helpers import classic_reference\n"
            "from sparsemm.formats import CsrMatrix, csr_to_csc\n"
            "from sparsemm.kernels import multiply_classic, multiply_rowmajor, "
            "rowmajor_reference\n"
            "a = CsrMatrix.from_arrays(1, 2, [0, 2], [0, 1], [0.0, 1.0])\n"
            "b = CsrMatrix.from_arrays(2, 1, [0, 1, 2], [0, 0], [math.inf, math.nan])\n"
            "def bits(m): return m.values.tobytes().hex()\n"
            "cold = [bits(rowmajor_reference(a, b)), "
            "bits(classic_reference(a, csr_to_csc(b)))]\n"
            "block = [bits(multiply_rowmajor(a, b)), "
            "bits(multiply_classic(a, csr_to_csc(b)))]\n"
            "assert cold == block, (cold, block)\n"
        )
        tests = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, PYTHONPATH=tests + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr


def _clear_operands():
    """Operands whose rows fill their windows mostly or barely. b (128 x
    256): rows 0-63 store 48 random columns each, rows 64-127 two columns
    at least 241 apart. a (130 x 128): rows 0-63 store 8 entries among the
    first 64 columns (a window of about 256 slots, about 200 of them
    touched); rows 64-129 one entry among the others (2 touched slots in a
    window of 256 or at least 242)."""
    rng = np.random.default_rng(12)
    b = np.zeros((128, 256))
    for r in range(64):
        b[r, rng.choice(256, size=48, replace=False)] = rng.standard_normal(48)
    j = np.arange(64) % 8
    b[64 + np.arange(64), j] = 1.0
    b[64 + np.arange(64), 255 - j] = 2.0
    a = np.zeros((130, 128))
    for r in range(64):
        a[r, rng.choice(64, size=8, replace=False)] = rng.standard_normal(8)
    a[64 + np.arange(66), 64 + rng.integers(0, 64, size=66)] = 1.5
    return a, csr(b)


class TestCommitAndClears:
    @pytest.mark.parametrize("kernel", ["rowmajor", "colmajor", "mixed-csr-csc",
                                        "mixed-csc-csr", "classic"])
    @pytest.mark.parametrize("limit", [8, 1 << 18])
    def test_one_commit_per_product_from_the_builders_storage(self, kernel, limit,
                                                              monkeypatch, commits,
                                                              appended_blocks):
        # at 8 slots every kernel stores a product in several blocks
        monkeypatch.setattr(kernels_module, "BLOCK_SLOTS", limit)
        for seed in (3, 11):
            a, b = random_pair(seed, n_max=24)
            commits.clear()
            appended_blocks.clear()
            got = {
                "rowmajor": lambda: multiply_rowmajor(a, b),
                "colmajor": lambda: multiply_colmajor(csr_to_csc(a), csr_to_csc(b)),
                "mixed-csr-csc": lambda: multiply_mixed(a, csr_to_csc(b)),
                "mixed-csc-csr": lambda: multiply_mixed(csr_to_csc(a), b),
                "classic": lambda: multiply_classic(a, csr_to_csc(b)),
            }[kernel]()
            assert len(commits) == 1
            builder, idx, values = commits[0]
            assert np.shares_memory(idx, builder._idx)
            assert np.shares_memory(values, builder._val)
            assert len(appended_blocks) > (1 if limit == 8 else 0)
            want = multiply_rowmajor(a, b)
            assert_csr_bitwise_equal(got if kernel in ("rowmajor", "mixed-csr-csc", "classic")
                                     else csc_to_csr(got), want)

    def test_combined_makes_no_lookup(self):
        # TestBlockKernel's operands whose rows 1 and 2 need the exact count
        a = CsrMatrix.from_arrays(4, 7, [0, 2, 4, 6, 7], [0, 1, 2, 3, 4, 5, 6], [1.0] * 7)
        b = TestBlockKernel._BOUND_B
        for stats in (None, KernelStats()):
            blocks = kernels_module._RowBlocks(a, b, StrategyKind.COMBINED)
            out = CsrBuilder(a.rows, b.cols, blocks.mults)
            counts, (idx, val) = np.empty(a.rows, dtype=np.intp), out._room()
            for r0, r1 in blocks.bounds:
                blocks.compress(r0, r1, stats, counts[r0:r1], idx, val)
            assert blocks.lookup is None
        want = KernelStats()
        rowmajor_reference(a, b, StrategyKind.COMBINED, want)
        assert stats.row_choices == want.row_choices
        assert StrategyKind.MIN_MAX in dict(want.row_choices).values()
        assert_equals_reference(a, b, StrategyKind.COMBINED)

    @pytest.mark.parametrize("kernel", ALL_STRATEGIES + ["classic"])
    @pytest.mark.parametrize("limit", [256, 1 << 18])
    def test_both_clears_leave_every_block_clear(self, kernel, limit, monkeypatch, clears):
        # At the default limit each product below is one block for the
        # row-major kernel, so the mostly full rows, the barely filled ones
        # and both together go as three products; classic's 64-row blocks
        # split them in one. At 256 slots a block holds one or two rows.
        monkeypatch.setattr(kernels_module, "BLOCK_SLOTS", limit)
        a, b = _clear_operands()
        for rows in (slice(None), slice(0, 64), slice(64, None)):
            part = csr(a[rows])
            if kernel == "classic":
                got_stats, want_stats = KernelStats(), KernelStats()
                got = multiply_classic(part, csr_to_csc(b), got_stats)
                want = rowmajor_reference(part, b, StrategyKind.SORT, want_stats)
                assert_csr_bitwise_equal(got, want)
                assert got_stats == want_stats
            else:
                assert_equals_reference(part, b, kernel)
        dense = {contiguous for dtype, contiguous in clears if dtype == np.float64}
        marks = {contiguous for dtype, contiguous in clears if dtype == bool}
        assert dense == {True, False}
        if kernel in (StrategyKind.BRUTE_FORCE_BOOL, StrategyKind.BRUTE_FORCE_CHAR,
                      StrategyKind.MIN_MAX_CHAR):
            assert marks == {True, False}


@pytest.fixture
def tables(monkeypatch):
    """For each ``_RowBlocks`` the kernels lay out during the test, whether
    it takes its products from ``b``'s row table."""
    calls = []

    class Recording(kernels_module._RowBlocks):
        def __init__(self, a, b, strategy):
            super().__init__(a, b, strategy)
            calls.append(self.b_table is not None)

    monkeypatch.setattr(kernels_module, "_RowBlocks", Recording)
    return calls


class TestRowTable:
    """When every row of ``b`` stores the same count, ``b``'s index and value
    arrays are a (rows, count) table, and each entry of ``a`` takes its row
    of ``b`` whole; any other ``b`` goes through the slice expansion. Both
    sources give the same bits and ``KernelStats``."""

    @pytest.mark.parametrize("spec", [
        GenSpec(family="random", n=40, k=1, seed=3),
        GenSpec(family="random", n=40, k=9, seed=3),
        GenSpec(family="random", n=40, k=40, seed=3),  # full rows
        GenSpec(family="fill", n=300, fill=0.03, seed=3),  # 9 entries per row
    ])
    def test_equal_rows_take_the_table(self, spec, tables, layouts):
        a = generate(spec)
        b = generate(GenSpec(spec.family, spec.n, spec.k, spec.fill, spec.seed + 1))
        idx_rows, val_rows = kernels_module._RowBlocks(a, b, StrategyKind.SORT).b_table
        width = b.nnz // b.rows
        assert idx_rows.shape == val_rows.shape == (b.rows, width)
        assert np.shares_memory(idx_rows, b.col_idx) and np.shares_memory(val_rows, b.values)
        for strategy in ALL_STRATEGIES:
            assert_equals_reference(a, b, strategy)
            # a CSR left operand converts b to CSR, which has the same rows
            got_stats, want_stats = KernelStats(), KernelStats()
            assert_csr_bitwise_equal(multiply_mixed(a, csr_to_csc(b), strategy, got_stats),
                                     rowmajor_reference(a, b, strategy, want_stats))
            want_stats.conversions = 1
            assert got_stats == want_stats
        assert all(tables) and len(tables) == 1 + 3 * len(ALL_STRATEGIES)
        assert not any(layouts)  # their products have nearly every diagonal

    def test_colmajor_takes_the_table_when_the_columns_of_a_are_equal(self, tables):
        # colmajor multiplies b^T by a^T: the right operand's rows are a's columns
        r, b = gen_random_k(30, 4, 5), csr_to_csc(gen_random_k(30, 4, 6))
        a_equal, a_unequal = transposed(r), csr_to_csc(r)
        assert len(set(np.diff(a_unequal.col_ptr).tolist())) > 1
        for a, takes in ((a_equal, True), (a_unequal, False)):
            tables.clear()
            for strategy in ALL_STRATEGIES:
                got_stats, want_stats = KernelStats(), KernelStats()
                got = multiply_colmajor(a, b, strategy, got_stats)
                want = rowmajor_reference(transposed(b), transposed(a), strategy, want_stats)
                assert_csc_bitwise_equal(got, transposed(want))
                assert got_stats == want_stats
            assert set(tables) == {takes}

    @pytest.mark.parametrize("family,n,k,rowmajor_takes,diagonal", [
        ("random", 1024, 32, True, False), ("fd", 16384, 5, False, True),
        ("fd", 1024, 5, False, True)])
    def test_benchmark_operands(self, family, n, k, rowmajor_takes, diagonal):
        # laid out, not multiplied: rowmajor and mixed from a CSR left operand
        # lay out (a, b); colmajor and mixed from a CSC one (b^T, a^T). Sort
        # and combined take diagonal windows on fd's products either way.
        a = generate(GenSpec(family=family, n=n, k=k, seed=7))
        b = a if family == "fd" else generate(GenSpec(family=family, n=n, k=k, seed=8))
        a_t, b_t = transposed(csr_to_csc(a)), transposed(csr_to_csc(b))
        for strategy in ALL_STRATEGIES:
            for left, right, table in ((a, b, rowmajor_takes), (b_t, a_t, False)):
                blocks = kernels_module._RowBlocks(left, right, strategy)
                assert (blocks.b_table is not None) is table
                assert (blocks.rank is not None) is (diagonal and strategy in _KEYED)

    def test_unequal_or_empty_rows_take_the_slice_expansion(self, tables):
        fd = gen_fd(8)  # boundary rows store 3 or 4 entries, inner rows 5
        r = gen_random_k(20, 6, 2)
        short = r.to_dense()
        short[7, np.flatnonzero(short[7])[0]] = 0.0  # one row one entry short
        for a, b in ((fd, fd),
                     (gen_random_k(20, 6, 1), csr(short)),
                     (r, CsrMatrix.from_arrays(20, 9, [0] * 21, [], [])),  # no entries
                     (csr(np.zeros((5, 0))), CsrMatrix.from_arrays(0, 7, [0], [], []))):
            tables.clear()
            for strategy in ALL_STRATEGIES:
                assert_equals_reference(a, b, strategy)
            assert tables and not any(tables)


@pytest.fixture
def layouts(monkeypatch):
    """For each ``_RowBlocks`` the kernels lay out during the test, whether
    it takes diagonal windows."""
    calls = []

    class Recording(kernels_module._RowBlocks):
        def __init__(self, a, b, strategy):
            super().__init__(a, b, strategy)
            calls.append(self.rank is not None)

    monkeypatch.setattr(kernels_module, "_RowBlocks", Recording)
    return calls


_KEYED = (StrategyKind.SORT, StrategyKind.COMBINED)


class TestDiagonalWindows:
    """``sort`` and ``combined`` give each row one slot per diagonal of the
    product, when that is fewer slots than the touched ranges; every other
    strategy, and any product with more diagonals, keeps column windows.
    Both layouts give the same bits and ``KernelStats``."""

    def test_stencil_takes_them_under_sort_and_combined_only(self, layouts):
        # TestBlockKernel checks the 32 x 32 grid's rowmajor products
        grid = 8
        a = gen_fd(grid)
        a_t = csr_to_csc(a)
        for strategy in ALL_STRATEGIES:
            layouts.clear()
            assert_equals_reference(a, a, strategy)
            got_stats, want_stats = KernelStats(), KernelStats()
            got = multiply_colmajor(a_t, a_t, strategy, got_stats)
            want = rowmajor_reference(transposed(a_t), transposed(a_t), strategy, want_stats)
            assert_csc_bitwise_equal(got, transposed(want))
            assert got_stats == want_stats
            assert set(layouts) == {strategy in _KEYED}
        # 13 slots a row, the sums of two of the diagonals -g, -1, 0, 1 and g
        blocks = kernels_module._RowBlocks(a, a, StrategyKind.SORT)
        assert np.diff(blocks.base).tolist() == [13] * a.rows
        assert len(blocks.rank) == 4 * grid + 1 and np.count_nonzero(blocks.rank) == 12

    def test_one_slot_per_diagonal_in_diagonal_order(self):
        # a's diagonals are -1 and 2, b's 0 and 3, so the product's are -1, 2
        # and 5: 3 slots per row, where the touched ranges span 4 or 7
        a = CsrMatrix.from_arrays(4, 6, [0, 1, 3, 5, 6], [2, 0, 3, 1, 4, 2],
                                  [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        b = csr(np.eye(6, 9) + 2 * np.eye(6, 9, k=3))
        for strategy in _KEYED:
            blocks = kernels_module._RowBlocks(a, b, strategy)
            assert blocks.width.tolist() == [4, 7, 7, 4]
            assert np.diff(blocks.base).tolist() == [3] * 4
            assert blocks.rank[[0, 3, 6]].tolist() == [0, 1, 2]
            assert blocks.columns.tolist() == [-1, 2, 5, 0, 3, 6, 1, 4, 7, 2, 5, 8]
            assert_equals_reference(a, b, strategy)
        out = multiply_rowmajor(a, b, StrategyKind.SORT)
        assert out.col_idx.tolist() == [2, 5, 0, 3, 6, 1, 4, 7, 2, 5]
        assert out.values.tolist() == [1.0, 2.0, 2.0, 7.0, 6.0, 4.0, 13.0, 10.0, 6.0, 12.0]

    def test_one_pattern_reads_its_diagonals_once(self, monkeypatch):
        # perfbench's colmajor cells multiply two conversions of one stencil,
        # and mixed converts b on every call: equal arrays, not the same ones.
        # The stencil is symmetric, so every product is a a, by rows or by columns.
        calls, diagonals = [], kernels_module._diagonals

        def counting(m, limit):
            calls.append(m.rows)
            return diagonals(m, limit)

        monkeypatch.setattr(kernels_module, "_diagonals", counting)
        a = gen_fd(8)
        a_t, b_t = csr_to_csc(a), csr_to_csc(a)
        for strategy in _KEYED:
            want_stats = KernelStats()
            want = rowmajor_reference(a, a, strategy, want_stats)
            for kernel, left, right in ((multiply_colmajor, a_t, b_t),
                                        (multiply_mixed, a, b_t), (multiply_mixed, a_t, a)):
                calls.clear()
                got_stats = KernelStats()
                got = kernel(left, right, strategy, got_stats)
                assert calls == [a.rows]
                if isinstance(got, CsrMatrix):
                    assert_csr_bitwise_equal(got, want)
                else:
                    assert_csc_bitwise_equal(got, transposed(want))
                want_stats.conversions = int(kernel is multiply_mixed)
                assert got_stats == want_stats
        # two banded operands of different patterns read the diagonals of both
        b = csr(np.eye(a.rows) + np.eye(a.rows, k=1))
        calls.clear()
        got = multiply_rowmajor(a, b, StrategyKind.SORT)
        assert calls == [b.rows, a.rows]
        assert_csr_bitwise_equal(got, rowmajor_reference(a, b, StrategyKind.SORT))

    @pytest.mark.parametrize("limit", [1 << 10, 1 << 15])
    def test_combined_on_the_stencil_records_sort_and_scans(self, limit, monkeypatch, sorts,
                                                            scans):
        # Every row's column window, 4g + 1 = 129 slots at g = 32, is at least
        # twice its products, so the rule picks sort for every row, as in the
        # per-row loop; each block's 13-slot diagonal windows hold fewer slots
        # than twice its products, so the mechanism scans them and sorts no key.
        monkeypatch.setattr(kernels_module, "BLOCK_PRODUCTS", limit)
        a = gen_fd(32)
        blocks = kernels_module._RowBlocks(a, a, StrategyKind.COMBINED)
        for stats in (None, KernelStats()):
            scans.clear()
            got = multiply_rowmajor(a, a, StrategyKind.COMBINED, stats)
            assert scans == [13 * (r1 - r0) for r0, r1 in blocks.bounds]
            assert sorts == []
        assert (len(blocks.bounds) > 1) is (limit == 1 << 10)  # 24,456 products
        assert stats.row_choices == [(r, StrategyKind.SORT) for r in range(a.rows)]
        want_stats = KernelStats()
        assert_csr_bitwise_equal(got, rowmajor_reference(a, a, StrategyKind.COMBINED,
                                                         want_stats))
        assert stats.row_choices == want_stats.row_choices


class TestSetBits:
    """``_set_bits`` against unpacking every byte of the field."""

    @pytest.mark.parametrize("words", [
        np.zeros(0, dtype="<u8"),
        np.zeros(7, dtype="<u8"),
        np.full(5, np.iinfo(np.uint64).max, dtype="<u8"),
        np.random.default_rng(3).integers(0, np.iinfo(np.uint64).max, 100, dtype=np.uint64,
                                          endpoint=True).astype("<u8"),
        # one bit in every third word
        ((np.uint64(1) << np.random.default_rng(4).integers(0, 64, 100, dtype=np.uint64))
         * (np.arange(100) % 3 == 0)).astype("<u8"),
        np.array([1 << 63, 0, 1, 1 << 7 | 1 << 8], dtype="<u8"),
    ], ids=["empty", "all-zero", "all-ones", "random", "sparse", "edge-bits"])
    def test_equals_unpacking_every_byte(self, words):
        got = kernels_module._set_bits(words)
        want = np.flatnonzero(np.unpackbits(words.view(np.uint8), bitorder="little"))
        assert got.dtype == np.intp
        assert np.array_equal(got, want)

    @given(st.lists(st.booleans(), max_size=200))
    def test_reads_byte_marks_packed_little_endian(self, marks):
        # bfbool's bit field: its byte lookup packed eight marks to a byte
        mask = np.array(marks, dtype=bool)
        got = kernels_module._set_bits(np.packbits(mask, bitorder="little"))
        assert got.dtype == np.intp
        assert np.array_equal(got, np.flatnonzero(mask))


class TestDistinct:
    """``_distinct`` against ``np.unique``, dtype included."""

    @staticmethod
    def assert_unique(keys, n_slots):
        keys = np.asarray(keys, dtype=np.intp)
        got = kernels_module._distinct(keys, n_slots)
        want = np.unique(keys).astype(np.intp)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("keys", [[], [7], [3, 3, 3, 3]],
                             ids=["empty", "one", "all-duplicates"])
    def test_short_keys(self, keys):
        self.assert_unique(keys, 8)

    @pytest.mark.parametrize("n_slots", [1, 50, 1 << 20, (1 << 31) - 1])
    def test_random_keys_sorted_as_int32(self, n_slots):
        rng = np.random.default_rng(n_slots)
        self.assert_unique(rng.integers(0, n_slots, 1000), n_slots)
        self.assert_unique([n_slots - 1, 0, n_slots - 1], n_slots)

    @pytest.mark.parametrize("n_slots", [(1 << 31) + 1, 1 << 40])
    def test_keys_past_int32_sorted_wide(self, n_slots):
        # a handful of keys: nothing of the block's size is allocated
        keys = [n_slots - 1, 1 << 31, 5, (1 << 31) - 1, n_slots - 1, 5, 0]
        self.assert_unique(keys, n_slots)


def _with_index_dtype(m, dtype):
    """``m`` built directly through its constructor, with its pointer and
    index arrays in ``dtype`` rather than the stored ``uint64``."""
    ptr, idx = (m.row_ptr, m.col_idx) if isinstance(m, CsrMatrix) else (m.col_ptr, m.row_idx)
    return type(m)(m.rows, m.cols, ptr.astype(dtype), idx.astype(dtype), m.values)


class TestIndexDtypes:
    def test_stored_indices_are_read_without_a_copy(self):
        x = np.arange(5, dtype=np.uint64)
        assert _intp(x).dtype == np.intp
        assert np.shares_memory(_intp(x), x)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_directly_built_operands_equal_their_from_arrays_twins(self, dtype):
        # a bare intp view of int32 indices would misread them
        a, b = random_pair(12, n_min=30, n_max=40)
        ac, bc = csr_to_csc(a), csr_to_csc(b)
        a2, b2, ac2, bc2 = (_with_index_dtype(m, dtype) for m in (a, b, ac, bc))
        assert a2.col_idx.dtype == dtype and bc2.row_idx.dtype == dtype
        for strategy in ALL_STRATEGIES:
            for kernel, want_args, got_args, assert_equal in (
                    (multiply_rowmajor, (a, b), (a2, b2), assert_csr_bitwise_equal),
                    (multiply_colmajor, (ac, bc), (ac2, bc2), assert_csc_bitwise_equal),
                    (multiply_mixed, (a, bc), (a2, bc2), assert_csr_bitwise_equal),
                    (multiply_mixed, (ac, b), (ac2, b2), assert_csc_bitwise_equal)):
                got_stats, want_stats = KernelStats(), KernelStats()
                assert_equal(kernel(*got_args, strategy, got_stats),
                             kernel(*want_args, strategy, want_stats))
                assert got_stats == want_stats
        got_stats, want_stats = KernelStats(), KernelStats()
        assert_csr_bitwise_equal(multiply_classic(a2, bc2, got_stats),
                                 multiply_classic(a, bc, want_stats))
        assert got_stats == want_stats
        assert_csc_bitwise_equal(csr_to_csc(a2), ac)
        assert_csr_bitwise_equal(csc_to_csr(ac2), a)


class TestColMajor:
    def test_mirrors_rowmajor(self):
        for seed in (1, 5, 9):
            a, b = random_pair(seed)
            rm = multiply_rowmajor(a, b, StrategyKind.COMBINED)
            cm = multiply_colmajor(csr_to_csc(a), csr_to_csc(b), StrategyKind.COMBINED)
            assert_csc_bitwise_equal(cm, csr_to_csc(rm))

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_identity(self, strategy):
        b = gen_random_k(16, 3, 2)
        out = multiply_colmajor(csr_to_csc(identity_csr(16)), csr_to_csc(b), strategy)
        assert_csc_bitwise_equal(out, csr_to_csc(b))

    def test_annihilator(self):
        zero = csc(np.zeros((4, 4)))
        b = csr_to_csc(gen_random_k(4, 2, 3))
        out = multiply_colmajor(zero, b, StrategyKind.SORT)
        assert out.nnz == 0
        assert out.col_ptr.tolist() == [0, 0, 0, 0, 0]

    def test_stencil_matches_reference(self):
        a = gen_fd(3)
        expected, _ = dense_multiply_reference(a.to_dense(), a.to_dense())
        ac = csr_to_csc(a)
        assert_matches_dense(multiply_colmajor(ac, ac), expected)

    def test_rejects_row_major_operand(self):
        with pytest.raises(TypeError, match="a as a CscMatrix, not a CsrMatrix"):
            multiply_colmajor(csr(np.eye(2)), csr(np.eye(2)))


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
@pytest.mark.parametrize("order", ["rowmajor", "colmajor"])
def test_zero_width_accumulator_gives_empty_product(order, strategy):
    # the accumulator spans b.cols (rowmajor) or a.rows (colmajor) slots,
    # here none, while the driving operand still has nonzero slices
    if order == "rowmajor":
        out = multiply_rowmajor(
            csr(np.ones((3, 2))), CsrMatrix.from_arrays(2, 0, [0, 0, 0], [], []), strategy)
        assert (out.rows, out.cols) == (3, 0)
        assert out.row_ptr.tolist() == [0, 0, 0, 0]
    else:
        out = multiply_colmajor(
            CscMatrix.from_arrays(0, 2, [0, 0, 0], [], []), csc(np.ones((2, 3))), strategy)
        assert (out.rows, out.cols) == (0, 3)
        assert out.col_ptr.tolist() == [0, 0, 0, 0]
    assert out.nnz == 0


class TestClassic:
    def test_identity(self):
        b = gen_random_k(20, 4, 8)
        out = multiply_classic(identity_csr(20), csr_to_csc(b))
        assert_csr_bitwise_equal(out, b)

    def test_matches_scatter_kernel_100_pairs(self):
        for seed in range(100):
            a, b = random_pair(seed, n_max=24)
            expected = multiply_rowmajor(a, b, StrategyKind.COMBINED)
            got = multiply_classic(a, csr_to_csc(b))
            assert_csr_bitwise_equal(got, expected)

    def test_disjoint_sparsity_gives_empty_result(self):
        a = csr([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        b = csc([[0.0, 0.0, 0.0], [4.0, 5.0, 6.0], [0.0, 0.0, 0.0]])
        out = multiply_classic(a, b)
        assert out.nnz == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            multiply_classic(csr(np.ones((2, 3))), csc(np.ones((2, 2))))

    def test_rejects_row_major_right_operand(self):
        with pytest.raises(TypeError, match="b as a CscMatrix, not a CsrMatrix"):
            multiply_classic(csr(np.eye(2)), csr(np.eye(2)))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_merge_reference(self, data):
        m, k, n = (data.draw(st.integers(min_value=0, max_value=6)) for _ in range(3))
        a = data.draw(stored_matrices(m, k))
        b = transposed(data.draw(stored_matrices(n, k)))
        assert_classic_equals_reference(a, b)

    def test_slot_sums_in_k_order(self):
        # 1e16 + 1.0 rounds back to 1e16, so the order of the three
        # additions into the one slot decides the result
        a = csr([[1.0, 1.0, 1.0]])
        for column, expected in (([1e16, 1.0, -1e16], []), ([1e16, -1e16, 1.0], [1.0])):
            b = csc(np.array(column)[:, None])
            assert multiply_classic(a, b).values.tolist() == expected
            assert_classic_equals_reference(a, b)
        # 0 * inf and 1 * nan are NaNs of opposite signs in one slot
        a, b = _NAN_SIGN_OPERANDS
        assert_classic_equals_reference(a, csr_to_csc(b))

    @pytest.mark.parametrize("limits,n_min,n_max", [
        # operands at most 24 wide: blocks of two to a few rows
        pytest.param({"BLOCK_SLOTS": 50}, 4, 24, id="BLOCK_SLOTS-50"),
        # and chunks of b that meet at most 300 pairs
        pytest.param({"BLOCK_SLOTS": 50, "BLOCK_PRODUCTS": 300}, 4, 24,
                     id="BLOCK_PRODUCTS-300"),
        # more than 64 rows: 64-row blocks, the last one ragged
        pytest.param({}, 65, 200, id="64-row-blocks"),
        # and chunks of one entry of b, or a few
        pytest.param({"BLOCK_PRODUCTS": 7}, 65, 200, id="BLOCK_PRODUCTS-7"),
    ])
    def test_product_spanning_several_blocks(self, limits, n_min, n_max, monkeypatch,
                                             appended_blocks):
        for name, value in limits.items():
            monkeypatch.setattr(kernels_module, name, value)
        for seed in (3, 11):
            a, b = random_pair(seed, n_min, n_max)
            appended_blocks.clear()
            assert_classic_equals_reference(a, csr_to_csc(b))
            assert len(appended_blocks) > 1 and sum(appended_blocks) == a.rows

    @pytest.mark.parametrize("limit", [300, 1 << 15])
    def test_chunks_of_b_meet_at_most_block_products(self, limit, monkeypatch,
                                                      appended_blocks):
        # A block whose products fit the limit reads all of b in one pass;
        # any other reads b in chunks, none of which meets more pairs.
        monkeypatch.setattr(kernels_module, "BLOCK_PRODUCTS", limit)
        chunks, set_bits = [], kernels_module._set_bits

        def recording(field):
            bits = set_bits(field)
            chunks.append((len(field), len(bits)))  # (entries of b, pairs met)
            return bits

        monkeypatch.setattr(kernels_module, "_set_bits", recording)
        for a, b in ((gen_fd(16), gen_fd(16)), (gen_random_k(200, 8, 3), gen_random_k(200, 8, 4))):
            chunks.clear()
            appended_blocks.clear()
            assert_classic_equals_reference(a, csr_to_csc(b))
            assert all(pairs <= limit for _, pairs in chunks)
            if limit == 300:  # 64 rows meet 1,600 (fd) or 4,096 (random) pairs
                assert len(chunks) > len(appended_blocks)
            else:
                assert chunks == [(b.nnz, pairs) for _, pairs in chunks]
                assert len(chunks) == len(appended_blocks)

    @pytest.mark.parametrize("grid,slots", [
        pytest.param(32, None, id="sixteen-full-blocks"),  # 1,024 rows of 64-row blocks
        pytest.param(31, None, id="ragged-last-block"),  # 961 rows
        pytest.param(32, 40 * 1024, id="40-row-blocks"),
    ])
    def test_stencil_equals_row_major_reference(self, grid, slots, monkeypatch,
                                                appended_blocks):
        if slots is not None:
            monkeypatch.setattr(kernels_module, "BLOCK_SLOTS", slots)
        a = gen_fd(grid)
        got_stats, want_stats = KernelStats(), KernelStats()
        got = multiply_classic(a, csr_to_csc(a), got_stats)
        want = rowmajor_reference(a, a, StrategyKind.SORT, want_stats)
        assert_csr_bitwise_equal(got, want)
        assert got_stats == want_stats
        rows = min(64, kernels_module.BLOCK_SLOTS // a.cols)
        assert appended_blocks == [min(rows, a.rows - r0) for r0 in range(0, a.rows, rows)]


class TestMixed:
    def test_same_major_does_not_convert(self):
        a, b = random_pair(3)
        stats = KernelStats()
        out = multiply_mixed(a, b, StrategyKind.COMBINED, stats)
        assert stats.conversions == 0
        assert_csr_bitwise_equal(out, multiply_rowmajor(a, b, StrategyKind.COMBINED))
        stats = KernelStats()
        out = multiply_mixed(csr_to_csc(a), csr_to_csc(b), StrategyKind.COMBINED, stats)
        assert stats.conversions == 0

    def test_csr_times_csc_converts_once(self):
        a, b = random_pair(4)
        stats = KernelStats()
        out = multiply_mixed(a, csr_to_csc(b), StrategyKind.COMBINED, stats)
        assert stats.conversions == 1
        assert_csr_bitwise_equal(out, multiply_rowmajor(a, b, StrategyKind.COMBINED))

    def test_csc_times_csr_converts_once(self):
        a, b = random_pair(5)
        stats = KernelStats()
        out = multiply_mixed(csr_to_csc(a), b, StrategyKind.COMBINED, stats)
        assert stats.conversions == 1
        expected = multiply_colmajor(csr_to_csc(a), csr_to_csc(b), StrategyKind.COMBINED)
        assert_csc_bitwise_equal(out, expected)

    @pytest.mark.parametrize("a_order, b_order, conversions", [
        ("csr", "csr", 0), ("csr", "csc", 1), ("csc", "csr", 1), ("csc", "csc", 0)])
    def test_b_is_converted_into_the_order_of_a(self, a_order, b_order, conversions):
        a, b = random_pair(7)
        order = {"csr": lambda m: m, "csc": csr_to_csc}
        stats = KernelStats()
        left = order[a_order](a)
        out = multiply_mixed(left, order[b_order](b), StrategyKind.COMBINED, stats)
        assert stats.conversions == conversions
        assert type(out) is type(left)
        if a_order == "csr":
            assert_csr_bitwise_equal(out, multiply_rowmajor(a, b, StrategyKind.COMBINED))
        else:
            expected = multiply_colmajor(csr_to_csc(a), csr_to_csc(b), StrategyKind.COMBINED)
            assert_csc_bitwise_equal(out, expected)

    def test_result_major_follows_left_operand(self):
        a, b = random_pair(6)
        assert isinstance(multiply_mixed(a, csr_to_csc(b)), type(a))
        assert isinstance(multiply_mixed(csr_to_csc(a), b), type(csr_to_csc(a)))

    @pytest.mark.parametrize("other", [np.zeros((2, 2)), None], ids=["ndarray", "None"])
    def test_rejects_an_operand_in_neither_storage_order(self, other):
        m = csr(np.eye(2))
        name = type(other).__name__
        with pytest.raises(TypeError, match=f"a as a CsrMatrix or CscMatrix, not a {name}"):
            multiply_mixed(other, m)
        with pytest.raises(TypeError, match=f"b as a CsrMatrix or CscMatrix, not a {name}"):
            multiply_mixed(m, other)


class TestStoreRow:
    @staticmethod
    def accumulated(strategy, length=8):
        """Accumulator whose touch order is 7 then 2 then 5, with values
        0.5, 1.0 and -1.0 at those slots."""
        acc = RowAccumulator(length, strategy)
        b_ptr = [0, 1, 2, 3]
        b_idx = [7, 2, 5]
        b_val = [0.5, 1.0, -1.0]
        acc.accumulate([0, 1, 2], [1.0, 1.0, 1.0], b_ptr, b_idx, b_val)
        return acc

    @staticmethod
    def stored_entries(acc, strategy):
        builder = CsrBuilder(1, acc.length, 8)
        store_row(acc, strategy, builder)
        m = builder.finish()
        return list(zip(m.col_idx.tolist(), m.values.tolist()))

    def test_sort_emits_in_column_order(self):
        acc = self.accumulated(StrategyKind.SORT)
        assert acc.touched == [7, 2, 5]
        assert self.stored_entries(acc, StrategyKind.SORT) == [
            (2, 1.0), (5, -1.0), (7, 0.5)]

    def test_minmax_scans_tracked_range(self):
        acc = self.accumulated(StrategyKind.MIN_MAX)
        assert (acc.min_idx, acc.max_idx) == (2, 7)
        assert self.stored_entries(acc, StrategyKind.MIN_MAX) == [
            (2, 1.0), (5, -1.0), (7, 0.5)]

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_every_strategy_emits_the_same_row(self, strategy):
        acc = self.accumulated(strategy)
        assert self.stored_entries(acc, strategy) == [(2, 1.0), (5, -1.0), (7, 0.5)]

    def test_rejects_a_strategy_other_than_the_accumulators(self):
        acc = self.accumulated(StrategyKind.SORT)
        builder = CsrBuilder(1, acc.length, 8)
        with pytest.raises(ValueError, match="accumulator was built for sort, not minmax"):
            store_row(acc, StrategyKind.MIN_MAX, builder)
        assert builder.cursor == 0 and builder.majors_done == 0

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_untouched_row_appends_nothing_and_finalizes(self, strategy):
        acc = RowAccumulator(6, strategy)
        builder = CsrBuilder(1, 6, 4)
        store_row(acc, strategy, builder)
        m = builder.finish()
        assert m.nnz == 0
        assert m.row_ptr.tolist() == [0, 0]

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_accumulator_left_clean(self, strategy):
        acc = self.accumulated(strategy)
        builder = CsrBuilder(1, acc.length, 8)
        store_row(acc, strategy, builder)
        assert all(v == 0.0 for v in acc.dense)
        if acc.lookup is not None:
            assert not any(acc.lookup)
        if acc.lookup_bits is not None:
            assert not any(acc.lookup_bits)
        if acc.touched is not None:
            assert acc.touched == []
        assert acc.min_idx == acc.length
        assert acc.max_idx == -1

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_clean_after_cancelled_entries(self, strategy):
        # slot 1 cancels to exact zero; hygiene must still hold
        acc = RowAccumulator(4, strategy)
        acc.accumulate([0, 1], [1.0, -1.0], [0, 2, 4], [1, 3, 1, 3], [2.0, 1.0, 2.0, -1.0])
        builder = CsrBuilder(1, 4, 4)
        store_row(acc, strategy, builder)
        m = builder.finish()
        assert m.col_idx.tolist() == [3]
        assert m.values.tolist() == [2.0]
        assert all(v == 0.0 for v in acc.dense)
        if acc.lookup is not None:
            assert not any(acc.lookup)
        if acc.lookup_bits is not None:
            assert not any(acc.lookup_bits)


class TestCombinedSelect:
    def test_range_below_twice_the_count_scans(self):
        assert combined_select(10, 6) is StrategyKind.MIN_MAX

    def test_boundary_goes_to_sort(self):
        assert combined_select(12, 6) is StrategyKind.SORT

    def test_single_entry_row_scans(self):
        assert combined_select(1, 1) is StrategyKind.MIN_MAX

    def test_per_row_instrumentation_matches_rule(self):
        for seed in range(10):
            a, b = random_pair(seed)
            stats = KernelStats()
            out = multiply_rowmajor(a, b, StrategyKind.COMBINED, stats)
            ptr = out.row_ptr.tolist()
            idx = out.col_idx.tolist()
            expected = []
            for r in range(out.rows):
                lo, hi = ptr[r], ptr[r + 1]
                if lo == hi:
                    continue
                span = idx[hi - 1] - idx[lo] + 1
                expected.append((r, combined_select(span, hi - lo)))
            assert stats.row_choices == expected


class TestInstrumentation:
    def test_multiplication_counts_agree_across_kernels(self):
        from sparsemm.perfmodel import count_mults

        for seed in (2, 13):
            a, b = random_pair(seed)
            expected = count_mults(a, b).multiplications
            for run in (
                lambda: multiply_rowmajor(a, b, StrategyKind.SORT, stats),
                lambda: multiply_colmajor(csr_to_csc(a), csr_to_csc(b),
                                          StrategyKind.MIN_MAX, stats),
                lambda: multiply_classic(a, csr_to_csc(b), stats),
            ):
                stats = KernelStats()
                run()
                assert stats.multiplications == expected

    def test_reference_reports_the_same_count(self):
        a, b = random_pair(17)
        _, mults = dense_multiply_reference(a.to_dense(), b.to_dense())
        stats = KernelStats()
        multiply_rowmajor(a, b, StrategyKind.COMBINED, stats)
        assert stats.multiplications == mults
