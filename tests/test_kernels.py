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
    only empty rows of ``b``. Values are small integers and zeros, so sums
    cancel exactly, and, in some draws, infinities and NaN."""
    m, k, n = (draw(st.integers(min_value=0, max_value=max_dim)) for _ in range(3))
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

    a_mask, b_mask = stored(m, k), stored(k, n)
    lonely = rng.random(m) < draw(fraction)  # rows that meet only empty rows of b
    a_mask[np.ix_(lonely, b_mask.any(axis=1))] = False
    return matrix(a_mask), matrix(b_mask)


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
    def test_equals_per_row_reference_on_stencil(self, strategy):
        # the 5-point stencil squared at n = 1024 (a 32 x 32 grid): 1,024
        # rows, far more than the random and hypothesis operands above
        a = gen_fd(32)
        assert a.rows == 1024
        assert_equals_reference(a, a, strategy)

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
            for r0, r1 in blocks.bounds():
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
        bounds = list(blocks.bounds())
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
        blocks = kernels_module._RowBlocks(a, b, StrategyKind.COMBINED)
        assert blocks.undecided.tolist() == [False, True, True, False, False]
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
        # are undecided, so a block holding one of them is scanned, and row 3
        # picks sort by the product bound: only row 3, as a block of its own,
        # sorts its 2 keys, with or without stats.
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
    def test_combined_sorts_only_blocks_without_an_undecided_row(self, limit, monkeypatch,
                                                                 sorts):
        monkeypatch.setattr(kernels_module, "BLOCK_SLOTS", limit)
        scans, nonzero = [], kernels_module._nonzero

        def scanning(dense, n_slots):
            scans.append(n_slots)
            return nonzero(dense, n_slots)

        monkeypatch.setattr(kernels_module, "_nonzero", scanning)
        for seed in (3, 11, 40):
            a, b = random_pair(seed)
            blocks = kernels_module._RowBlocks(a, b, StrategyKind.COMBINED)
            scanned = [blocks.base[r1] - blocks.base[r0] for r0, r1 in blocks.bounds()
                       if blocks.undecided[r0:r1].any()]
            for stats in (None, KernelStats()):
                sorts.clear()
                scans.clear()
                multiply_rowmajor(a, b, StrategyKind.COMBINED, stats)
                assert scans == scanned
                if stats is None:
                    assert len(sorts) == len(list(blocks.bounds())) - len(scanned)

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
                       for r0, r1 in blocks.bounds())
            out = CsrBuilder(a.rows, b.cols, blocks.mults)
            counts, (idx, val) = np.empty(a.rows, dtype=np.intp), out._room()
            for r0, r1 in blocks.bounds():  # each block leaves its state clear
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
        # rows wider than a block.
        a, b = operands
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels_module, "BLOCK_SLOTS", slots)
            patch.setattr(kernels_module, "BLOCK_PRODUCTS", products)
            for strategy in ALL_STRATEGIES:
                assert_equals_reference(a, b, strategy)
            got_stats, want_stats = KernelStats(), KernelStats()
            got = multiply_classic(a, csr_to_csc(b), got_stats)
        assert_csr_bitwise_equal(got, rowmajor_reference(a, b, StrategyKind.SORT, want_stats))
        assert got_stats == want_stats

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
            for r0, r1 in blocks.bounds():
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
        # and chunks of four entries of b (BLOCK_PRODUCTS // 64)
        pytest.param({"BLOCK_SLOTS": 50, "BLOCK_PRODUCTS": 300}, 4, 24,
                     id="BLOCK_PRODUCTS-300"),
        # more than 64 rows: 64-row blocks, the last one ragged
        pytest.param({}, 65, 200, id="64-row-blocks"),
        # and chunks of one entry of b
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
