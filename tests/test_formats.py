import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemm_helpers import (
    assert_csc_bitwise_equal,
    assert_csr_bitwise_equal,
    csc,
    csr,
    identity_csr,
)
from sparsemm.formats import (
    BuilderError,
    CapacityError,
    CscMatrix,
    CsrBuilder,
    CsrMatrix,
    OrderingError,
    ValidationError,
    csc_to_csr,
    csr_to_csc,
    estimate_nnz,
    estimate_nnz_csc,
    transposed,
    validate_csc,
    validate_csr,
)
from sparsemm.genmat import gen_fd, gen_random_k
from sparsemm.kernels import dense_multiply_reference
from sparsemm.perfmodel import count_mults, count_mults_via_columns


class TestBuilder:
    def test_single_append_is_pending(self):
        b = CsrBuilder(2, 2, 1)
        b.append(1, 3.0)
        assert b.cursor == 1
        assert b.majors_done == 0

    def test_non_increasing_column_rejected(self):
        b = CsrBuilder(1, 2, 4)
        b.append(0, 1.0)
        with pytest.raises(OrderingError):
            b.append(0, 2.0)

    def test_capacity_overflow_rejected(self):
        b = CsrBuilder(1, 8, 2)
        b.append(0, 1.0)
        b.append(1, 1.0)
        with pytest.raises(CapacityError):
            b.append(2, 1.0)

    def test_column_out_of_range_rejected(self):
        b = CsrBuilder(1, 3, 4)
        with pytest.raises(ValueError):
            b.append(3, 1.0)

    def test_transcription(self):
        b = CsrBuilder(1, 3, 2)
        b.append(0, 1.0)
        b.append(2, 2.0)
        b.finalize_row()
        m = b.finish()
        assert m.row_ptr.tolist() == [0, 2]
        assert m.col_idx.tolist() == [0, 2]
        assert m.values.tolist() == [1.0, 2.0]

    def test_empty_rows_allowed(self):
        b = CsrBuilder(2, 2, 0)
        b.finalize_row()
        b.finalize_row()
        m = b.finish()
        assert m.nnz == 0
        assert m.row_ptr.tolist() == [0, 0, 0]

    def test_extra_finalize_rejected(self):
        b = CsrBuilder(1, 1, 1)
        b.append(0, 1.0)
        b.finalize_row()
        with pytest.raises(BuilderError):
            b.finalize_row()

    def test_finish_requires_all_rows(self):
        b = CsrBuilder(2, 2, 1)
        b.finalize_row()
        with pytest.raises(BuilderError):
            b.finish()

    def test_appends_after_last_row_detected(self):
        b = CsrBuilder(1, 4, 4)
        b.append(0, 1.0)
        b.finalize_row()
        b.append(1, 1.0)
        with pytest.raises(BuilderError):
            b.finish()

    def test_new_row_may_restart_columns(self):
        b = CsrBuilder(2, 2, 2)
        b.append(1, 1.0)
        b.finalize_row()
        b.append(0, 2.0)
        b.finalize_row()
        validate_csr(b.finish())

    def test_append_rows_equals_append_and_finalize(self):
        rows = [[(1, 1.0), (3, 2.0)], [], [(0, 3.0)], [(2, -1.0), (3, 4.0)]]
        one_by_one = CsrBuilder(5, 4, 6)
        for row in rows:
            for c, v in row:
                one_by_one.append(c, v)
            one_by_one.finalize_row()
        one_by_one.finalize_row()
        batched = CsrBuilder(5, 4, 6)
        batched.append_rows([2, 0], [1, 3], [1.0, 2.0])
        batched.append_rows([1, 2, 0], [0, 2, 3], [3.0, -1.0, 4.0])
        assert_csr_bitwise_equal(batched.finish(), one_by_one.finish())

    def test_every_nan_is_stored_as_the_canonical_quiet_nan(self):
        # negative, signalling and payload-carrying NaNs, between finite values
        nans = np.array([0xFFF8000000000000, 0x7FF0000000000001, 0x7FF8000000000123],
                        dtype=np.uint64).view(np.float64)
        values = np.array([1.0, *nans, -2.0])
        canonical = np.array([1.0, np.nan, np.nan, np.nan, -2.0]).tobytes()
        one_by_one = CsrBuilder(1, 5, 5)
        for c, v in enumerate(values):
            one_by_one.append(c, v)
        one_by_one.finalize_row()
        batched = CsrBuilder(1, 5, 5)
        batched.append_rows([5], range(5), values)
        for built in (one_by_one.finish(), batched.finish()):
            assert built.values.tobytes() == canonical
        # the caller's array keeps its NaNs
        assert values[1:4].tobytes() == nans.tobytes()

    @staticmethod
    def assert_rejected_unchanged(builder, error, counts, idx, values):
        before = (builder.cursor, builder.majors_done, builder._ptr.tolist())
        with pytest.raises(error):
            builder.append_rows(counts, idx, values)
        assert (builder.cursor, builder.majors_done, builder._ptr.tolist()) == before

    def test_append_rows_column_out_of_range_rejected(self):
        self.assert_rejected_unchanged(CsrBuilder(2, 3, 4), ValueError,
                                       [1, 1], [0, 3], [1.0, 1.0])

    def test_append_rows_non_increasing_column_rejected(self):
        b = CsrBuilder(3, 4, 8)
        # a row may restart its columns where the previous row ended
        b.append_rows([2, 1], [1, 3, 0], [1.0, 1.0, 1.0])
        for idx in ([2, 2], [3, 1]):
            self.assert_rejected_unchanged(b, OrderingError, [2], idx, [1.0, 1.0])
        self.assert_rejected_unchanged(b, OrderingError, [1], [-1], [1.0])

    def test_append_rows_capacity_overflow_rejected(self):
        b = CsrBuilder(3, 8, 3)
        b.append_rows([2], [0, 1], [1.0, 1.0])
        self.assert_rejected_unchanged(b, CapacityError, [1, 1], [0, 1], [1.0, 1.0])

    def test_append_rows_more_rows_than_remain_rejected(self):
        b = CsrBuilder(2, 2, 2)
        b.finalize_row()
        self.assert_rejected_unchanged(b, BuilderError, [0, 0], [], [])

    def test_append_rows_after_open_row_rejected(self):
        b = CsrBuilder(2, 4, 4)
        b.append(1, 1.0)
        with pytest.raises(BuilderError):
            b.append_rows([1], [2], [1.0])
        b.finalize_row()
        b.append_rows([1], [0], [1.0])
        validate_csr(b.finish())

    def test_append_rows_rejects_non_integer_indices(self):
        for counts, idx in (([1], [0.5]), ([1], np.array([1.0])), ([1], ["1"]),
                            ([1.5], [0])):
            self.assert_rejected_unchanged(CsrBuilder(1, 3, 2), ValueError, counts, idx, [1.0])

    def test_append_rejects_a_non_integer_index(self):
        b = CsrBuilder(1, 3, 2)
        for idx in (1.5, np.float64(1.0), "1", True):
            with pytest.raises(ValueError, match="index must be an integer"):
                b.append(idx, 2.0)
        assert b.cursor == 0
        b.append(np.uint64(1), 2.0)
        b.append(2, 3.0)
        b.finalize_row()
        assert b.finish().col_idx.tolist() == [1, 2]

    @pytest.mark.parametrize("sizes, message", [
        ((-1, 2, 0), "dimensions and capacity must be non-negative"),
        ((2, 2, -1), "dimensions and capacity must be non-negative"),
        ((2, 2, 1.5), "capacity must be an integer, not float"),
        ((2.0, 2, 1), "rows must be an integer, not float"),
        ((2, np.float64(2), 1), "cols must be an integer, not float64"),
        ((2, "2", 1), "cols must be an integer, not str"),
    ])
    def test_bad_sizes_are_rejected(self, sizes, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CsrBuilder(*sizes)

    def test_numpy_integer_sizes_are_accepted(self):
        b = CsrBuilder(np.int64(1), np.uint32(2), np.intp(1))
        b.append(1, 2.0)
        b.finalize_row()
        assert b.finish().to_dense().tolist() == [[0.0, 2.0]]

    def test_append_rows_accepts_empty_untyped_indices(self):
        b = CsrBuilder(3, 2, 0)
        b.append_rows([0], (), ())
        b.append_rows([0], [], [])
        b.append_rows([], [], [])
        b.append_rows(np.array([0], dtype=np.uint8), [], [])
        assert b.finish().row_ptr.tolist() == [0, 0, 0, 0]

    def test_committing_the_room_equals_appending_copies(self):
        # negative, signalling and payload-carrying NaNs among finite values
        nans = np.array([0xFFF8000000000000, 0x7FF0000000000001, 0x7FF8000000000123],
                        dtype=np.uint64).view(np.float64)
        counts, idx = [2, 0, 3], [1, 4, 0, 2, 3]
        values = np.array([1.0, nans[0], -2.0, nans[1], nans[2]])
        in_place = CsrBuilder(4, 5, 8)
        in_place.append_rows([1], [2], [7.0])
        room_idx, room_val = in_place._room()
        assert room_idx.dtype == np.intp and len(room_idx) == len(room_val) == 7
        room_idx[:5], room_val[:5] = idx, values
        in_place.append_rows(counts, room_idx[:5], room_val[:5])
        copied = CsrBuilder(4, 5, 8)
        copied.append_rows([1], [2], [7.0])
        copied.append_rows(counts, np.array(idx), values.copy())
        got = in_place.finish()
        assert_csr_bitwise_equal(got, copied.finish())
        assert got.values.tobytes() == np.array([7.0, 1.0, np.nan, -2.0, np.nan,
                                                 np.nan]).tobytes()

    @pytest.mark.parametrize("case, error", [
        ("out-of-order", OrderingError),
        ("out-of-range", ValueError),
        ("too-many-rows", BuilderError),
        ("over-capacity", CapacityError),
    ])
    def test_rejected_room_commit_raises_as_copies_do(self, case, error):
        # Each builder holds one committed row of two entries. The room a
        # kernel took before that commit still covers the whole reservation,
        # so only that stale room holds more entries than remain.
        for in_place in (True, False):
            b = CsrBuilder(3, 5, 6)
            stale_idx, stale_val = b._room()
            b.append_rows([2], [0, 3], [1.0, 2.0])
            room_idx, room_val = b._room()
            counts, n = {"out-of-order": ([3], 3), "out-of-range": ([2], 2),
                         "too-many-rows": ([1, 0, 0], 1), "over-capacity": ([2, 3], 5)}[case]
            if case == "over-capacity":  # the committed row again, then one more
                room_idx, room_val = stale_idx, stale_val
                room_idx[2:5], room_val[2:5] = [0, 1, 2], 1.0
            else:
                room_idx[:n] = {"out-of-order": [1, 3, 2], "out-of-range": [0, 5],
                                "too-many-rows": [4]}[case]
                room_val[:n] = 1.0
            idx, val = room_idx[:n], room_val[:n]
            if not in_place:
                idx, val = idx.copy(), val.copy()
            with pytest.raises(error) as info:
                b.append_rows(counts, idx, val)
            assert type(info.value) is error
            assert (b.cursor, b.majors_done) == (2, 1)
            b.append_rows([1, 0], [4], [3.0])
            assert b.finish().to_dense().tolist() == [[1.0, 0, 0, 2.0, 0], [0] * 4 + [3.0],
                                                      [0] * 5]

    def test_append_rows_rejects_arrays_that_are_not_one_dimensional(self):
        for counts, idx, values in ((2, [0, 1], [1.0, 2.0]), ([[1, 1]], [0, 1], [1.0, 2.0]),
                                    ([1], [0], [[1.0]]), ([1], [[0]], [1.0])):
            b = CsrBuilder(2, 2, 2)
            with pytest.raises(ValueError, match="must be one-dimensional"):
                b.append_rows(counts, idx, values)
            assert (b.cursor, b.majors_done) == (0, 0)

    def test_append_rows_lengths_must_agree(self):
        for counts, idx, values in (([2], [0], [1.0]), ([1], [0], [1.0, 2.0]),
                                    ([2, -1], [0], [1.0])):
            self.assert_rejected_unchanged(CsrBuilder(2, 2, 2), ValueError,
                                           counts, idx, values)

    @given(n=st.integers(min_value=1, max_value=40),
           k=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_builder_output_always_valid(self, n, k, seed):
        validate_csr(gen_random_k(n, min(k, n), seed))


class TestValidate:
    def test_accepts_good_matrix(self):
        validate_csr(csr([[1.0, 0.0], [0.0, 2.0]]))

    def test_rejects_nonzero_start(self):
        m = CsrMatrix(1, 1, np.array([1, 1], dtype=np.uint64),
                      np.array([0], dtype=np.uint64), np.array([1.0]))
        with pytest.raises(ValidationError):
            validate_csr(m)

    def test_rejects_bad_total(self):
        m = CsrMatrix(1, 2, np.array([0, 2], dtype=np.uint64),
                      np.array([0], dtype=np.uint64), np.array([1.0]))
        with pytest.raises(ValidationError):
            validate_csr(m)

    def test_rejects_unsorted_columns(self):
        m = CsrMatrix(1, 3, np.array([0, 2], dtype=np.uint64),
                      np.array([2, 0], dtype=np.uint64), np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            validate_csr(m)

    def test_rejects_duplicate_columns(self):
        m = CsrMatrix(1, 3, np.array([0, 2], dtype=np.uint64),
                      np.array([1, 1], dtype=np.uint64), np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            validate_csr(m)

    def test_rejects_out_of_range_column(self):
        m = CsrMatrix(1, 2, np.array([0, 1], dtype=np.uint64),
                      np.array([2], dtype=np.uint64), np.array([1.0]))
        with pytest.raises(ValidationError):
            validate_csr(m)

    def test_rejects_wrong_value_dtype(self):
        m = CsrMatrix(1, 2, np.array([0, 1], dtype=np.uint64),
                      np.array([0], dtype=np.uint64),
                      np.array([1.0], dtype=np.float32))
        with pytest.raises(ValidationError):
            validate_csr(m)

    @pytest.mark.parametrize("idx, values, message", [
        (np.array([0], dtype=np.int64), np.array([1.0]),
         "index arrays must be 64-bit unsigned integers"),
        (np.array([0], dtype=np.uint64), np.array([1.0, 2.0]),
         "index and value arrays differ in length"),
    ], ids=["signed-indices", "length-mismatch"])
    def test_rejects_directly_built_arrays(self, idx, values, message):
        m = CsrMatrix(1, 2, np.array([0, 1], dtype=np.uint64), idx, values)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            validate_csr(m)

    def test_rejects_decreasing_pointer(self):
        m = CsrMatrix(2, 2, np.array([0, 2, 1], dtype=np.uint64),
                      np.array([0], dtype=np.uint64), np.array([1.0]))
        with pytest.raises(ValidationError, match="decreases at row 1"):
            validate_csr(m)

    def test_columns_restart_at_each_row(self):
        m = CsrMatrix(3, 3, np.array([0, 2, 2, 4], dtype=np.uint64),
                      np.array([1, 2, 0, 2], dtype=np.uint64), np.ones(4))
        validate_csr(m)
        m = CsrMatrix(3, 3, np.array([0, 2, 2, 4], dtype=np.uint64),
                      np.array([1, 2, 2, 0], dtype=np.uint64), np.ones(4))
        with pytest.raises(ValidationError, match="not strictly increasing in row 2"):
            validate_csr(m)

    def test_from_arrays_rejects_unsorted_indices(self):
        # kernels rely on sorted slices: the range strategies once turned
        # this operand into an empty product
        with pytest.raises(ValidationError):
            CsrMatrix.from_arrays(1, 3, [0, 2], [2, 0], [1.0, 1.0])
        with pytest.raises(ValidationError):
            CscMatrix.from_arrays(3, 1, [0, 2], [2, 0], [1.0, 1.0])

    def test_from_arrays_rejects_what_validate_rejects(self):
        for args in ((1, 2, [0, 1], [2], [1.0]),  # index out of range
                     (1, 2, [1, 1], [0], [1.0]),  # pointer not starting at 0
                     (1, 2, [0, 2], [0], [1.0]),  # pointer total off
                     (2, 2, [0, 1], [0], [1.0])):  # pointer too short
            with pytest.raises(ValidationError):
                CsrMatrix.from_arrays(*args)
            with pytest.raises(ValidationError):
                CscMatrix.from_arrays(args[1], args[0], *args[2:])

    @pytest.mark.parametrize("rows, cols, ptr, idx, values", [
        pytest.param(1, -2, [0, 0], [], [], id="negative-cols"),
        pytest.param(-1, 2, [], [], [], id="negative-rows"),
        pytest.param(1, 2, [0, 1], [0.5], [1.0], id="fractional-index"),
        pytest.param(1, 2, [0, 1], ["1"], [1.0], id="string-index"),
        pytest.param(1, 2, [0, 1], [-1], [1.0], id="negative-index"),
        pytest.param(1, 2, [[0], [1]], [0], [1.0], id="two-dimensional-pointer"),
    ])
    @pytest.mark.parametrize("order", ["csr", "csc"])
    def test_from_arrays_rejects_bad_boundaries(self, order, rows, cols, ptr, idx, values):
        # CSR arguments, and the same arrays as the CSC matrix of the transpose
        with pytest.raises(ValidationError):
            if order == "csr":
                CsrMatrix.from_arrays(rows, cols, ptr, idx, values)
            else:
                CscMatrix.from_arrays(cols, rows, ptr, idx, values)

    def test_negative_dimension_is_named(self):
        with pytest.raises(ValidationError, match="negative dimension -2"):
            CsrMatrix.from_arrays(1, -2, [0, 0], [], [])
        with pytest.raises(ValidationError, match="negative dimension -3"):
            CscMatrix.from_arrays(-3, 1, [0, 0], [], [])
        with pytest.raises(ValidationError, match="negative dimension -1"):
            validate_csr(CsrMatrix(-1, 2, np.array([], dtype=np.uint64),
                                   np.array([], dtype=np.uint64), np.array([])))

    @pytest.mark.parametrize("size", [2.0, True, np.float64(2), "2", None],
                             ids=["float", "bool", "numpy-float", "str", "none"])
    @pytest.mark.parametrize("order", ["csr", "csc"])
    def test_non_integer_dimensions_are_rejected(self, order, size):
        cls, validate = (CsrMatrix, validate_csr) if order == "csr" else (CscMatrix, validate_csc)
        arrays = (np.array([0, 1, 2], dtype=np.uint64), np.array([0, 1], dtype=np.uint64),
                  np.array([1.0, 2.0]))
        for dims in ((size, 2), (2, size)):
            with pytest.raises(ValidationError, match="dimensions must be integers"):
                cls.from_arrays(*dims, *arrays)
            with pytest.raises(ValidationError, match="dimensions must be integers"):
                validate(cls(*dims, *arrays))

    def test_numpy_integer_dimensions_are_accepted(self):
        for cls in (CsrMatrix, CscMatrix):
            m = cls.from_arrays(np.int64(2), np.uint32(2), [0, 1, 2], [0, 1], [1.0, 2.0])
            assert np.array_equal(m.to_dense(), np.diag([1.0, 2.0]))

    def test_from_arrays_accepts_any_integer_dtype_and_copies(self):
        ptr, idx = np.array([0, 1], dtype=np.int32), np.array([1], dtype=np.uint8)
        m = CsrMatrix.from_arrays(1, 2, ptr, idx, [1.0])
        ptr[1] = 0
        assert m.row_ptr.tolist() == [0, 1] and m.col_idx.dtype == np.uint64
        assert np.array_equal(m.to_dense(), [[0.0, 1.0]])

    def test_csc_mirror(self):
        validate_csc(csr_to_csc(csr([[1.0, 2.0], [0.0, 3.0]])))

    def test_matrices_are_immutable(self):
        m = csr([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError):
            m.values[0] = 9.0


class TestEstimate:
    def test_identity_times_identity(self):
        eye = identity_csr(3)
        assert estimate_nnz(eye, eye) == 3

    def test_stencil_squared(self):
        a = gen_fd(2)
        # every row and column holds 3 entries, so each of the 4 shared
        # indices contributes 3 * 3
        assert estimate_nnz(a, a) == 36

    def test_never_below_true_product_size(self):
        a = gen_random_k(64, 5, 42)
        b = gen_random_k(64, 5, 43)
        product, _ = dense_multiply_reference(a.to_dense(), b.to_dense())
        assert estimate_nnz(a, b) >= np.count_nonzero(product)

    def test_identity_is_exact(self):
        b = gen_random_k(32, 5, 7)
        eye = identity_csr(32)
        assert estimate_nnz(eye, b) == b.nnz
        assert estimate_nnz(b, eye) == b.nnz

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            estimate_nnz(identity_csr(3), identity_csr(4))

    def test_csc_mirror_same_value(self):
        a = gen_random_k(24, 4, 1)
        b = gen_random_k(24, 4, 2)
        assert estimate_nnz_csc(csr_to_csc(a), csr_to_csc(b)) == estimate_nnz(a, b)


class TestConversion:
    def test_diagonal(self):
        out = csr_to_csc(csr([[1.0, 0.0], [0.0, 2.0]]))
        assert out.col_ptr.tolist() == [0, 1, 2]
        assert out.row_idx.tolist() == [0, 1]
        assert out.values.tolist() == [1.0, 2.0]

    def test_hand_transcribed_rectangle(self):
        a = csr([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
        out = csr_to_csc(a)
        assert out.col_ptr.tolist() == [0, 1, 2, 3]
        assert out.row_idx.tolist() == [0, 1, 0]
        assert out.values.tolist() == [1.0, 3.0, 2.0]

    def test_round_trip_bit_identical_100_seeds(self):
        for seed in range(100):
            a = gen_random_k(16 + seed % 17, 3, seed)
            assert_csr_bitwise_equal(csc_to_csr(csr_to_csc(a)), a)

    def test_preserves_dense_view(self):
        a = gen_random_k(20, 4, 5)
        assert np.array_equal(csr_to_csc(a).to_dense(), a.to_dense())

    def test_empty_matrix(self):
        a = csr(np.zeros((3, 4)))
        out = csr_to_csc(a)
        assert out.nnz == 0
        assert out.col_ptr.tolist() == [0, 0, 0, 0, 0]
        assert_csr_bitwise_equal(csc_to_csr(out), a)

    @given(n=st.integers(min_value=1, max_value=32),
           k=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=2**32),
           rows=st.integers(min_value=0, max_value=12),
           cols=st.integers(min_value=0, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, n, k, seed, rows, cols):
        rng = np.random.default_rng(seed)
        operands = [gen_random_k(n, min(k, n), seed)]
        for shape in ((rows, cols), (0, n), (n, 0)):
            dense = np.where(rng.random(shape) < 0.3, rng.standard_normal(shape), 0.0)
            operands.append(csr(dense))
        for a in operands:
            converted = csr_to_csc(a)
            validate_csc(converted)
            assert_csc_bitwise_equal(converted, CscMatrix.from_dense(a.to_dense()))
            assert_csr_bitwise_equal(csc_to_csr(converted), a)

    @pytest.mark.parametrize("cols", [1 << 16, (1 << 16) + 1])
    def test_either_side_of_the_16_bit_sort_keys(self, cols):
        # Up to 2^16 columns the keys are sorted as uint16, past it as intp.
        # Column 2^16 - 1 is the largest 16-bit key; column 2^16, in the
        # wider matrix only, would wrap to 0 as a 16-bit key.
        dense = np.zeros((5, cols))
        for column in (0, 1, cols // 2, (1 << 16) - 1, cols - 1):
            dense[:, column] = np.arange(1.0, 6.0) * (column + 1)
        dense[1, cols - 1] = dense[3, 0] = 0.0
        a = csr(dense)
        converted = csr_to_csc(a)
        validate_csc(converted)
        assert_csc_bitwise_equal(converted, CscMatrix.from_dense(dense))
        assert np.array_equal(converted.to_dense(), dense)
        assert_csr_bitwise_equal(csc_to_csr(converted), a)


class TestDenseBridge:
    def test_from_dense_round_trip(self):
        dense = np.array([[0.0, 1.5, 0.0], [2.0, 0.0, -3.0]])
        assert np.array_equal(csr(dense).to_dense(), dense)

    def test_csc_from_dense_round_trip(self):
        dense = np.array([[0.0, 1.5], [2.0, 0.0], [0.0, 4.0]])
        m = CscMatrix.from_dense(dense)
        validate_csc(m)
        assert np.array_equal(m.to_dense(), dense)

    @pytest.mark.parametrize("cls", [CsrMatrix, CscMatrix])
    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2), (1, 2, 3), ()])
    def test_from_dense_names_a_shape_that_is_not_two_dimensional(self, shape, cls):
        # the shape as given, also where CscMatrix transposes it
        with pytest.raises(ValueError, match=rf"shape {re.escape(str(shape))}"):
            cls.from_dense(np.ones(shape))

    @pytest.mark.parametrize("dense", [
        np.array([[0.0, 1.5, 0.0, -0.0], [2.0, 0.0, -3.0, 0.0], [0.0, 0.0, 0.0, 0.0]]),
        np.array([[np.nan, -0.0, np.inf], [0.0, -np.inf, 0.0]]),
        np.array([[0.0, 7.0], [-0.0, 0.0], [5e-324, 0.0], [0.0, -1e308]]),
        np.zeros((0, 3)),
        np.zeros((3, 0)),
        np.zeros((0, 0)),
    ], ids=["rectangular", "signed-zero-and-non-finite", "tall", "0x3", "3x0", "0x0"])
    def test_from_dense_equals_entry_by_entry_build(self, dense):
        got = CsrMatrix.from_dense(dense)
        validate_csr(got)
        assert_csr_bitwise_equal(got, _from_dense_by_entry(dense))
        assert (got.row_ptr.dtype, got.col_idx.dtype, got.values.dtype) == (
            np.uint64, np.uint64, np.float64)


def _from_dense_by_entry(dense) -> CsrMatrix:
    """``CsrMatrix.from_dense`` one entry at a time through
    ``CsrBuilder.append``: every entry that compares unequal to zero, NaN
    included, in row-major order."""
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = dense.shape
    builder = CsrBuilder(rows, cols, int(np.count_nonzero(dense)))
    for r in range(rows):
        for c in np.nonzero(dense[r])[0]:
            builder.append(int(c), float(dense[r, c]))
        builder.finalize_row()
    return builder.finish()


_CSR, _CSC = csr(np.eye(2)), csc(np.eye(2))


@pytest.mark.parametrize("call, message", [
    (lambda: csr_to_csc(_CSC), "csr_to_csc needs a as a CsrMatrix, not a CscMatrix"),
    (lambda: csc_to_csr(_CSR), "csc_to_csr needs a as a CscMatrix, not a CsrMatrix"),
    (lambda: estimate_nnz(_CSC, _CSC), "estimate_nnz needs a as a CsrMatrix, not a CscMatrix"),
    (lambda: estimate_nnz(_CSR, _CSC), "estimate_nnz needs b as a CsrMatrix, not a CscMatrix"),
    (lambda: estimate_nnz_csc(_CSR, _CSR),
     "estimate_nnz_csc needs a as a CscMatrix, not a CsrMatrix"),
    (lambda: count_mults(_CSC, _CSR), "count_mults needs a as a CsrMatrix, not a CscMatrix"),
    (lambda: count_mults_via_columns(_CSR, _CSC),
     "count_mults_via_columns needs b as a CsrMatrix, not a CscMatrix"),
    (lambda: validate_csr(_CSC), "validate_csr needs m as a CsrMatrix, not a CscMatrix"),
    (lambda: validate_csc(_CSR), "validate_csc needs m as a CscMatrix, not a CsrMatrix"),
    (lambda: transposed(np.eye(2)),
     "transposed needs m as a CsrMatrix or CscMatrix, not a ndarray"),
], ids=["csr_to_csc", "csc_to_csr", "estimate_nnz-a", "estimate_nnz-b", "estimate_nnz_csc",
        "count_mults", "count_mults_via_columns", "validate_csr", "validate_csc", "transposed"])
def test_wrong_storage_order_is_a_type_error_naming_the_function(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()
