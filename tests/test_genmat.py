import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemm_helpers import assert_csr_bitwise_equal
from sparsemm.formats import csr_to_csc, validate_csr
from sparsemm.genmat import (
    GenSpec,
    SplitMix64,
    fill_row_count,
    gen_fd,
    gen_fill_ratio,
    gen_random_k,
    generate,
    matrix_fingerprint,
)


class TestSplitMix64:
    def test_reference_stream_for_seed_zero(self):
        # canonical first outputs of splitmix64 with seed 0
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_stream_is_deterministic(self):
        a = SplitMix64(99)
        b = SplitMix64(99)
        assert [a.next_u64() for _ in range(16)] == [b.next_u64() for _ in range(16)]

    def test_unit_draws_live_in_half_open_interval(self):
        rng = SplitMix64(5)
        draws = [rng.next_unit() for _ in range(2000)]
        assert all(0.0 < v <= 1.0 for v in draws)

    def test_bounded_draws(self):
        rng = SplitMix64(5)
        assert all(rng.next_below(7) < 7 for _ in range(1000))

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


class TestStencil:
    def test_grid_one_is_pure_diagonal(self):
        m = gen_fd(1)
        assert np.array_equal(m.to_dense(), [[4.0]])

    def test_grid_two_hand_constructed(self):
        m = gen_fd(2)
        validate_csr(m)
        expected = np.array([
            [4.0, -1.0, -1.0, 0.0],
            [-1.0, 4.0, 0.0, -1.0],
            [-1.0, 0.0, 4.0, -1.0],
            [0.0, -1.0, -1.0, 4.0],
        ])
        assert np.array_equal(m.to_dense(), expected)
        assert all(int(m.row_ptr[r + 1] - m.row_ptr[r]) == 3 for r in range(4))

    def test_grid_32_nonzero_count(self):
        # 900 interior points with 5 entries, 120 edge points with 4,
        # 4 corners with 3
        m = gen_fd(32)
        assert m.rows == 1024
        assert m.nnz == 4992

    @pytest.mark.parametrize("grid", [1, 2, 3, 5, 8])
    def test_structurally_symmetric(self, grid):
        pattern = gen_fd(grid).to_dense() != 0.0
        assert np.array_equal(pattern, pattern.T)

    @pytest.mark.parametrize("grid", [1, 2, 4, 7])
    def test_validates(self, grid):
        validate_csr(gen_fd(grid))

    def test_numerically_symmetric(self):
        # the transposed storage of a symmetric matrix carries the same arrays
        m = gen_fd(5)
        t = csr_to_csc(m)
        assert np.array_equal(t.col_ptr, m.row_ptr)
        assert np.array_equal(t.row_idx, m.col_idx)
        assert np.array_equal(t.values, m.values)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            gen_fd(0)


class TestRandom:
    def test_one_by_one_forced_placement(self):
        m = gen_random_k(1, 1, seed=3)
        assert m.row_ptr.tolist() == [0, 1]
        assert m.col_idx.tolist() == [0]
        assert 0.0 < m.values[0] <= 1.0

    def test_deterministic(self):
        assert_csr_bitwise_equal(gen_random_k(40, 5, 42), gen_random_k(40, 5, 42))

    def test_seed_changes_output(self):
        a = gen_random_k(40, 5, 42)
        b = gen_random_k(40, 5, 43)
        assert matrix_fingerprint(a) != matrix_fingerprint(b)

    def test_row_counts_and_validity(self):
        m = gen_random_k(64, 5, 42)
        validate_csr(m)
        assert np.all(np.diff(m.row_ptr) == 5)

    def test_values_in_unit_interval(self):
        m = gen_random_k(64, 5, 42)
        assert np.all(m.values > 0.0)
        assert np.all(m.values <= 1.0)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            gen_random_k(4, 5, 0)

    @given(n=st.integers(min_value=1, max_value=48),
           k=st.integers(min_value=1, max_value=7),
           seed=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_always_valid_and_reproducible(self, n, k, seed):
        k = min(k, n)
        m = gen_random_k(n, k, seed)
        validate_csr(m)
        assert np.all(np.diff(m.row_ptr) == k)
        assert matrix_fingerprint(m) == matrix_fingerprint(gen_random_k(n, k, seed))


class TestFillRatio:
    def test_row_count_rule(self):
        assert fill_row_count(1000, 0.001) == 1
        assert fill_row_count(38000, 0.001) == 38
        assert fill_row_count(500, 0.001) == 1

    def test_matches_fixed_count_generator(self):
        assert_csr_bitwise_equal(gen_fill_ratio(2000, 0.002, 9),
                                 gen_random_k(2000, 4, 9))

    def test_rejects_bad_fill(self):
        with pytest.raises(ValueError):
            gen_fill_ratio(100, 0.0, 1)
        with pytest.raises(ValueError):
            gen_fill_ratio(100, 1.5, 1)


class TestGenSpec:
    def test_dispatch(self):
        assert_csr_bitwise_equal(generate(GenSpec("random", 32, k=5, seed=4)),
                                 gen_random_k(32, 5, 4))
        assert_csr_bitwise_equal(generate(GenSpec("fill", 1000, fill=0.001, seed=4)),
                                 gen_fill_ratio(1000, 0.001, 4))

    def test_fd_snaps_to_square_dimension(self):
        assert generate(GenSpec("fd", 1000)).rows == 1024
        assert generate(GenSpec("fd", 64)).rows == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            GenSpec("bogus", 4)
        with pytest.raises(ValueError):
            GenSpec("random", 4, k=9)
        with pytest.raises(ValueError):
            GenSpec("fill", 4, fill=2.0)
        with pytest.raises(ValueError):
            GenSpec("fd", 0)
