import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsemm_helpers import assert_csr_bitwise_equal, random_k_reference
from sparsemm.formats import csr_to_csc, validate_csr
from sparsemm.genmat import (
    GenSpec,
    SplitMix64,
    _splitmix64_outputs,
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

    def test_takes_numpy_integers(self):
        assert SplitMix64(5).next_below(np.int64(7)) == SplitMix64(5).next_below(7)
        for seed in (np.int64(-1), np.uint64(5)):
            assert SplitMix64(seed).next_u64() == SplitMix64(int(seed)).next_u64()

    # 2**64 - gamma makes the first state wrap to exactly 0
    @pytest.mark.parametrize("seed", [0, 1, -1, 2**64 - 1, 2**64, 2**64 - 0x9E3779B97F4A7C15])
    @pytest.mark.parametrize("start", [0, 1, 1000])
    def test_bulk_stream_matches_next_u64(self, seed, start):
        rng = SplitMix64(seed)
        for _ in range(start):
            rng.next_u64()
        expected = [rng.next_u64() for _ in range(64)]
        got = _splitmix64_outputs(seed, start, 64)
        assert got.dtype == np.uint64
        assert got.tolist() == expected


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

    @pytest.mark.parametrize("grid, fingerprint", [
        (1, "0292673f18818a05b3528c40ee114a9b9d550cd29800a6980e42a004dfd2e91c"),
        (2, "fe3dbe75acbd06094e6af5b0b269fbee6871841afd0f6a3a5624dd60f0b662c9"),
        (3, "c0953ba3b6717c0f87474563e69e6354b45a0c0ec606e28a476e4cb3ff5326e7"),
        (32, "3106b68501ba8ba7671cd7d09efb0523ad131e80ea1d2df5cb3d970f88d4bc65"),
        (128, "38a9775eb512598843ded316d303456ec907e86b2cd62ebfe947919ed2a588ad"),
    ])
    def test_pinned_fingerprints(self, grid, fingerprint):
        # fixed bits, so that a rewrite of the generator cannot change them
        assert matrix_fingerprint(gen_fd(grid)) == fingerprint

    def test_fingerprint_of_a_csc_matrix_is_a_type_error(self):
        # the bytes hashed are CSR's; a CscMatrix has no row_ptr to read
        with pytest.raises(TypeError, match="matrix_fingerprint needs m as a CsrMatrix, "
                                            "not a CscMatrix"):
            matrix_fingerprint(csr_to_csc(gen_fd(3)))

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

    @pytest.mark.parametrize("n, k, seed, fingerprint", [
        (1, 1, 3, "91ebfa7cbfdeafaa2d4fcd975fc297ca3df7e84d3eb76cb36341f17c4dc8158b"),
        (40, 5, 42, "cb761076ad53e061ed11abd460db42222e669f11d788c3377cd23223cb993b17"),
        # random-1024-k32's operands A and B at seed 0
        (1024, 32, 0, "01c738033511ce442bdd6d5800e155f2d3a504e2450cdc4843ad212d57cda3a6"),
        (1024, 32, 1, "0773e8fa9b8d04f56dc898ba2216eadb092b35ad91fe5d0bdd441e3d90d61f76"),
        # perfbench's default operands: seed 7 and seed + 1
        (1024, 32, 7, "70e1b91448f53552b17ecba341822499a5b645ca347b4e65ad6d438c6a785708"),
        (1024, 32, 8, "f60f73f1974b1938458acfd89795ab5f14994b181d5be6995e81ab23a56d8f54"),
    ])
    def test_pinned_fingerprints(self, n, k, seed, fingerprint):
        # fixed bits, so that a rewrite of the generator cannot change them
        assert matrix_fingerprint(gen_random_k(n, k, seed)) == fingerprint

    def test_takes_numpy_integers(self):
        assert matrix_fingerprint(gen_random_k(np.int64(40), np.int64(5), 42)) == (
            matrix_fingerprint(gen_random_k(40, 5, 42)))
        assert matrix_fingerprint(gen_random_k(40, 5, np.int64(-1))) == (
            matrix_fingerprint(gen_random_k(40, 5, -1)))

    # k = n makes the rows redraw far more than twice per entry, so the
    # stream has to be extended
    @given(nk=st.integers(min_value=1, max_value=64).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n))),
           seed=st.integers(min_value=-2**64, max_value=2**65 - 1))
    @example(nk=(64, 64), seed=2**64 - 1)
    @example(nk=(1, 1), seed=-1)
    @settings(max_examples=60, deadline=None)
    def test_valid_and_equal_to_the_scalar_reference(self, nk, seed):
        n, k = nk
        m = gen_random_k(n, k, seed)
        validate_csr(m)
        assert np.all(np.diff(m.row_ptr) == k)
        assert_csr_bitwise_equal(m, random_k_reference(n, k, seed))


class TestFillRatio:
    def test_row_count_rule(self):
        assert fill_row_count(1000, 0.001) == 1
        assert fill_row_count(38000, 0.001) == 38
        assert fill_row_count(500, 0.001) == 1

    @pytest.mark.parametrize("n, fill, seed, fingerprint", [
        (2000, 0.002, 9, "074840ef1ac855262f5b1e81c0b29738ccbb0e596e1c5ae03c8d0d87445cae2d"),
        # the top size of the README fill command
        (32000, 0.001, 42, "60e3beab0d8740088cc4846e649ab60c838e8150e13aa5b6673e58776e7f1082"),
    ])
    def test_pinned_fingerprint(self, n, fill, seed, fingerprint):
        assert matrix_fingerprint(gen_fill_ratio(n, fill, seed)) == fingerprint

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

    @pytest.mark.parametrize("make", [
        lambda: gen_fd(2.5),
        lambda: GenSpec("fd", 2.5),
        lambda: GenSpec("fd", 16.0),
        lambda: GenSpec("random", 10, k=2.5),
    ], ids=["gen_fd", "fd-n", "fd-n-integral", "random-k"])
    def test_non_integer_sizes_raise_type_error(self, make):
        with pytest.raises(TypeError):
            make()

    @pytest.mark.parametrize("make", [
        lambda: GenSpec("fd", True),
        lambda: GenSpec("random", 10, k=True),
        lambda: GenSpec("random", 10, k=3, seed=False),
        lambda: gen_fd(True),
        lambda: gen_random_k(True, 1, 0),
        lambda: gen_random_k(4, True, 0),
        lambda: gen_random_k(4, 2, True),
        lambda: SplitMix64(True),
        lambda: GenSpec("fill", 100, fill=True),
        lambda: GenSpec("random", 100, fill=False),
        lambda: fill_row_count(100, True),
        lambda: gen_fill_ratio(100, True, 0),
    ], ids=["spec-n", "spec-k", "spec-seed", "gen_fd", "random-n", "random-k", "random-seed",
            "splitmix-seed", "fill-fill", "random-fill", "fill_row_count", "gen_fill_ratio"])
    def test_bool_sizes_raise_type_error_as_floats_do(self, make):
        # operator.index takes True and False as 1 and 0, and a fill check
        # True as 1.0; CsrBuilder refuses them
        with pytest.raises(TypeError, match="bool"):
            make()

    def test_seed_must_be_an_integer(self):
        for family in ("random", "fd"):
            with pytest.raises(TypeError):
                GenSpec(family, 10, 3, seed=1.5)
        spec = GenSpec("random", 40, 5, seed=np.uint64(42))
        plain = GenSpec("random", 40, 5, seed=42)
        assert type(spec.seed) is int and spec == plain
        assert matrix_fingerprint(generate(spec)) == matrix_fingerprint(generate(plain))

    @pytest.mark.parametrize("family", ["fill", "random", "fd"])
    @pytest.mark.parametrize("fill", ["0.5", None, "x", 1j])
    def test_fill_must_be_a_real_number_in_every_family(self, family, fill):
        with pytest.raises(TypeError, match="real number"):
            GenSpec(family, 100, fill=fill)

    def test_fill_is_stored_as_a_float_and_ranged_only_where_read(self):
        for fill in (np.float32(0.5), Fraction(1, 2), 0.5):
            spec = GenSpec("fill", 100, fill=fill)
            assert type(spec.fill) is float and spec == GenSpec("fill", 100, fill=0.5)
        assert GenSpec("fill", 100, fill=1).fill == 1.0
        with pytest.raises(ValueError):
            GenSpec("fill", 100, fill=math.nan)
        # random and fd never read fill, so only its type is checked there
        assert GenSpec("random", 100, fill=2.0).fill == 2.0
        assert GenSpec("fd", 100, fill=0).fill == 0.0

    def test_numpy_integers_match_python_ints(self):
        assert matrix_fingerprint(gen_fd(np.int64(8))) == matrix_fingerprint(gen_fd(8))
        for family, n, k in [("fd", np.int32(60), 5), ("random", np.int64(40), np.int32(5)),
                             ("fill", np.uint16(1000), np.int64(5))]:
            spec = GenSpec(family, n, k=k, fill=0.002, seed=42)
            assert (type(spec.n), type(spec.k)) == (int, int)
            plain = GenSpec(family, int(n), k=int(k), fill=0.002, seed=42)
            assert spec == plain
            assert matrix_fingerprint(generate(spec)) == matrix_fingerprint(generate(plain))
