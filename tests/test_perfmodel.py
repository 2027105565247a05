import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemm_helpers import identity_csr, random_pair
from sparsemm.formats import estimate_nnz
from sparsemm.genmat import gen_fd, gen_random_k
from sparsemm.perfmodel import (
    FlopCount,
    RooflineParams,
    count_mults,
    count_mults_via_columns,
    inner_loop_balance,
    roofline,
)


class TestCountMults:
    def test_identity(self):
        for n in (1, 4, 17):
            eye = identity_csr(n)
            fc = count_mults(eye, eye)
            assert fc.multiplications == n
            assert fc.flops == 2 * n

    def test_stencil_squared(self):
        a = gen_fd(2)
        fc = count_mults(a, a)
        assert fc.multiplications == 36
        assert fc.flops == 72

    def test_flops_are_twice_the_multiplications(self):
        assert FlopCount(21).flops == 42

    def test_both_routes_agree(self):
        for seed in range(20):
            a, b = random_pair(seed)
            assert count_mults(a, b) == count_mults_via_columns(a, b)

    def test_equals_reservation_estimate(self):
        for seed in range(20):
            a, b = random_pair(seed)
            assert count_mults(a, b).multiplications == estimate_nnz(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            count_mults(identity_csr(3), identity_csr(4))
        with pytest.raises(ValueError):
            count_mults_via_columns(identity_csr(3), identity_csr(4))

    @given(n=st.integers(min_value=1, max_value=40),
           k=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_routes_agree_property(self, n, k, seed):
        a = gen_random_k(n, min(k, n), seed)
        b = gen_random_k(n, min(k, n), seed + 1)
        assert (count_mults(a, b)
                == count_mults_via_columns(a, b)
                == FlopCount(estimate_nnz(a, b)))


class TestRoofline:
    def test_in_cache_bound(self):
        assert roofline(RooflineParams(7.6e9, 60.8e9, 16.0)) == 3.8e9

    def test_memory_bound(self):
        assert roofline(RooflineParams(7.6e9, 18.24e9, 16.0)) == 1.14e9

    def test_compute_bound_limb(self):
        assert roofline(RooflineParams(1e9, 1e99, 16.0)) == 1e9

    def test_rejects_non_positive_parameters(self):
        with pytest.raises(ValueError):
            RooflineParams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            RooflineParams(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            RooflineParams(1.0, 1.0, 0.0)
        for params in ((math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan)):
            with pytest.raises(ValueError):
                RooflineParams(*params)
        # an infinite limb is no limit, and stays allowed
        assert roofline(RooflineParams(1e9, math.inf, 16.0)) == 1e9

    @given(peak=st.floats(min_value=1e3, max_value=1e12),
           bw=st.floats(min_value=1e3, max_value=1e12),
           balance=st.floats(min_value=0.25, max_value=1024.0),
           factor=st.floats(min_value=1.0, max_value=8.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, peak, bw, balance, factor):
        base = roofline(RooflineParams(peak, bw, balance))
        assert roofline(RooflineParams(peak * factor, bw, balance)) >= base
        assert roofline(RooflineParams(peak, bw * factor, balance)) >= base
        assert roofline(RooflineParams(peak, bw, balance * factor)) <= base

    def test_never_exceeds_either_limb(self):
        p = RooflineParams(5e9, 40e9, 16.0)
        bound = roofline(p)
        assert bound <= p.peak_flops
        assert bound <= p.bandwidth / p.code_balance


class TestInnerLoopBalance:
    def test_sixteen_bytes_per_flop(self):
        assert inner_loop_balance().bytes_per_flop == 16.0

    def test_traffic_tally(self):
        traffic = inner_loop_balance()
        assert traffic.loads == 3
        assert traffic.stores == 1
        assert traffic.bytes_per_iteration == 32
        assert traffic.flops == 2
        assert traffic.bytes_per_iteration / traffic.flops == 16.0

    def test_feeds_the_in_cache_bound(self):
        balance = inner_loop_balance().bytes_per_flop
        assert roofline(RooflineParams(7.6e9, 60.8e9, balance)) / 1e6 == 3800.0
