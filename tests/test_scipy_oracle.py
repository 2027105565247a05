"""Products above the dense-reference size against scipy's compiled SMMP
product (``csr @ csr`` followed by ``sort_indices()``), an oracle that
shares no code with the kernels. It accumulates every result entry in the
same k order and drops exact zeros, so it must agree bit for bit. Skipped
when scipy is not installed."""

import pytest

from conftest import assert_csc_bitwise_equal, assert_csr_bitwise_equal
from sparsemm.formats import CscMatrix, CsrMatrix, csr_to_csc
from sparsemm.genmat import gen_fd, gen_random_k
from sparsemm.kernels import (
    KernelStats,
    StrategyKind,
    multiply_colmajor,
    multiply_mixed,
    multiply_rowmajor,
)
from sparsemm.perfmodel import count_mults

scipy_sparse = pytest.importorskip("scipy.sparse")

RANGE_AND_SORT = [StrategyKind.COMBINED, StrategyKind.SORT,
                  StrategyKind.MIN_MAX, StrategyKind.MIN_MAX_CHAR]


def _operands(case):
    if case == "random-1024-k32":
        return gen_random_k(1024, 32, 7), gen_random_k(1024, 32, 8)
    a = gen_fd(128)  # n = 16384
    return a, a


CASES = ["random-1024-k32", "fd-16384"]


@pytest.fixture(scope="module")
def product(request):
    """The operands, in both storage orders, and scipy's product of them."""
    a, b = _operands(request.param)
    as_scipy = [scipy_sparse.csr_matrix((m.values, m.col_idx, m.row_ptr),
                                        shape=(m.rows, m.cols)) for m in (a, b)]
    prod = as_scipy[0] @ as_scipy[1]
    prod.sort_indices()
    by_col = prod.tocsc()
    by_col.sort_indices()
    expected = CsrMatrix.from_arrays(a.rows, b.cols, prod.indptr, prod.indices, prod.data)
    expected_csc = CscMatrix.from_arrays(a.rows, b.cols, by_col.indptr, by_col.indices,
                                         by_col.data)
    return request.param, a, b, expected, expected_csc


# brute-force scans of 16384-slot rows are left to the benchmark
@pytest.mark.parametrize("product, strategy",
                         [("random-1024-k32", s) for s in StrategyKind]
                         + [("fd-16384", s) for s in RANGE_AND_SORT],
                         indirect=["product"])
def test_rowmajor_matches_scipy(product, strategy):
    _, a, b, expected, _ = product
    stats = KernelStats()
    assert_csr_bitwise_equal(multiply_rowmajor(a, b, strategy, stats), expected)
    assert stats.multiplications == count_mults(a, b).multiplications


@pytest.mark.parametrize("product", CASES, indirect=True)
def test_colmajor_and_mixed_match_scipy(product):
    _, a, b, expected, expected_csc = product
    a_csc, b_csc = csr_to_csc(a), csr_to_csc(b)
    combined = StrategyKind.COMBINED
    assert_csc_bitwise_equal(multiply_colmajor(a_csc, b_csc, combined), expected_csc)
    assert_csr_bitwise_equal(multiply_mixed(a, b_csc, combined), expected)
    assert_csc_bitwise_equal(multiply_mixed(a_csc, b, combined), expected_csc)
