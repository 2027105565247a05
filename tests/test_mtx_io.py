import numpy as np
import pytest

from sparsemm_helpers import assert_csr_bitwise_equal, csr
from sparsemm.formats import validate_csr
from sparsemm.genmat import gen_fd, gen_random_k
from sparsemm.mtxio import HEADER, load_matrix_market, save_matrix_market


def test_round_trip_bit_identical(tmp_path):
    m = gen_random_k(32, 5, 42)
    path = tmp_path / "m.mtx"
    save_matrix_market(m, path)
    assert_csr_bitwise_equal(load_matrix_market(path), m)


def test_header_and_one_based_indices(tmp_path):
    m = csr([[0.0, 1.5], [0.0, 0.0]])
    path = tmp_path / "m.mtx"
    save_matrix_market(m, path)
    lines = path.read_text().splitlines()
    assert lines[0] == HEADER
    assert lines[1] == "2 2 1"
    assert lines[2].split()[:2] == ["1", "2"]


def test_loads_unordered_entries(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        HEADER + "\n"
        "2 3 3\n"
        "2 2 5.0\n"
        "1 3 2.0\n"
        "1 1 1.0\n"
    )
    m = load_matrix_market(path)
    validate_csr(m)
    assert np.array_equal(m.to_dense(), [[1.0, 0.0, 2.0], [0.0, 5.0, 0.0]])


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        HEADER + "\n"
        "% a comment\n"
        "\n"
        "1 1 1\n"
        "% another\n"
        "1 1 7.5\n"
    )
    assert load_matrix_market(path).values.tolist() == [7.5]


def test_rejects_duplicates(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(HEADER + "\n2 2 2\n1 1 1.0\n1 1 2.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_matrix_market(path)


def test_rejects_wrong_header(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 0\n")
    with pytest.raises(ValueError, match="header"):
        load_matrix_market(path)


def test_rejects_out_of_range_entry(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(HEADER + "\n2 2 1\n3 1 1.0\n")
    with pytest.raises(ValueError, match="outside"):
        load_matrix_market(path)


def test_wrong_field_count_names_the_line(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(HEADER + "\n% comment\n2 2 2\n1 1 1.0\n2 2\n")
    with pytest.raises(ValueError, match=r"line 5\b.*'2 2'"):
        load_matrix_market(path)


def test_malformed_size_line_names_the_line(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(HEADER + "\n% comment\n2 x 1\n1 1 1.0\n")
    with pytest.raises(ValueError, match=r"line 3\b.*size line '2 x 1'"):
        load_matrix_market(path)


def test_non_numeric_field_names_the_line(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(HEADER + "\n2 3 1\n\n2 x 3.0\n")
    with pytest.raises(ValueError, match=r"line 4\b.*'2 x 3\.0'"):
        load_matrix_market(path)


def test_rejects_wrong_entry_count(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(HEADER + "\n2 2 2\n1 1 1.0\n")
    with pytest.raises(ValueError, match="promises"):
        load_matrix_market(path)


def test_empty_matrix_round_trip(tmp_path):
    m = csr(np.zeros((3, 2)))
    path = tmp_path / "m.mtx"
    save_matrix_market(m, path)
    assert_csr_bitwise_equal(load_matrix_market(path), m)


def test_stencil_round_trip(tmp_path):
    m = gen_fd(4)
    path = tmp_path / "m.mtx"
    save_matrix_market(m, path)
    assert_csr_bitwise_equal(load_matrix_market(path), m)
