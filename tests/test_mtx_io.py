import numpy as np
import pytest

from sparsemm_helpers import assert_csr_bitwise_equal, csr
from sparsemm.formats import csr_to_csc, validate_csr
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


def test_save_rejects_a_column_major_matrix(tmp_path):
    path = tmp_path / "m.mtx"
    with pytest.raises(TypeError, match="save_matrix_market needs m as a CsrMatrix, not a CscMatrix"):
        save_matrix_market(csr_to_csc(gen_fd(4)), path)
    assert not path.exists()


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


def test_duplicate_message_names_the_first_in_row_column_order(tmp_path):
    # two duplicate pairs; the file lists the later pair first
    path = tmp_path / "m.mtx"
    path.write_text(HEADER + "\n3 3 5\n"
                    "3 1 1.0\n2 3 2.0\n3 1 3.0\n2 3 4.0\n1 2 5.0\n")
    with pytest.raises(ValueError, match=r"duplicate entry at row 2, column 3$"):
        load_matrix_market(path)


def test_entry_count_checked_before_duplicates(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(HEADER + "\n2 2 3\n1 1 1.0\n1 1 2.0\n")
    with pytest.raises(ValueError, match="promises 3 entries, file holds 2"):
        load_matrix_market(path)


def test_empty_leading_and_trailing_rows(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(HEADER + "\n5 3 2\n3 3 2.0\n3 1 1.0\n")
    m = load_matrix_market(path)
    validate_csr(m)
    assert m.row_ptr.tolist() == [0, 0, 0, 2, 2, 2]
    assert m.col_idx.tolist() == [0, 2]
    assert m.values.tolist() == [1.0, 2.0]


def test_entries_in_reverse_order_across_rows(tmp_path):
    m = gen_random_k(16, 3, 7)
    path = tmp_path / "m.mtx"
    save_matrix_market(m, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + lines[:1:-1]) + "\n")
    assert_csr_bitwise_equal(load_matrix_market(path), m)


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


@pytest.mark.parametrize("size_line", ["-1 3 0", "3 -1 0", "2 2 -1"])
def test_negative_size_line_names_the_line(tmp_path, size_line):
    path = tmp_path / "m.mtx"
    path.write_text(HEADER + "\n" + size_line + "\n")
    with pytest.raises(ValueError, match=rf"line 2\b.*malformed size line '{size_line}'"):
        load_matrix_market(path)


def test_non_numeric_field_names_the_line(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(HEADER + "\n2 3 1\n\n2 x 3.0\n")
    with pytest.raises(ValueError, match=r"line 4\b.*'2 x 3\.0'"):
        load_matrix_market(path)


@pytest.mark.parametrize("after_header", ["", "% comment\n", "% comment\n\n%\n"])
def test_header_without_size_line_is_rejected(tmp_path, after_header):
    path = tmp_path / "m.mtx"
    path.write_text(HEADER + "\n" + after_header)
    with pytest.raises(ValueError, match="missing size line"):
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


@pytest.mark.parametrize("text, lineno", [
    (HEADER + " café\n2 2 1\n1 1 1.0\n", 1),
    (HEADER + "\n2 2 1 % ½\n1 1 1.0\n", 2),
    (HEADER + "\n% a comment\n2 2 1\n% café\n1 1 1.0\n", 4),
])
def test_non_ascii_line_is_named(tmp_path, text, lineno):
    path = tmp_path / "m.mtx"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ValueError, match=rf"^line {lineno}: not ASCII text$"):
        load_matrix_market(path)
