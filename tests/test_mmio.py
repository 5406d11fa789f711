"""Matrix Market reader/writer, real symmetric coordinate format only."""

import numpy as np
import pytest

from psdlab import MatrixMarketError, SymmetricPencil, generate_problem
from psdlab.mmio import read_matrix, write_matrix


def spd_4x4():
    m = np.array([
        [4.0, 1.0, 0.0, 0.5],
        [1.0, 3.0, 0.25, 0.0],
        [0.0, 0.25, 2.0, 0.125],
        [0.5, 0.0, 0.125, 1.5],
    ])
    return (m + m.T) / 2.0


def test_round_trip_entrywise_equal(tmp_path):
    path = tmp_path / "a.mtx"
    m = spd_4x4()
    write_matrix(path, m, comment="round trip")
    np.testing.assert_array_equal(read_matrix(path), m)


def test_pencil_round_trip(tmp_path):
    a = spd_4x4()
    b = np.diag([1.0, 2.0, 3.0, 4.0])
    pa, pb = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix(pa, a)
    write_matrix(pb, b)
    pencil = generate_problem("matrix_market", path_a=str(pa), path_b=str(pb))
    np.testing.assert_array_equal(pencil.a, a)
    np.testing.assert_array_equal(pencil.b, b)
    only_a = generate_problem("matrix_market", path_a=str(pa))
    np.testing.assert_array_equal(only_a.b, np.eye(4))


def test_comments_and_one_based_indices(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "% a comment\n"
        "2 2 2\n"
        "1 1 2.0\n"
        "2 1 0.5\n"
    )
    m = read_matrix(path)
    np.testing.assert_array_equal(m, [[2.0, 0.5], [0.5, 0.0]])


@pytest.mark.parametrize(
    "content,line",
    [
        ("%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n", 1),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n", 1),
        ("%%MatrixMarket matrix coordinate complex symmetric\n2 2 1\n1 1 1.0 0.0\n", 1),
        ("not a header\n2 2 1\n1 1 1.0\n", 1),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2\n1 1 1.0\n", 2),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n", 2),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n3 1 1.0\n", 3),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\nx 1 1.0\n", 3),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n1 1 2.0\n", 4),
    ],
)
def test_malformed_inputs_carry_line_numbers(tmp_path, content, line):
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(MatrixMarketError) as err:
        read_matrix(path)
    assert err.value.line == line


def test_entry_count_mismatch(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n"
    )
    with pytest.raises(MatrixMarketError, match="declared 2"):
        read_matrix(path)


def test_writer_rejects_asymmetric(tmp_path):
    with pytest.raises(ValueError, match="not exactly symmetric"):
        write_matrix(tmp_path / "x.mtx", np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]]))


@pytest.mark.parametrize("m", [np.ones((2, 3)), np.ones(3)])
def test_writer_rejects_non_square(tmp_path, m):
    with pytest.raises(ValueError, match="^expected a square matrix$"):
        write_matrix(tmp_path / "x.mtx", m)
    assert not (tmp_path / "x.mtx").exists()


def test_declared_nonsymmetric_matrix_fails_pencil_validation(tmp_path):
    # the file parses, but the pencil constructor rejects the indefinite matrix
    path = tmp_path / "indef.mtx"
    write_matrix(path, np.diag([1.0, -2.0]))
    with pytest.raises(ValueError, match="positive definite"):
        generate_problem("matrix_market", path_a=str(path))


_HEADER = "%%MatrixMarket matrix coordinate real symmetric\n"


@pytest.mark.parametrize(
    "content, message",
    [
        ("", "line 1: empty file"),
        ("%%MatrixMarket vector coordinate real symmetric\n2 2 1\n1 1 1.0\n",
         "line 1: unsupported object 'vector'"),
        (_HEADER + "% only comments\n\n", "line 3: missing size line"),
        (_HEADER + "2 2 x\n1 1 1.0\n", "line 2: size line entries must be integers"),
        (_HEADER + "2 2.0 1\n1 1 1.0\n", "line 2: size line entries must be integers"),
        (_HEADER + "2 2 1\n1 1\n", "line 3: entry line must be 'i j value'"),
    ],
)
def test_malformed_inputs_name_the_fault(tmp_path, content, message):
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(MatrixMarketError) as err:
        read_matrix(path)
    assert str(err.value) == message
