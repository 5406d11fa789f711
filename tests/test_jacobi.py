"""Jacobi eigensolver against the LAPACK reference."""

import numpy as np
import pytest

from psdlab.jacobi import jacobi_eigh


def random_symmetric(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) * scale
    return (g + g.T) / 2.0


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 40])
def test_matches_lapack(n):
    rng = np.random.default_rng(100 + n)
    m = random_symmetric(rng, n)
    w, v = jacobi_eigh(m)
    w_ref = np.linalg.eigvalsh(m)
    np.testing.assert_allclose(w, w_ref, rtol=1e-12, atol=1e-12)
    # eigen-decomposition reconstructs the matrix
    np.testing.assert_allclose(v @ np.diag(w) @ v.T, m, atol=1e-12 * max(1.0, np.abs(w).max()))
    np.testing.assert_allclose(v.T @ v, np.eye(n), atol=1e-13)


def test_diagonal_input_is_exact():
    d = np.array([3.0, -1.0, 2.0, 0.5])
    w, v = jacobi_eigh(np.diag(d))
    np.testing.assert_array_equal(w, np.sort(d))
    assert np.all(np.abs(np.abs(v[np.argsort(d), range(4)]) - 1.0) == 0)


def test_zero_and_scalar():
    w, v = jacobi_eigh(np.zeros((3, 3)))
    np.testing.assert_array_equal(w, np.zeros(3))
    w, v = jacobi_eigh(np.array([[7.0]]))
    assert w[0] == 7.0


def test_clustered_eigenvalues():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    w_true = np.array([1.0, 1.0 + 1e-12, 1.0 + 2e-12, 2.0, 2.0, 5.0])
    m = (q * w_true) @ q.T
    m = (m + m.T) / 2.0
    w, _ = jacobi_eigh(m)
    np.testing.assert_allclose(w, np.sort(w_true), rtol=1e-11)


def test_rejects_nonsquare():
    with pytest.raises(ValueError):
        jacobi_eigh(np.ones((2, 3)))
