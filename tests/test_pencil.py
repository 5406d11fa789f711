"""Pencil algebra: Rayleigh quotients, residuals, diagonalization, Rayleigh-Ritz."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from psdlab import (
    DegenerateSubspaceError,
    SymmetricPencil,
    Spectrum,
    diagonalize,
    estimate_quality,
    exact_inverse_preconditioner,
    generate_problem,
    identity_preconditioner,
    jacobi_preconditioner,
    orthonormalize,
    rayleigh,
    rayleigh_ritz,
    residual,
    synthetic_gamma_preconditioner,
)
from psdlab.jacobi import jacobi_eigh
from psdlab.pencil import _tril_inverse, _unit_scale


def random_spd(rng, n, cond=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.exp(rng.uniform(0.0, np.log(cond), size=n))
    m = (q * w) @ q.T
    return (m + m.T) / 2.0


def random_pencil(rng, n):
    return SymmetricPencil(random_spd(rng, n), random_spd(rng, n))


class TestSymmetricPencil:
    def test_rejects_asymmetric(self):
        a = np.array([[2.0, 1e-17], [0.0, 2.0]])
        with pytest.raises(ValueError, match="symmetric"):
            SymmetricPencil(a, np.eye(2))

    def test_rejects_indefinite(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match="positive definite"):
            SymmetricPencil(a, np.eye(2))
        with pytest.raises(ValueError, match="positive definite"):
            SymmetricPencil(np.eye(2), a)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_entries_first(self, bad):
        # checked before symmetry and definiteness, naming the matrix
        a = np.diag([1.0, 2.0, 4.0])
        a[2, 1] = bad  # a NaN would otherwise read as an asymmetry
        with pytest.raises(ValueError, match=rf"^A has a non-finite entry {bad!r} at \(2, 1\)$"):
            SymmetricPencil(a, np.eye(3))
        with pytest.raises(ValueError, match=rf"^B has a non-finite entry {bad!r} at \(2, 1\)$"):
            SymmetricPencil(np.eye(3), a)
        a[1, 2] = a[2, 1] = 0.0
        a[1, 1] = bad
        with pytest.raises(ValueError, match=r"^A has a non-finite entry .* at \(1, 1\)$"):
            SymmetricPencil(a, np.eye(3))

    @pytest.mark.parametrize("a, b, message", [
        (np.ones((2, 3)), np.ones((2, 3)), "A must be square"),
        (np.ones(3), np.ones(3), "A must be square"),
        (np.eye(2), np.eye(3), "A and B must have identical shape"),
        (np.eye(2), np.array([[2.0, 0.5], [0.0, 2.0]]), "B is not exactly symmetric as stored"),
        (np.zeros((0, 0)), np.zeros((0, 0)), "A and B are a 0x0 pair; a pencil needs n >= 1"),
    ])
    def test_rejects_bad_shapes_and_asymmetric_b(self, a, b, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SymmetricPencil(a, b)

    def test_sparse_input_is_densified(self):
        dense = generate_problem("laplacian1d", n=8, mass="fem")
        sparse = SymmetricPencil(scipy.sparse.csr_matrix(dense.a), scipy.sparse.csr_matrix(dense.b))
        assert np.array_equal(sparse.a, dense.a) and np.array_equal(sparse.b, dense.b)
        assert np.array_equal(diagonalize(sparse).mus, diagonalize(dense).mus)
        asymmetric = dense.a.copy()
        asymmetric[0, 1] += 1.0
        with pytest.raises(ValueError, match="^A is not exactly symmetric as stored$"):
            SymmetricPencil(scipy.sparse.csr_matrix(asymmetric), scipy.sparse.csr_matrix(dense.b))

    def test_immutable(self):
        p = SymmetricPencil(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            p.a[0, 0] = 5.0


class TestRayleigh:
    def test_eigenvector_gives_eigenvalue(self):
        p = SymmetricPencil(np.diag([1.0, 2.0, 4.0]), np.eye(3))
        assert rayleigh(p, [1.0, 0.0, 0.0]).rho == 1.0

    def test_hand_value(self):
        p = SymmetricPencil(np.diag([1.0, 2.0, 4.0]), np.eye(3))
        value = rayleigh(p, [1.0, 1.0, 0.0])
        assert value.rho == pytest.approx(1.5, abs=1e-15)
        assert value.mu == pytest.approx(1.0 / 1.5, abs=1e-15)

    def test_zero_vector_rejected(self):
        p = SymmetricPencil(np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="zero vector"):
            rayleigh(p, [0.0, 0.0])

    @given(st.floats(min_value=-1e6, max_value=1e6).filter(lambda c: abs(c) > 1e-6))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(42)
        p = random_pencil(rng, 5)
        x = rng.standard_normal(5)
        base = rayleigh(p, x).rho
        scaled = rayleigh(p, c * x).rho
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_range_bounded_by_spectrum(self):
        rng = np.random.default_rng(3)
        lam = np.array([0.5, 1.0, 2.0, 7.0])
        p = SymmetricPencil(np.diag(lam), np.eye(4))
        for _ in range(100):
            x = rng.standard_normal(4)
            rho = rayleigh(p, x).rho
            assert lam[0] - 1e-12 <= rho <= lam[-1] + 1e-12


class TestResidual:
    def test_eigenvector_residual_vanishes(self):
        p = SymmetricPencil(np.diag([1.0, 2.0, 4.0]), np.eye(3))
        x = np.array([0.0, 1.0, 0.0])
        r = residual(p, x)
        assert np.linalg.norm(r) < 1e-12 * np.linalg.norm(p.a @ x)

    def test_lambda_form_hand_value(self):
        p = SymmetricPencil(np.diag([1.0, 2.0, 4.0]), np.eye(3))
        r = residual(p, [1.0, 1.0, 0.0])
        np.testing.assert_allclose(r, [-0.5, 0.5, 0.0], atol=1e-15)

    def test_mu_form_hand_value(self):
        p = SymmetricPencil(np.eye(3), np.diag([1.0, 0.5, 0.25]))
        x = np.array([1.0, 1.0, 0.0])
        value = rayleigh(p, x)
        assert value.mu == pytest.approx(0.75, abs=1e-15)
        r = -value.mu * residual(p, x)  # Bx - mu(x) Ax
        np.testing.assert_allclose(r, [0.25, -0.25, 0.0], atol=1e-15)
        assert abs(r @ x) < 1e-14  # mu-form residual orthogonal to x


class TestDiagonalize:
    def test_already_diagonal(self):
        p = SymmetricPencil(np.eye(3), np.diag([3.0, 2.0, 1.0]))
        form = diagonalize(p)
        np.testing.assert_array_equal(form.mus, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(form.basis, np.eye(3), atol=1e-15)

    def test_two_by_two(self):
        p = SymmetricPencil(np.diag([4.0, 1.0]), np.eye(2))
        form = diagonalize(p)
        np.testing.assert_allclose(form.mus, [1.0, 0.25], rtol=1e-14)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(11)
        p = random_pencil(rng, 6)
        form = diagonalize(p)
        z = rng.standard_normal(6)
        np.testing.assert_allclose(
            form.to_diagonal(form.from_diagonal(z)), z, rtol=1e-12, atol=1e-12
        )

    def test_reconstruction(self):
        rng = np.random.default_rng(12)
        p = random_pencil(rng, 5)
        form = diagonalize(p)
        w = form.inverse_basis
        np.testing.assert_allclose(w.T @ p.a @ w, np.eye(5), atol=1e-10)
        np.testing.assert_allclose(
            w.T @ p.b @ w, np.diag(form.mus),
            atol=1e-10 * np.max(form.mus),
        )

    def test_eigenvalues_match_lapack_oracle(self):
        # independent route: LAPACK generalized eigensolver
        rng = np.random.default_rng(13)
        p = random_pencil(rng, 5)
        lam_ref = np.sort(scipy.linalg.eigh(p.a, p.b, eigvals_only=True))
        lam = diagonalize(p).spectrum().lambdas
        np.testing.assert_allclose(lam, lam_ref, rtol=1e-10)

    @pytest.mark.parametrize("n", [2, 4, 8, 12])
    def test_round_trip_preserves_spectrum(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(5):
            p = random_pencil(rng, n)
            lam_ref = np.sort(scipy.linalg.eigh(p.a, p.b, eigvals_only=True))
            np.testing.assert_allclose(
                diagonalize(p).spectrum().lambdas, lam_ref, rtol=1e-10
            )


def _scipy_reduction(pencil, eigh=scipy.linalg.eigh):
    """Reciprocal eigenvalues (decreasing) and A-orthonormal eigenvectors of a
    pencil by the reduction of :func:`diagonalize`, done by ``scipy.linalg``.

    Same Cholesky factor, then LAPACK's triangular solves
    (``solve_triangular``) in place of ``numpy.linalg.solve``, and ``eigh``
    (default: LAPACK's through ``scipy.linalg``) in place of
    ``numpy.linalg.eigh``.
    """
    c = np.linalg.cholesky(pencil.a)
    tmp = scipy.linalg.solve_triangular(c, pencil.b, lower=True)
    bt = scipy.linalg.solve_triangular(c, tmp.T, lower=True)
    mus, q = eigh((bt + bt.T) / 2.0)
    return mus[::-1], scipy.linalg.solve_triangular(c.T, q[:, ::-1], lower=False)


def _oracle_cases():
    rng = np.random.default_rng(2024)
    cases = [
        ("diagonal", generate_problem("diagonal", lambdas=[3.0, 1.0, 2.0, 7.0, 5.0])),
        ("diagonal_ab", SymmetricPencil(np.diag([1.0, 4.0, 2.0, 8.0]),
                                        np.diag([2.0, 1.0, 3.0, 0.5]))),
        ("laplacian1d", generate_problem("laplacian1d", n=20)),
        ("laplacian1d_fem", generate_problem("laplacian1d", n=20, mass="fem")),
        ("laplacian2d_6", generate_problem("laplacian2d", nx=6)),
    ]
    cases += [(f"random_{n}", random_pencil(rng, n)) for n in (3, 8, 12)]
    return [pytest.param(pencil, id=name) for name, pencil in cases]


def _assert_same_eigenspaces(form, mus_ref, x_ref):
    """Each eigenvalue cluster's spectral projector ``X_S X_S^T`` matches.

    Vectors inside a repeated eigenvalue are arbitrary, so a cluster is
    compared through its projector, which does not depend on the basis
    chosen within it.  The tolerance follows first-order perturbation
    theory: ``eps * ||X||^2 / gap`` with a factor of about 45 to spare.
    """
    top = mus_ref[0]
    breaks = np.nonzero(-np.diff(mus_ref) > 1e-8 * top)[0] + 1
    x_norm_sq = np.linalg.norm(x_ref, 2) ** 2
    for cluster in np.split(np.arange(mus_ref.size), breaks):
        others = np.setdiff1d(np.arange(mus_ref.size), cluster)
        gap = np.min(np.abs(mus_ref[others][:, None] - mus_ref[cluster])) / top
        x, x0 = form.inverse_basis[:, cluster], x_ref[:, cluster]
        np.testing.assert_allclose(
            x @ x.T, x0 @ x0.T, rtol=0.0, atol=1e-14 * x_norm_sq / gap,
        )


class TestDiagonalizeMatchesJacobiOracle:
    """LAPACK ``diagonalize`` against the independent cyclic-Jacobi oracle."""

    @pytest.mark.parametrize("pencil", _oracle_cases())
    def test_spectrum_and_projectors(self, pencil):
        form = diagonalize(pencil)
        mus_ref, x_ref = _scipy_reduction(pencil, eigh=jacobi_eigh)
        np.testing.assert_allclose(form.mus, mus_ref, rtol=1e-12, atol=0.0)
        _assert_same_eigenspaces(form, mus_ref, x_ref)


def _spd_of_condition(rng, n, cond):
    """s.p.d. with eigenvalues log-spaced over ``[1, cond]``, random eigenvectors."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = (q * np.logspace(0.0, np.log10(cond), n)) @ q.T
    return (m + m.T) / 2.0


def _matrix_market_pencil(tmp_path):
    from psdlab.mmio import write_matrix

    rng = np.random.default_rng(77)
    pa, pb = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix(pa, random_spd(rng, 7, cond=1e3))
    write_matrix(pb, generate_problem("laplacian1d", n=7, mass="fem").b)
    return generate_problem("matrix_market", path_a=str(pa), path_b=str(pb))


# name -> (pencil builder, spectrum compared relative to the largest value).
# The orders 31 to 33 straddle the block size of diagonalize's triangular
# inverse; 65 and 100 recurse twice, 256 three times.
_SCIPY_ORACLE_CASES = {
    "laplacian2d_6": (lambda tmp: generate_problem("laplacian2d", nx=6), False),
    "cond_1e12": (lambda tmp: SymmetricPencil(
        _spd_of_condition(np.random.default_rng(12), 12, 1e12), np.eye(12)), True),
    "n3": (lambda tmp: random_pencil(np.random.default_rng(3), 3), False),
    "matrix_market": (_matrix_market_pencil, False),
    **{f"random_{n}": ((lambda tmp, n=n: random_pencil(np.random.default_rng(n), n)), False)
       for n in (31, 32, 33, 65)},
    "laplacian2d_16": (lambda tmp: generate_problem("laplacian2d", nx=16), False),
    "laplacian1d_65_fem": (lambda tmp: generate_problem("laplacian1d", n=65, mass="fem"), False),
    "cond_1e12_n100": (lambda tmp: SymmetricPencil(
        _spd_of_condition(np.random.default_rng(100), 100, 1e12), np.eye(100)), True),
}


def _three_solve_reduction(pencil):
    """``(mus, basis, inverse_basis)`` by three ``numpy.linalg.solve`` calls.

    The reduction :func:`diagonalize` made before its triangular inverse:
    each solve LU-factorizes the Cholesky factor ``C``.  It is the oracle
    whose congruence residuals bound the blocked route's.
    """
    c = np.linalg.cholesky(pencil.a)
    tmp = np.linalg.solve(c, pencil.b)
    bt = np.linalg.solve(c, tmp.T)
    mus, q = np.linalg.eigh((bt + bt.T) / 2.0)
    q = q[:, ::-1]
    return mus[::-1], q.T @ c.T, np.linalg.solve(c.T, q)


def _congruence_residuals(pencil, mus, basis, inverse_basis):
    """Largest entries of ``X^T A X - I``, ``(X^T B X - diag(mus)) / mus[0]``
    and ``basis X - I``, with ``X = inverse_basis``."""
    x = inverse_basis
    eye = np.eye(pencil.n)
    return (np.max(np.abs(x.T @ pencil.a @ x - eye)),
            np.max(np.abs(x.T @ pencil.b @ x - np.diag(mus))) / mus[0],
            np.max(np.abs(basis @ x - eye)))


class TestNumpyLapackMatchesScipyOracle:
    """The numpy LAPACK path against a ``scipy.linalg`` oracle that lives in tests.

    ``laplacian2d`` has repeated eigenvalues, so eigenvectors are compared
    through cluster projectors.  A dense symmetric eigensolver is accurate
    relative to the norm of the matrix, so at condition 1e12 the small
    ``mus`` of two backward-stable solvers agree only to ``eps * cond``
    relative to themselves; that case compares to 1e-12 of the largest value.
    """

    @pytest.mark.parametrize("name", list(_SCIPY_ORACLE_CASES))
    def test_diagonalize_spectrum_and_projectors(self, name, tmp_path):
        build, normwise = _SCIPY_ORACLE_CASES[name]
        pencil = build(tmp_path)
        form = diagonalize(pencil)
        mus_ref, x_ref = _scipy_reduction(pencil)
        atol = 1e-12 * mus_ref[0] if normwise else 0.0
        np.testing.assert_allclose(form.mus, mus_ref, rtol=1e-12, atol=atol)
        _assert_same_eigenspaces(form, mus_ref, x_ref)

    @pytest.mark.parametrize("name", list(_SCIPY_ORACLE_CASES))
    def test_diagonalize_congruence_matches_three_solves(self, name, tmp_path):
        # A basis inside a repeated eigenvalue is not unique, so the
        # congruence is held through its residuals, each within 4x the
        # three-solve oracle's and an n * eps floor.
        pencil = _SCIPY_ORACLE_CASES[name][0](tmp_path)
        form = diagonalize(pencil)
        got = _congruence_residuals(pencil, form.mus, form.basis, form.inverse_basis)
        ref = _congruence_residuals(pencil, *_three_solve_reduction(pencil))
        floor = pencil.n * np.finfo(float).eps
        for what, g, r in zip(("X^T A X", "X^T B X", "basis X"), got, ref):
            assert g <= 4.0 * r + floor, (what, g, r)

    @pytest.mark.parametrize("problem, exact", [
        (dict(kind="laplacian2d", nx=16), 8.0 * np.sin(np.pi / 34.0) ** 2),
        (dict(kind="laplacian1d", n=64), 4.0 * np.sin(np.pi / 130.0) ** 2),
    ])
    def test_lowest_eigenvalue_at_the_closed_form(self, problem, exact):
        # The three-solve route is 1.0e-15 and 3.8e-15 off here, and either
        # route moves by about 1e-15 with the rounding of its products (the
        # BLAS thread count changes it).  A lost digit, as from eigh(A) at
        # 1.1e-14 on laplacian2d:16, does not pass.
        lam = diagonalize(generate_problem(**problem)).spectrum().lambdas[0]
        assert abs(lam - exact) <= 5e-15 * exact

    @pytest.mark.parametrize("name", list(_SCIPY_ORACLE_CASES))
    def test_exact_inverse_residual(self, name, tmp_path):
        pencil = _SCIPY_ORACLE_CASES[name][0](tmp_path)
        apply_inverse = exact_inverse_preconditioner(pencil).apply
        rng = np.random.default_rng(5)
        a_norm = np.linalg.norm(pencil.a, 2)
        for rhs in (rng.standard_normal(pencil.n), rng.standard_normal((pencil.n, 3))):
            x = apply_inverse(rhs)
            assert x.shape == rhs.shape
            res = np.linalg.norm(pencil.a @ x - rhs)
            assert res <= 1e-13 * a_norm * np.linalg.norm(x)

    @pytest.mark.parametrize("case", ["jacobi_lap1d_64", "identity_fem", "synthetic",
                                      "jacobi_matrix_market"])
    def test_estimate_quality_extremes(self, case, tmp_path):
        if case == "jacobi_lap1d_64":
            pencil = generate_problem("laplacian1d", n=64)
            t = jacobi_preconditioner(pencil)
        elif case == "identity_fem":
            pencil = generate_problem("laplacian2d", nx=5, mass="fem")
            t = identity_preconditioner(pencil)
        elif case == "synthetic":
            pencil = generate_problem("laplacian1d", n=20, mass="fem")
            t = synthetic_gamma_preconditioner(diagonalize(pencil), 0.6, seed=4)
        else:
            pencil = _matrix_market_pencil(tmp_path)
            t = jacobi_preconditioner(pencil)
        if t.coords == "diagonal":
            g = t.matrix
        else:
            c = np.linalg.cholesky(pencil.a)
            g = c.T @ t.matrix @ c
            g = (g + g.T) / 2.0
        w = scipy.linalg.eigh(g, eigvals_only=True)
        q = estimate_quality(pencil, t)
        assert q.gamma1 == pytest.approx(w[0], rel=1e-12, abs=0.0)
        assert q.gamma2 == pytest.approx(w[-1], rel=1e-12, abs=0.0)


@st.composite
def _cholesky_factors(draw):
    """Cholesky factor of an s.p.d. matrix of order 1 to 140, condition 1 to 1e12."""
    n = draw(st.integers(min_value=1, max_value=140))
    cond = 10.0 ** draw(st.floats(min_value=0.0, max_value=12.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return np.linalg.cholesky(_spd_of_condition(rng, n, cond))


def _assert_inverse_as_good_as_scipy(c):
    w = _tril_inverse(c)
    assert w.shape == c.shape
    assert not np.triu(w, 1).any()  # exact zeros above the diagonal
    ref = scipy.linalg.solve_triangular(c, np.eye(c.shape[0]), lower=True)
    eye = np.eye(c.shape[0])
    # Near the identity both residuals fall far below an ulp of W c, where
    # their ratio is noise; eps is the floor.
    scipy_residual = max(np.max(np.abs(ref @ c - eye)), np.finfo(float).eps)
    assert np.max(np.abs(w @ c - eye)) <= 10.0 * scipy_residual


class TestTrilInverse:
    """The blocked triangular inverse against LAPACK's triangular solve."""

    @given(_cholesky_factors())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_solve_triangular(self, c):
        _assert_inverse_as_good_as_scipy(c)

    def test_blocks_that_pivot_as_they_stand(self):
        # Each 32-block of this factor has entries below the diagonal larger
        # than the diagonal, so LU with partial pivoting would swap its rows;
        # the inverse must not depend on LU leaving a triangle triangular.
        rng = np.random.default_rng(32)
        n = 128
        c = np.eye(n) + np.tril(0.1 * rng.standard_normal((n, n)), -1)
        for start in range(0, n, 32):
            c[start + 20, start + 3] = 4.0
        c = np.linalg.cholesky(c @ c.T)
        for start in range(0, n, 32):
            block = c[start:start + 32, start:start + 32]
            _, piv = scipy.linalg.lu_factor(block)
            assert np.any(piv != np.arange(32))
        _assert_inverse_as_good_as_scipy(c)


class TestOrthonormalize:
    def test_rank_deficiency_reports_rank(self):
        v1 = np.array([1.0, 0.0, 0.0])
        v2 = np.array([0.0, 1.0, 0.0])
        v3 = v1 + v2
        with pytest.raises(DegenerateSubspaceError) as err:
            orthonormalize([v1, v2, v3])
        assert err.value.rank == 2

    def test_qr_factorization(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((6, 3))
        q, r = orthonormalize(v.T)
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(q @ r, v, atol=1e-13)


class TestRayleighRitz:
    def test_invariant_subspace_exact(self):
        p = SymmetricPencil(np.eye(3), np.diag([1.0, 0.5, 0.25]))
        pairs = rayleigh_ritz(p, [np.eye(3)[0], np.eye(3)[1]])
        values = sorted(pair.mu for pair in pairs)
        np.testing.assert_allclose(values, [0.5, 1.0], atol=1e-14)

    def test_basis_independence(self):
        p = SymmetricPencil(np.eye(3), np.diag([1.0, 0.5, 0.25]))
        pairs = rayleigh_ritz(p, [np.array([1.0, 1.0, 0.0]), np.array([-1.0, 1.0, 0.0])])
        values = sorted(pair.mu for pair in pairs)
        np.testing.assert_allclose(values, [0.5, 1.0], atol=1e-14)

    def test_sorted_lambda_ascending(self):
        rng = np.random.default_rng(8)
        p = random_pencil(rng, 6)
        basis = rng.standard_normal((3, 6))
        pairs = rayleigh_ritz(p, basis)
        values = [pair.rho for pair in pairs]
        assert values == sorted(values)

    def test_residual_orthogonality_mu_form(self):
        rng = np.random.default_rng(9)
        b = np.diag(np.sort(rng.uniform(0.1, 2.0, size=6))[::-1])
        p = SymmetricPencil(np.eye(6), b)
        basis = rng.standard_normal((3, 6))
        q, _ = orthonormalize(basis)
        for pair in rayleigh_ritz(p, basis):
            res = b @ pair.vector - pair.mu * pair.vector
            for j in range(q.shape[1]):
                assert abs(res @ q[:, j]) <= 1e-10 * np.linalg.norm(b @ pair.vector)

    def test_two_dimensional_closed_form(self):
        # orthonormal 2-D basis [x-hat, u] with u from the cone geometry:
        # the larger reciprocal Ritz value matches the direct 2x2 formula
        mus = np.array([1.0, 0.5, 0.25])
        p = SymmetricPencil(np.eye(3), np.diag(mus))
        x = np.array([1.0, 0.7, 0.4])
        gamma = 0.5
        value = rayleigh(p, x)
        r = mus * x - value.mu * x
        v = np.cross(x, r)
        v /= np.linalg.norm(v)
        u = np.sqrt(1 - gamma**2) * r / np.linalg.norm(r) + gamma * v
        pair = rayleigh_ritz(p, [x, u])[0]
        xh = x / np.linalg.norm(x)
        c = u @ (mus * xh)
        assert c == pytest.approx(
            np.sqrt(1 - gamma**2) * np.linalg.norm(r) / np.linalg.norm(x), rel=1e-12
        )
        mu_u = u @ (mus * u)
        direct = 0.5 * (value.mu + mu_u) + np.sqrt(
            0.25 * (value.mu - mu_u) ** 2 + c * c
        )
        assert pair.mu == pytest.approx(direct, rel=1e-12)

    def test_rank_deficient_basis_raises(self):
        p = SymmetricPencil(np.eye(3), np.eye(3))
        x = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DegenerateSubspaceError):
            rayleigh_ritz(p, [x, 2.0 * x])

    def test_vectors_unit_norm_and_value_consistent(self):
        rng = np.random.default_rng(10)
        p = random_pencil(rng, 5)
        for pair in rayleigh_ritz(p, rng.standard_normal((2, 5))):
            assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-13)
            assert rayleigh(p, pair.vector).rho == pytest.approx(pair.rho, rel=1e-12)


class TestGenerateProblem:
    def test_laplacian1d_closed_form_spectrum(self):
        p = generate_problem("laplacian1d", n=3, h=1.0)
        expected = np.array([2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)])
        # closed-form oracle: 4 sin^2(k pi / (2 (n+1)))
        oracle = 4.0 * np.sin(np.arange(1, 4) * np.pi / 8.0) ** 2
        np.testing.assert_allclose(expected, oracle, rtol=1e-15)
        lam = diagonalize(p).spectrum().lambdas
        np.testing.assert_allclose(lam, oracle, rtol=1e-12)

    def test_laplacian1d_scaling(self):
        p = generate_problem("laplacian1d", n=4, h=0.5)
        lam = diagonalize(p).spectrum().lambdas
        oracle = 4.0 * np.sin(np.arange(1, 5) * np.pi / 10.0) ** 2 / 0.25
        np.testing.assert_allclose(lam, oracle, rtol=1e-12)

    @pytest.mark.parametrize("h", [0.0, -0.5, np.nan, np.inf])
    @pytest.mark.parametrize("kind, size", [("laplacian1d", {"n": 5}),
                                            ("laplacian2d", {"nx": 3})])
    def test_bad_grid_spacing_rejected(self, kind, size, h):
        with pytest.raises(ValueError, match="grid spacing h"):
            generate_problem(kind, h=h, **size)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_diagonal_needs_finite_positive_entries(self, bad):
        with pytest.raises(ValueError, match="diagonal entries"):
            generate_problem("diagonal", lambdas=[1.0, 2.0, bad])

    def test_diagonal(self):
        p = generate_problem("diagonal", lambdas=[1.0, 2.0, 4.0])
        np.testing.assert_array_equal(np.diag(p.a), [1.0, 2.0, 4.0])
        np.testing.assert_array_equal(p.b, np.eye(3))
        np.testing.assert_allclose(
            diagonalize(p).spectrum().lambdas, [1.0, 2.0, 4.0], rtol=1e-15
        )

    def test_diagonal_needs_three(self):
        with pytest.raises(ValueError, match="at least 3"):
            generate_problem("diagonal", lambdas=[1.0, 2.0])

    def test_laplacian2d_spectrum(self):
        p = generate_problem("laplacian2d", nx=3, ny=2, h=1.0)
        one_d = lambda n: 4.0 * np.sin(np.arange(1, n + 1) * np.pi / (2 * (n + 1))) ** 2
        oracle = np.sort(np.add.outer(one_d(2), one_d(3)).ravel())
        np.testing.assert_allclose(diagonalize(p).spectrum().lambdas, oracle, rtol=1e-12)

    def test_fem_mass_matrix(self):
        p = generate_problem("laplacian1d", n=5, h=0.25, mass="fem")
        # B is the tridiagonal (h/6) [1 4 1] matrix
        assert p.b[0, 0] == pytest.approx(4.0 * 0.25 / 6.0)
        assert p.b[0, 1] == pytest.approx(0.25 / 6.0)
        lam_ref = np.sort(scipy.linalg.eigh(p.a, p.b, eigvals_only=True))
        np.testing.assert_allclose(diagonalize(p).spectrum().lambdas, lam_ref, rtol=1e-10)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown problem kind"):
            generate_problem("banded", n=3)

    @pytest.mark.parametrize("kind, params, message", [
        ("laplacian1d", {"n": 1}, "laplacian1d needs n >= 2"),
        ("laplacian2d", {"nx": 1, "ny": 3}, "laplacian2d needs nx, ny >= 2"),
        ("laplacian2d", {"nx": 3, "ny": 1}, "laplacian2d needs nx, ny >= 2"),
        ("laplacian1d", {"n": 3, "mass": "lumped"}, "unknown mass kind 'lumped'"),
        ("laplacian2d", {"nx": 3, "mass": "lumped"}, "unknown mass kind 'lumped'"),
    ])
    def test_bad_sizes_and_mass_rejected(self, kind, params, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate_problem(kind, **params)


class TestSpectrum:
    def test_reciprocal_pairing(self):
        s = Spectrum(lambdas=np.array([1.0, 2.0, 4.0]))
        np.testing.assert_allclose(s.mus * s.lambdas, 1.0, atol=1e-15)
        assert np.all(np.diff(s.mus) <= 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Spectrum(lambdas=np.array([-1.0, 2.0]))

    @pytest.mark.parametrize("lambdas", [[], [[1.0, 2.0], [3.0, 4.0]]])
    def test_rejects_empty_and_non_vector(self, lambdas):
        with pytest.raises(ValueError, match="^lambdas must be a nonempty 1-D sequence$"):
            Spectrum(lambdas=lambdas)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Spectrum(lambdas=np.array([2.0, 1.0]))

    @pytest.mark.parametrize("lambdas", [[1.0, 2.0, np.inf], [np.nan] * 3, [1.0, np.nan, 3.0],
                                         [-np.inf, 1.0, 2.0]])
    def test_rejects_non_finite(self, lambdas):
        # NaN slips past the positivity and order tests, and an infinite
        # lambda_n makes every factor on its interval NaN.
        with pytest.raises(ValueError, match=r"lambdas must be finite, got lambdas\[\d\] = "):
            Spectrum(lambdas=lambdas)

    @pytest.mark.parametrize("lambdas", [[1e-310, 1.0], [5e-324, 1e-320, 2.0]])
    def test_rejects_a_lambda_without_finite_reciprocal(self, lambdas):
        # 1/lambda overflowed with a RuntimeWarning and stored an infinite mu
        with pytest.raises(ValueError, match=r"^lambdas\[0\] = .* has no finite reciprocal"):
            Spectrum(lambdas=lambdas)

    def test_float_tuple_matches_lambdas(self):
        s = Spectrum(lambdas=[1, 2.5, 2.5, 7])
        assert s._lam == (1.0, 2.5, 2.5, 7.0)
        assert all(type(v) is float for v in s._lam)
        assert "_lam" not in repr(s)


class TestUnitScale:
    @pytest.mark.parametrize("top", [1.0, 0.5, 1.999, 2.0, 3.0, 0.3, 1e300, 1e-300,
                                     2.0 ** 1023, 1e-320])
    def test_top_lands_in_the_unit_range_by_a_power_of_four(self, top):
        mus = np.array([top, top / 3.0, top / 7.0])
        unit, e = _unit_scale(mus)
        assert e % 2 == 0
        assert 0.5 <= unit[0] < 2.0
        assert np.array_equal(np.ldexp(unit, e), mus)

    def test_unit_scale_is_returned_as_it_is(self):
        mus = np.array([1.5, 0.25, 0.125])
        unit, e = _unit_scale(mus)
        assert unit is mus and e == 0

    @pytest.mark.parametrize("mus", [[1e300, 0.5, 1e-10], [1e200, 1.0, 1e-200],
                                     [1.0, 5e-324]])
    def test_spread_beyond_the_double_range_is_named(self, mus):
        with pytest.raises(ValueError, match=r"^mus spread by about 1e\d+ .*beyond the range"):
            _unit_scale(np.array(mus))

    @pytest.mark.parametrize("mus", [[1e150, 1.0, 1e-150], [1.0, 0.5, 1e-308]])
    def test_a_spread_within_the_double_range_is_kept(self, mus):
        # a smallest mu below the normal range still has a finite reciprocal
        unit, e = _unit_scale(np.array(mus))
        assert np.isfinite(1.0 / unit).all()
