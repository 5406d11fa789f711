"""Preconditioner construction, quality estimation, and rescaling."""

import dataclasses

import numpy as np
import pytest

from psdlab import (
    ConeSpec,
    PrecondQuality,
    Preconditioner,
    SymmetricPencil,
    diagonalize,
    estimate_quality,
    exact_inverse_preconditioner,
    generate_problem,
    jacobi_preconditioner,
    psd_step,
    rescale,
    run,
    synthetic_gamma_preconditioner,
    worst_aligned_preconditioner,
    worst_direction,
)


def power_iteration_norm(m, steps=200, tol=1e-10, seed=0):
    """Spectral norm of a symmetric matrix by plain power iteration."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m.shape[0])
    v /= np.linalg.norm(v)
    last = 0.0
    for _ in range(steps):
        w = m @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        if abs(norm - last) <= tol * max(norm, 1.0):
            break
        last = norm
    return float(norm)


def random_spd(rng, n, cond=50.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.exp(rng.uniform(0.0, np.log(cond), size=n))
    m = (q * w) @ q.T
    return (m + m.T) / 2.0


def diag_form_for_mus(mus):
    return diagonalize(SymmetricPencil(np.eye(len(mus)), np.diag(mus)))


class TestSyntheticPreconditioner:
    def test_gamma_zero_is_identity(self):
        form = diag_form_for_mus([1.0, 0.5, 0.25])
        t = synthetic_gamma_preconditioner(form, 0.0, seed=3)
        np.testing.assert_array_equal(t.matrix, np.eye(3))

    def test_gamma_zero_psd_equals_plain_steepest_descent(self):
        mus = np.array([1.0, 0.5, 0.25, 0.1])
        pencil = SymmetricPencil(np.eye(4), np.diag(mus))
        form = diagonalize(pencil)
        t = synthetic_gamma_preconditioner(form, 0.0, seed=3)
        rng = np.random.default_rng(5)
        z = form.to_diagonal(rng.standard_normal(4))
        with_t = psd_step(form, t, z)
        plain = psd_step(form, Preconditioner(np.eye(4), None, "diagonal"), z)
        np.testing.assert_allclose(with_t.x, plain.x, atol=1e-14)
        assert with_t.rho.rho == pytest.approx(plain.rho.rho, rel=1e-14)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_norm_bound_attained(self, seed, gamma):
        form = diag_form_for_mus(np.linspace(2.0, 0.1, 8))
        t = synthetic_gamma_preconditioner(form, gamma, seed=seed)
        measured = power_iteration_norm(np.eye(8) - t.matrix)
        assert measured <= gamma + 1e-10
        assert measured == pytest.approx(gamma, abs=1e-9)
        assert (t.quality.gamma1, t.quality.gamma2) == (1.0 - gamma, 1.0 + gamma)

    def test_worst_aligned_hits_cone_boundary_direction(self):
        mus = np.array([1.0, 0.5, 0.1])
        x = np.array([1.0, 0.8, 0.6])
        gamma = 0.4
        cone = ConeSpec(mus=mus, x=x, gamma=gamma)
        d = worst_direction(cone)
        t = worst_aligned_preconditioner(cone, d)
        tr = t.matrix @ cone.r
        want = d - cone.mu_x * x
        # angle via its sine: well conditioned for nearly collinear vectors
        sin_angle = np.linalg.norm(
            np.cross(tr / np.linalg.norm(tr), want / np.linalg.norm(want))
        )
        assert sin_angle < 1e-8
        assert tr @ want > 0  # same orientation, not antiparallel
        # the aligned preconditioner stays admissible
        assert power_iteration_norm(np.eye(3) - t.matrix) <= gamma + 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.4])
    def test_worst_aligned_quality_and_identity_at_gamma_zero(self, gamma):
        cone = ConeSpec(mus=np.array([1.0, 0.5, 0.1]), x=np.array([1.0, 0.8, 0.6]),
                        gamma=gamma)
        t = worst_aligned_preconditioner(cone, worst_direction(cone))
        assert t.coords == "diagonal"
        assert (t.quality.gamma1, t.quality.gamma2) == (1.0 - gamma, 1.0 + gamma)
        if gamma == 0.0:
            np.testing.assert_array_equal(t.matrix, np.eye(3))

    def test_target_outside_ball_rejected(self):
        mus = np.array([1.0, 0.5, 0.1])
        x = np.array([1.0, 0.8, 0.6])
        cone = ConeSpec(mus=mus, x=x, gamma=0.4)
        far = cone.center + 2.0 * cone.radius * np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="outside the admissible ball"):
            worst_aligned_preconditioner(cone, far)

    def test_invalid_gamma(self):
        form = diag_form_for_mus([1.0, 0.5, 0.25])
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                synthetic_gamma_preconditioner(form, bad, seed=0)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_random_mode_needs_seed(self, gamma):
        form = diag_form_for_mus([1.0, 0.5, 0.25])
        with pytest.raises(ValueError, match="needs a seed"):
            synthetic_gamma_preconditioner(form, gamma)


class TestJacobiPreconditioner:
    def test_diagonal_a_gives_exact_inverse(self):
        pencil = SymmetricPencil(np.diag([1.0, 2.0, 4.0]), np.eye(3))
        t = jacobi_preconditioner(pencil)
        np.testing.assert_allclose(t.matrix, np.diag([1.0, 0.5, 0.25]), atol=1e-15)
        assert t.quality.gamma == pytest.approx(0.0, abs=1e-10)

    def test_identity_a(self):
        pencil = SymmetricPencil(np.eye(3), np.diag([1.0, 0.5, 0.25]))
        t = jacobi_preconditioner(pencil)
        np.testing.assert_array_equal(t.matrix, np.eye(3))

    def test_laplacian_regression_values(self):
        # frozen from the closed-form eigenvalues of diag(A)^-1 A = A/2
        pencil = generate_problem("laplacian1d", n=8)
        q = jacobi_preconditioner(pencil).quality
        assert q.gamma1 == pytest.approx(0.06030737921409161, rel=1e-10)
        assert q.gamma2 == pytest.approx(1.9396926207859082, rel=1e-10)
        assert q.gamma == pytest.approx(0.9396926207859084, rel=1e-10)


class TestEstimateQuality:
    def test_exact_inverse(self):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 6)
        pencil = SymmetricPencil(a, np.eye(6))
        t = exact_inverse_preconditioner(pencil)
        q = estimate_quality(pencil, t)
        assert q.gamma1 == pytest.approx(1.0, rel=1e-10)
        assert q.gamma2 == pytest.approx(1.0, rel=1e-10)
        assert q.gamma == pytest.approx(0.0, abs=1e-10)

    def test_scaled_inverse_cancels(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 5)
        pencil = SymmetricPencil(a, np.eye(5))
        t = exact_inverse_preconditioner(pencil).scaled(2.0)
        q = estimate_quality(pencil, t)
        assert q.gamma1 == pytest.approx(2.0, rel=1e-10)
        assert q.gamma2 == pytest.approx(2.0, rel=1e-10)
        assert q.gamma == pytest.approx(0.0, abs=1e-10)

    def test_constructed_norm(self):
        rng = np.random.default_rng(4)
        q_mat, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        eta = np.array([0.3, -0.3, 0.1, 0.0, -0.2])
        e = (q_mat * eta) @ q_mat.T
        e = (e + e.T) / 2.0
        pencil = SymmetricPencil(np.eye(5), np.eye(5))
        t = Preconditioner(np.eye(5) - e, None, coords="pencil")
        q = estimate_quality(pencil, t)
        assert q.gamma1 == pytest.approx(0.7, rel=1e-12)
        assert q.gamma2 == pytest.approx(1.3, rel=1e-12)
        assert q.gamma == pytest.approx(0.3, rel=1e-12)

    @pytest.mark.parametrize("coords", ["pencil", "diagonal"])
    def test_indefinite_preconditioner_rejected(self, coords):
        pencil = SymmetricPencil(np.diag([1.0, 2.0, 4.0]), np.eye(3))
        t = Preconditioner(np.diag([1.0, -0.5, 0.25]), None, coords)
        with pytest.raises(ValueError, match="^preconditioner is not positive definite against A$"):
            estimate_quality(pencil, t)

    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_exact_inverse_random_spd(self, n):
        rng = np.random.default_rng(100 + n)
        a = random_spd(rng, n)
        b = random_spd(rng, n)
        pencil = SymmetricPencil(a, b)
        q = estimate_quality(pencil, exact_inverse_preconditioner(pencil))
        assert q.gamma == pytest.approx(0.0, abs=1e-10)


class TestPreconditionerChecks:
    @pytest.mark.parametrize("matrix", [np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2))])
    def test_non_square_matrix_rejected(self, matrix):
        with pytest.raises(ValueError, match="^preconditioner matrix must be square$"):
            Preconditioner(matrix, None, "pencil")

    @pytest.mark.parametrize("coords", ["Pencil", "eigen", None])
    def test_unknown_coordinate_tag_rejected(self, coords):
        with pytest.raises(ValueError, match=f"^unknown coordinate tag {coords!r}$"):
            Preconditioner(np.eye(2), None, coords)

    def test_only_diagonal_coordinates_are_reached(self):
        form = diagonalize(generate_problem("laplacian1d", n=3))
        t = synthetic_gamma_preconditioner(form, 0.3, seed=1)
        assert t.in_coords("diagonal", form) is t
        with pytest.raises(ValueError, match="^cannot conjugate into 'pencil' coordinates$"):
            t.in_coords("pencil", form)


class TestRescale:
    def test_hand_values(self):
        t = Preconditioner(np.eye(2), PrecondQuality(gamma1=1.0, gamma2=3.0), "pencil")
        scaled = rescale(t)
        np.testing.assert_allclose(scaled.matrix, 0.5 * np.eye(2))
        assert (scaled.quality.gamma1, scaled.quality.gamma2) == (0.5, 1.5)
        assert scaled.quality.gamma == 0.5

    def test_equal_constants_give_gamma_zero(self):
        t = Preconditioner(np.eye(2), PrecondQuality(gamma1=4.0, gamma2=4.0), "pencil")
        assert rescale(t).quality.gamma == 0.0

    def test_idempotent(self):
        t = Preconditioner(np.eye(3), PrecondQuality(gamma1=0.5, gamma2=2.5), "pencil")
        once = rescale(t)
        twice = rescale(once)
        np.testing.assert_allclose(twice.matrix, once.matrix, rtol=1e-12)

    def test_missing_constants(self):
        t = Preconditioner(np.eye(2), None, "pencil")
        with pytest.raises(ValueError, match="equivalence constants"):
            rescale(t)

    @pytest.mark.parametrize("factor", [np.nan, np.inf, 0.0, -1.0])
    def test_scaled_needs_finite_positive_factor(self, factor):
        t = exact_inverse_preconditioner(SymmetricPencil(np.diag([1.0, 2.0, 4.0]), np.eye(3)))
        with pytest.raises(ValueError, match="scale factor"):
            t.scaled(factor)


class TestPsdScaleInvariance:
    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
    def test_ritz_pair_unchanged(self, c):
        mus = np.array([1.0, 0.6, 0.3, 0.1])
        pencil = SymmetricPencil(np.eye(4), np.diag(mus))
        form = diagonalize(pencil)
        t = synthetic_gamma_preconditioner(form, 0.5, seed=9)
        rng = np.random.default_rng(10)
        z = form.to_diagonal(rng.standard_normal(4))
        base = psd_step(form, t, z)
        scaled = psd_step(form, t.scaled(c), z)
        assert scaled.rho.rho == pytest.approx(base.rho.rho, rel=1e-12)
        np.testing.assert_allclose(scaled.x, base.x, atol=1e-12)


class TestQualityViews:
    def test_scaled_and_as_is_gammas(self):
        q = PrecondQuality(gamma1=0.5, gamma2=1.5)
        assert q.gamma == pytest.approx(0.5)
        assert q.as_is_gamma() == pytest.approx(0.5)
        q = PrecondQuality(gamma1=0.5, gamma2=3.0)
        assert q.gamma == pytest.approx(2.5 / 3.5)
        assert q.as_is_gamma() == pytest.approx(2.0)  # not admissible as-is

    def test_validation(self):
        for g1, g2 in ((2.0, 1.0), (0.0, 1.0), (-1.0, 1.0), (np.nan, 1.0), (0.5, np.nan),
                       (0.5, np.inf), (np.inf, np.inf)):
            with pytest.raises(ValueError, match="0 < gamma1 <= gamma2 < inf"):
                PrecondQuality(g1, g2)
        for gamma in (1.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\)"):
                PrecondQuality.ideal(gamma)

    def test_the_pair_is_the_whole_quality(self):
        assert [f.name for f in dataclasses.fields(PrecondQuality)] == ["gamma1", "gamma2"]
        assert [name for name in vars(PrecondQuality) if not name.startswith("_")] == [
            "ideal", "gamma", "as_is_gamma"]
        assert not hasattr(Preconditioner(np.eye(2), None, "pencil"), "n")
        q = PrecondQuality.ideal(0.3)
        assert (q.gamma1, q.gamma2) == (1.0 - 0.3, 1.0 + 0.3)
        assert q.gamma == (q.gamma2 - q.gamma1) / (q.gamma1 + q.gamma2)
        with pytest.raises(AttributeError):
            q.gamma = 0.3

    def test_scaled_scales_the_pair_and_keeps_none_unknown(self):
        t = Preconditioner(np.eye(2), PrecondQuality(0.5, 1.5), "pencil").scaled(4.0)
        assert (t.quality.gamma1, t.quality.gamma2) == (2.0, 6.0)
        t = Preconditioner(np.eye(2), None, "pencil").scaled(3.0)
        assert t.quality is None
        np.testing.assert_array_equal(t.matrix, 3.0 * np.eye(2))


@pytest.mark.parametrize("gamma", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("kind", ["psd", "pinvit1"])
def test_synthetic_run_certifies_with_the_derived_gamma(kind, gamma):
    # PSD takes the scale-invariant gamma, the fixed step the as-is one; both
    # derive from the pair, bitwise.  For the ideally scaled synthetic T they
    # agree to an ulp (at 0.9 the as-is one is 0.9, gamma 0.8999999999999999).
    pencil = generate_problem("laplacian1d", n=10)
    t = synthetic_gamma_preconditioner(diagonalize(pencil), gamma, seed=4)
    result = run(pencil, t, np.random.default_rng(5).standard_normal(10), kind, max_steps=20)
    want = t.quality.gamma if kind == "psd" else t.quality.as_is_gamma()
    assert result.certify_gamma == want
    assert result.certify_gamma == pytest.approx(gamma, rel=1e-15)
