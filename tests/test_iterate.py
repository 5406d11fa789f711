"""Solver steps and the run driver: hand values, bounds, monotonicity."""

import numpy as np
import pytest

from psdlab import (
    PrecondQuality,
    Preconditioner,
    SolverKind,
    Spectrum,
    SymmetricPencil,
    bounds,
    diagonalize,
    generate_problem,
    pinvit1_step,
    psd_step,
    rayleigh,
    run,
    sigma,
    synthetic_gamma_preconditioner,
    exact_inverse_preconditioner,
    iterate,
)
from psdlab.errors import NumericFailure
from psdlab.iterate import StepResult
from psdlab.pencil import RayleighValue


def diag_pencil(lambdas):
    lam = np.asarray(lambdas, dtype=float)
    return SymmetricPencil(np.diag(lam), np.eye(lam.size))


def as_preconditioner(t):
    """A matrix in diagonal coordinates as the steps take it; ``apply`` is ``t.dot``."""
    return Preconditioner(t, None, "diagonal")


def random_instance(rng, n, gamma, seed):
    lam = np.sort(np.exp(rng.uniform(0.0, np.log(1e3), size=n)))
    lam += lam * np.arange(n) * 1e-8  # keep gaps strict
    pencil = diag_pencil(lam)
    form = diagonalize(pencil)
    t = synthetic_gamma_preconditioner(form, gamma, seed=seed)
    x0 = rng.standard_normal(n)
    return pencil, t, x0


class TestPinvit1Step:
    def test_hand_example_exact_inverse(self):
        pencil = diag_pencil([1.0, 2.0])
        form = diagonalize(pencil)
        t = exact_inverse_preconditioner(pencil).in_coords("diagonal", form)
        res = pinvit1_step(form, t, form.to_diagonal([1.0, 1.0]))
        # x' proportional to (1.5, 0.75)
        direction = np.array([1.5, 0.75])
        x_next = form.from_diagonal(res.x)
        np.testing.assert_allclose(
            x_next / np.linalg.norm(x_next), direction / np.linalg.norm(direction), rtol=1e-14
        )
        assert res.rho.rho == pytest.approx(1.2, rel=1e-14)

    def test_eigenvector_is_fixed_point(self):
        form = diagonalize(diag_pencil([1.0, 2.0, 4.0]))
        e1 = np.array([1.0, 0.0, 0.0])
        res = pinvit1_step(form, as_preconditioner(np.eye(3)), e1)
        assert res.converged
        np.testing.assert_array_equal(res.x, e1)

    def test_fixed_step_bound_single_steps(self):
        rng = np.random.default_rng(21)
        for trial in range(50):
            gamma = float(rng.choice([0.0, 0.3, 0.6, 0.9]))
            pencil, t, x = random_instance(rng, 8, gamma, seed=trial)
            spectrum = diagonalize(pencil).spectrum()
            form = diagonalize(pencil)
            z = form.to_diagonal(x)
            res = pinvit1_step(form, t, z)
            i = bounds.locate_interval(spectrum, rayleigh(pencil, x).rho)
            deltas = [iterate._delta(spectrum.lambdas, form.mus, v, i) for v in (z, res.x)]
            check = bounds.certify_step(spectrum, gamma, i, deltas, kind="pinvit1")
            assert check.verdict != bounds.VIOLATED


@pytest.mark.parametrize("step", [psd_step, pinvit1_step])
def test_a_step_from_the_zero_vector_is_rejected(step):
    form = diagonalize(diag_pencil([1.0, 2.0, 4.0]))
    with pytest.raises(ValueError, match="^Rayleigh quotient of the zero vector is undefined$"):
        step(form, None, np.zeros(3))


class TestPsdStep:
    def test_invariant_subspace_one_step(self):
        form = diagonalize(diag_pencil([1.0, 2.0, 4.0]))
        res = psd_step(form, as_preconditioner(np.eye(3)), form.to_diagonal([1.0, 1.0, 0.0]))
        assert res.rho.rho == pytest.approx(1.0, abs=1e-14)

    def test_scaled_preconditioner_same_step(self):
        form = diagonalize(diag_pencil([1.0, 2.0, 4.0, 9.0]))
        rng = np.random.default_rng(2)
        z = form.to_diagonal(rng.standard_normal(4))
        t = np.eye(4) * 0.7
        base = psd_step(form, as_preconditioner(t), z)
        scaled = psd_step(form, as_preconditioner(10.0 * t), z)
        np.testing.assert_allclose(scaled.x, base.x, atol=1e-13)
        assert scaled.rho.rho == pytest.approx(base.rho.rho, rel=1e-13)

    def test_dominates_fixed_step(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            gamma = float(rng.uniform(0.0, 0.95))
            pencil, t, x = random_instance(rng, 7, gamma, seed=1000 + trial)
            form = diagonalize(pencil)
            z = form.to_diagonal(x)
            rho_psd = psd_step(form, t, z).rho.rho
            rho_fixed = pinvit1_step(form, t, z).rho.rho
            assert rho_psd <= rho_fixed + 1e-12 * abs(rho_fixed)

    def test_ritz_optimality_against_line_samples(self):
        # no sampled step length beats the implicit optimum
        rng = np.random.default_rng(4)
        pencil, t, x = random_instance(rng, 6, 0.5, seed=11)
        form = diagonalize(pencil)
        z = form.to_diagonal(x)
        mu_pencil = SymmetricPencil(np.eye(6), np.diag(form.mus))
        value = rayleigh(mu_pencil, z)
        r_mu = mu_pencil.b @ z - value.mu * z
        d = t.matrix @ r_mu
        best = psd_step(form, t, z).rho.rho
        thetas = np.concatenate([-np.logspace(-3, 3, 25), np.logspace(-3, 3, 25)])
        for theta in thetas:
            candidate = value.mu * z + theta * d
            assert best <= rayleigh(mu_pencil, candidate).rho + 1e-12

    def test_theta_opt_reproduces_iterate(self):
        form = diagonalize(diag_pencil([1.0, 3.0, 5.0, 11.0]))
        pencil = SymmetricPencil(np.eye(4), np.diag(form.mus))
        rng = np.random.default_rng(5)
        x = form.to_diagonal(rng.standard_normal(4))
        t = 0.9 * np.eye(4)
        res = psd_step(form, as_preconditioner(t), x)
        assert np.isfinite(res.theta_opt)
        value = rayleigh(pencil, x)
        r = pencil.a @ x - value.rho * (pencil.b @ x)
        manual = x - res.theta_opt * (t @ r)
        assert rayleigh(pencil, manual).rho == pytest.approx(res.rho.rho, rel=1e-12)

    def test_stationary_direction_returns_converged(self):
        form = diagonalize(diag_pencil([1.0, 2.0, 4.0]))
        pencil = SymmetricPencil(np.eye(3), np.diag(form.mus))
        x = form.to_diagonal([1.0, 1.0, 0.0])
        value = rayleigh(pencil, x)
        r = pencil.a @ x - value.rho * (pencil.b @ x)
        # rank-one preconditioner-like map sending r onto x (degenerate span)
        t = np.outer(x, r) / (r @ r)
        res = psd_step(form, as_preconditioner(t), x)
        assert res.converged
        np.testing.assert_allclose(res.x, x / np.linalg.norm(x), atol=1e-15)


class TestInvitSteps:
    def test_invit1_matches_pinvit1_with_exact_inverse(self):
        pencil = diag_pencil([1.0, 2.0])
        form = diagonalize(pencil)
        z = form.to_diagonal([1.0, 1.0])
        res = pinvit1_step(form, None, z)
        t = exact_inverse_preconditioner(pencil).in_coords("diagonal", form)
        ref = pinvit1_step(form, t, z)
        np.testing.assert_allclose(res.x, ref.x, rtol=1e-14)
        assert res.rho.rho == pytest.approx(1.2, rel=1e-14)

    def test_invit1_fixed_point(self):
        form = diagonalize(diag_pencil([1.0, 2.0, 4.0]))
        res = pinvit1_step(form, None, form.to_diagonal([1.0, 0.0, 0.0]))
        assert res.converged

    def test_invit1_asymptotic_factor(self):
        # delta-ratio per step bounded by (lambda_1 / lambda_2)^2 near
        # lambda_1, attained when the error concentrates on e_2
        lam = np.array([1.0, 2.0, 4.0])
        pencil = diag_pencil(lam)
        form = diagonalize(pencil)
        spectrum = Spectrum(lambdas=lam)
        for x, attained in ((np.array([1.0, 1e-4, 1e-4]), False),
                            (np.array([1.0, 1e-4, 0.0]), True)):
            rho = rayleigh(pencil, x).rho
            res = pinvit1_step(form, None, form.to_diagonal(x))
            ratio = (bounds.delta(spectrum, 0, res.rho.rho)
                     / bounds.delta(spectrum, 0, rho))
            assert ratio <= 0.25 * (1.0 + 1e-6)
            if attained:
                assert ratio == pytest.approx(0.25, rel=1e-6)

    def test_invit2_equals_psd_with_exact_inverse(self):
        rng = np.random.default_rng(6)
        pencil = SymmetricPencil(
            np.diag([1.0, 2.0, 4.0, 8.0]), np.eye(4)
        )
        form = diagonalize(pencil)
        x = form.to_diagonal(rng.standard_normal(4))
        t = exact_inverse_preconditioner(pencil).in_coords("diagonal", form)
        res = psd_step(form, None, x)
        ref = psd_step(form, t, x)
        np.testing.assert_allclose(res.x, ref.x, atol=1e-13)
        assert res.rho.rho == pytest.approx(ref.rho.rho, rel=1e-13)


class TestRun:
    def test_psd_exact_preconditioner_converges(self):
        rng = np.random.default_rng(7)
        lam = np.sort(rng.uniform(0.5, 30.0, size=10))
        pencil = diag_pencil(lam)
        form = diagonalize(pencil)
        t = synthetic_gamma_preconditioner(form, 0.0, seed=1)
        result = run(pencil, t, rng.standard_normal(10), SolverKind.PSD,
                     max_steps=200)
        assert result.status == "converged"
        assert result.final.rho.rho == pytest.approx(lam[0], abs=1e-10 * lam[0])
        assert bounds.VIOLATED not in result.verdicts

    def test_eigenvector_start_terminates_immediately(self):
        pencil = diag_pencil([1.0, 2.0, 4.0])
        x0 = np.array([0.0, 1.0, 0.0])
        t = synthetic_gamma_preconditioner(diagonalize(pencil), 0.0, seed=0)
        result = run(pencil, t, x0, SolverKind.PSD)
        assert result.status == "converged"
        assert result.final.rho.rho == pytest.approx(2.0, abs=1e-12)
        assert result.final.step_index <= 1
        # a step that finds the start stationary is not checked
        assert (result.verdicts, result.max_ratio_over_sigma_sq) == ({}, None)

    def test_rho_monotone_along_records(self):
        rng = np.random.default_rng(8)
        for kind in SolverKind:
            pencil, t, x0 = random_instance(rng, 9, 0.6, seed=77)
            result = run(pencil, t, x0, kind, max_steps=60)
            rhos = [rec.rho.rho for rec in result.records]
            for a, b in zip(rhos, rhos[1:]):
                assert b <= a * (1.0 + 1e-12)

    def test_fixed_step_slower_than_psd_at_high_gamma(self):
        rng = np.random.default_rng(9)
        pencil, t, x0 = random_instance(rng, 12, 0.9, seed=5)
        kwargs = dict(max_steps=500, delta_tol=1e-8, residual_tol=0.0)
        steps_psd = run(pencil, t, x0, SolverKind.PSD, **kwargs).final.step_index
        steps_fixed = run(pencil, t, x0, SolverKind.PINVIT1, **kwargs).final.step_index
        assert steps_fixed > steps_psd

    def test_eigenvector_stationary_for_further_steps(self):
        pencil = diag_pencil([1.0, 2.0, 4.0])
        form = diagonalize(pencil)
        z = form.to_diagonal([0.0, 0.0, 1.0])
        for _ in range(5):
            res = psd_step(form, as_preconditioner(np.eye(3)), z)
            assert res.converged
            z = res.x
        assert rayleigh(pencil, form.from_diagonal(z)).rho == pytest.approx(4.0)

    def test_certification_skipped_for_unscaled_fixed_step(self):
        pencil = generate_problem("laplacian1d", n=12)
        form = diagonalize(pencil)
        t = synthetic_gamma_preconditioner(form, 0.3, seed=2).scaled(4.0)
        rng = np.random.default_rng(11)
        result = run(pencil, t, rng.standard_normal(12), SolverKind.PINVIT1,
                     max_steps=50)
        assert not result.certified
        assert "quality mismatch" in result.certify_note
        assert all(rec.bound is None for rec in result.records)

    def test_psd_certifies_despite_scaling(self):
        pencil = generate_problem("laplacian1d", n=12)
        form = diagonalize(pencil)
        t = synthetic_gamma_preconditioner(form, 0.3, seed=2).scaled(4.0)
        rng = np.random.default_rng(11)
        result = run(pencil, t, rng.standard_normal(12), SolverKind.PSD,
                     max_steps=50)
        assert result.certified
        assert result.certify_gamma == pytest.approx(0.3, abs=1e-12)
        assert bounds.VIOLATED not in result.verdicts

    def test_invit_kinds_need_no_preconditioner(self):
        pencil = diag_pencil([1.0, 2.0, 4.0, 7.0])
        rng = np.random.default_rng(12)
        result = run(pencil, None, rng.standard_normal(4), SolverKind.INVIT2)
        assert result.status == "converged"
        assert result.final.rho.rho == pytest.approx(1.0, abs=1e-10)

    def test_general_pencil_run_maps_back(self):
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a = (q * np.linspace(1.0, 5.0, 6)) @ q.T
        a = (a + a.T) / 2.0
        b = np.diag(rng.uniform(0.5, 2.0, size=6))
        pencil = SymmetricPencil(a, b)
        result = run(pencil, None, rng.standard_normal(6), SolverKind.INVIT2)
        assert result.status == "converged"
        lam1 = diagonalize(pencil).spectrum().lambdas[0]
        assert result.final.rho.rho == pytest.approx(lam1, rel=1e-10)
        # reported iterate reproduces the reported Rayleigh quotient
        assert rayleigh(pencil, result.x).rho == pytest.approx(
            result.final.rho.rho, rel=1e-12
        )

    @pytest.mark.parametrize("kind", list(SolverKind))
    def test_bound_deltas_are_record_deltas(self, kind):
        # The check takes its deltas from the driver, in the lambda form
        # the records use, and stores them as they are.
        pencil = diag_pencil([1.0, 2.0, 4.0, 8.0])
        t = synthetic_gamma_preconditioner(diagonalize(pencil), 0.3, seed=1)
        result = run(pencil, t, np.array([1.0, 1e-2, 1e-2, 1e-2]), kind)
        pairs = [
            (prev, rec) for prev, rec in zip(result.records, result.records[1:])
            if rec.bound is not None and rec.bound.verdict == bounds.HOLDS
        ]
        assert len(pairs) >= 5
        for prev, rec in pairs:
            # exact: the deltas below 1e-12 must agree too
            assert rec.bound.delta_after == rec.delta
            assert rec.bound.delta_before == prev.delta

    # Ratio tests cannot see the lambda_i / lambda_{i+1} factor of the
    # lambda form, since it cancels in the ratio; the closed form can.
    @pytest.mark.parametrize("lambdas", [
        (1.0, 2.0, 4.0, 8.0),
        tuple(1.5 ** np.arange(10)),
        tuple(np.linspace(1.0, 30.0, 7)),
    ], ids=["doubling", "geometric", "linear"])
    @pytest.mark.parametrize("kind", list(SolverKind))
    def test_record_delta_is_the_closed_form(self, lambdas, kind):
        pencil = diag_pencil(lambdas)
        form = diagonalize(pencil)
        spectrum = form.spectrum()
        t = synthetic_gamma_preconditioner(form, 0.3, seed=4)
        # Weighted towards the top, so the run crosses several intervals.
        x0 = np.linspace(0.2, 1.0, len(lambdas))
        result = run(pencil, t, x0, kind, max_steps=200)
        checked = [rec for rec in result.records
                   if rec.delta is not None and rec.delta >= 1e-6]
        assert len(checked) >= 3
        assert len({bounds.locate_interval(spectrum, rec.rho.rho) for rec in checked}) >= 2
        for rec in checked:
            i = bounds.locate_interval(spectrum, rec.rho.rho)
            closed_form = bounds.delta(spectrum, i, rec.rho.rho)
            assert rec.delta == pytest.approx(closed_form, rel=1e-9)

    def test_start_under_delta_tol_stops_after_zero_steps(self):
        pencil = diag_pencil([1.0, 2.0, 4.0, 8.0])
        x0 = np.array([1.0, 1e-4, 0.0, 0.0])
        result = run(pencil, None, x0, SolverKind.INVIT2, delta_tol=1e-6)
        assert result.records[0].residual_norm > 1e-10
        assert result.records[0].delta < 1e-6
        assert result.status == "converged"
        assert [rec.step_index for rec in result.records] == [0]

    def test_delta_tol_needs_the_first_interval(self):
        # A start near lambda_2's eigenvector has a small delta on interval 1;
        # that is a stall, not convergence, so the run goes on to lambda_1.
        pencil = diag_pencil([1.0, 2.0, 4.0])
        x0 = np.array([1e-4, 1.0, 1e-3])
        result = run(pencil, None, x0, SolverKind.INVIT1, delta_tol=1e-3)
        assert result.records[0].delta < 1e-3
        assert result.status == "converged"
        assert len(result.records) > 1
        assert result.final.rho.rho == pytest.approx(1.0, rel=1e-3)
        assert result.final.delta < 1e-3

    def test_delta_tol_on_a_repeated_lambda_1(self):
        # The first interval starts at the last copy of lambda_1.
        pencil = diag_pencil([1.0, 1.0, 2.0, 4.0])
        x0 = np.array([1.0, 1.0, 1e-4, 0.0])
        result = run(pencil, None, x0, SolverKind.INVIT2, delta_tol=1e-6)
        assert result.records[0].residual_norm > 1e-10
        assert [rec.step_index for rec in result.records] == [0]
        assert result.status == "converged"

    def test_max_steps_status(self):
        rng = np.random.default_rng(14)
        pencil, t, x0 = random_instance(rng, 10, 0.9, seed=3)
        result = run(pencil, t, x0, SolverKind.PINVIT1, max_steps=3)
        assert result.status == "max_steps"
        assert result.final.step_index == 3


class TestRepeatedEigenvalues:
    # A repeated eigenvalue at the bottom, in the middle and at the top of
    # the spectrum; the last start is the one that used to raise "kappa
    # needs strict gaps" for every kind.
    @pytest.mark.parametrize("lambdas", [
        (1.0, 1.0, 2.0, 3.0),
        (1.0, 2.0, 2.0, 3.0),
        (1.0, 2.0, 3.0, 3.0),
        (1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0),
    ])
    @pytest.mark.parametrize("kind", list(SolverKind))
    def test_run_reaches_a_verdict(self, lambdas, kind):
        pencil = diag_pencil(lambdas)
        n = len(lambdas)
        x0 = np.full(n, 1e-3)
        x0[-2:] = 1.0
        t = synthetic_gamma_preconditioner(diagonalize(pencil), 0.3, seed=1)
        result = run(pencil, t, x0, kind)
        assert result.status == "converged"
        assert result.certified
        assert result.final.rho.rho == pytest.approx(1.0, rel=1e-12)
        assert bounds.VIOLATED not in result.verdicts
        assert sum(rec.bound is not None for rec in result.records) >= 1


def test_overflowing_kappa_product_certifies_a_correct_step():
    # kappa's direct form overflowed here to kappa 0, so sigma^2 = 0 turned
    # a correct INVIT(2) step into a violation.
    result = run(diag_pencil([1.0, 2.0, 1e308]), None, [1.0, 1.0, 1.0], "invit2",
                 max_steps=50)
    assert result.certified
    assert bounds.VIOLATED not in result.verdicts
    assert sum(rec.bound is not None for rec in result.records) >= 1


class TestUncertifiedRuns:
    # The synthetic preconditioner's matrix with its quality metadata
    # replaced: nothing known, or the ideally scaled quality of a gamma.
    @staticmethod
    def _run(kind, quality):
        pencil = generate_problem("laplacian1d", n=12)
        t = synthetic_gamma_preconditioner(diagonalize(pencil), 0.3, seed=2)
        t = Preconditioner(matrix=t.matrix, quality=quality, coords=t.coords)
        rng = np.random.default_rng(11)
        return run(pencil, t, rng.standard_normal(12), kind, max_steps=50)

    @pytest.mark.parametrize("kind", [SolverKind.PSD, SolverKind.PINVIT1])
    def test_unknown_quality_skips_certification(self, kind):
        result = self._run(kind, None)
        assert not result.certified
        assert result.certify_gamma is None
        assert result.certify_note == "preconditioner quality unknown"
        assert all(rec.bound is None for rec in result.records)
        assert (result.verdicts, result.max_ratio_over_sigma_sq) == ({}, None)

    @pytest.mark.parametrize("kind", [SolverKind.PSD, SolverKind.PINVIT1])
    def test_gamma_only_quality_certifies(self, kind):
        quality = PrecondQuality.ideal(0.3)
        result = self._run(kind, quality)
        assert result.certified
        assert result.certify_gamma == (quality.gamma if kind.line_search
                                        else quality.as_is_gamma())
        assert result.certify_note == ""
        assert any(rec.bound is not None for rec in result.records)
        assert bounds.VIOLATED not in result.verdicts


class TestRunGuards:
    # run() is the one place that rejects a non-finite or rising rho; the
    # steps are replaced by fakes that report a chosen Rayleigh quotient.
    @staticmethod
    def _fake_step(monkeypatch, name, rho_of):
        def step(form, t, prev):
            # run() hands each step the previous StepResult
            z = prev.x
            m = iterate._measure(form.mus, z)
            return StepResult(x=z, rho=RayleighValue.from_rho(rho_of(m.value.rho)),
                              theta_opt=1.0, measure=m)
        monkeypatch.setattr(iterate, name, step)

    @staticmethod
    def _run(kind, scale=1.0):
        pencil = generate_problem("laplacian1d", n=12)
        t = synthetic_gamma_preconditioner(diagonalize(pencil), 0.3, seed=2).scaled(scale)
        rng = np.random.default_rng(11)
        return run(pencil, t, rng.standard_normal(12), kind, max_steps=3)

    @pytest.mark.parametrize("kind, name", [
        (SolverKind.PSD, "psd_step"),
        (SolverKind.PINVIT1, "pinvit1_step"),
    ])
    def test_rise_raises(self, monkeypatch, kind, name):
        self._fake_step(monkeypatch, name, lambda rho: rho * (1.0 + 10 * iterate._MONOTONE_TOL))
        with pytest.raises(NumericFailure, match="increased the Rayleigh quotient"):
            self._run(kind)

    def test_rise_within_tolerance_passes(self, monkeypatch):
        slack = 0.5 * iterate._MONOTONE_TOL
        self._fake_step(monkeypatch, "psd_step", lambda rho: rho * (1.0 + slack))
        result = self._run(SolverKind.PSD)
        assert result.final.step_index == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("kind, name, scale", [
        (SolverKind.PSD, "psd_step", 1.0),
        (SolverKind.PINVIT1, "pinvit1_step", 1.0),
        (SolverKind.PINVIT1, "pinvit1_step", 4.0),
    ])
    def test_non_finite_rho_raises(self, monkeypatch, bad, kind, name, scale):
        self._fake_step(monkeypatch, name, lambda rho: bad)
        with pytest.raises(NumericFailure, match="non-finite"):
            self._run(kind, scale)

    def test_uncertified_fixed_step_may_rise(self, monkeypatch):
        # A quality mismatch leaves the fixed step without a monotonicity
        # guarantee, so a rise is recorded rather than raised.
        self._fake_step(monkeypatch, "pinvit1_step", lambda rho: 1.5 * rho)
        result = self._run(SolverKind.PINVIT1, scale=4.0)
        assert not result.certified
        assert "quality mismatch" in result.certify_note
        # the fake step keeps the iterate, so every step reports 1.5 rho(x0)
        rhos = [rec.rho.rho for rec in result.records]
        assert rhos[1:] == [1.5 * rhos[0]] * 3


class TestRunStart:
    # x0 is checked; a start whose max-abs entry is near the overflow or
    # underflow threshold is scaled by a power of two on either side of the
    # map to diagonal coordinates, an ordinary start is left as it is.
    @staticmethod
    def _setup():
        pencil = generate_problem("laplacian1d", n=4)
        t = synthetic_gamma_preconditioner(diagonalize(pencil), 0.4, seed=8)
        return pencil, t

    @staticmethod
    def _bits(result):
        return [
            (rec.step_index, rec.rho.rho.hex(), rec.rho.mu.hex(), rec.residual_norm.hex(),
             None if rec.delta is None else float(rec.delta).hex(), rec.bound, rec.theta_opt)
            for rec in result.records
        ] + [result.status, result.x.tobytes()]

    @pytest.mark.parametrize("x0", [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0, 5.0],
                                    [[1.0, 2.0, 3.0, 4.0]]])
    def test_wrong_shape_names_x0(self, x0):
        pencil, t = self._setup()
        with pytest.raises(ValueError, match="x0 must be a vector of length 4"):
            run(pencil, t, x0, "psd")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_names_x0(self, bad):
        pencil, t = self._setup()
        with pytest.raises(ValueError, match="x0 has a non-finite entry"):
            run(pencil, t, [1.0, bad, 0.5, 0.25], "psd")

    @pytest.mark.parametrize("x0", [np.zeros(4), [0.0, -0.0, 0.0, 0.0]])
    def test_zero_start_rejected(self, x0):
        pencil, t = self._setup()
        with pytest.raises(ValueError, match="^x0 must be nonzero$"):
            run(pencil, t, x0, "psd")

    @pytest.mark.parametrize("kind", ["psd", "pinvit1"])
    def test_preconditioned_kind_needs_a_preconditioner(self, kind):
        pencil, _ = self._setup()
        with pytest.raises(ValueError, match=f"^{kind} needs a preconditioner$"):
            run(pencil, None, [1.0, 0.5, 0.5, 0.25], kind)

    @pytest.mark.parametrize("name", ["residual_tol", "delta_tol"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-12])
    def test_bad_tolerance_names_its_parameter(self, name, bad):
        # A NaN tolerance would never stop the run: res_norm < nan is false.
        pencil, t = self._setup()
        with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
            run(pencil, t, [1.0, 0.5, 0.5, 0.25], "psd", **{name: bad})

    def test_zero_tolerances_run(self):
        pencil, t = self._setup()
        result = run(pencil, t, [1.0, 0.5, 0.5, 0.25], "psd", max_steps=3,
                     residual_tol=0.0, delta_tol=0.0)
        assert result.status == "max_steps"

    @pytest.mark.parametrize("kind", list(SolverKind))
    @pytest.mark.parametrize("power", [1000, -1000])
    def test_power_of_two_scaling_keeps_every_bit(self, kind, power):
        pencil, t = self._setup()
        x0 = np.random.default_rng(2).standard_normal(4)
        base = run(pencil, t, x0, kind, max_steps=30)
        scaled = run(pencil, t, x0 * 2.0 ** power, kind, max_steps=30)
        assert self._bits(scaled) == self._bits(base)

    @pytest.mark.parametrize("x0, direction", [
        ([1e300, 1e300, 1.0, 1.0], [1.0, 1.0, 1e-300, 1e-300]),
        ([1e-320, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
        ([-1e308, 1.7e308, 1e308, 0.0], [-1.0, 1.7, 1.0, 0.0]),
    ])
    def test_extreme_entries_run_like_their_direction(self, x0, direction):
        pencil, t = self._setup()
        result = run(pencil, t, x0, "psd", max_steps=20)
        reference = run(pencil, t, direction, "psd", max_steps=20)
        assert len(result.records) == len(reference.records)
        for rec, ref in zip(result.records, reference.records):
            assert rec.rho.rho == pytest.approx(ref.rho.rho, rel=1e-12)
            assert np.isfinite(rec.residual_norm)
        assert np.all(np.isfinite(result.x))


class TestScaleInvariance:
    # Every sharp quantity is invariant under lambda -> c lambda, so a run on
    # c A takes as many steps to the same verdicts, however far c is from 1.
    LAMBDAS = [1.0, 2.0, 4.0, 7.0, 11.0]
    X0 = [1.0, 0.7, -0.4, 0.3, 0.2]

    @staticmethod
    def _run(kind, scale, lambdas, x0, max_steps):
        pencil = diag_pencil(scale * np.asarray(lambdas))
        t = None
        if not SolverKind.parse(kind).exact_inverse:
            t = synthetic_gamma_preconditioner(diagonalize(pencil), 0.5, seed=1)
        return run(pencil, t, x0, kind, max_steps=max_steps)

    @staticmethod
    def _summary(result):
        verdicts = [None if rec.bound is None else rec.bound.verdict for rec in result.records]
        return len(result.records), result.status, verdicts

    @pytest.mark.parametrize("kind, scale", [
        *((kind, scale) for kind in ("invit2", "psd")
          for scale in (1e200, 1e-200, 1e300, 1e-300)),
        *((kind, scale) for kind in ("invit1", "pinvit1") for scale in (1e200, 1e-200)),
    ])
    def test_steps_and_verdicts_do_not_depend_on_the_scale(self, kind, scale):
        base = self._run(kind, 1.0, self.LAMBDAS, self.X0, 200)
        scaled = self._run(kind, scale, self.LAMBDAS, self.X0, 200)
        assert base.status == "converged"
        assert self._summary(scaled) == self._summary(base)
        for rec, ref in zip(scaled.records, base.records):
            assert rec.rho.rho / scale == pytest.approx(ref.rho.rho, rel=1e-13)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_invit2_on_three_extreme_eigenvalues(self, scale):
        # The line search's 2x2 entries are about 5e-201 at scale 1e200 and
        # 5e199 at 1e-200: their squares leave the normal range.
        base = self._run("invit2", 1.0, [1.0, 2.0, 4.0], np.ones(3), 50)
        scaled = self._run("invit2", scale, [1.0, 2.0, 4.0], np.ones(3), 50)
        assert scaled.status == "converged"
        assert bounds.VIOLATED not in scaled.verdicts
        assert self._summary(scaled) == self._summary(base)
