"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines alongside the pytest report.
"""

import math
import time

import numpy as np
import pytest

from psdlab import (
    ConeSpec,
    SolverKind,
    Spectrum,
    SymmetricPencil,
    WorstCaseSetup,
    brute_force_cone_min,
    diagonalize,
    extremal_directions,
    generate_problem,
    pinvit1_step,
    psd_step,
    ritz_gap,
    ritz_on_segment,
    synthetic_gamma_preconditioner,
    t_star,
    three_d_concentration_check,
    worst_case_instance,
    worst_direction,
)
from psdlab.cli import ExperimentConfig, cmd_certify


class _verdict:
    """Prints '[acceptance] criterion NN (name): PASS|FAIL' on exit."""

    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] criterion {self.number:02d} ({self.name}): {status}")
        return False


def _certify_sweep(solvers, gammas, trials=200, n=20, seed=20260101):
    config = ExperimentConfig(
        command="certify", trials=trials, n=n, seed=seed,
        gammas=gammas, solvers=solvers,
    )
    return cmd_certify(config)


def _random_bracketed_cone(rng):
    mus = np.sort(rng.uniform(0.05, 3.0, size=3))[::-1]
    while np.min(-np.diff(mus)) < 1e-3:
        mus = np.sort(rng.uniform(0.05, 3.0, size=3))[::-1]
    setup = WorstCaseSetup(
        mus=mus, gamma=rng.uniform(0.05, 0.95),
        delta=10 ** rng.uniform(-4.0, 0.7), t=10 ** rng.uniform(-1.5, 1.5),
    )
    return setup.cone()


def test_criterion_01_psd_bound_validity():
    with _verdict(1, "PSD bound validity, 200 randomized trials"):
        start = time.perf_counter()
        report = _certify_sweep("psd", "0,0.3,0.6,0.9")
        elapsed = time.perf_counter() - start
        assert report.summary["violations"] == 0
        assert all(row["certified"] for row in report.records)
        checked = sum(row["checked_steps"] for row in report.records)
        assert checked > 1000  # the sweep really exercised many steps
        assert elapsed < 10.0, f"sweep took {elapsed:.1f} s"


def test_criterion_02_pinvit1_bound_validity():
    with _verdict(2, "PINVIT(1) bound validity, 200 randomized trials"):
        report = _certify_sweep("pinvit1", "0,0.3,0.6,0.9")
        assert report.summary["violations"] == 0
        assert all(row["certified"] for row in report.records)


def test_criterion_03_sharpness_limit():
    with _verdict(3, "sharp factor attained in the vanishing-error limit"):
        start = time.perf_counter()
        frozen = WorstCaseSetup(
            mus=np.array([1.0, 0.5, 0.1]), gamma=0.5, delta=1e-8,
            t=t_star(4.0 / 9.0, 0.5),
        )
        assert frozen.kappa == pytest.approx(4.0 / 9.0, rel=1e-15)
        assert frozen.sigma == pytest.approx(11.0 / 16.0, rel=1e-15)
        result = worst_case_instance(frozen)
        assert result.predicted_ratio == pytest.approx(0.47265625, rel=1e-15)
        assert result.measured_ratio == pytest.approx(result.predicted_ratio, rel=1e-3)
        for mus in (np.array([1.0, 0.5, 0.1]), np.array([2.0, 1.0, 0.25])):
            kappa = (mus[1] - mus[2]) / (mus[0] - mus[2])
            for gamma in (0.2, 0.5, 0.8):
                setup = WorstCaseSetup(mus=mus, gamma=gamma, delta=1e-8,
                                       t=t_star(kappa, gamma))
                res = worst_case_instance(setup)
                assert res.measured_ratio == pytest.approx(
                    res.predicted_ratio, rel=1e-3
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"sharpness runs took {elapsed:.2f} s"


def test_criterion_04_hierarchy_dominance():
    with _verdict(4, "optimal step never worse than fixed step"):
        rng = np.random.default_rng(404)
        for trial in range(100):
            n = 12
            lam = np.sort(np.exp(rng.uniform(0.0, np.log(1e3), size=n)))
            lam += lam * np.arange(n) * 1e-8
            pencil = SymmetricPencil(np.diag(lam), np.eye(n))
            form = diagonalize(pencil)
            gamma = float(rng.uniform(0.0, 0.95))
            t = synthetic_gamma_preconditioner(form, gamma, seed=trial)
            z = form.to_diagonal(rng.standard_normal(n))
            rho_psd = psd_step(form, t, z).rho.rho
            rho_fixed = pinvit1_step(form, t, z).rho.rho
            assert rho_psd <= rho_fixed + 1e-12


def test_criterion_05_worst_direction_oracle():
    with _verdict(5, "closed-form worst direction matches brute force"):
        rng = np.random.default_rng(505)
        for _ in range(50):
            cone = _random_bracketed_cone(rng)
            d = worst_direction(cone)
            closed = float(cone.mus[0] - ritz_gap(cone.mus, cone.x, d[None, :])[0])
            brute, _ = brute_force_cone_min(cone, 10_000)
            assert abs(brute - closed) <= 1e-8


def test_criterion_06_endpoint_extremality():
    with _verdict(6, "segment minimum sits at an endpoint"):
        rng = np.random.default_rng(606)
        ts = np.linspace(0.0, 1.0, 1001)
        for _ in range(100):
            cone = _random_bracketed_cone(rng)
            values = ritz_on_segment(cone, ts)
            assert int(np.argmin(values)) in (0, 1000)


def test_criterion_07_algebraic_identities():
    with _verdict(7, "off-diagonal, norm, and sign identities"):
        rng = np.random.default_rng(707)
        for _ in range(100):
            mus = np.sort(rng.uniform(0.05, 3.0, size=3))[::-1]
            while np.min(-np.diff(mus)) < 1e-3:
                mus = np.sort(rng.uniform(0.05, 3.0, size=3))[::-1]
            x = rng.uniform(0.05, 1.0, size=3)
            gamma = rng.uniform(0.05, 0.95)
            cone = ConeSpec(mus=mus, x=x, gamma=gamma)
            r_norm = np.linalg.norm(cone.r)
            bx = mus * cone.x
            off_expected = math.sqrt(1.0 - gamma**2) * r_norm
            for d in extremal_directions(cone):
                u = d - cone.mu_x * cone.x
                # norm identity
                got = np.linalg.norm(u) ** 2
                want = (1.0 - gamma**2) * r_norm**2
                assert abs(got - want) <= 1e-12 * want
                # off-diagonal identity (projection onto Bx is i-independent)
                got = (u / np.linalg.norm(u)) @ bx
                assert abs(got - off_expected) <= 1e-12 * off_expected
            # sign identity
            lhs = cone.r @ (mus * np.cross(cone.x, cone.r))
            rhs = -(x[0] * x[1] * x[2]
                    * (mus[0] - mus[1]) * (mus[0] - mus[2]) * (mus[1] - mus[2]))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-300)


def test_criterion_08_gamma_zero_reduction():
    with _verdict(8, "exact-inverse steepest descent meets its plain factor"):
        report = _certify_sweep("invit2", "0", trials=100)
        assert report.summary["violations"] == 0
        for row in report.records:
            if row["max_ratio_over_sigma_sq"] is not None:
                assert row["max_ratio_over_sigma_sq"] <= 1.0 + 1e-9


def test_criterion_09_scale_and_reflection_invariance():
    with _verdict(9, "preconditioner scaling and sign-flip invariances"):
        rng = np.random.default_rng(909)
        # PSD step invariant under T -> cT
        for trial in range(20):
            n = 8
            lam = np.sort(rng.uniform(0.5, 50.0, size=n))
            lam += np.arange(n) * 1e-6
            pencil = SymmetricPencil(np.diag(lam), np.eye(n))
            form = diagonalize(pencil)
            t = synthetic_gamma_preconditioner(form, 0.6, seed=trial)
            z = form.to_diagonal(rng.standard_normal(n))
            base = psd_step(form, t, z)
            for c in (0.1, 10.0):
                scaled = psd_step(form, t.scaled(c), z)
                assert abs(scaled.rho.rho - base.rho.rho) <= 1e-12 * base.rho.rho
                assert np.linalg.norm(scaled.x - base.x) <= 1e-12
        # cone minima invariant under coordinate reflections
        for trial in range(10):
            mus = np.sort(rng.uniform(0.1, 2.0, size=3))[::-1]
            while np.min(-np.diff(mus)) < 1e-2:
                mus = np.sort(rng.uniform(0.1, 2.0, size=3))[::-1]
            x = rng.uniform(0.2, 1.0, size=3)
            signs = rng.choice([-1.0, 1.0], size=3)
            base, _ = brute_force_cone_min(ConeSpec(mus=mus, x=x, gamma=0.4), 20_000)
            refl, _ = brute_force_cone_min(
                ConeSpec(mus=mus, x=x * signs, gamma=0.4), 20_000
            )
            assert abs(base - refl) <= 1e-10


def test_criterion_10_three_d_concentration():
    with _verdict(10, "worst case concentrates on three coordinates (report)"):
        mus = np.array([1.0, 0.6, 0.3, 0.1])
        spectrum = Spectrum(lambdas=1.0 / mus)
        report = three_d_concentration_check(
            spectrum, gamma=0.5, mu0=0.8, n_outer=20, seed=42
        )
        print()
        print(report.summary())
        assert report.n_significant <= 3
        # the search may never beat the closed-form 3-D worst value
        assert report.best_value >= report.reference_value - 1e-6
        assert report.reference_triple == (0, 1, 3)


def test_criterion_11_transform_round_trip():
    with _verdict(11, "diagonalization preserves the spectrum"):
        import scipy.linalg

        rng = np.random.default_rng(1111)
        for n in range(2, 13):
            for _ in range(3):
                q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                a = (q * np.exp(rng.uniform(0.0, 3.0, size=n))) @ q.T
                a = (a + a.T) / 2.0
                q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
                b = (q2 * np.exp(rng.uniform(0.0, 2.0, size=n))) @ q2.T
                b = (b + b.T) / 2.0
                pencil = SymmetricPencil(a, b)
                lam = diagonalize(pencil).spectrum().lambdas
                lam_ref = np.sort(scipy.linalg.eigh(a, b, eigvals_only=True))
                np.testing.assert_allclose(lam, lam_ref, rtol=1e-10)
