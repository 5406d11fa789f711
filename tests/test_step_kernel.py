"""The O(n) step kernel against the general Rayleigh-Ritz reference.

``psd_step`` and ``pinvit1_step`` take a :class:`DiagonalForm`, apply
``A = I`` and ``B = diag(mus)`` to vectors and solve the 2x2 Ritz problem
in closed form.  The reference here is the textbook step on a dense
pencil: Rayleigh quotient, residual, and the general LAPACK-backed
:func:`rayleigh_ritz` over ``[x, T r]``.  General pencils (``A != I``)
reach the kernel through :func:`run`.  The kernel's 2x2 routine is also
:func:`ritz_gap`'s, and both callers are held to LAPACK and to each
other.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import psdlab.cli as cli
from psdlab import (
    DegenerateSubspaceError,
    Preconditioner,
    SolverKind,
    SymmetricPencil,
    diagonalize,
    generate_problem,
    jacobi_preconditioner,
    pinvit1_step,
    psd_step,
    rayleigh,
    rayleigh_ritz,
    ritz_gap,
    run,
    synthetic_gamma_preconditioner,
)
from psdlab.pencil import _shifted_ritz_2x2


def as_preconditioner(t):
    """A matrix in diagonal coordinates as the steps take it; ``apply`` is ``t.dot``."""
    return Preconditioner(t, None, "diagonal")


def reference_step(dense, t, x, line_search):
    """The step on a dense pencil through the general Rayleigh-Ritz path.

    Returns ``(converged, rho, vector, theta_opt)``.
    """
    x = np.asarray(x, dtype=float)
    value = rayleigh(dense, x)
    ax = dense.a @ x
    r = ax - value.rho * (dense.b @ x)
    if np.linalg.norm(r) < 1e-13 * np.linalg.norm(ax):
        return True, value.rho, x / np.linalg.norm(x), None
    d = t @ r
    if not line_search:
        x_next = x - d
        x_next = x_next / np.linalg.norm(x_next)
        return False, rayleigh(dense, x_next).rho, x_next, 1.0
    if np.linalg.norm(d) < 1e-14 * np.linalg.norm(x):
        return True, value.rho, x / np.linalg.norm(x), None
    try:
        best = rayleigh_ritz(dense, [x, d])[0]
    except DegenerateSubspaceError:
        return True, value.rho, x / np.linalg.norm(x), None
    c_x, c_d = best.basis_coefficients
    theta = math.inf if abs(c_x) < 1e-14 * max(abs(c_x), abs(c_d)) else -c_d / c_x
    return False, best.rho, best.vector, theta


def spectrum_with_condition(rng, n, log10_cond):
    lam = np.sort(10.0 ** rng.uniform(0.0, log10_cond, size=n))
    lam[0], lam[-1] = 1.0, 10.0 ** log10_cond
    return lam


@st.composite
def step_cases(draw):
    n = draw(st.integers(min_value=3, max_value=30))
    log10_cond = draw(st.floats(min_value=0.5, max_value=12.0))
    gamma = draw(st.floats(min_value=0.0, max_value=0.99))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    start = draw(st.sampled_from(["random", "near_stationary", "stationary"]))
    offset = draw(st.sampled_from([1e-3, 1e-7, 1e-11, 1e-13, 1e-15]))
    # tilt None: a synthetic preconditioner of quality gamma.  Otherwise a
    # rank-one T with T r = x + tilt ||x|| v, which probes the rank test of
    # the basis [x, T r] on both sides of its 1e-10 tolerance.
    tilt = draw(st.sampled_from([None, None, 1e-6, 1e-9, 3e-10, 3e-11, 1e-12]))
    return n, log10_cond, gamma, seed, start, offset, tilt


def build_case(n, log10_cond, gamma, seed, start, offset, tilt=None):
    """``(form, T as a matrix, x)`` of one generated case."""
    rng = np.random.default_rng(seed)
    lam = spectrum_with_condition(rng, n, log10_cond)
    form = diagonalize(generate_problem("diagonal", lambdas=lam))
    t = synthetic_gamma_preconditioner(form, gamma, seed=seed).matrix
    if start == "random":
        x = rng.standard_normal(n)
    else:
        x = np.zeros(n)
        x[rng.integers(n)] = 1.0
        if start == "near_stationary":
            x += offset * rng.standard_normal(n)
    if tilt is not None:
        rho = (x @ x) / (x @ (form.mus * x))
        r = x - rho * (form.mus * x)
        if r @ r > 0.0:
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            t = np.outer(x + tilt * np.linalg.norm(x) * v, r) / (r @ r)
    return form, t, x


@pytest.mark.parametrize("step, line_search", [(psd_step, True), (pinvit1_step, False)])
@given(case=step_cases())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_kernel_matches_general_rayleigh_ritz(step, line_search, case):
    form, t, x = build_case(*case)
    dense = SymmetricPencil(np.eye(form.n), np.diag(form.mus))
    res = step(form, as_preconditioner(t), x)
    converged, rho, vec, theta = reference_step(dense, t, x, line_search)
    assert res.converged == converged
    # A tilted T r pins span{x, T r} down only to about eps / tilt, so two
    # correct routes may differ by that much more.
    tilt = case[-1]
    slack = 0.0 if tilt is None else 1e-14 / tilt
    assert res.rho.rho == pytest.approx(rho, rel=1e-12 + slack)
    # same sign convention as RitzPair.basis_coefficients, not just up to sign
    np.testing.assert_allclose(res.x, vec, rtol=0, atol=1e-10 + slack)
    if theta is None or math.isinf(theta):
        assert res.theta_opt == theta
    else:
        assert res.theta_opt == pytest.approx(theta, rel=1e-8)


@pytest.mark.parametrize("step, line_search", [(psd_step, True), (pinvit1_step, False)])
def test_kernel_matches_reference_on_general_pencils(step, line_search):
    # dense (A, B) with A != I, stepped the way users run them: run() maps
    # the pencil and its pencil-coordinate T into diagonal coordinates
    rng = np.random.default_rng(17)
    kind = SolverKind.PSD if line_search else SolverKind.PINVIT1

    def random_spd(n, cond):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        m = (q * np.geomspace(1.0, cond, n)) @ q.T
        return (m + m.T) / 2.0

    for _ in range(20):
        n = int(rng.integers(3, 12))
        pencil = SymmetricPencil(random_spd(n, 1e3), random_spd(n, 1e2))
        t = random_spd(n, 10.0)
        x = rng.standard_normal(n)
        result = run(pencil, Preconditioner(t, None, "pencil"), x, kind,
                     max_steps=1)
        converged, rho, vec, theta = reference_step(pencil, t, x, line_search)
        assert not converged and result.final.step_index == 1
        assert result.final.rho.rho == pytest.approx(rho, rel=1e-11)
        np.testing.assert_allclose(
            result.x / np.linalg.norm(result.x), vec, rtol=0, atol=1e-10
        )
        assert result.final.theta_opt == pytest.approx(theta, rel=1e-8)


def test_parallel_direction_is_stationary_in_diagonal_coordinates():
    # T maps r onto x: span{x, T r} is one-dimensional, the rank test fires
    form = diagonalize(generate_problem("diagonal", lambdas=[1.0, 2.0, 4.0]))
    x = np.array([1.0, 1.0, 0.0])
    value = rayleigh(SymmetricPencil(np.eye(3), np.diag(form.mus)), x)
    r = x - value.rho * (form.mus * x)
    t = np.outer(x, r) / (r @ r)
    res = psd_step(form, as_preconditioner(t), x)
    assert res.converged and res.theta_opt is None
    np.testing.assert_allclose(res.x, x / np.linalg.norm(x), atol=1e-15)
    assert res.rho == value


@pytest.mark.parametrize("x_part, theta_inf", [(0.0, True), (1e-15, True), (1e-12, False)])
def test_theta_opt_infinite_when_direction_alone_is_optimal(x_part, theta_inf):
    # T r = e_1 + x_part x, with e_1 the lowest eigenvector: the Ritz
    # vector's x coordinate is -x_part relative to its T r coordinate
    form = diagonalize(generate_problem("diagonal", lambdas=[1.0, 2.0, 4.0]))
    x = np.array([1.0, 1.0, 0.0])  # diagonal coordinates: index 0 is lambda_1
    r = x - (x @ x) / (x @ (form.mus * x)) * (form.mus * x)
    t = np.outer(np.array([1.0, 0.0, 0.0]) + x_part * x, r) / (r @ r)
    res = psd_step(form, as_preconditioner(t), x)
    dense = SymmetricPencil(np.eye(3), np.diag(form.mus))
    converged, rho, vec, theta = reference_step(dense, t, x, line_search=True)
    assert not res.converged and not converged
    assert math.isinf(res.theta_opt) == math.isinf(theta) == theta_inf
    assert res.rho.rho == pytest.approx(1.0, rel=1e-14) and rho == pytest.approx(1.0, rel=1e-14)
    np.testing.assert_allclose(res.x, vec, atol=1e-15)


@pytest.mark.parametrize("scale, converged", [(1e-3, False), (1e-6, True)])
def test_short_direction_threshold(scale, converged):
    # ||r|| is about 5e-10 ||x||, far above the eigenvector test; T = scale I
    # puts ||T r|| on either side of the 1e-14 ||x|| short-direction test
    form = diagonalize(generate_problem("diagonal", lambdas=[1.0, 2.0, 4.0]))
    x = np.array([1.0, 1e-9, 0.0])
    res = psd_step(form, as_preconditioner(scale * np.eye(3)), x)
    dense = SymmetricPencil(np.eye(3), np.diag(form.mus))
    expected = reference_step(dense, scale * np.eye(3), x, line_search=True)
    assert res.converged == expected[0] == converged
    assert res.rho.rho == pytest.approx(expected[1], rel=1e-14)


@pytest.mark.parametrize("step", [psd_step, pinvit1_step])
def test_steps_take_none_or_a_preconditioner(step):
    form = diagonalize(generate_problem("diagonal", lambdas=[1.0, 3.0, 4.0, 9.0, 20.0]))
    t = synthetic_gamma_preconditioner(form, 0.4, seed=3)
    x = np.random.default_rng(31).standard_normal(5)
    for precond in (t.matrix, t.apply):
        with pytest.raises(TypeError, match="Preconditioner"):
            step(form, precond, x)
    # None is the identity
    eye = step(form, as_preconditioner(np.eye(5)), x)
    res = step(form, None, x)
    np.testing.assert_array_equal(res.x, eye.x)
    assert res.rho == eye.rho


# Zero or normal entries whose products stay normal; subnormal entries
# underflow half * half and are outside the routine's contract.
_S_ENTRIES = st.one_of(st.just(0.0), st.floats(min_value=1e-100, max_value=1e100))


@given(p=_S_ENTRIES, q=_S_ENTRIES, c=_S_ENTRIES, c_sign=st.sampled_from([1.0, -1.0]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_shifted_ritz_2x2_matches_lapack(p, q, c, c_sign):
    c *= c_sign
    # p = q with c = 0 (S = p I on the pair) is outside the contract: ritz_gap
    # returns 0 before the call when p == 0, and the kernel's c is
    # r.Tr / (rho |x| |w|), nonzero for a positive definite T.
    assume(not (p == q and c == 0.0))
    g, half, root = _shifted_ritz_2x2(p, q, c)
    m = np.array([[p, c], [c, q]])
    scale = np.abs(m).max()
    assert abs(g - scipy.linalg.eigh(m, eigvals_only=True)[0]) <= 1e-14 * scale
    # the eigenvector of the returned branch, scaled to max-norm 1
    z = np.array((half + root, -c) if half >= 0.0 else (c, half - root))
    z /= np.abs(z).max()
    assert np.linalg.norm((m / scale) @ z - (g / scale) * z) <= 1e-14
    # the row form gives the same value
    rows = _shifted_ritz_2x2(p, np.array([q, q]), np.array([c, c]))[0]
    np.testing.assert_allclose(rows, g, rtol=1e-15, atol=0.0)


@given(
    n=st.integers(min_value=3, max_value=30),
    log10_cond=st.floats(min_value=0.5, max_value=12.0),
    gamma=st.floats(min_value=0.0, max_value=0.99),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_psd_step_agrees_with_ritz_gap(n, log10_cond, gamma, seed):
    # the two callers of the shared 2x2 routine: the step kernel and conelab
    rng = np.random.default_rng(seed)
    form = diagonalize(generate_problem(
        "diagonal", lambdas=spectrum_with_condition(rng, n, log10_cond)))
    mus = form.mus
    t = synthetic_gamma_preconditioner(form, gamma, seed=seed)
    x = rng.standard_normal(n)
    res = psd_step(form, t, x)
    assert not res.converged
    r = x - (x @ x) / (x @ (mus * x)) * (mus * x)
    expected = mus[0] - ritz_gap(mus, x, t.apply(r)[None, :])[0]
    assert res.rho.mu == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("step", [psd_step, pinvit1_step], ids=lambda f: f.__name__)
def test_steps_reject_a_symmetric_pencil(step):
    pencil = generate_problem("diagonal", lambdas=[1.0, 2.0, 4.0])
    with pytest.raises(TypeError, match="diagonalize"):
        step(pencil, None, np.ones(3))


@pytest.mark.parametrize("step", [psd_step, pinvit1_step], ids=lambda f: f.__name__)
def test_steps_reject_a_pencil_coordinate_preconditioner(step):
    pencil = generate_problem("laplacian1d", n=6)
    form = diagonalize(pencil)
    t = jacobi_preconditioner(pencil)
    z = form.to_diagonal(np.ones(6))
    with pytest.raises(ValueError, match="in_coords"):
        step(form, t, z)
    res = step(form, t.in_coords("diagonal", form), z)
    assert res.rho.rho < rayleigh(pencil, np.ones(6)).rho


# Per-run (steps, verdict counts) of ``psdlab certify --trials 20 --n 20
# --solvers psd,pinvit1 --seed 20260101``, recorded with the general
# rayleigh_ritz step path that the kernel replaced.
SEEDED_CERTIFY_RUNS = [
    (30, 1, 29), (50, 1, 49), (47, 2, 45), (62, 2, 60), (37, 1, 36),
    (43, 1, 42), (161, 4, 157), (172, 4, 168), (322, 2, 320), (500, 2, 498),
    (25, 2, 23), (30, 2, 28), (47, 2, 45), (51, 2, 49), (209, 3, 206),
    (247, 3, 244), (54, 2, 52), (98, 3, 95), (396, 2, 394), (500, 2, 498),
    (283, 3, 280), (377, 3, 374), (188, 2, 186), (209, 2, 207), (42, 2, 40),
    (71, 2, 69), (97, 3, 94), (148, 3, 145), (49, 1, 48), (53, 2, 51),
    (193, 2, 191), (211, 2, 209), (119, 3, 116), (223, 3, 220), (111, 3, 108),
    (170, 3, 167), (57, 4, 53), (69, 4, 65), (321, 2, 319), (359, 2, 357),
]


def test_seeded_certify_sweep_unchanged(monkeypatch):
    observed = []
    run = cli.run

    def recording_run(*args, **kwargs):
        result = run(*args, **kwargs)
        verdicts = [rec.bound.verdict for rec in result.records if rec.bound is not None]
        observed.append((
            result.final.step_index,
            verdicts.count("passed_lambda_i"),
            verdicts.count("holds"),
        ))
        assert len(verdicts) == result.final.step_index
        return result

    monkeypatch.setattr(cli, "run", recording_run)
    config = cli.ExperimentConfig(
        command="certify", trials=20, n=20, solvers="psd,pinvit1", seed=20260101,
    )
    report = cli.cmd_certify(config)
    assert observed == SEEDED_CERTIFY_RUNS
    assert report.summary["violations"] == 0
    assert report.summary["skipped_runs"] == 0
