"""run() against a plain reference loop over the vector-path steps.

:func:`run` hands each step the previous :class:`StepResult`, so that
what a step measured of its iterate (``Bx``, and for the fixed step the
Rayleigh value and residual) is not formed again, and it keeps the delta
rows of each visited interval.  The reference loop below does none of
that: every step takes a bare vector, every delta is taken from scratch
by ``_delta``, and every interval by ``locate_interval``.  Both must give
the same records bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdlab import (
    PrecondQuality,
    Preconditioner,
    SolverKind,
    bounds,
    diagonalize,
    generate_problem,
    iterate,
    pinvit1_step,
    psd_step,
    run,
    synthetic_gamma_preconditioner,
)
from psdlab.iterate import IterationRecord, StepResult
from psdlab.pencil import RayleighValue


def bits(obj):
    """Records, values and vectors with every float as its hex string."""
    if isinstance(obj, np.ndarray):
        return obj.tobytes()
    if isinstance(obj, (IterationRecord, StepResult, RayleighValue, bounds.BoundCheck)):
        return (type(obj).__name__,) + tuple(
            bits(getattr(obj, name)) for name in obj._fields if name != "measure"
        )
    if isinstance(obj, float):
        return float(obj).hex()
    return obj


def reference_run(pencil, precond, x0, kind, *, max_steps, residual_tol, delta_tol):
    """``(records, status, x)`` of run()'s contract, one bare-vector step at a time."""
    kind = SolverKind.parse(kind)
    form = diagonalize(pencil)
    spectrum = form.spectrum()
    t = None if kind.exact_inverse else precond.in_coords("diagonal", form)
    gamma, _ = iterate._certification_gamma(kind, None if t is None else t.quality)
    mus, lam = form.mus, spectrum.lambdas
    z = form.to_diagonal(np.asarray(x0, dtype=float))
    z = z / math.sqrt(z.dot(z))
    bz = mus * z
    value = RayleighValue(rho=float(z.dot(z)) / float(z.dot(bz)),
                          mu=float(z.dot(bz)) / float(z.dot(z)))
    records, step, bound, status = [], None, None, "max_steps"
    for k in range(max_steps + 1):
        r = z - value.rho * (mus * z)
        res_norm = math.sqrt(r.dot(r))
        i = None if value.rho >= lam[-1] else bounds.locate_interval(spectrum, value.rho)
        delta = None if i is None else iterate._delta(lam, mus, z, i)
        delta_now = None if delta is None else max(0.0, delta)
        records.append(IterationRecord(
            step_index=k, rho=value, residual_norm=res_norm, delta=delta_now,
            bound=bound, theta_opt=None if step is None else step.theta_opt,
        ))
        if ((step is not None and step.converged) or res_norm < residual_tol
                or (delta_tol is not None and i is not None and lam[i] == lam[0]
                    and delta_now < delta_tol)):
            status = "converged"
            break
        if k == max_steps:
            break
        step = (psd_step if kind.line_search else pinvit1_step)(form, t, z)
        z, value = step.x, step.rho
        bound = None
        if gamma is not None and not step.converged and i is not None:
            after = iterate._delta(lam, mus, z, i)
            bound = bounds.certify_step(spectrum, gamma, i, (delta, after), kind=kind)
    return records, status, form.from_diagonal(z)


def spectrum_of(shape, n, log10_cond, rng):
    lam = np.sort(10.0 ** rng.uniform(0.0, log10_cond, size=n))
    lam[0], lam[-1] = 1.0, 10.0 ** log10_cond
    if shape == "repeated":  # a repeated lambda_1, an interior pair and lambda_n
        lam[1] = lam[0]
        lam[n // 2] = lam[n // 2 - 1]
        lam[-2] = lam[-1]
    elif shape == "clustered":  # all but the ends within 1e-9 of each other
        lam[1:-1] = lam[1] * (1.0 + 1e-9 * np.arange(n - 2))
        lam.sort()
    return lam


@st.composite
def run_cases(draw):
    return dict(
        n=draw(st.integers(min_value=3, max_value=12)),
        shape=draw(st.sampled_from(["random", "repeated", "clustered"])),
        log10_cond=draw(st.floats(min_value=0.3, max_value=12.0)),
        gamma=draw(st.floats(min_value=0.0, max_value=0.9)),
        kind=draw(st.sampled_from(list(SolverKind))),
        start=draw(st.sampled_from(["random", "random", "eigenvector"])),
        known_quality=draw(st.booleans()),
        max_steps=draw(st.sampled_from([0, 1, 2, 40])),
        residual_tol=draw(st.sampled_from([1e-10, 0.0])),
        delta_tol=draw(st.sampled_from([None, 1e-8])),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
    )


@given(case=run_cases())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_run_matches_the_reference_loop(case):
    rng = np.random.default_rng(case["seed"])
    n = case["n"]
    pencil = generate_problem(
        "diagonal", lambdas=spectrum_of(case["shape"], n, case["log10_cond"], rng))
    t = synthetic_gamma_preconditioner(diagonalize(pencil), case["gamma"], seed=case["seed"])
    if not case["known_quality"]:  # certification skipped for the preconditioned kinds
        t = Preconditioner(t.matrix, PrecondQuality(), t.coords)
    if case["start"] == "eigenvector":
        x0 = np.zeros(n)
        x0[rng.integers(n)] = 1.0
    else:
        x0 = rng.standard_normal(n)
    opts = dict(max_steps=case["max_steps"], residual_tol=case["residual_tol"],
                delta_tol=case["delta_tol"])
    result = run(pencil, t, x0, case["kind"], **opts)
    records, status, x = reference_run(pencil, t, x0, case["kind"], **opts)
    assert [bits(rec) for rec in result.records] == [bits(rec) for rec in records]
    assert result.status == status
    assert bits(result.x) == bits(x)


@pytest.mark.parametrize("max_steps", [0, 5])
@pytest.mark.parametrize("kind", list(SolverKind))
def test_an_ordinary_start_with_a_tiny_entry_keeps_its_bits(kind, max_steps):
    # The max-abs entry 4 is ordinary, so run() takes x0 as it is: scaling
    # it by 2**-3 would push 1.7e-307 below the normal range and change the
    # start's last bits.
    pencil = generate_problem("diagonal", lambdas=[1.0, 2.0, 5.0, 9.0])
    t = synthetic_gamma_preconditioner(diagonalize(pencil), 0.3, seed=5)
    x0 = np.array([4.0, 1.7e-307, 1.0, 1.0])
    opts = dict(max_steps=max_steps, residual_tol=1e-10, delta_tol=None)
    result = run(pencil, t, x0, kind, **opts)
    records, status, x = reference_run(pencil, t, x0, kind, **opts)
    assert [bits(rec) for rec in result.records] == [bits(rec) for rec in records]
    assert bits(result.x) == bits(x)


def _chain(form, t, x, kinds):
    """The steps of ``kinds`` in turn from ``x``, each handed the previous result."""
    steps = []
    prev = x
    for kind in kinds:
        prev = (psd_step if kind.line_search else pinvit1_step)(form, t, prev)
        steps.append(prev)
    return steps


@given(
    n=st.integers(min_value=3, max_value=20),
    log10_cond=st.floats(min_value=0.3, max_value=12.0),
    gamma=st.floats(min_value=0.0, max_value=0.9),
    kinds=st.lists(st.sampled_from([SolverKind.PSD, SolverKind.PINVIT1]),
                   min_size=2, max_size=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_step_result_steps_like_its_vector(n, log10_cond, gamma, kinds, seed):
    # Every order of the two kinds: a fixed step hands on its whole measure,
    # a line-search step only Bx, a converged step nothing.
    rng = np.random.default_rng(seed)
    form = diagonalize(generate_problem(
        "diagonal", lambdas=spectrum_of("random", n, log10_cond, rng)))
    t = synthetic_gamma_preconditioner(form, gamma, seed=seed)
    steps = _chain(form, t, rng.standard_normal(n), kinds)
    for prev, kind in zip(steps, kinds[1:]):
        step = psd_step if kind.line_search else pinvit1_step
        assert bits(step(form, t, prev)) == bits(step(form, t, prev.x))


def test_a_step_result_of_another_form_is_measured_again():
    rng = np.random.default_rng(4)
    form_a = diagonalize(generate_problem("diagonal", lambdas=[1.0, 2.0, 5.0, 9.0]))
    form_b = diagonalize(generate_problem("diagonal", lambdas=[1.0, 3.0, 4.0, 30.0]))
    t = synthetic_gamma_preconditioner(form_b, 0.4, seed=4)
    for step in (psd_step, pinvit1_step):
        prev = step(form_a, t, rng.standard_normal(4))
        assert bits(step(form_b, t, prev)) == bits(step(form_b, t, prev.x))
