"""The batched worst-case steps against the per-point construction they replace.

``conelab._worst_case_steps`` builds one delta's worst-case instances at
many level-set parameters with one cone pass.  ``scalar_worst_case_instance``
below is the per-point route it replaced, frozen: a :class:`WorstCaseSetup`
and a :class:`ConeSpec` per point, :func:`worst_direction`,
:func:`worst_aligned_preconditioner` and one :func:`psd_step`.  Every field
of every result must agree bit for bit, and a point that fails must raise
the same error with the same message.  OpenBLAS's ``ddot`` may round by the
address alignment of its operands under its SSE kernels, so one case also
runs under ``OPENBLAS_CORETYPE=Prescott``, in a child process.
"""

import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from psdlab import cli, conelab
from psdlab.cli import ExperimentConfig, cmd_sharpness
from psdlab.conelab import (
    ConeSpec,
    WorstCaseResult,
    WorstCaseSetup,
    t_star,
    worst_aligned_preconditioner,
    worst_direction,
)
from psdlab.errors import StationaryPointError
from psdlab.iterate import _delta, psd_step
from psdlab.pencil import DiagonalForm

HERE = Path(__file__).resolve().parent


def scalar_worst_case_instance(setup):
    """The per-point worst-case instance: a cone, its worst direction and one solver step."""
    cone = ConeSpec(mus=setup.mus, x=setup.x, gamma=setup.gamma)
    mus, e = cone._unit[:2]
    d = worst_direction(cone)
    form = DiagonalForm(mus=mus, basis=np.eye(3), inverse_basis=np.eye(3))
    step = psd_step(form, worst_aligned_preconditioner(cone, d), setup.x)
    if step.converged:
        raise StationaryPointError("the worst-case step found a stationary point")
    lam = 1.0 / mus
    delta_before = _delta(lam, mus, setup.x, 0)
    delta_after = _delta(lam, mus, step.x, 0)
    return WorstCaseResult(
        x=setup.x, d=d, mu_before=cone.mu_x, mu_after=math.ldexp(step.rho.mu, e),
        delta_before=delta_before, delta_after=delta_after,
        measured_ratio=delta_after / delta_before,
        predicted_ratio=setup.sigma ** 2,
    )


_FIELDS = ("x", "d", "mu_before", "mu_after", "delta_before", "delta_after",
           "measured_ratio", "predicted_ratio")


def bits(result):
    """Every field of a :class:`WorstCaseResult` as bytes: NaNs and signed zeros compare too."""
    return tuple(
        np.asarray(value, dtype=float).tobytes() if name in ("x", "d")
        else struct.pack("<d", value)
        for name, value in ((name, getattr(result, name)) for name in _FIELDS)
    )


def outcome(route, *args):
    """The route's results as bits, or the type and message of what it raised."""
    try:
        return [bits(result) for result in route(*args)]
    except (ValueError, StationaryPointError) as exc:
        return type(exc), str(exc)


def scalar_route(mus, gamma, delta, ts):
    return [scalar_worst_case_instance(WorstCaseSetup(mus=mus, gamma=gamma, delta=delta, t=t))
            for t in ts]


def grid(mus, gamma):
    """The sharpness t grid of 41 points, and t_star last."""
    kappa = WorstCaseSetup(mus=mus, gamma=gamma, delta=1.0, t=1.0).kappa
    return list(np.logspace(-2.0, 2.0, 41)) + [t_star(kappa, gamma)]


# Deltas from 1e-2 down, by factors of 100, to the first one at which the
# route raises: below the stationary floor, near 1e-26, or where a target
# direction computed from subnormal mus leaves the admissible ball, from
# 1e-21 on at mus near 1e-300 and gamma > 0.
_EXPONENTS = range(2, 32, 2)
_MUS = {
    "unit": (1.0, 0.5, 0.1),
    "off-unit": (37.0, 2.9, 0.013),
    "1e300": (1e300, 5e299, 1e299),
    "1e-300": (1e-300, 5e-301, 1e-301),
}


@pytest.mark.parametrize("gamma", [0.0, 0.1, 0.5, 0.9])
@pytest.mark.parametrize("mus", list(_MUS.values()), ids=list(_MUS))
def test_batched_steps_equal_the_scalar_route_bit_for_bit(mus, gamma):
    mus = np.array(mus)
    ts = grid(mus, gamma)
    floor = None
    for exponent in _EXPONENTS:
        delta = 10.0 ** -exponent
        want = outcome(scalar_route, mus, gamma, delta, ts)
        assert outcome(conelab._worst_case_steps, mus, gamma, delta, ts) == want, delta
        if isinstance(want, tuple):
            floor = exponent
            break
    # the deltas reach the point where the route stops, and stop there
    assert floor is not None and floor > 12


def test_worst_case_instance_is_the_batch_of_one():
    mus = np.array([37.0, 2.9, 0.013])
    for gamma in (0.0, 0.5):
        for t in grid(mus, gamma)[::10]:
            setup = WorstCaseSetup(mus=mus, gamma=gamma, delta=1e-6, t=t)
            assert bits(conelab.worst_case_instance(setup)) == \
                bits(scalar_worst_case_instance(setup))


@pytest.mark.parametrize("delta, ts, error", [
    # t * t overflows: x = (1, 0, 0) is an eigenvector, behind two good points
    (1e-4, [0.5, 2.0, 1e160, 3.0],
     (StationaryPointError, "x is numerically an eigenvector; the search cone is empty")),
    # b t overflows as well: x has a NaN
    (1e4, [1.0, 1.7e308], (ValueError, "x must be finite and nonzero")),
    # the level rounds to mus[1]
    (1e17, [1.0], (ValueError, "worst_direction needs mu(x) in (mus[1], mus[0])")),
])
def test_a_failing_point_raises_what_its_instance_raises(delta, ts, error):
    mus = np.array([1.0, 0.5, 0.1])
    assert outcome(scalar_route, mus, 0.5, delta, ts) == error
    assert outcome(conelab._worst_case_steps, mus, 0.5, delta, ts) == error


def test_inputs_are_checked_before_anything_steps():
    mus = np.array([1.0, 0.5, 0.1])
    for bad in (-1.0, math.nan, math.inf):
        want = outcome(scalar_route, mus, 0.5, 1e-4, [1.0, bad])
        assert want == (ValueError, f"t must be finite and positive, got {bad!r}")
        assert outcome(conelab._worst_case_steps, mus, 0.5, 1e-4, [1.0, bad]) == want
    assert conelab._worst_case_steps(mus, 0.5, 1e-4, []) == []


def test_sharpness_below_the_floor_raises_the_scalar_message():
    mus = np.array([1.0, 0.5, 0.1])
    kind, message = outcome(scalar_route, mus, 0.5, 1e-30, [t_star(4.0 / 9.0, 0.5)])
    assert kind is StationaryPointError
    config = ExperimentConfig(command="sharpness", mus="1,0.5,0.1", gamma=0.5, deltas="1e-30")
    with pytest.raises(StationaryPointError) as err:
        cmd_sharpness(config)
    assert str(err.value) == ("--deltas value 1e-30 is below the stationary floor of these "
                              f"mus and gamma: {message}")


def test_the_grid_takes_one_solver_step_per_point_and_builds_no_cone(monkeypatch):
    steps, cones, batches = [], [], []
    real_step, real_batch = conelab.psd_step, cli._worst_case_steps
    monkeypatch.setattr(conelab, "psd_step", lambda *a: steps.append(1) or real_step(*a))
    monkeypatch.setattr(ConeSpec, "__post_init__", lambda self: cones.append(self))
    monkeypatch.setattr(cli, "_worst_case_steps",
                        lambda *a: batches.append(a[2]) or real_batch(*a))
    cmd_sharpness(ExperimentConfig(command="sharpness", mus="1,0.5,0.1", gamma=0.5,
                                   deltas="1e-2,1e-4,1e-6,1e-8", t_mode="grid", t_grid=41))
    assert len(steps) == 4 * 41
    assert cones == []
    assert batches == [1e-2, 1e-4, 1e-6, 1e-8]


_PRESCOTT_CASE = """
import sys
import numpy as np
sys.path[:0] = [{src!r}, {tests!r}]
from test_worst_case_steps import grid, outcome, scalar_route
from psdlab import conelab
for mus, gamma in (((1.0, 0.5, 0.1), 0.5), ((37.0, 2.9, 0.013), 0.9)):
    mus = np.array(mus)
    ts = grid(mus, gamma)
    for delta in (1e-2, 1e-8, 1e-14, 1e-20):
        want = outcome(scalar_route, mus, gamma, delta, ts)
        assert isinstance(want, list), (mus, gamma, delta)
        got = outcome(conelab._worst_case_steps, mus, gamma, delta, ts)
        bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
        assert not bad, (mus, gamma, delta, bad)
print("equal")
"""


def test_batched_steps_equal_the_scalar_route_under_an_sse_blas_kernel():
    # OPENBLAS_CORETYPE picks the BLAS kernel of the child process only
    script = _PRESCOTT_CASE.format(src=str(HERE.parent / "src"), tests=str(HERE))
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "equal"
