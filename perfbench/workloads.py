"""The benchmark's four workloads: their inputs, one pass each, and the gates.

Every workload drives psdlab through the entry points a user runs: the
command functions of ``psdlab.cli`` and
``psdlab.conelab.three_d_concentration_check``.  One pass is one job of the
size users run (``"full"``) or a tiny stand-in for the smoke check
(``"tiny"``).  Entry points are looked up on their modules at call time, so
the wrappers of :mod:`tracing` see every call.

An op is the unit a gate judges: one (trial, solver) run of the certify
sweep, one ``solve`` command, and for the cone workload the ``sharpness``
command and the concentration check.  An op fails when it raises, ends with
a ``violated`` verdict, or fails its workload's correctness gate.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import psdlab.cli as cli
import psdlab.conelab as conelab
from psdlab.pencil import Spectrum, generate_problem


@dataclass(frozen=True)
class PassOutcome:
    """What one pass did: ops attempted and failed, steps, output digest.

    ``steps`` counts the solver steps of certified runs; the cone workload,
    which has no solver, counts its sharpness grid points and search
    restarts.  ``fingerprint`` is the pass's full output, used to check that
    tracing changes no result.
    """

    attempted: int
    failed: int
    steps: int
    fingerprint: str
    problems: list = field(default_factory=list)


def _raised(attempted, what, exc):
    return PassOutcome(attempted, attempted, 0, "", [f"{what} raised {exc!r}"])


# -- certify-sweep -------------------------------------------------------------

_CERTIFY = {"full": {"trials": 200, "n": 20}, "tiny": {"trials": 4, "n": 6}}
_CERTIFY_SOLVERS = ("psd", "pinvit1")


def _certify_config(seed, size):
    return cli.ExperimentConfig(
        command="certify", gammas="0,0.3,0.6,0.9",
        solvers=",".join(_CERTIFY_SOLVERS), seed=seed, **_CERTIFY[size],
    )


def _certify_build(seed, size):
    lam = cli.simple_spectrum(np.random.default_rng(seed), _CERTIFY[size]["n"])
    return generate_problem("diagonal", lambdas=lam)


def _certify_pass(seed, size):
    config = _certify_config(seed, size)
    attempted = config.trials * len(_CERTIFY_SOLVERS)
    try:
        report = cli.cmd_certify(config)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return _raised(attempted, "cmd_certify", exc)
    problems = [
        f"trial {row['trial']} {row['solver']}: {row['violated']} violated, "
        f"certified={row['certified']} {row['note']}".rstrip()
        for row in report.records
        if row["violated"] or not row["certified"]
    ]
    failed = len(problems)
    missing = attempted - len(report.records)
    if missing:
        failed += missing
        problems.append(f"{missing} runs missing from the report")
    steps = sum(row["steps"] for row in report.records if row["certified"])
    return PassOutcome(attempted, failed, steps, report.to_json(), problems)


# -- solve workloads -----------------------------------------------------------

_LAP2D = {"full": 16, "tiny": 4}
_LAP1D = {"full": 64, "tiny": 8}
_DELTA_TOL = 5e-7


def _lap2d_config(seed, size):
    m = _LAP2D[size]
    return cli.ExperimentConfig(command="solve", problem=f"laplacian2d:{m}",
                                solver="psd", gamma=0.5, seed=seed)


def _lap1d_config(seed, size):
    return cli.ExperimentConfig(
        command="solve", problem=f"laplacian1d:{_LAP1D[size]}", solver="pinvit1",
        precond="jacobi", seed=seed, max_steps=8000, delta_tol=_DELTA_TOL,
    )


def _lap2d_gate(report, size):
    m = _LAP2D[size]
    # Smallest eigenvalue of the m x m five-point Laplacian with h = 1.
    exact = 8.0 * math.sin(math.pi / (2 * (m + 1))) ** 2
    rho = report.summary["final_rho"]
    problems = []
    if report.summary["status"] != "converged":
        problems.append(f"status {report.summary['status']}")
    if not abs(rho - exact) <= 1e-10 * exact:
        problems.append(f"final_rho {rho!r} differs from {exact!r} beyond 1e-10")
    return problems


def _lap1d_gate(report, size):
    n = _LAP1D[size]
    lam1 = 4.0 * math.sin(math.pi / (2 * (n + 1))) ** 2
    lam2 = 4.0 * math.sin(2.0 * math.pi / (2 * (n + 1))) ** 2
    rho = report.summary["final_rho"]
    delta = report.records[-1]["delta"]
    # delta of the final value against the closed-form eigenvalues; roundoff
    # in the computed spectrum moves it by far less than the margins here.
    closed_form_delta = (rho - lam1) / (lam2 - rho)
    problems = []
    if report.summary["status"] != "converged":
        problems.append(f"status {report.summary['status']}")
    if delta is None or not delta < _DELTA_TOL:
        problems.append(f"final delta {delta!r} not below {_DELTA_TOL}")
    if not -1e-12 <= closed_form_delta < _DELTA_TOL * (1.0 + 1e-6):
        problems.append(
            f"final_rho {rho!r} inconsistent with 4 sin^2(pi/{2 * (n + 1)}) = {lam1!r}"
        )
    return problems


def _solve_pass(config, gate, size):
    try:
        report = cli.cmd_solve(config)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return _raised(1, "cmd_solve", exc)
    problems = gate(report, size)
    if report.summary["violations"]:
        problems.append(f"{report.summary['violations']} violated steps")
    steps = report.summary["steps"] if report.summary["certified"] else 0
    return PassOutcome(1, 1 if problems else 0, steps, report.to_json(), problems)


def _lap2d_pass(seed, size):
    return _solve_pass(_lap2d_config(seed, size), _lap2d_gate, size)


def _lap1d_pass(seed, size):
    return _solve_pass(_lap1d_config(seed, size), _lap1d_gate, size)


def _lap2d_build(seed, size):
    m = _LAP2D[size]
    return generate_problem("laplacian2d", nx=m, ny=m)


def _lap1d_build(seed, size):
    return generate_problem("laplacian1d", n=_LAP1D[size])


# -- conelab-worstcase ---------------------------------------------------------

# The concentration check costs about 9 s whatever its restart count, so the
# tiny stand-in searches in three coordinates with a single restart.
_CONE = {"full": {"mus": (1.0, 0.6, 0.3, 0.1), "n_outer": 20},
         "tiny": {"mus": (1.0, 0.6, 0.1), "n_outer": 1}}


def _sharpness_config():
    return cli.ExperimentConfig(
        command="sharpness", mus="1,0.5,0.1", gamma=0.5,
        deltas="1e-2,1e-4,1e-6,1e-8", t_mode="grid", t_grid=41,
    )


def _cone_build(seed, size):
    return Spectrum(lambdas=1.0 / np.array(_CONE[size]["mus"]))


def _cone_pass(seed, size):
    failed, fingerprint, problems = 0, "", []
    config = _sharpness_config()
    n_outer = _CONE[size]["n_outer"]
    steps = len(config.deltas.split(",")) * config.t_grid + n_outer
    try:
        sharp = cli.cmd_sharpness(config)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        failed += 1
        problems.append(f"cmd_sharpness raised {exc!r}")
    else:
        sigma_sq = sharp.summary["sigma_sq"]
        gap = sharp.summary["final_gap"]
        bad = [f"final_gap {gap!r} not below 1e-3 sigma^2"] if not gap < 1e-3 * sigma_sq else []
        bad += [f"delta {row['delta']}: measured ratio above sigma^2 (gap {row['gap']!r})"
                for row in sharp.records if row["gap"] < -1e-9 * sigma_sq]
        failed += 1 if bad else 0
        problems += bad
        fingerprint += sharp.to_json()
    try:
        report = conelab.three_d_concentration_check(
            _cone_build(seed, size), gamma=0.5, mu0=0.8,
            n_outer=n_outer, seed=seed,
        )
    except Exception as exc:  # an op that raises is a failed op, not a crash
        failed += 1
        problems.append(f"three_d_concentration_check raised {exc!r}")
    else:
        bad = []
        if report.n_significant > 3:
            bad.append(f"{report.n_significant} significant coordinates")
        if report.beats_reference_by > 1e-6:
            bad.append(f"search beats the 3-D closed form by {report.beats_reference_by!r}")
        failed += 1 if bad else 0
        problems += bad
        fingerprint += report.summary()
    return PassOutcome(2, failed, steps, fingerprint, problems)


def _cone_warm_up(seed):
    cli.cmd_sharpness(_sharpness_config())


# -- registry ------------------------------------------------------------------


def _tiny_pass(run_pass):
    return lambda seed: run_pass(seed, "tiny")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``run_target`` names the function whose calls are the workload's runs
    (``module:attribute``); ``None`` makes each pass one run.
    ``seed_stride`` spaces the seeds of successive passes so that their
    inputs do not overlap; ``warm_up(seed)`` pays lazy imports and
    first-call costs before timing starts.
    """

    name: str
    default_seed: int
    seed_stride: int
    run_target: str
    build: Callable
    run_pass: Callable
    warm_up: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify-sweep", 20260101, _CERTIFY["full"]["trials"],
                 "psdlab.iterate:run", _certify_build, _certify_pass,
                 _tiny_pass(_certify_pass)),
        Workload("solve-lap2d-256", 7, 1, None,
                 _lap2d_build, _lap2d_pass, _tiny_pass(_lap2d_pass)),
        Workload("solve-jacobi-lap1d-64", 3, 1, None,
                 _lap1d_build, _lap1d_pass, _tiny_pass(_lap1d_pass)),
        Workload("conelab-worstcase", 42, 1, None,
                 _cone_build, _cone_pass, _cone_warm_up),
    )
}
