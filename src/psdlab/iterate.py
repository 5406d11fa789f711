"""The four gradient eigensolver iterations and the stepping driver.

All four solvers move from ``x`` along the preconditioned residual
``T (Ax - rho(x) Bx)``.  The fixed-step kinds subtract it outright; the
steepest-descent kinds Rayleigh-Ritz the two-dimensional span of ``x``
and the search direction, which performs the optimal line search
implicitly.  INVIT(1) and INVIT(2) are the same iterations with the
exact inverse ``T = A^-1`` (quality ``gamma = 0``).

One step kernel serves every kind, in the coordinates of a
:class:`DiagonalForm`: ``A = I``, ``B = diag(mus)``.  There a step is
O(n) vector work, ``T`` (``None`` or a :class:`Preconditioner` in those
coordinates) and the shifted 2x2 Ritz routine that
:func:`psdlab.conelab.ritz_gap` shares.  :func:`run` maps a dense
:class:`SymmetricPencil` and its ``T`` there once;
:func:`psdlab.pencil.rayleigh_ritz` is the kernel's test oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .bounds import SolverKind
from .errors import NumericFailure
from .pencil import _RANK_TOL, DiagonalForm, RayleighValue, _shifted_ritz_2x2, diagonalize
from .precond import Preconditioner

__all__ = [
    "SolverKind",
    "StepResult",
    "IterationRecord",
    "RunResult",
    "pinvit1_step",
    "psd_step",
    "invit1_step",
    "invit2_step",
    "run",
]

# An iterate counts as converged once its residual is this small
# relative to ||Ax||.
_EIGENVECTOR_TOL = 1e-13

# A search direction shorter than this relative to ||x|| cannot span a
# second dimension in floating point.
_DEGENERATE_DIRECTION_TOL = 1e-14


@dataclass(frozen=True)
class StepResult:
    """Outcome of a single solver step.

    ``converged`` is set when the input was already (numerically) an
    eigenvector or the search subspace degenerated; the iterate is then
    returned unchanged (up to normalization).
    """

    x: np.ndarray
    rho: RayleighValue
    theta_opt: float = None
    converged: bool = False


# Vector products use ndarray.dot: the same BLAS result as ``@``, at about
# half the call overhead on vectors of the sizes the solvers run.
def _norm(v):
    return math.sqrt(v.dot(v))


def _unit(x):
    return x / _norm(x)


def _identity(v):
    return v


def _as_operator(precond):
    """The map ``r -> T r``: ``None`` is ``T = I``, else a diagonal-coordinate ``apply``."""
    if precond is None:
        return _identity
    if not isinstance(precond, Preconditioner):
        raise TypeError(
            f"solver steps take None or a Preconditioner, not {type(precond).__name__}"
        )
    if precond.coords != "diagonal":
        raise ValueError(
            f"the preconditioner acts in {precond.coords!r} coordinates; "
            "conjugate it with in_coords('diagonal', form) first"
        )
    return precond.apply


def _rayleigh_value(x, bx):
    num = float(x.dot(x))
    if num == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector is undefined")
    den = float(x.dot(bx))
    return RayleighValue(rho=num / den, mu=den / num)


def _converged_result(x, value):
    return StepResult(x=_unit(x), rho=value, theta_opt=None, converged=True)


def _step(form, precond, x, line_search):
    """The step kernel behind every solver kind, for ``A = I``, ``B = diag(mus)``.

    Fixed step: ``x' = x - T r`` with ``r = x - rho(x) Bx``, normalized.
    Line search: the Ritz vector of the smaller Ritz value (in the
    ``lambda`` convention) of ``span{x, T r}``.  The basis is
    orthonormalized by two Gram-Schmidt passes, which leaves the
    projected ``A`` the identity to working precision, so the projected
    problem is the symmetric 2x2 eigenproblem of the projected ``B``,
    solved on ``S = mus[0] - B`` by :func:`_shifted_ritz_2x2`.  The
    checks, tolerances and sign conventions are those of
    :func:`psdlab.pencil.rayleigh_ritz` on the basis ``[x, T r]``.
    """
    if not isinstance(form, DiagonalForm):
        raise TypeError(
            f"solver steps take a DiagonalForm, not {type(form).__name__}; "
            "map a pencil with diagonalize() first, or step it through run()"
        )
    apply_t = _as_operator(precond)
    mus = form.mus
    x = np.asarray(x, dtype=float)
    bx = mus * x
    value = _rayleigh_value(x, bx)
    r = x - value.rho * bx
    if _norm(r) < _EIGENVECTOR_TOL * _norm(x):
        return _converged_result(x, value)
    d = apply_t(r)
    if not line_search:
        x_next = _unit(x - d)
        rho = _rayleigh_value(x_next, mus * x_next)
        return StepResult(x=x_next, rho=rho, theta_opt=1.0)

    x_norm = _norm(x)
    d_norm = _norm(d)
    if d_norm < _DEGENERATE_DIRECTION_TOL * x_norm:
        return _converged_result(x, value)
    # Orthonormal basis [q1, q2] = [x, d] R^-1 with R = [[x_norm, r12], [0, w_norm]].
    q1 = x / x_norm
    h = float(q1.dot(d))
    w = d - h * q1
    h2 = float(q1.dot(w))
    w = w - h2 * q1
    r12 = h + h2
    w_norm = _norm(w)
    if w_norm < _RANK_TOL * d_norm:  # the rank test of pencil.orthonormalize
        # T r parallel to x: stationary for the line search.
        return _converged_result(x, value)
    q2 = w / w_norm
    # S on [q1, q2]: its smaller eigenvalue g gives the larger mu, i.e. the
    # smaller lambda, and (z1, z2) its eigenvector.
    s = mus[0] - mus
    sq1 = s * q1
    c = float(q2.dot(sq1))
    g, half, root = _shifted_ritz_2x2(float(q1.dot(sq1)), float(q2.dot(s * q2)), c)
    z1, z2 = (half + root, -c) if half >= 0.0 else (c, half - root)
    mu = mus[0] - g
    # Its coordinates in [x, d] scaled to max-norm 1 and signed so that the
    # first non-negligible one is positive.
    c_d = z2 / w_norm
    c_x = (z1 - r12 * c_d) / x_norm
    scale = max(abs(c_x), abs(c_d))
    c_x /= scale
    c_d /= scale
    # [q1, q2] is orthonormal, so the Ritz vector's length is |(z1, z2)|.
    f = 1.0 / math.hypot(z1, z2)
    if (c_x if abs(c_x) > 1e-14 else c_d) < 0.0:
        f = -f
    vec = (f * z1) * q1 + (f * z2) * q2
    theta = math.inf if abs(c_x) < 1e-14 else -c_d / c_x
    return StepResult(x=vec, rho=RayleighValue.from_rho(1.0 / mu), theta_opt=theta)


def pinvit1_step(form, precond, x):
    """One fixed-step update ``x' = x - T (x - rho(x) Bx)``, normalized.

    ``form`` is the :class:`DiagonalForm` of a pencil and ``x`` a vector in
    its coordinates (``A = I``, ``B = diag(form.mus)``); ``precond`` is
    ``None`` (``T = I``) or a :class:`Preconditioner` in diagonal
    coordinates.  A :class:`SymmetricPencil`, a matrix or a callable
    raises :class:`TypeError` (step a pencil through :func:`run`), a
    preconditioner in pencil coordinates :class:`ValueError`.
    """
    return _step(form, precond, x, line_search=False)


def psd_step(form, precond, x):
    """One preconditioned steepest descent step.

    Rayleigh-Ritz on ``span{x, T r}`` returns the Ritz vector of the
    smaller Ritz value (in the ``lambda`` convention); the implicit step
    length is recovered from the Ritz vector's coordinates in the
    ``[x, Tr]`` basis and reported as ``theta_opt`` (``inf`` when the
    ``x`` coordinate vanishes).  Takes the same ``form``, ``precond`` and
    ``x`` as :func:`pinvit1_step`.
    """
    return _step(form, precond, x, line_search=True)


def invit1_step(form, x):
    """Fixed-step update with the exact inverse, ``T = A^-1 = I`` in ``form``'s coordinates."""
    return pinvit1_step(form, None, x)


def invit2_step(form, x):
    """Steepest descent with the exact inverse (optimal line search), ``T = I``."""
    return psd_step(form, None, x)


@dataclass(frozen=True)
class IterationRecord:
    """One row of a solver run.

    ``residual_norm`` is the diagonal-coordinate residual of the unit
    iterate, so the stopping test ``residual_norm < residual_tol`` is
    relative to ``||Ax||``.  ``delta`` is the interval-relative error of
    ``rho`` against the pencil's spectrum (``None`` outside the spectral
    range), and ``bound`` the certification verdict for the step that
    produced this record (``None`` for the initial record or when the
    run is not certified).
    """

    step_index: int
    rho: RayleighValue
    residual_norm: float
    delta: float = None
    bound: bounds.BoundCheck = None
    theta_opt: float = None


@dataclass
class RunResult:
    """Records of one run plus its termination status.

    ``status`` is one of ``"converged"`` (residual or delta tolerance
    met, or a stationary point was reached) and ``"max_steps"``.  ``x``
    is the final iterate in the pencil's original coordinates (unit
    length in the diagonalized ones).  ``certified`` tells whether
    per-step bound checks ran; ``certify_note`` explains when they were
    skipped.
    """

    records: list
    status: str
    kind: SolverKind
    x: np.ndarray
    certified: bool
    certify_gamma: float = None
    certify_note: str = ""

    @property
    def final(self):
        return self.records[-1]

    def violations(self):
        return [
            rec for rec in self.records
            if rec.bound is not None and rec.bound.verdict == bounds.VIOLATED
        ]


def _mu_delta(mus, z, i):
    """Interval-relative error of ``z`` on interval ``i``, cancellation free.

    Evaluated in the diagonalized coordinates from per-eigenvalue
    distances (``mus`` descending pairs with ascending ``lambdas`` by
    index), so the result keeps full relative accuracy even when the
    iterate is within roundoff of an eigenvector.  May come out at or
    below zero when the value sits at ``lambda_i`` (reciprocal-form
    ``mus[i]``) or beyond.
    """
    w = z * z
    p = float((mus[i] - mus).dot(w))
    q = float((mus - mus[i + 1]).dot(w))
    return p / q


def _locate(spectrum, mus, z, rho, known=None):
    """Interval index and raw :func:`_mu_delta` of an iterate, or ``None``.

    ``None`` when ``rho`` is at or above ``lambda_n``.  Values at or
    below ``lambda_1`` use the bottom interval.  ``known`` is an
    ``(index, raw delta)`` pair already computed for this iterate and
    is returned as is when its index is the located one.
    """
    lam = spectrum.lambdas
    if rho >= lam[-1]:
        return None
    i = bounds.locate_interval(spectrum, max(rho, lam[0]))
    if known is not None and known[0] == i:
        return known
    return i, _mu_delta(mus, z, i)


def _record_delta(spectrum, located):
    """The record's ``delta``: lambda-form, clipped at zero, ``None`` above ``lambda_n``.

    The cancellation-free value that certification stores, so it stays
    positive after ``rho`` has rounded to ``lambda_1``.
    """
    if located is None:
        return None
    lam = spectrum.lambdas
    i, raw = located
    # lambda-form delta differs from the reciprocal form by lam_i/lam_{i+1}
    return max(0.0, raw * lam[i] / lam[i + 1])


def _certification_gamma(kind, quality):
    """The gamma a certified run must use, or (None, reason) when it cannot.

    The steepest-descent bound is scaling invariant, so it always uses
    the rescaled-form gamma.  The fixed-step bound needs the two-sided
    quality of the preconditioner *as handed over*; if that exceeds 1
    the run is not certifiable and the check is skipped rather than
    reported as a violation.
    """
    if kind.exact_inverse:
        return 0.0, ""
    gamma = None
    if quality is not None:
        gamma = quality.scaled_gamma() if kind.line_search else quality.as_is_gamma()
    if gamma is None:
        return None, "preconditioner quality unknown"
    if not kind.line_search and gamma >= 1.0:
        return None, (
            f"fixed-step quality mismatch: as-handed gamma {gamma:.6g} >= 1 "
            "(rescale the preconditioner)"
        )
    return gamma, ""


def run(pencil, precond, x0, kind, *, max_steps=500, residual_tol=1e-10,
        delta_tol=None):
    """Drive a solver to convergence, recording and certifying every step.

    All internal math happens in the diagonalized coordinates of the
    pencil; only the final iterate is mapped back, as ``RunResult.x``.
    The run stops when the (relative) residual falls below
    ``residual_tol``, when ``delta`` falls below ``delta_tol`` (if
    given), at a stationary point, or after ``max_steps`` steps.  The
    Rayleigh quotient is asserted to be nonincreasing; a genuine
    increase raises :class:`NumericFailure`.
    """
    kind = SolverKind.parse(kind)
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    x0 = np.asarray(x0, dtype=float)
    if not np.any(x0):
        raise ValueError("x0 must be nonzero")
    form = diagonalize(pencil)
    spectrum = form.spectrum()

    if kind.exact_inverse:
        # Exact inverse preconditioning is the identity in these coordinates.
        t = None
        quality = None
    else:
        if precond is None:
            raise ValueError(f"{kind.value} needs a preconditioner")
        t = precond.in_coords("diagonal", form)
        quality = t.quality
    cert_gamma, cert_note = _certification_gamma(kind, quality)
    certifying = cert_gamma is not None
    # The line-search kinds decrease rho structurally; the fixed-step kinds
    # only under an admissible (two-sided) preconditioner quality.
    monotone_guaranteed = kind.line_search or certifying

    mus = form.mus
    z = _unit(form.to_diagonal(x0))
    value = _rayleigh_value(z, mus * z)
    res_norm = _norm(z - value.rho * (mus * z))
    # (interval index, raw delta) of the current iterate: the record's
    # delta and the "before" side of the next step's certification.
    located = _locate(spectrum, mus, z, value.rho)
    records = [
        IterationRecord(
            step_index=0,
            rho=value,
            residual_norm=res_norm,
            delta=_record_delta(spectrum, located),
        )
    ]
    status = "max_steps"
    if res_norm < residual_tol:
        status = "converged"
        max_steps = 0

    for step_index in range(1, max_steps + 1):
        step = psd_step(form, t, z) if kind.line_search else pinvit1_step(form, t, z)
        rho_prev = value
        z, value = step.x, step.rho
        if not math.isfinite(value.rho):
            raise NumericFailure(
                f"step {step_index} produced a non-finite Rayleigh quotient "
                f"({value.rho!r}); aborting"
            )
        if monotone_guaranteed and value.rho > rho_prev.rho * (1.0 + bounds._MONOTONE_TOL):
            raise NumericFailure(
                f"step {step_index} increased the Rayleigh quotient from "
                f"{rho_prev.rho!r} to {value.rho!r}"
            )
        bound = None
        after = None
        if certifying and not step.converged and located is not None:
            i, delta_before = located
            after = (i, _mu_delta(mus, z, i))
            bound = bounds.certify_step(
                spectrum, cert_gamma, rho_prev, value, kind=kind,
                deltas=(delta_before, after[1]),
            )
        res_norm = _norm(z - value.rho * (mus * z))
        located = _locate(spectrum, mus, z, value.rho, known=after)
        delta_now = _record_delta(spectrum, located)
        records.append(
            IterationRecord(
                step_index=step_index,
                rho=value,
                residual_norm=res_norm,
                delta=delta_now,
                bound=bound,
                theta_opt=step.theta_opt,
            )
        )
        if step.converged or res_norm < residual_tol:
            status = "converged"
            break
        if delta_tol is not None and delta_now is not None and delta_now < delta_tol:
            status = "converged"
            break

    return RunResult(
        records=records,
        status=status,
        kind=kind,
        x=form.from_diagonal(z),
        certified=certifying,
        certify_gamma=cert_gamma,
        certify_note=cert_note,
    )
