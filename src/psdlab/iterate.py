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

Each iterate is measured once, completely: every step returns as its
``measure`` the new iterate's ``Bx``, ``x.x``, Rayleigh value, residual
``x - rho(x) Bx`` and residual norm.  :func:`run` hands every step its
predecessor, whose measure the step takes instead of forming it again,
records the residual norm the next step acts on, and keeps the
per-eigenvalue distance rows of each interval it visits; a chained step
gives the same bits as a step from the bare vector.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
    "run",
]

# An iterate counts as converged once its residual is this small
# relative to ||Ax||.
_EIGENVECTOR_TOL = 1e-13

# A search direction shorter than this relative to ||x|| cannot span a
# second dimension in floating point.
_DEGENERATE_DIRECTION_TOL = 1e-14

# Monotonicity slack: rho may not increase beyond this relative amount.
_MONOTONE_TOL = 1e-12

# A vector whose max-abs entry lies within 2**±_POW2_SAFE_EXP is left as it
# is: the square of that entry neither overflows nor underflows in its norm.
# The same range bounds the entries of the line search's 2x2 problem.
_POW2_SAFE_EXP = 400
_POW2_SAFE_LO, _POW2_SAFE_HI = 2.0 ** -_POW2_SAFE_EXP, 2.0 ** _POW2_SAFE_EXP


class _Measure(NamedTuple):
    """What a step measured of its new iterate ``x``, in the coordinates ``mus``.

    ``bx = mus * x``, ``xx = x.x``, the Rayleigh value ``x.x / x.Bx``, the
    residual ``r = x - rho Bx`` at it and ``|r|``, which the next step and
    :func:`run` would otherwise form again with the same bits.
    """

    mus: np.ndarray
    bx: np.ndarray
    xx: float
    value: RayleighValue
    r: np.ndarray
    r_norm: float


class StepResult(NamedTuple):
    """Outcome of a single solver step.

    ``converged`` is set when the input was already (numerically) an
    eigenvector or the search subspace degenerated; the iterate is then
    returned unchanged (up to normalization).  ``measure`` is the step's
    measure of its ``x`` (``None`` on a hand-built result).  A step result
    may stand in for its ``x`` as the next step's input, which then skips
    forming that measure again.  A named tuple that holds an array, so it
    compares and hashes by identity.
    """

    x: np.ndarray
    rho: RayleighValue
    theta_opt: float = None
    converged: bool = False
    measure: _Measure = None

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


# Vector products use ndarray.dot: the same BLAS result as ``@``, at about
# half the call overhead on vectors of the sizes the solvers run.
def _unit(x):
    return x / math.sqrt(x.dot(x))


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


def _residual(x, bx):
    """``(x.x, value, r, |r|)`` of ``x`` given ``bx = mus * x``.

    The Rayleigh value is ``x.x / x.Bx`` and ``r = x - rho Bx``; the zero
    vector raises ValueError.
    """
    xx = float(x.dot(x))
    if xx == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector is undefined")
    den = float(x.dot(bx))
    rho = xx / den
    r = x - rho * bx
    return xx, RayleighValue(rho, den / xx), r, math.sqrt(r.dot(r))


def _measure(mus, x):
    """The full :class:`_Measure` of ``x``."""
    bx = mus * x
    return _Measure(mus, bx, *_residual(x, bx))


def _converged_result(mus, x, value):
    x = _unit(x)
    return StepResult(x, value, None, True, _measure(mus, x))


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

    ``x`` may be the previous :class:`StepResult`: its measure of ``x``
    in the same ``mus`` replaces the same products taken again, so the
    result is bit for bit that of its ``x``.
    """
    if not isinstance(form, DiagonalForm):
        raise TypeError(
            f"solver steps take a DiagonalForm, not {type(form).__name__}; "
            "map a pencil with diagonalize() first, or step it through run()"
        )
    apply_t = _as_operator(precond)
    mus = form.mus
    if isinstance(x, StepResult):
        m = x.measure
        x = x.x
    else:
        m = None
        x = np.asarray(x, dtype=float)
    if m is None or m.mus is not mus:
        m = _measure(mus, x)
    _, _, xx, value, r, r_norm = m
    x_norm = math.sqrt(xx)
    if r_norm < _EIGENVECTOR_TOL * x_norm:
        return _converged_result(mus, x, value)
    d = apply_t(r)
    if not line_search:
        x_next = _unit(x - d)
        m_next = _measure(mus, x_next)
        return StepResult(x_next, m_next.value, 1.0, False, m_next)

    d_norm = math.sqrt(d.dot(d))
    if d_norm < _DEGENERATE_DIRECTION_TOL * x_norm:
        return _converged_result(mus, x, value)
    # Orthonormal basis [q1, q2] = [x, d] R^-1 with R = [[x_norm, r12], [0, w_norm]].
    q1 = x / x_norm
    h = float(q1.dot(d))
    w = d - h * q1
    h2 = float(q1.dot(w))
    w = w - h2 * q1
    r12 = h + h2
    w_norm = math.sqrt(w.dot(w))
    if w_norm < _RANK_TOL * d_norm:  # the rank test of pencil.orthonormalize
        # T r parallel to x: stationary for the line search.
        return _converged_result(mus, x, value)
    q2 = w / w_norm
    # S on [q1, q2]: its smaller eigenvalue g gives the larger mu, i.e. the
    # smaller lambda, and (z1, z2) its eigenvector.
    s = form.shift
    sq1 = s * q1
    p, q, c = float(q1.dot(sq1)), float(q2.dot(s * q2)), float(q2.dot(sq1))
    # The entries scale with mus, and |c| <= (p + q) / 2.  Where their squares
    # would leave the normal range, solve the problem scaled exactly by 2**-e.
    e = 0
    if not _POW2_SAFE_LO <= p + q <= _POW2_SAFE_HI:
        e = math.frexp(p + q)[1]
        p, q, c = math.ldexp(p, -e), math.ldexp(q, -e), math.ldexp(c, -e)
    g, half, root = _shifted_ritz_2x2(p, q, c)
    z1, z2 = (half + root, -c) if half >= 0.0 else (c, half - root)
    mu = float(mus[0]) - math.ldexp(g, e)
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
    rho = 1.0 / mu
    return StepResult(vec, RayleighValue(rho, 1.0 / rho), theta, False, _measure(mus, vec))


def pinvit1_step(form, precond, x):
    """One fixed-step update ``x' = x - T (x - rho(x) Bx)``, normalized.

    ``form`` is the :class:`DiagonalForm` of a pencil and ``x`` a vector in
    its coordinates (``A = I``, ``B = diag(form.mus)``); ``precond`` is
    ``None`` (``T = I``) or a :class:`Preconditioner` in diagonal
    coordinates.  A :class:`SymmetricPencil`, a matrix or a callable
    raises :class:`TypeError` (step a pencil through :func:`run`), a
    preconditioner in pencil coordinates :class:`ValueError`.  ``x`` may
    also be the previous step's :class:`StepResult`; the step then takes
    what that step measured of its iterate and gives the same bits.
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


class IterationRecord(NamedTuple):
    """One row of a solver run.

    ``residual_norm`` is ``|x - rho(x) Bx|`` of the unit iterate ``x`` in
    diagonal coordinates at its Rayleigh quotient ``rho(x) = x.x / x.Bx``
    (a line-search step's ``rho``, its Ritz value, may differ from it in
    the last bits): the residual the next step acts on, relative to
    ``||Ax||``.  ``delta`` is the interval-relative error of ``rho``
    against the pencil's spectrum (``None`` outside the spectral range),
    and ``bound`` the certification verdict for the step that produced
    this record (``None`` for the initial record or when the run is not
    certified).  A named tuple: it equals, hashes, orders and unpacks as
    the plain tuple of its fields.
    """

    step_index: int
    rho: RayleighValue
    residual_norm: float
    delta: float = None
    bound: bounds.BoundCheck = None
    theta_opt: float = None


@dataclass(eq=False)
class RunResult:
    """Records of one run plus its termination status.

    ``status`` is one of ``"converged"`` (residual or delta tolerance
    met, or a stationary point was reached) and ``"max_steps"``.  ``x``
    is the final iterate in the pencil's original coordinates (unit
    length in the diagonalized ones).  ``certified`` tells whether
    per-step bound checks ran; ``certify_note`` explains when they were
    skipped.  ``verdicts`` counts the checks' verdicts in order of first
    appearance; ``max_ratio_over_sigma_sq`` is their largest ``ratio /
    sigma_squared`` (the first of equals), ``None`` when none has a ratio.
    """

    records: list
    status: str
    kind: SolverKind
    x: np.ndarray
    certified: bool
    certify_gamma: float = None
    certify_note: str = ""
    verdicts: dict = field(default_factory=dict)
    max_ratio_over_sigma_sq: float = None

    @property
    def final(self):
        return self.records[-1]


def _delta_row(lam, mus, i):
    """Interval ``i``'s distance rows ``mus[i] - mus``, ``mus - mus[i + 1]`` and its ends."""
    return mus[i] - mus, mus - mus[i + 1], float(lam[i]), float(lam[i + 1])


def _delta(lam, mus, z, i, row=None):
    """Interval-relative error of ``z`` on interval ``i``, lambda form, cancellation free.

    Evaluated in the diagonalized coordinates from per-eigenvalue
    distances (``mus`` descending pairs with ascending ``lam`` by
    index): the reciprocal form ``(mus[i] - mu) / (mu - mus[i + 1])``
    times ``lam[i] / lam[i + 1]``.  It keeps full relative accuracy even
    when the iterate is within roundoff of an eigenvector, and may come
    out at or below zero when the value sits at ``lambda_i`` or beyond.
    ``row`` is interval ``i``'s :func:`_delta_row` when the caller keeps it.
    """
    up, down, lo, hi = _delta_row(lam, mus, i) if row is None else row
    w = z * z
    return float(up.dot(w)) / float(down.dot(w)) * lo / hi


def _pow2_scaled(v):
    """``v``, brought by a power of two into a range where its norm is safe.

    Outside ``2**±_POW2_SAFE_EXP`` the max-abs entry is scaled into
    [0.5, 1).  That scaling is exact unless it pushes an entry below the
    normal range; a vector inside the range is returned unchanged.
    """
    _, e = np.frexp(np.max(np.abs(v)))
    return v if abs(e) <= _POW2_SAFE_EXP else np.ldexp(v, -e)


def _certification_gamma(kind, quality):
    """The gamma a certified run must use, or (None, reason) when it cannot.

    The steepest-descent bound is scaling invariant, so it always uses
    the scale-invariant ``quality.gamma``.  The fixed-step bound needs the
    two-sided quality of the preconditioner *as handed over*; if that
    exceeds 1 the run is not certifiable and the check is skipped rather
    than reported as a violation.  ``quality`` is ``None`` when unknown.
    """
    if kind.exact_inverse:
        return 0.0, ""
    if quality is None:
        return None, "preconditioner quality unknown"
    gamma = quality.gamma if kind.line_search else quality.as_is_gamma()
    if not kind.line_search and gamma >= 1.0:
        return None, (
            f"fixed-step quality mismatch: as-handed gamma {gamma:.6g} >= 1 "
            "(rescale the preconditioner)"
        )
    return gamma, ""


def _check_tolerance(name, tol):
    # NaN fails the comparison: a stopping test against it never fires.
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {tol!r}")


def run(pencil, precond, x0, kind, *, max_steps=500, residual_tol=1e-10,
        delta_tol=None):
    """Drive a solver to convergence, recording and certifying every step.

    All internal math happens in the diagonalized coordinates of the
    pencil; only the final iterate is mapped back, as ``RunResult.x``.
    The run stops when the (relative) residual falls below
    ``residual_tol``, when ``delta`` on the first interval
    ``[lambda_1, lambda_2)`` falls below ``delta_tol`` (if given; a small
    ``delta`` higher up is a stall, not convergence), at a stationary
    point, or after ``max_steps`` steps; the test applies to every
    record, the initial one included.  ``rho`` must stay finite and, for
    the line-search kinds and certified runs, nonincreasing up to
    ``_MONOTONE_TOL``; a failure raises :class:`NumericFailure`.  Each
    certified step is judged by :func:`psdlab.bounds.certify_step`, and
    its verdict and ratio are counted into the result as they come.
    ``x0`` must be a finite, nonzero vector of the pencil's size, else
    :class:`ValueError`; any such vector runs, entries near the overflow
    or underflow threshold included.  ``max_steps`` must be nonnegative
    and ``residual_tol`` and ``delta_tol`` finite and nonnegative, else
    :class:`ValueError`; ``residual_tol = 0`` turns that test off.
    """
    kind = SolverKind.parse(kind)
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    _check_tolerance("residual_tol", residual_tol)
    if delta_tol is not None:
        _check_tolerance("delta_tol", delta_tol)
    x0 = np.asarray(x0, dtype=float)
    if not np.isfinite(x0).all():
        raise ValueError("x0 has a non-finite entry")
    if not np.any(x0):
        raise ValueError("x0 must be nonzero")
    form = diagonalize(pencil)
    if x0.shape != (form.n,):
        raise ValueError(f"x0 must be a vector of length {form.n}, got shape {x0.shape}")
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
    lam = spectrum._lam
    lam_top = lam[-1]
    # The delta rows of each interval the run visits, built on the first visit.
    rows = {}
    # Scaled by powers of two on both sides of the map, so that entries near
    # the overflow or underflow threshold still give a unit start.
    z = _unit(_pow2_scaled(form.to_diagonal(_pow2_scaled(x0))))
    m = _measure(mus, z)
    # The start as a step that measured its iterate; each step is handed on
    # to the next, which takes that measure instead of forming it again.
    step = StepResult(x=z, rho=m.value, measure=m)
    bound = certified = max_ratio = None
    records = []
    verdicts = {}
    status = "max_steps"
    for step_index in range(max_steps + 1):
        # Measure: residual, interval (None at or above lambda_n) and delta.
        # The step measured its residual already, a certified step the delta
        # on its interval.
        z, value, res_norm = step.x, step.rho, step.measure.r_norm
        i = None if value.rho >= lam_top else bounds.locate_interval(spectrum, value.rho)
        if i is not None and i not in rows:
            rows[i] = _delta_row(lam, mus, i)
        if certified is not None and certified[0] == i:
            delta = certified[1]
        else:
            delta = None if i is None else _delta(lam, mus, z, i, rows[i])
        delta_now = None if delta is None else (delta if delta > 0.0 else 0.0)
        records.append(IterationRecord(step_index, value, res_norm, delta_now, bound,
                                       step.theta_opt))
        # delta_tol is a distance to lambda_1, so only the first interval
        # (from the last copy of lambda_1) can meet it.
        if (step.converged or res_norm < residual_tol
                or (delta_tol is not None and i is not None and lam[i] == lam[0]
                    and delta_now < delta_tol)):
            status = "converged"
            break
        if step_index == max_steps:
            break

        step = psd_step(form, t, step) if kind.line_search else pinvit1_step(form, t, step)
        rho_prev, rho = value.rho, step.rho.rho
        if not math.isfinite(rho):
            raise NumericFailure(
                f"step {step_index + 1} produced a non-finite Rayleigh quotient "
                f"({rho!r}); aborting"
            )
        if monotone_guaranteed and rho > rho_prev * (1.0 + _MONOTONE_TOL):
            raise NumericFailure(
                f"step {step_index + 1} increased the Rayleigh quotient from "
                f"{rho_prev!r} to {rho!r}"
            )
        bound = certified = None
        if certifying and not step.converged and i is not None:
            certified = (i, _delta(lam, mus, step.x, i, rows[i]))
            bound = bounds.certify_step(spectrum, cert_gamma, i, (delta, certified[1]), kind=kind)
            verdicts[bound.verdict] = verdicts.get(bound.verdict, 0) + 1
            if bound.ratio is not None and bound.sigma_squared:
                ratio = bound.ratio / bound.sigma_squared
                if max_ratio is None or ratio > max_ratio:
                    max_ratio = ratio

    return RunResult(
        records=records,
        status=status,
        kind=kind,
        x=form.from_diagonal(z),
        certified=certifying,
        certify_gamma=cert_gamma,
        certify_note=cert_note,
        verdicts=verdicts,
        max_ratio_over_sigma_sq=max_ratio,
    )
