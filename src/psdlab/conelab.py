"""Worst-case geometry of the preconditioned steepest descent step.

For a fixed iterate ``x`` (in the diagonalized coordinates, ``A = I``,
``B = diag(mus)``) the admissible fixed-step iterates of all
preconditioners of quality ``gamma`` fill a ball centered at ``Bx`` of
radius ``gamma ||r||`` with ``r = Bx - mu(x) x``; the union of the
search lines through them is a circular cone with vertex ``mu(x) x``
and opening angle ``arcsin(gamma)``.  This module builds that cone, its
disc cross-section, the two extremal directions where the line-search
outcome is poorest, the closed-form worst direction, and the explicit
three-dimensional instances on which the sharp PSD factor is attained
in the limit of vanishing interval-relative error.

The cone geometry (:class:`ConeSpec` and everything built on it,
:func:`brute_force_cone_min` included) works on 3-vectors.  Only the
inner level of the concentration check, ``_worst_direction``, takes
cones in dimension 3 to 5: it finds each iterate's worst cone point from
one trust-region subproblem on the complement of ``{x, r}``, the n-D
form of :func:`worst_direction`'s closed form, for many iterates at once.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .bounds import SolverKind, _factor, _kappa_lenient
from .errors import StationaryPointError
from .iterate import _POW2_SAFE_EXP, _delta, psd_step
from .pencil import DiagonalForm, _shifted_ritz_2x2, _unit_scale
from .precond import Preconditioner, PrecondQuality

__all__ = [
    "ConeSpec",
    "WorstCaseSetup",
    "WorstCaseResult",
    "ConcentrationReport",
    "extremal_directions",
    "worst_direction",
    "ritz_gap",
    "ritz_on_segment",
    "brute_force_cone_min",
    "worst_aligned_preconditioner",
    "worst_case_instance",
    "axis_ratio_closed_form",
    "t_star",
    "three_d_concentration_check",
]


def _colsum(a):
    """Sum of ``a`` over axis 0, in index order.

    A column's bits depend on its own entries only, never on how many
    columns there are (numpy's own reduction sums a single column
    pairwise once it has 9 or more entries).
    """
    if len(a) == 1:
        return a[0].copy()
    total = a[0] + a[1]
    for row in a[2:]:
        total += row
    return total


def _pow2_unit(a):
    """``(a * 2**-e, e)`` per row (last axis), by the rule of :func:`psdlab.iterate._pow2_scaled`.

    ``e`` keeps the row axis; it is 0, and the row keeps every bit, inside ``2**±_POW2_SAFE_EXP``.
    """
    _, e = np.frexp(np.max(np.abs(a), axis=-1, keepdims=True))
    e = np.where(np.abs(e) <= _POW2_SAFE_EXP, 0, e)
    return np.ldexp(a, -e), e


def _cross(a, b):
    """``a x b`` of 3-vectors, or of the columns of two ``(3, m)`` arrays.

    The products and differences of ``np.cross``, in its order, so the
    bits are its bits, without its call overhead.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _cone_disc(mus, x, gamma):
    """``mu(x)``, ``r = Bx - mu(x) x``, the disc center and radius, and ``empty``.

    ``x`` is one iterate ``(n,)`` or one iterate per column ``(n, m)``;
    every result has its trailing shape.  ``empty`` flags where
    ``||r|| < 1e-13 ||Bx||``: ``x`` is numerically an eigenvector and the
    cone is empty.
    """
    bx = mus.reshape(mus.shape + (1,) * (x.ndim - 1)) * x
    mu_x = _colsum(x * bx) / _colsum(x * x)
    r = bx - mu_x * x
    r_norm = np.sqrt(_colsum(r * r))
    empty = r_norm < 1e-13 * np.sqrt(_colsum(bx * bx))
    center = mu_x * x + (1.0 - gamma * gamma) * r
    radius = gamma * math.sqrt(1.0 - gamma * gamma) * r_norm
    return mu_x, r, center, radius, empty


@dataclass(eq=False)
class ConeSpec:
    """Search cone data for one iterate of one quality level.

    ``x`` lives in the diagonalized 3-D coordinates with
    ``B = diag(mus)``, ``mus`` strictly decreasing and positive.  The
    residual ``r = Bx - mu(x) x`` is orthogonal to ``x``; the ball of
    admissible fixed-step iterates has center ``Bx`` and radius
    ``gamma ||r||``, and the enclosing cone has opening angle
    ``arcsin(gamma)``.  Every search line of the cone crosses the disc
    with center ``disc_center = mu(x) x + (1 - gamma^2) r``, radius
    ``disc_radius = gamma sqrt(1 - gamma^2) ||r||`` and normal ``r``;
    ``v = (x cross r) / |x cross r|`` is the unit in-disc direction
    orthogonal to both ``x`` and ``r``.  The cone is built at unit scale,
    so its squares stay in range whatever the units: ``mus`` by the power
    of four of :func:`psdlab.pencil._unit_scale`, ``x`` by a power of two
    only outside ``2**±400``.  The cone keeps that unit state in ``_unit``:
    ``(mus, e, x, es, r, disc_center, disc_radius)``.  ``mu_x`` and Ritz
    values go back to the units of ``mus`` by ``2**e``; ``r``, the radii
    and the disc center, of degree 1 in ``mus`` and in ``x``, by ``2**es``.
    """

    mus: np.ndarray
    x: np.ndarray
    gamma: float
    mu_x: float = field(init=False)
    r: np.ndarray = field(init=False)
    center: np.ndarray = field(init=False)
    radius: float = field(init=False)
    disc_center: np.ndarray = field(init=False)
    disc_radius: float = field(init=False)
    v: np.ndarray = field(init=False)
    _unit: tuple = field(init=False, repr=False)

    def __post_init__(self):
        mus = np.asarray(self.mus, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if mus.shape != (3,) or x.shape != (3,):
            raise ValueError("cone geometry is three-dimensional")
        if not np.all(np.isfinite(mus)) or np.any(np.diff(mus) >= 0) or mus[-1] <= 0:
            raise ValueError("mus must be finite, strictly decreasing and positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not np.all(np.isfinite(x)) or not np.any(x):
            raise ValueError("x must be finite and nonzero")
        self.mus = mus
        self.x = x
        unit, e = _unit_scale(mus)
        unit_x, ex = _pow2_unit(x)
        es = e + int(ex[0])
        mu_x, r, disc_center, disc_radius, empty = _cone_disc(unit, unit_x, self.gamma)
        if empty:
            raise StationaryPointError("x is numerically an eigenvector; the search cone is empty")
        self._unit = (unit, e, unit_x, es, r, disc_center, disc_radius)
        v = _cross(unit_x, r)
        self.v = v / math.sqrt(v.dot(v))
        self.mu_x = math.ldexp(mu_x, e)
        self.r, self.disc_center = np.ldexp(r, es), np.ldexp(disc_center, es)
        self.radius = math.ldexp(self.gamma * math.sqrt(r.dot(r)), es)
        self.disc_radius = math.ldexp(disc_radius, es)
        self.center = mus * x


def extremal_directions(cone):
    """The two cone-boundary points bounding the x-orthogonal search segment.

    Both lie on the cone surface at distance
    ``sqrt(1 - gamma^2) ||r||`` from the vertex.
    """
    d1 = cone.disc_center + cone.disc_radius * cone.v
    d2 = cone.disc_center - cone.disc_radius * cone.v
    return d1, d2


def worst_direction(cone):
    """The cone point whose line search improves the Rayleigh quotient least.

    The closed form covers componentwise nonnegative ``x`` (take
    ``np.abs(x)`` first otherwise: reflections through the coordinate
    planes leave the cone landscape unchanged) with ``mu(x)`` in
    ``(mus[1], mus[0])``: the extremal direction on the ``+ x cross r``
    side of the cross-section.  Other cones are rejected.
    """
    if np.any(cone.x < 0):
        raise ValueError(
            "worst_direction needs a componentwise nonnegative x; "
            "take np.abs(x) first"
        )
    if cone.mu_x <= cone.mus[1]:
        raise ValueError("worst_direction needs mu(x) in (mus[1], mus[0])")
    return extremal_directions(cone)[0]


def ritz_gap(mus, x, directions):
    """Distance ``mus[0] - theta`` for each row ``d`` of ``directions``.

    ``theta`` is the larger reciprocal-form Ritz value of ``span{x, d}``
    for the pencil ``(I, diag(mus))``; ``mus`` is positive with its first
    entry its largest.  ``x`` is one iterate ``(n,)`` shared by every
    row, or one iterate per row: ``x`` and ``directions`` broadcast
    against each other over their leading (row) axes, and the result has
    their broadcast row shape.  ``d`` is orthogonalized against ``x`` by
    two Gram-Schmidt passes, and the projected 2x2 problem is solved
    relative to ``mus[0]``: with ``S = diag(mus[0] - mus)`` (nonnegative),
    ``p``, ``q`` and ``c`` the entries of ``S`` on the orthonormal pair,
    the gap is the smaller eigenvalue of ``[[p, c], [c, q]]`` from the
    step kernel's 2x2 routine.  Its relative error stays below about
    ``4 eps (mus[0] - mu(x)) / (gap sin(x, d))``: the first factor where
    ``p q - c^2`` cancels, the second for the digits lost in forming
    ``w = d - (d.x) x`` from a ``d`` nearly parallel to ``x`` (at most 0.53
    of that bound on 3,000 random rows at ``n = 3``, ``d`` down to 1e-15
    off ``x``, against a 60-digit Rayleigh-Ritz; without ``sin(x, d)`` the
    bound failed 2e13-fold), so a small gap is accurate relative to itself only
    when ``x`` itself is that near the top eigenvector;
    ``mus[0] - theta`` would lose ``eps / gap`` for every ``x``.  Rows
    (numerically) parallel to ``x`` yield ``p``: ``theta = mu(x)``; an
    ``x`` in the eigenspace of ``mus[0]`` yields 0.  The gaps are taken
    on ``mus`` at unit scale (:func:`psdlab.pencil._unit_scale`), where
    the 2x2 products stay in range, and go back to the units of ``mus`` by
    that exact power of four.  The gap is of degree 0 in each row of ``x``
    and of ``directions``: a row whose largest entry lies outside
    ``2**±400`` goes into range by a power of two, and a row inside keeps every bit.

    Value-only, and computed component-major: every product is
    elementwise and every sum runs over the components in index order,
    so a row's bits do not depend on the batch it comes in.  The tests
    check it against :func:`psdlab.pencil.rayleigh_ritz` and against
    LAPACK's generalized symmetric-definite solver.
    """
    unit, e = _unit_scale(np.asarray(mus, dtype=float))
    x, d = (_pow2_unit(np.asarray(a, dtype=float))[0] for a in (x, np.atleast_2d(directions)))
    ndim = max(x.ndim, d.ndim)
    xt, dt = (np.moveaxis(a.reshape((1,) * (ndim - a.ndim) + a.shape), -1, 0) for a in (x, d))
    return np.ldexp(_ritz_gap(unit, xt, dt), e)


def _ritz_gap(mus, xt, dt):
    """:func:`ritz_gap` on component-major arrays, with ``mus`` as given.

    ``xt`` and ``dt`` are ``(n, ...)`` of equal ndim, whose trailing axes
    broadcast to the shape of the result.  The module's callers pass
    unit-scale ``mus``, and iterates and directions in range.
    """
    s = (mus[0] - mus).reshape((-1,) + (1,) * (dt.ndim - 1))
    xh = xt / np.sqrt(_colsum(xt * xt))
    sxh = s * xh
    p = _colsum(xh * sxh)
    w = dt - _colsum(dt * xh) * xh
    w -= _colsum(w * xh) * xh
    ww = w * w
    w_sq = _colsum(ww)
    degenerate = w_sq <= 1e-30 * _colsum(dt * dt)
    w_sq = np.where(degenerate, 1.0, w_sq)
    # The entries of S on the unit vector w / |w|.
    q = _colsum(ww * s) / w_sq
    c = _colsum(w * sxh) / np.sqrt(w_sq)
    with np.errstate(invalid="ignore", divide="ignore"):  # 0/0 only where p = 0
        gap = _shifted_ritz_2x2(p, q, c)[0]
    return np.where(p == 0.0, 0.0, np.where(degenerate, p, gap))


def ritz_on_segment(cone, t):
    """Larger reciprocal-form Ritz value along the extremal segment.

    ``d(t) = t d1 + (1 - t) d2`` for ``t`` in ``[0, 1]`` (scalar or
    array): :func:`ritz_gap` evaluated on the segment's points, as
    ``mus[0] - gap``, on the cone's unit state.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if not np.all((t_arr >= 0.0) & (t_arr <= 1.0)):  # NaN fails it too
        raise ValueError("segment parameter t must lie in [0, 1]")
    mus, e, x, _, _, center, radius = cone._unit
    step = radius * cone.v
    d = np.outer(center + step, t_arr) + np.outer(center - step, 1.0 - t_arr)
    values = np.ldexp(mus[0] - _ritz_gap(mus, x[:, None], d), e)
    return float(values[0]) if scalar else values


def brute_force_cone_min(cone, n_samples):
    """Smallest larger Ritz value over a dense sampling of the cone.

    Samples the full boundary circle of the cross-section disc plus
    interior rings at 1/4, 1/2 and 3/4 of its radius in its ``(v, x/|x|)``
    basis (the oracle must not assume the extrema sit on the x-orthogonal
    segment, nor on the boundary), through one :func:`ritz_gap` call on
    the cone's unit state.  Returns the minimum and the direction
    attaining it (the first, at ties), in the units of the cone's mus and x.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    angles = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
    ys = np.concatenate([frac * np.array([np.cos(angles), np.sin(angles)])
                         for frac in (0.25, 0.5, 0.75, 1.0)], axis=1)
    mus, e, x, es, _, center, radius = cone._unit
    scaled = radius * np.column_stack([cone.v, x / np.linalg.norm(x)])
    d = scaled[:, :1] * ys[0] + scaled[:, 1:] * ys[1] + center[:, None]
    values = mus[0] - _ritz_gap(mus, x[:, None], d)
    best = int(np.argmin(values))
    return math.ldexp(values[best], e), np.ldexp(d[:, best], es)


# -- worst-case instances attaining the sharp factor -------------------------


def t_star(kappa, gamma):
    """Level-set parameter of poorest convergence in the vanishing-error limit."""
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie in (0, 1)")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    return math.sqrt(1.0 - kappa) * (1.0 - gamma) / math.sqrt(1.0 - gamma * gamma)


def _level_set(unit, delta):
    """``mu``, ``a`` and ``b`` of the level set of ``delta`` on the unit-scale triple ``unit``."""
    mu_j, mu_k, mu_l = unit
    mu = (mu_j + delta * mu_k) / (1.0 + delta)
    # mu_j - mu in closed form: the difference of the rounded values
    # cancels once delta nears eps.
    b = math.sqrt(delta * (mu_j - mu_k) / (1.0 + delta) / (mu - mu_l))
    return mu, math.sqrt(delta), b


@dataclass(eq=False)
class WorstCaseSetup:
    """Three-dimensional sharpness instance.

    ``mus = (mu_j, mu_k, mu_l)`` strictly decreasing and positive;
    ``delta`` is the target interval-relative error
    ``(mu_j - mu) / (mu - mu_k)`` fixing the level ``mu``; ``t``
    parametrizes the position on the level-set ellipse.  The iterate is
    ``x = (1, alpha0, beta0)`` with ``alpha0 = a / sqrt(1 + t^2)`` and
    ``beta0 = b t / sqrt(1 + t^2)``, where ``a`` and ``b`` are the
    level-set semi-axes.  ``mus`` and ``mu`` are in the caller's units; the
    rest is built from ``mus`` at unit scale (:func:`psdlab.pencil._unit_scale`).
    """

    mus: np.ndarray
    gamma: float
    delta: float
    t: float
    mu: float = field(init=False)
    a: float = field(init=False)
    b: float = field(init=False)
    alpha0: float = field(init=False)
    beta0: float = field(init=False)
    x: np.ndarray = field(init=False)
    kappa: float = field(init=False)
    sigma: float = field(init=False)

    def __post_init__(self):
        mus = np.asarray(self.mus, dtype=float)
        if (mus.shape != (3,) or not np.all(np.isfinite(mus))
                or np.any(np.diff(mus) >= 0) or mus[-1] <= 0):
            raise ValueError("mus must be three finite, strictly decreasing positive values")
        for name, value in (("delta", self.delta), ("t", self.t)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        self.mus = mus
        unit, e = _unit_scale(mus)
        mu, self.a, self.b = _level_set(unit, self.delta)
        self.mu = math.ldexp(mu, e)
        root = math.sqrt(1.0 + self.t * self.t)
        self.alpha0 = self.a / root
        self.beta0 = self.b * self.t / root
        self.x = np.array([1.0, self.alpha0, self.beta0])
        # kappa in the lambda form, as bounds.certify_step takes it
        self.kappa = _kappa_lenient(*(1.0 / unit).tolist())
        self.sigma = _factor(SolverKind.PSD, None, self.kappa, self.gamma)

    def cone(self):
        return ConeSpec(mus=self.mus, x=self.x, gamma=self.gamma)


@dataclass(frozen=True, eq=False)
class WorstCaseResult:
    """Measured outcome of one worst-case PSD step from ``x`` toward the worst direction ``d``.

    ``mu_before``/``mu_after`` are Rayleigh quotients in the ``mu`` form,
    the deltas are in the ``lambda`` form of ``IterationRecord.delta``, and
    ``predicted_ratio`` is the squared sharp factor.
    """

    x: np.ndarray
    d: np.ndarray
    mu_before: float
    mu_after: float
    delta_before: float
    delta_after: float
    measured_ratio: float
    predicted_ratio: float


def _aligned_error_matrix(r, w, norm):
    """Symmetric ``E`` with spectral norm ``norm`` and ``E r = w``.

    Requires ``||w|| <= norm * ||r||``; built as a rank-two map on
    ``span{r, w}``.
    """
    r_norm = math.sqrt(r.dot(r))
    w_norm = math.sqrt(w.dot(w))
    n = r.size
    if w_norm == 0.0:
        return np.zeros((n, n))
    rh = r / r_norm
    u = w / w_norm
    g = w_norm / r_norm  # |E r-hat| = g, must be <= norm
    if g > norm * (1.0 + 1e-12):
        raise ValueError("target direction lies outside the admissible ball")
    c = float(u @ rh)
    p = u - c * rh
    p_norm = math.sqrt(p.dot(p))
    if p_norm < 1e-14:
        sign = 1.0 if c >= 0 else -1.0
        return sign * g * np.outer(rh, rh)
    ph = p / p_norm
    basis = np.column_stack([rh, ph])
    core = g * np.array([[c, p_norm], [p_norm, -c]])
    e = basis @ core @ basis.T
    return (e + e.T) / 2.0


def worst_aligned_preconditioner(cone, target):
    """``T = I - E`` of quality ``cone.gamma`` whose fixed step from ``cone.x`` hits ``target``.

    ``target`` lies in the cone's ball of admissible fixed-step iterates
    (a point outside raises ``ValueError``); ``E`` is the rank-two map of
    norm ``gamma`` sending the cone's ``r`` to ``cone.center - target``
    (``cone.center`` is ``Bx``).  ``E`` is of degree 0 in that pair, so it
    is built from the cone's unit ``r`` and ``cone.center - target`` taken
    to the same unit scale, whatever the units of ``mus`` and ``x``.
    Diagonal coordinates; ``gamma = 0`` gives ``T = I``.
    """
    gamma = cone.gamma
    n = cone.x.size
    if gamma == 0.0:
        error = np.zeros((n, n))
    else:
        _, _, _, es, r, _, _ = cone._unit
        w = np.ldexp(cone.center - np.asarray(target, dtype=float), -es)
        error = _aligned_error_matrix(r, w, gamma)
    return Preconditioner(matrix=np.eye(n) - error, quality=PrecondQuality.ideal(gamma),
                          coords="diagonal")


def worst_case_instance(setup):
    """One solver :func:`psdlab.iterate.psd_step` on the poorest-convergence pair.

    :func:`worst_aligned_preconditioner` of the instance's cone makes
    the fixed step from ``setup.x`` land on :func:`worst_direction`; the
    deltas come from the step kernel's ``_delta``, accurate down to
    ``delta`` near 1e-18.  The step runs on the cone's unit-scale mus;
    ``mu_after`` goes back to the setup's units.  A numerically empty cone
    (``x`` within 1e-13 of an eigenvector, or a ``converged`` step) raises
    :class:`StationaryPointError`.
    """
    cone = setup.cone()
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
        predicted_ratio=setup.sigma ** 2,  # as bounds.certify_step squares it
    )


def axis_ratio_closed_form(delta, t, kappa, gamma):
    """Tangent-ellipse axis ratio as an explicit function of the invariants.

    The line through ``S1 = (1, c_k, 0)`` and ``S2 = (1, 0, c_l)`` is
    the trace of the worst search plane; the concentric ellipse with the
    level-set aspect ratio tangent to it has squared-semi-axis ratio
    ``c_k^2 c_l^2 / (b^2 c_k^2 + a^2 c_l^2)`` against the level set,
    which bounds the measured contraction ratio.  This is that ratio as
    a function of the four invariants ``(delta, t, kappa, gamma)`` alone
    (the tests check it against the intercepts of the instance); its
    reciprocal is strictly increasing in ``delta``, so the
    ``delta -> 0`` value bounds the contraction ratio at every level,
    with the global optimum over the level set at
    ``t = t_star(kappa, gamma)``.  Arguments whose terms overflow raise
    ``ValueError``: ``t`` above about 1e154, or ``(1 + delta) Gamma^2 (1 + t^2)``
    above about 1e308, with ``Gamma = sqrt(1 - gamma^2) / gamma``.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1) for the closed form")
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie in (0, 1)")
    if not (0.0 <= delta < math.inf and 0.0 < t < math.inf):  # NaN fails it too
        raise ValueError("delta must be finite and nonnegative and t finite and positive")
    big_gamma = math.sqrt(1.0 - gamma * gamma) / gamma
    one_m_k = 1.0 - kappa
    try:
        inv_1pt2 = 1.0 / (1.0 + t * t)
        s_level = math.sqrt(1.0 + t * t + kappa * delta)
        s_delta = math.sqrt(1.0 + delta)
        num = (
            (1.0 + delta) * (big_gamma**2 * one_m_k**2 + kappa * one_m_k + big_gamma**2 * t * t)
            + one_m_k**2
            + t * t * one_m_k
            + 2.0 * kappa * big_gamma * t * math.sqrt(inv_1pt2) * s_level
            * math.sqrt(one_m_k) * s_delta
        )
        den = (
            math.sqrt(one_m_k) * s_level
            + kappa * big_gamma * t * math.sqrt(inv_1pt2) * s_delta
        ) ** 2
    except OverflowError:  # a float ** 2 beyond the double range
        num = den = math.inf
    # Every term is nonnegative, so an overflow anywhere leaves num or den
    # infinite or NaN (an infinite t * t turns inv_1pt2 to 0 and num to inf).
    if not (num < math.inf and den < math.inf):
        raise ValueError("axis ratio arguments out of range: a term overflows a double")
    return den / num


# -- empirical check of the 3-D concentration of the worst case --------------

# A coordinate of the unit optimizer counts as significant above this size.
_SIGNIFICANCE = 1e-6


@dataclass(eq=False)
class ConcentrationReport:
    """Outcome of the randomized two-level worst-case search.

    ``best_value`` is the poorest larger Ritz value found over the
    level set; ``significant`` the indices of coordinates of the
    optimizer above ``_SIGNIFICANCE`` in magnitude.  ``reference_value`` is
    the closed-form worst value over the predicted invariant triple
    (``reference_triple``) at the same level; ``triple_values`` holds
    that value for every admissible triple.
    """

    mu0: float
    gamma: float
    n_outer: int
    seed: int
    best_value: float
    best_x: np.ndarray
    significant: tuple
    reference_triple: tuple
    reference_value: float
    triple_values: dict

    @property
    def n_significant(self):
        return len(self.significant)

    @property
    def beats_reference_by(self):
        return self.reference_value - self.best_value

    def summary(self):
        lines = [
            f"two-level worst-case search at level mu0={self.mu0!r}, "
            f"gamma={self.gamma!r} ({self.n_outer} restarts, seed {self.seed})",
            f"  best value found : {self.best_value!r}",
            f"  optimizer        : {np.array2string(self.best_x, precision=3, suppress_small=True)}",
            f"  significant coords (>{_SIGNIFICANCE:g} rel.): "
            f"{self.n_significant} -> indices {list(self.significant)}",
            f"  predicted triple {self.reference_triple} closed-form value: "
            f"{self.reference_value!r}",
            f"  search beats closed form by {self.beats_reference_by:.3e} "
            "(positive would contradict the 3-D reduction)",
        ]
        for triple, value in self.triple_values.items():
            lines.append(f"    triple {triple}: worst value {value!r}")
        return "\n".join(lines)


def _worst_mu_after(unit, gamma, a, b, ts):
    """The worst-case instance's ``mu_after`` at each level-set parameter of ``ts``.

    The batched form of :func:`worst_case_instance`, on a strictly
    decreasing positive triple ``unit`` at unit scale with the semi-axes
    ``a`` and ``b`` of :func:`_level_set`.  The iterates
    ``x(t) = (1, a / sqrt(1 + t^2), b t / sqrt(1 + t^2))`` go in as
    columns; their cones come from one :func:`_cone_disc`, the worst
    direction is ``d = disc_center + disc_radius v`` with ``v`` the unit
    ``x cross r``, and ``mu_after``, the larger Ritz value of
    ``span{x, d}`` that the worst-case PSD step reaches, from one
    :func:`_ritz_gap` call.  An empty cone raises
    :class:`StationaryPointError`, as in :func:`worst_case_instance`.
    """
    ts = np.asarray(ts, dtype=float)
    root = np.sqrt(1.0 + ts * ts)
    x = np.stack([np.ones_like(ts), a / root, b * ts / root])
    _, r, center, radius, empty = _cone_disc(unit, x, gamma)
    if np.any(empty):
        raise StationaryPointError("x is numerically an eigenvector; the search cone is empty")
    v = _cross(x, r)
    d = center + radius * (v / np.sqrt(_colsum(v * v)))
    return unit[0] - _ritz_gap(unit, x, d)


def _worst_value_3d(mu_triple, gamma, mu0):
    """Closed-form worst larger Ritz value over a 3-D level set.

    Minimizes the worst-case instance's ``mu_after`` over the level-set
    parameter ``t``: a 61-point grid of ``log10 t`` over ``[-3, 3]``,
    then 8-point grids (9 less the known center) zooming on the best
    point, each spanning two spacings of the one before, while their
    spacing is above 1e-8: 12 grids of 149 points in all.  Each grid is
    one :func:`_worst_mu_after` call, so one :func:`ritz_gap` call.  The
    triple, its level set and ``t = 10**u`` are formed as
    :class:`WorstCaseSetup` forms them, so every value is
    :func:`worst_case_instance`'s ``mu_after`` to within a few ulp.
    """
    mu_j, mu_k, _ = mu_triple
    unit, e = _unit_scale(np.asarray(mu_triple))
    _, a, b = _level_set(unit, (mu_j - mu0) / (mu0 - mu_k))
    us = np.linspace(-3.0, 3.0, 61)
    spacing = us[1] - us[0]
    best, center = math.inf, 0.0
    while spacing > 1e-8:
        # Python's pow, as the setup takes it: numpy's array pow rounds
        # about one power in twenty differently
        values = _worst_mu_after(unit, gamma, a, b, [10.0 ** u for u in us.tolist()])
        idx = int(np.argmin(values))
        if values[idx] < best:
            best, center = values[idx], us[idx]
        spacing /= 4.0
        # the next grid less its center, whose value is already known
        us = center + spacing * np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0])
    return math.ldexp(best, e)


def _perp_basis(r):
    """Orthonormal basis of the hyperplane orthogonal to each column of ``r``.

    ``r`` is ``(n, m)``; returns ``(n, n - 1, m)``: columns 2..n of the
    Householder reflector mapping ``r[:, i]`` onto the first coordinate
    axis.  Much cheaper than an SVD null space and deterministic in ``r``.
    """
    n = r.shape[0]
    h = r / np.sqrt(_colsum(r * r))
    h[0] += np.copysign(1.0, h[0])
    basis = -2.0 * (h[:, None] * h[None, 1:]) / _colsum(h * h)
    basis[np.arange(1, n), np.arange(n - 1)] += 1.0
    return basis


# A guard on the Newton rounds of the secular equation, not a stopping
# rule: the concentration check's columns stop within 9 (3.5 on average).
# A tiny g_0 whose other terms sum to 1 - delta at h[0] takes up to 21 at
# delta = 1e-6, 32 at 1e-10 and 45 at delta = 0: from |g_0|, t grows by
# only half of itself a round until Newton takes hold.
_NEWTON_ROUNDS = 64


def _secular_sums(dist, g_sq):
    """``sum_i g_sq[i] / dist[i]^2`` and ``sum_i g_sq[i] / dist[i]^3``, per column."""
    w = g_sq / (dist * dist)
    return _colsum(w), _colsum(w / dist)


def _secular_root(h, g_sq):
    """Largest ``lam <= h[0]`` with ``s(lam) = sum_i g_sq[i] / (h[i] - lam)^2 <= 1``, per column.

    ``h`` ``(k, m)`` ascends down each column.  The root's distance
    ``t = h[0] - lam`` lies in ``[0, |g|]``, and ``psi = 1/sqrt(s) - 1``
    is concave and rising in ``t`` (Moré and Sorensen, 1983).  Newton's
    method on ``psi`` starts at ``t = |g_c|``, with ``g_c`` the part of
    ``g`` on the eigenvalues equal to ``h[0]``, where ``s >= 1``, and
    climbs monotonically to the root.  ``[0, |g|]`` shrinks to the last
    points on either side of the root, and a step that is not finite or
    does not land strictly inside it halves it.  A column stops once
    its step is within about 2 ulps of ``lam`` and a quarter of ``t``
    (the steps grow while ``t`` is far below the root), or after
    ``_NEWTON_ROUNDS``.  The hard case, ``g_c = 0`` with ``s(h[0]) < 1``
    (``g`` orthogonal to the eigenvectors of ``h[0]``), ends at ``h[0]``.
    The iteration carries ``t``, so a start within an ulp of ``h[0]`` is
    not rounded onto it.  Each column's bits are its own.
    """
    # rows without g add nothing; an infinite distance keeps them 0 at t = 0
    above = np.where(g_sq > 0.0, h - h[0], np.inf)
    t = np.sqrt(_colsum(np.where(above == 0.0, g_sq, 0.0)))
    lo, hi = np.zeros_like(t), np.sqrt(_colsum(g_sq))
    ulps = 2.0 * np.finfo(float).eps  # |lam| <= |h[0]| + t
    tol = ulps * np.abs(h[0])
    moving = np.ones(t.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_ROUNDS):
            s, s3 = _secular_sums(above + t, g_sq)
            below = s < 1.0
            lo, hi = np.where(below, lo, t), np.where(below, t, hi)
            new = t + s * (np.sqrt(s) - 1.0) / s3
            new = np.where(((new > lo) & (new < hi)) | (new == t), new, 0.5 * (lo + hi))
            step = np.abs(new - t)
            t = np.where(moving, new, t)
            moving &= (step > tol + ulps * t) | (4.0 * step > t)
            if not moving.any():
                break
    return h[0] - t


def _worst_direction(mus, x, gamma):
    """Worst larger Ritz value over the cone of each column of ``x``, and its disc point.

    ``mus`` is strictly decreasing and positive at unit scale, and ``x``
    ``(n, m)`` with ``n >= 3``; returns the values ``(m,)`` and the disc
    points ``d`` ``(n, m)``, ``inf`` and NaN where the cone is empty.
    The domain is ``mu(x) > mus[-2]``, the concentration check's, where
    the worst point lies on the disc's boundary sphere orthogonal to
    ``x``; below it an interior point can do worse.

    Modulo ``x``, a disc point is ``(1 - gamma^2) r + rho u`` with ``rho``
    the disc radius and ``u`` in ``{x, r}^⊥`` of norm at most 1, and the
    2x2 Ritz problem of ``span{x, d}`` depends on ``u`` only through
    ``|u|`` and ``w.Bw`` of ``w = (1 - gamma^2) r + rho u``; its larger
    value grows with ``w.Bw / |w|^2``.  So at ``|u| = 1`` the worst ``u``
    minimizes ``u.Hu + 2 g.u`` on the unit sphere of ``{x, r}^⊥``, with
    ``H`` the projection of ``B`` and ``g`` that of
    ``(1 - gamma^2) / rho Br``: a trust-region subproblem on its boundary
    (Moré and Sorensen, 1983).  In the eigenbasis of ``H`` (ascending
    ``h``), ``u_i = -g_i / (h_i - lam)`` for ``i >= 1`` with ``lam`` from
    :func:`_secular_root`, and ``u_0`` takes the norm they leave, with the
    sign of ``-g_0`` (``+`` at ``g_0 = 0``).  Where the root is interior
    that is its own ``u_0``, to rounding; in the hard case it puts the
    leftover norm on the eigenvector of ``h_0``.  A root a rounding short
    of the crossing can leave the ``u_i`` a rounding over norm 1; they
    shrink back onto the sphere.  Either way ``|u| = 1``.
    At ``n = 3`` ``{x, r}^⊥`` is the line of ``x cross r``, and ``u`` is
    :func:`worst_direction`'s.  The value is ``mus[0]`` less
    :func:`_ritz_gap` at ``d``.  One ``(n-2) x (n-2)`` eigendecomposition
    a column; each column's bits do not depend on the batch it comes in,
    and a power of two on a column keeps them.
    """
    n, m = x.shape
    value, direction = np.full(m, math.inf), np.full((n, m), math.nan)
    _, r, center, radius, empty = _cone_disc(mus, x, gamma)
    ok = np.flatnonzero(~empty)
    x, r, center, radius = x[:, ok], r[:, ok], center[:, ok], radius[ok]
    # q (n, n-2, m): an orthonormal basis of x^⊥, then of r^⊥ within it
    qx = _perp_basis(x)
    qr = _perp_basis(_colsum(qx * r[:, None]))
    q = _colsum(np.moveaxis(qx, 1, 0)[:, :, None] * qr[:, None])
    bq = mus[:, None, None] * q
    g = (1.0 - gamma * gamma) / radius * _colsum(bq * r[:, None])
    # H as eigh takes it, (m, n-2, n-2); g and the coefficients of u in its eigenbasis
    h, v = np.linalg.eigh(np.moveaxis(_colsum(q[:, :, None] * bq[:, None]), -1, 0))
    h = h.T
    gv = _colsum(np.moveaxis(v, 1, 0) * g[:, :, None]).T
    coef, rest = np.zeros_like(gv), 0.0
    if n > 3:
        lam = _secular_root(h, gv * gv)
        np.divide(-gv[1:], h[1:] - lam, out=coef[1:], where=(gv[1:] != 0.0) & (h[1:] > lam))
        rest = _colsum(coef[1:] * coef[1:])
        # a root a rounding short of the crossing overfills the sphere
        coef[1:] /= np.sqrt(np.maximum(1.0, rest))
    coef[0] = np.where(gv[0] > 0.0, -1.0, 1.0) * np.sqrt(np.maximum(0.0, 1.0 - rest))
    # u in the basis q, then in the coordinates
    uq = _colsum(np.moveaxis(v, 2, 0) * coef[:, :, None]).T
    u = _colsum(np.moveaxis(q, 1, 0) * uq[:, None])
    d = center + radius * u
    value[ok] = mus[0] - _ritz_gap(mus, x, d)
    direction[:, ok] = d
    return value, direction


# The stencil scales of one compass round, the largest step, and the step
# at which the concentration check's search over all its starts stops.
_SCALES = 0.5 ** np.arange(4)
_MAX_STEP = 0.25
_COARSE_FLOOR = 1e-4


def _compass(objective, y, value, moves, step, floor, project):
    """Multi-scale compass descent of every column of ``y`` in lockstep.

    ``y`` is ``(k, m)`` with objective values ``value`` ``(m,)``;
    ``moves`` ``(k, M)`` is the stencil at unit scale.  A round takes,
    for every live column, the stencil around its point at the four
    scales ``step``, ``step/2``, ``step/4`` and ``step/8``, mapped by
    ``project``, through one ``objective(ys)`` call, with ``ys``
    ``(k, live, 4M)`` returning ``(live, 4M)`` values, and moves each
    column to its best point if that wins.  A point wins only if it
    beats the column's value by more than ``1e-15`` relative: where the
    landscape is flat, strict ``<`` would keep accepting gains at the
    rounding level, each doubling the step.
    A win at a smaller scale sets ``step`` to that scale, a win at
    ``step`` itself doubles it (at most 0.25), and a round without a win
    divides it by 16.  Every column starts at ``step`` and stops once its
    step falls below ``floor``.  Returns the final points and values.
    """
    y, value = y.copy(), value.copy()
    scaled = np.concatenate([scale * moves for scale in _SCALES], axis=1)
    step = np.full(value.shape, float(step))
    live = np.arange(value.size)
    while live.size:
        ys = project(y[:, live, None] + step[live, None] * scaled[:, None, :])
        values = objective(ys)
        idx = np.argmin(values, axis=1)
        rows = np.arange(live.size)
        best = values[rows, idx]
        win = value[live] - best > 1e-15 * np.abs(value[live])
        won = live[win]
        y[:, won] = ys[:, rows[win], idx[win]]
        value[won] = best[win]
        scale = _SCALES[idx[win] // moves.shape[1]]
        step[won] = np.where(scale == 1.0, np.minimum(2.0 * step[won], _MAX_STEP),
                             step[won] * scale)
        step[live[~win]] /= 16.0
        live = live[step[live] >= floor]
    return y, value


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def three_d_concentration_check(spectrum, gamma, mu0, n_outer=200, *, seed):
    """Empirical check that the two-level worst case lives in 3 coordinates.

    Searches the level set ``mu(x) = mu0`` in dimension 3, 4 or 5 for
    the poorest cone minimum, which :func:`_worst_direction` gives for
    each iterate by an exact reduction in ``n`` dimensions that does not
    use the 3-D closed form.  The outer search is :func:`_compass` over
    coordinate moves of the parameters, whose entries for eigenvalues
    above and below ``mu0`` are each kept at unit norm (the iterate
    ignores both scales).  A coordinate moves only if it is free and not
    the only free coordinate of its block, which that norm pins at +-1;
    a search with no such coordinate evaluates its start and returns it.
    ``n_outer`` seeded starts descend in lockstep down to a step of
    1e-4, and the best start goes on down to 1e-10.  The optimizer is
    then hard-thresholded coordinate by coordinate (a zeroed coordinate
    is kept only if re-optimizing the others does not worsen the
    objective by more than 1e-6; the report then takes that trial's point
    and value), and the report compares the best value against the
    closed-form worst value of every admissible invariant triple, a zoom
    over the triple's level set whose every grid is one batched
    :func:`_ritz_gap` call.  The search runs on ``mus`` and ``mu0`` at
    unit scale (:func:`psdlab.pencil._unit_scale`), where its tolerances
    apply, and reports its values in the spectrum's units.  Report-only:
    the caller decides what to do with a discordant outcome.  ``mu0``
    must lie above ``mus[-2]``, where some triple brackets it and where
    the inner reduction holds.  ``n_outer`` must be an integer of at
    least 1, ``seed`` a nonnegative integer and ``gamma`` and ``mu0``
    real numbers (bools are none of these); anything else raises
    ``ValueError`` before the search starts.
    """
    if not _is_int(n_outer) or n_outer < 1:
        raise ValueError(f"n_outer must be an integer of at least 1, got {n_outer!r}")
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    for name, value in (("gamma", gamma), ("mu0", mu0)):
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise ValueError(f"{name} must be a real number, got {value!r}")
    mus = np.asarray(spectrum.mus, dtype=float)
    n = mus.size
    if n not in (3, 4, 5):
        raise ValueError("the concentration check is a desk-scale tool (n in {3, 4, 5})")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if np.any(mus == mu0) or not mus[-1] < mu0 < mus[0]:
        raise ValueError("mu0 must lie strictly inside an eigenvalue interval")
    if not mu0 > mus[-2]:
        raise ValueError("mu0 must lie above the second smallest mu: "
                         "the bottom interval has no invariant triple")
    mus, e = _unit_scale(mus)
    mu0 = math.ldexp(mu0, -e)

    rng = np.random.default_rng(seed)

    pos = np.nonzero(mus > mu0)[0]
    neg = np.nonzero(mus < mu0)[0]

    def x_of(params):
        """The level-set iterates of parameter columns ``(n, m)``, and which are valid."""
        p = params[pos]
        q = params[neg]
        wp = _colsum((mus[pos] - mu0)[:, None] * p * p)
        wq = _colsum((mu0 - mus[neg])[:, None] * q * q)
        valid = (wp > 0.0) & (wq > 0.0)
        x = np.empty_like(params)
        x[pos] = p
        with np.errstate(divide="ignore", invalid="ignore"):
            x[neg] = np.sqrt(wp / wq) * q
            x /= np.sqrt(_colsum(x * x))
        return x, valid

    def evaluate(params):
        x, valid = x_of(params.reshape(n, -1))
        values = np.full(valid.size, 1e3 * mus[0])
        values[valid] = _worst_direction(mus, x[:, valid], gamma)[0]
        return values.reshape(params.shape[1:])

    def unit_blocks(params):
        """``params`` with its ``pos`` and its ``neg`` entries each scaled to unit norm.

        ``x_of`` ignores both scales; left free, a search can spend
        endless rounds growing one entry to shrink the others' share.
        An all-zero block gives NaN, which ``x_of`` flags invalid.
        """
        out = np.empty_like(params)
        with np.errstate(divide="ignore", invalid="ignore"):
            for block in (pos, neg):
                out[block] = params[block] / np.sqrt(_colsum(params[block] * params[block]))
        return out

    def descend(params, free, step, floor):
        # A block's lone free coordinate sits at +-1, and unit_blocks maps
        # every step of it (at most 0.25) back there: it cannot move.
        movable = free.copy()
        for block in (pos, neg):
            if np.count_nonzero(free[block]) == 1:
                movable[block] = False
        params = unit_blocks(params)
        start = evaluate(params[:, :, None])[:, 0]
        if not movable.any():
            return params, start
        moves = np.eye(n)[:, movable]
        moves = np.concatenate([moves, -moves], axis=1)
        return _compass(evaluate, params, start, moves, step, floor, project=unit_blocks)

    every = np.ones(n, dtype=bool)
    params, values = descend(rng.standard_normal((n_outer, n)).T, every, _MAX_STEP, _COARSE_FLOOR)
    best = int(np.argmin(values))
    # Only the best start goes on to the fine floor.  It starts at the
    # coarse floor: near an optimum already, a step of 0.25 mostly rescales
    # a block and so shrinks its entries bound for 0 by only a fifth a round.
    best_params, (best_value,) = descend(params[:, best:best + 1], every, _COARSE_FLOOR, 1e-10)

    # Hard-threshold trial moves: a coordinate joins the persistent zero
    # mask only when re-optimizing without it (and everything already
    # zeroed) does not worsen the value beyond the search tolerance.  An
    # accepted trial's point and value replace the best ones together.
    free = every.copy()
    changed = True
    while changed:
        changed = False
        magnitudes = np.abs(x_of(best_params)[0][:, 0])
        for coord in np.argsort(magnitudes):
            if not free[coord]:
                continue
            trial = best_params.copy()
            trial[coord] = 0.0
            if not x_of(trial)[1][0]:
                continue
            free[coord] = False
            trial, (value,) = descend(trial, free, _COARSE_FLOOR, 1e-10)
            if value <= best_value + 1e-6:
                best_params, best_value = trial, value
                changed = True
                break
            free[coord] = True

    best_x = x_of(best_params)[0][:, 0]
    significant = tuple(int(i) for i in np.nonzero(np.abs(best_x) > _SIGNIFICANCE)[0])

    i = int(np.nonzero(mus > mu0)[0][-1])  # mu0 in (mus[i+1], mus[i])
    triple_values = {}
    for j in range(n - 2):
        for kk in range(j + 1, n - 1):
            for ll in range(kk + 1, n):
                if not mus[kk] < mu0 < mus[j]:
                    continue
                triple = (j, kk, ll)
                triple_values[triple] = math.ldexp(
                    _worst_value_3d((mus[j], mus[kk], mus[ll]), gamma, mu0), e)
    reference_triple = (i, i + 1, n - 1)
    reference_value = triple_values[reference_triple]
    return ConcentrationReport(
        mu0=math.ldexp(mu0, e),
        gamma=float(gamma),
        n_outer=int(n_outer),
        seed=int(seed),
        best_value=math.ldexp(best_value, e),
        best_x=best_x,
        significant=significant,
        reference_triple=reference_triple,
        reference_value=float(reference_value),
        triple_values=triple_values,
    )
