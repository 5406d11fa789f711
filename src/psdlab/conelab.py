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
disc sampler of the concentration check, ``_disc_worst``, samples cones
in dimension 3 to 5, so that it can serve as an assumption-free oracle.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .bounds import SolverKind, _factor, _kappa_lenient
from .errors import StationaryPointError
from .iterate import _delta, psd_step
from .pencil import DiagonalForm, _shifted_ritz_2x2
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
    total = a[0].copy()
    for row in a[1:]:
        total += row
    return total


def _components_first(a):
    """View of ``a`` with its last (component) axis moved to the front."""
    return a.transpose((a.ndim - 1,) + tuple(range(a.ndim - 1)))


def _cone_disc(mus, x, gamma):
    """``mu(x)``, ``r = Bx - mu(x) x``, ``||r||``, the disc center and radius, and ``empty``.

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
    return mu_x, r, r_norm, center, radius, empty


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
    orthogonal to both ``x`` and ``r``.
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
        mu_x, self.r, _, self.disc_center, self.disc_radius, empty = _cone_disc(
            mus, x, self.gamma)
        if empty:
            raise StationaryPointError("x is numerically an eigenvector; the search cone is empty")
        self.mu_x = float(mu_x)
        self.center = mus * x
        self.radius = self.gamma * np.linalg.norm(self.r)
        v = np.cross(x, self.r)
        self.v = v / np.linalg.norm(v)


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
    for the pencil ``(I, diag(mus))``; ``mus`` is an array whose first
    entry is its largest.  ``x`` is one iterate ``(n,)`` shared by every
    row, or one iterate per row: ``x`` and ``directions`` broadcast
    against each other over their leading (row) axes, and the result has
    their broadcast row shape.  ``d`` is orthogonalized against ``x`` by
    two Gram-Schmidt passes, and the projected 2x2 problem is solved
    relative to ``mus[0]``: with ``S = diag(mus[0] - mus)`` (nonnegative),
    ``p``, ``q`` and ``c`` the entries of ``S`` on the orthonormal pair,
    the gap is the smaller eigenvalue of ``[[p, c], [c, q]]`` from the
    step kernel's 2x2 routine.  Its relative error stays below about
    ``4 eps (mus[0] - mu(x)) / gap``, where ``p q - c^2`` cancels
    (measured on 3,000 random rows at ``n = 3`` against a 50-digit
    Rayleigh-Ritz), so a small gap is accurate relative to itself only
    when ``x`` itself is that near the top eigenvector;
    ``mus[0] - theta`` would lose ``eps / gap`` for every ``x``.  Rows
    (numerically) parallel to ``x`` yield ``p``: ``theta = mu(x)``; an
    ``x`` in the eigenspace of ``mus[0]`` yields 0.

    Value-only, and computed component-major: every product is
    elementwise and every sum runs over the components in index order,
    so a row's bits do not depend on the batch it comes in.  The tests
    check it against :func:`psdlab.pencil.rayleigh_ritz` and against
    LAPACK's generalized symmetric-definite solver.
    """
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    x = np.asarray(x, dtype=float)
    dt = _components_first(d)
    xt = _components_first(x)
    xt = xt.reshape(xt.shape[:1] + (1,) * (d.ndim - x.ndim) + xt.shape[1:])
    s = (mus[0] - mus).reshape((-1,) + (1,) * (max(d.ndim, x.ndim) - 1))
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
    ``mus[0] - gap``.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if not np.all((t_arr >= 0.0) & (t_arr <= 1.0)):  # NaN fails it too
        raise ValueError("segment parameter t must lie in [0, 1]")
    d1, d2 = extremal_directions(cone)
    d = np.outer(t_arr, d1) + np.outer(1.0 - t_arr, d2)
    values = cone.mus[0] - ritz_gap(cone.mus, cone.x, d)
    return float(values[0]) if scalar else values


def _disc_points(center, radius, basis, ys):
    """The disc points ``center + radius * basis @ y`` of every column, as ``(n, m, P)``.

    ``center`` is ``(n, m)``, ``radius`` ``(m,)`` and ``basis``
    ``(n, k, m)``, one disc per column; ``ys`` holds ``P`` unit-ball
    points per column as ``(k, m, P)``, or one pattern for all as
    ``(k, 1, P)``.
    """
    scaled = radius * basis
    d = scaled[:, 0, :, None] * ys[0]
    term = np.empty_like(d)
    for j in range(1, basis.shape[1]):
        d += np.multiply(scaled[:, j, :, None], ys[j], out=term)
    d += center[:, :, None]
    return d


def _larger_ritz(mus, x, d):
    """Larger Ritz values of ``span{x[:, i], d[:, i, p]}`` as ``(m, P)``, by one :func:`ritz_gap`."""
    return mus[0] - ritz_gap(mus, x.T[:, None, :], d.transpose(1, 2, 0))


def _disc_min(mus, x, center, radius, basis, ys):
    """Smallest larger Ritz value over the disc points of each column ``x[:, i]``.

    Shapes as in :func:`_disc_points`, with ``x`` ``(n, m)``; all points
    go through one :func:`ritz_gap` call.  Returns per column the value
    ``(m,)``, its direction ``(n, m)``, its ``y`` ``(k, m)`` and its
    index among the column's points ``(m,)``.
    """
    d = _disc_points(center, radius, basis, ys)
    values = _larger_ritz(mus, x, d)
    idx = np.argmin(values, axis=1)
    cols = np.arange(idx.size)
    ys = np.broadcast_to(ys, (ys.shape[0],) + values.shape)
    return values[cols, idx], d[:, cols, idx], ys[:, cols, idx], idx


def brute_force_cone_min(cone, n_samples):
    """Smallest larger Ritz value over a dense sampling of the cone.

    Samples the full boundary circle of the cross-section disc plus
    interior rings at 1/4, 1/2 and 3/4 of its radius in its ``(v, x/|x|)``
    basis (the oracle must not assume the extrema sit on the x-orthogonal
    segment, nor on the boundary), all in one :func:`_disc_min` call.
    Returns the minimum and the direction attaining it.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    angles = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
    circle = np.column_stack([np.cos(angles), np.sin(angles)])
    ys = np.concatenate([frac * circle for frac in (0.25, 0.5, 0.75, 1.0)])
    basis = np.column_stack([cone.v, cone.x / np.linalg.norm(cone.x)])
    value, direction, _, _ = _disc_min(cone.mus, cone.x[:, None], cone.disc_center[:, None],
                                       np.array([cone.disc_radius]), basis[:, :, None],
                                       ys.T[:, None, :])
    return float(value[0]), direction[:, 0]


# -- worst-case instances attaining the sharp factor -------------------------


def t_star(kappa, gamma):
    """Level-set parameter of poorest convergence in the vanishing-error limit."""
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie in (0, 1)")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    return math.sqrt(1.0 - kappa) * (1.0 - gamma) / math.sqrt(1.0 - gamma * gamma)


@dataclass(eq=False)
class WorstCaseSetup:
    """Three-dimensional sharpness instance.

    ``mus = (mu_j, mu_k, mu_l)`` strictly decreasing and positive;
    ``delta`` is the target interval-relative error
    ``(mu_j - mu) / (mu - mu_k)`` fixing the level ``mu``; ``t``
    parametrizes the position on the level-set ellipse.  The iterate is
    ``x = (1, alpha0, beta0)`` with ``alpha0 = a / sqrt(1 + t^2)`` and
    ``beta0 = b t / sqrt(1 + t^2)``, where ``a`` and ``b`` are the
    level-set semi-axes.
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
        mu_j, mu_k, mu_l = mus
        self.mu = (mu_j + self.delta * mu_k) / (1.0 + self.delta)
        self.a = math.sqrt(self.delta)
        # mu_j - mu in closed form: the difference of the rounded values
        # cancels once delta nears eps.
        self.b = math.sqrt(self.delta * (mu_j - mu_k) / (1.0 + self.delta)
                           / (self.mu - mu_l))
        root = math.sqrt(1.0 + self.t * self.t)
        self.alpha0 = self.a / root
        self.beta0 = self.b * self.t / root
        self.x = np.array([1.0, self.alpha0, self.beta0])
        # kappa in the lambda form, as bounds.certify_step takes it
        self.kappa = _kappa_lenient(*(1.0 / mus).tolist())
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
    r_norm = np.linalg.norm(r)
    w_norm = np.linalg.norm(w)
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
    p_norm = np.linalg.norm(p)
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
    (``cone.center`` is ``Bx``).  Diagonal coordinates; ``gamma = 0``
    gives ``T = I``.
    """
    gamma = cone.gamma
    n = cone.x.size
    if gamma == 0.0:
        e = np.zeros((n, n))
    else:
        e = _aligned_error_matrix(cone.r, cone.center - np.asarray(target, dtype=float), gamma)
    return Preconditioner(matrix=np.eye(n) - e, quality=PrecondQuality.ideal(gamma),
                          coords="diagonal")


def worst_case_instance(setup):
    """One solver :func:`psdlab.iterate.psd_step` on the poorest-convergence pair.

    :func:`worst_aligned_preconditioner` of the instance's cone makes
    the fixed step from ``setup.x`` land on :func:`worst_direction`; the
    deltas come from the step kernel's ``_delta``, accurate down to
    ``delta`` near 1e-18.  A numerically empty cone (``x`` within 1e-13 of
    an eigenvector, or a ``converged`` step) raises :class:`StationaryPointError`.
    """
    cone = setup.cone()
    d = worst_direction(cone)
    mus = setup.mus
    form = DiagonalForm(mus=mus, basis=np.eye(3), inverse_basis=np.eye(3))
    step = psd_step(form, worst_aligned_preconditioner(cone, d), setup.x)
    if step.converged:
        raise StationaryPointError("the worst-case step found a stationary point")
    lam = 1.0 / mus
    delta_before = _delta(lam, mus, setup.x, 0)
    delta_after = _delta(lam, mus, step.x, 0)
    return WorstCaseResult(
        x=setup.x, d=d, mu_before=cone.mu_x, mu_after=step.rho.mu,
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


def _worst_value_3d(mu_triple, gamma, mu0):
    """Closed-form worst larger Ritz value over a 3-D level set.

    Minimizes the worst-case instance's value over the level-set
    parameter ``t``: a 61-point grid of ``log10 t`` over ``[-3, 3]``,
    then 9-point grids zooming on the best point, each spanning two
    spacings of the one before, while their spacing is above 1e-8.
    """
    mu_j, mu_k, mu_l = mu_triple
    delta0 = (mu_j - mu0) / (mu0 - mu_k)

    def value_at(u):
        setup = WorstCaseSetup(mus=np.asarray(mu_triple), gamma=gamma,
                               delta=delta0, t=10.0 ** u)
        return worst_case_instance(setup).mu_after

    us = np.linspace(-3.0, 3.0, 61)
    spacing = us[1] - us[0]
    best, center = math.inf, 0.0
    while spacing > 1e-8:
        values = [value_at(u) for u in us]
        idx = int(np.argmin(values))
        if values[idx] < best:
            best, center = values[idx], us[idx]
        spacing /= 4.0
        # the next grid less its center, whose value is already known
        us = center + spacing * np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0])
    return float(best)


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


# The stencil scales of one compass round, the largest step, and the step
# at which the concentration check's search on the sampled cone minimum stops.
_SCALES = 0.5 ** np.arange(4)
_MAX_STEP = 0.25
_SAMPLED_FLOOR = 1e-4


def _compass(objective, y, value, moves, step, floor, project):
    """Multi-scale compass descent of every column of ``y`` in lockstep.

    ``y`` is ``(k, m)`` with objective values ``value`` ``(m,)``;
    ``moves`` ``(k, M)`` is the stencil at unit scale.  A round takes,
    for every live column, the stencil around its point at the four
    scales ``step``, ``step/2``, ``step/4`` and ``step/8``, mapped by
    ``project``, through one ``objective(cols, ys)`` call,
    with ``ys`` ``(k, len(cols), 4M)`` returning ``(len(cols), 4M)``
    values, and moves each column to its best point if that wins.  A
    point wins only if it beats the column's value by more than
    ``1e-15`` relative: where the landscape is flat, strict ``<`` would
    keep accepting gains at the rounding level, each doubling the step.
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
        values = objective(live, ys)
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


def _disc_worst(mus, x, gamma, samples, refine=True):
    """Inner level: smallest larger Ritz value over the cone of each column of ``x``.

    ``x`` is ``(n, m)``; returns the values ``(m,)`` and their
    directions ``(n, m)``, ``inf`` and NaN where the cone is empty.
    ``samples`` is a fixed pattern of points of the unit ball in
    dimension ``k = n - 1``, as rows (so the outer objective is
    deterministic); every column's samples go through one
    :func:`ritz_gap` call.  ``refine`` polishes each column's best sample
    by :func:`_compass` over the ``3^k - 1`` stencil, projected into the
    unit ball, down to a step of 1e-10; the columns are polished in
    lockstep, one :func:`ritz_gap` call per round.
    """
    n, m = x.shape
    value = np.full(m, math.inf)
    direction = np.full((n, m), math.nan)
    _, r, _, center, radius, empty = _cone_disc(mus, x, gamma)
    ok = np.flatnonzero(~empty)
    x, center, radius = x[:, ok], center[:, ok], radius[ok]
    basis = _perp_basis(r[:, ok])
    best, _, y, _ = _disc_min(mus, x, center, radius, basis, samples.T[:, None, :])
    if refine:
        k = n - 1
        stencil = np.indices((3,) * k).reshape(k, -1) - 1.0
        stencil = stencil[:, np.any(stencil, axis=0)]

        def disc_values(cols, ys):
            return _larger_ritz(mus, x[:, cols],
                                _disc_points(center[:, cols], radius[cols], basis[:, :, cols], ys))

        y, best = _compass(disc_values, y, best, stencil, _MAX_STEP, 1e-10,
                           project=lambda ys: ys / np.maximum(1.0, np.sqrt(_colsum(ys * ys))))
    value[ok] = best
    direction[:, ok] = _disc_points(center, radius, basis, y[:, :, None])[:, :, 0]
    return value, direction


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def three_d_concentration_check(spectrum, gamma, mu0, n_outer=200, *, seed):
    """Empirical check that the two-level worst case lives in 3 coordinates.

    Searches the level set ``mu(x) = mu0`` in dimension 3, 4 or 5 for
    the poorest cone minimum, which each iterate's disc sampling
    (:func:`_disc_worst`) evaluates without assumptions.  The outer search
    is :func:`_compass` over coordinate moves of the parameters, whose
    entries for eigenvalues above and below ``mu0`` are each kept at unit
    norm (the iterate ignores both scales): ``n_outer`` seeded starts
    descend in lockstep on the sampled cone minimum down to a step of
    1e-4, and the best start is polished on the refined minimum down to
    1e-10.  The optimizer is then
    hard-thresholded coordinate by coordinate (a zeroed coordinate is
    kept only if re-optimizing the others on the refined minimum does not
    worsen the objective), and the report compares the best value
    against the closed-form worst value of every admissible invariant
    triple.  Report-only: the caller decides what to do with a discordant
    outcome.  ``mu0`` must lie above ``mus[-2]``, where some triple
    brackets it.  ``n_outer`` must be an integer of at least 1, ``seed`` a
    nonnegative integer and ``gamma`` and ``mu0`` real numbers (bools are
    none of these); anything else raises ``ValueError`` before the search
    starts.
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

    rng = np.random.default_rng(seed)

    pos = np.nonzero(mus > mu0)[0]
    neg = np.nonzero(mus < mu0)[0]

    # Fixed disc sampling pattern reused for every x: boundary shell plus rings.
    k = n - 1
    dirs = rng.standard_normal((40, k))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    samples = np.concatenate([frac * dirs for frac in (1.0, 0.75, 0.5, 0.25)])

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

    def objective(refine):
        def evaluate(cols, params):
            x, valid = x_of(params.reshape(n, -1))
            values = np.full(valid.size, 1e3 * mus[0])
            values[valid] = _disc_worst(mus, x[:, valid], gamma, samples, refine=refine)[0]
            return values.reshape(params.shape[1:])
        return evaluate

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

    def descend(evaluate, params, free, step, floor):
        moves = np.eye(n)[:, free]
        moves = np.concatenate([moves, -moves], axis=1)
        params = unit_blocks(params)
        start = evaluate(None, params[:, :, None])[:, 0]
        return _compass(evaluate, params, start, moves, step, floor, project=unit_blocks)

    sampled, refined = objective(refine=False), objective(refine=True)
    every = np.ones(n, dtype=bool)
    params, values = descend(sampled, rng.standard_normal((n_outer, n)).T, every,
                             _MAX_STEP, _SAMPLED_FLOOR)
    best = int(np.argmin(values))
    # Polish with the refined inner solver (the sampled objective carries a
    # per-x discretization bias that would drown the comparisons below).
    # The refined searches start at the sampled search's floor: their starts
    # are near an optimum already, where a step of 0.25 mostly rescales a
    # block and so shrinks its entries bound for 0 by only a fifth a round.
    best_params, (best_value,) = descend(refined, params[:, best:best + 1], every,
                                         _SAMPLED_FLOOR, 1e-10)

    # Hard-threshold trial moves: a coordinate joins the persistent zero
    # mask only when re-optimizing without it (and everything already
    # zeroed) does not worsen the value beyond the search tolerance.
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
            trial, (value,) = descend(refined, trial, free, _SAMPLED_FLOOR, 1e-10)
            if value <= best_value + 1e-6:
                best_value = min(value, best_value)
                best_params = trial
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
                triple_values[triple] = _worst_value_3d(
                    (mus[j], mus[kk], mus[ll]), gamma, mu0
                )
    reference_triple = (i, i + 1, n - 1)
    reference_value = triple_values[reference_triple]
    return ConcentrationReport(
        mu0=float(mu0),
        gamma=float(gamma),
        n_outer=int(n_outer),
        seed=int(seed),
        best_value=float(best_value),
        best_x=best_x,
        significant=significant,
        reference_triple=reference_triple,
        reference_value=float(reference_value),
        triple_values=triple_values,
    )
