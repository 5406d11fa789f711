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

from .bounds import SolverKind, _factor
from .errors import StationaryPointError
from .iterate import _delta, psd_step
from .pencil import DiagonalForm, _shifted_ritz_2x2
from .precond import Preconditioner, PrecondQuality

__all__ = [
    "ConeSpec",
    "CrossSection",
    "WorstCaseSetup",
    "WorstCaseResult",
    "EllipseQuantities",
    "ConcentrationReport",
    "cross_section",
    "extremal_directions",
    "worst_direction",
    "ritz_gap",
    "ritz_on_segment",
    "brute_force_cone_min",
    "worst_aligned_preconditioner",
    "worst_case_instance",
    "ellipse_quantities",
    "axis_ratio_closed_form",
    "t_star",
    "householder_reduce",
    "three_d_concentration_check",
]


def _cone_disc(mus, x, gamma):
    """``mu(x)``, ``r = Bx - mu(x) x``, ``||r||`` and the cone's disc center and radius.

    Raises :class:`StationaryPointError` when ``||r|| < 1e-13 ||Bx||``,
    where ``x`` is numerically an eigenvector and the cone is empty.
    """
    bx = mus * x
    mu_x = float(x @ bx) / float(x @ x)
    r = bx - mu_x * x
    r_norm = np.linalg.norm(r)
    if r_norm < 1e-13 * np.linalg.norm(bx):
        raise StationaryPointError("x is numerically an eigenvector; the search cone is empty")
    center = mu_x * x + (1.0 - gamma * gamma) * r
    radius = gamma * math.sqrt(1.0 - gamma * gamma) * r_norm
    return mu_x, r, r_norm, center, radius


@dataclass
class ConeSpec:
    """Search cone data for one iterate of one quality level.

    ``x`` lives in the diagonalized 3-D coordinates with
    ``B = diag(mus)``, ``mus`` strictly decreasing and positive.  The
    residual ``r = Bx - mu(x) x`` is orthogonal to ``x``; the ball of
    admissible fixed-step iterates has center ``Bx`` and radius
    ``gamma ||r||``, and the enclosing cone has opening angle
    ``arcsin(gamma)``.
    """

    mus: np.ndarray
    x: np.ndarray
    gamma: float
    mu_x: float = field(init=False)
    r: np.ndarray = field(init=False)
    center: np.ndarray = field(init=False)
    radius: float = field(init=False)

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
        self.mu_x, self.r, r_norm, _, _ = _cone_disc(mus, x, self.gamma)
        self.center = mus * x
        self.radius = self.gamma * r_norm


@dataclass(frozen=True)
class CrossSection:
    """The disc in which every search line of the cone can be represented.

    ``center = mu(x) x + (1 - gamma^2) r``, radius
    ``f = gamma sqrt(1 - gamma^2) ||r||``, normal ``axis = r / ||r||``;
    ``v = (x cross r) / (||x|| ||r||)`` is the unit in-disc direction
    orthogonal to both ``x`` and ``r``.
    """

    center: np.ndarray
    radius: float
    axis: np.ndarray
    v: np.ndarray


def cross_section(cone):
    _, r, r_norm, center, radius = _cone_disc(cone.mus, cone.x, cone.gamma)
    axis = r / r_norm
    v = np.cross(cone.x, r)
    v_norm = np.linalg.norm(v)
    if v_norm < 1e-14 * np.linalg.norm(cone.x) * r_norm:
        raise ValueError("x and r do not span a plane (degenerate 2-D data)")
    return CrossSection(center=center, radius=radius, axis=axis, v=v / v_norm)


def extremal_directions(cone):
    """The two cone-boundary points bounding the x-orthogonal search segment.

    Both lie on the cone surface at distance
    ``sqrt(1 - gamma^2) ||r||`` from the vertex.
    """
    cs = cross_section(cone)
    d1 = cs.center + cs.radius * cs.v
    d2 = cs.center - cs.radius * cs.v
    return d1, d2


def worst_direction(cone):
    """The cone point whose line search improves the Rayleigh quotient least.

    The closed form covers componentwise nonnegative ``x`` (use
    :func:`householder_reduce` first otherwise) with ``mu(x)`` in
    ``(mus[1], mus[0])``: the extremal direction on the ``+ x cross r``
    side of the cross-section.  Other cones are rejected.
    """
    if np.any(cone.x < 0):
        raise ValueError(
            "worst_direction needs a componentwise nonnegative x; "
            "apply householder_reduce first"
        )
    if cone.mu_x <= cone.mus[1]:
        raise ValueError("worst_direction needs mu(x) in (mus[1], mus[0])")
    return extremal_directions(cone)[0]


def ritz_gap(mus, x, directions):
    """Distance ``mus[0] - theta`` for each row ``d`` of ``directions``.

    ``theta`` is the larger reciprocal-form Ritz value of ``span{x, d}``
    for the pencil ``(I, diag(mus))``; ``mus`` and ``x`` are arrays and
    ``mus[0]`` must be the largest entry of ``mus``.  ``d`` is orthogonalized against ``x`` by
    two Gram-Schmidt passes, and the projected 2x2 problem is solved
    relative to ``mus[0]``: with ``S = diag(mus[0] - mus)`` (nonnegative),
    ``p``, ``q`` and ``c`` the entries of ``S`` on the orthonormal pair,
    the gap is the smaller eigenvalue of ``[[p, c], [c, q]]`` from the
    step kernel's 2x2 routine, accurate as ``theta`` approaches
    ``mus[0]`` (``mus[0] - theta`` would lose ``eps / gap``).
    Rows (numerically) parallel to ``x`` yield ``p``: ``theta = mu(x)``.
    Vectorized over rows and value-only; the tests check it against
    :func:`psdlab.pencil.rayleigh_ritz` and against LAPACK's generalized
    symmetric-definite solver.
    """
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    s = mus[0] - mus
    xh = x / math.sqrt(x.dot(x))
    sxh = s * xh
    p = float(xh.dot(sxh))
    if p == 0.0:  # x lies in the eigenspace of mus[0], so theta = mus[0]
        return np.zeros(d.shape[0])
    w = d - (d @ xh)[:, None] * xh
    w -= (w @ xh)[:, None] * xh
    ww = w * w
    w_sq = ww.sum(axis=1)
    degenerate = w_sq <= 1e-30 * (d * d).sum(axis=1)
    w_sq = np.where(degenerate, 1.0, w_sq)
    # The entries of S on the unit vector w / |w|.
    q = (ww @ s) / w_sq
    c = (w @ sxh) / np.sqrt(w_sq)
    return np.where(degenerate, p, _shifted_ritz_2x2(p, q, c)[0])


def ritz_on_segment(cone, t):
    """Larger reciprocal-form Ritz value along the extremal segment.

    ``d(t) = t d1 + (1 - t) d2`` for ``t`` in ``[0, 1]`` (scalar or
    array): :func:`ritz_gap` evaluated on the segment's points, as
    ``mus[0] - gap``.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if np.any((t_arr < 0.0) | (t_arr > 1.0)):
        raise ValueError("segment parameter t must lie in [0, 1]")
    d1, d2 = extremal_directions(cone)
    d = np.outer(t_arr, d1) + np.outer(1.0 - t_arr, d2)
    values = cone.mus[0] - ritz_gap(cone.mus, cone.x, d)
    return float(values[0]) if scalar else values


def _disc_min(mus, x, center, radius, basis, ys):
    """Smallest larger Ritz value over the disc points ``center + radius * basis @ y``.

    ``ys`` holds unit-ball points ``y`` as rows; all go through one
    :func:`ritz_gap` call.  Returns the value, its direction, its ``y``
    and its row index in ``ys``.
    """
    d = center + radius * (ys @ basis.T)
    values = mus[0] - ritz_gap(mus, x, d)
    idx = int(np.argmin(values))
    return float(values[idx]), d[idx].copy(), ys[idx], idx


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
    cs = cross_section(cone)
    angles = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
    circle = np.column_stack([np.cos(angles), np.sin(angles)])
    ys = np.concatenate([frac * circle for frac in (0.25, 0.5, 0.75, 1.0)])
    basis = np.column_stack([cs.v, cone.x / np.linalg.norm(cone.x)])
    value, direction, _, _ = _disc_min(cone.mus, cone.x, cs.center, cs.radius, basis, ys)
    return value, direction


# -- worst-case instances attaining the sharp factor -------------------------


def t_star(kappa, gamma):
    """Level-set parameter of poorest convergence in the vanishing-error limit."""
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie in (0, 1)")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    return math.sqrt(1.0 - kappa) * (1.0 - gamma) / math.sqrt(1.0 - gamma * gamma)


@dataclass
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
        self.kappa = (mu_k - mu_l) / (mu_j - mu_l)
        self.sigma = _factor(SolverKind.PSD, None, self.kappa, self.gamma)

    @property
    def Gamma(self):
        if self.gamma == 0.0:
            raise ValueError("Gamma is infinite at gamma = 0")
        return math.sqrt(1.0 - self.gamma * self.gamma) / self.gamma

    def cone(self):
        return ConeSpec(mus=self.mus, x=self.x, gamma=self.gamma)


@dataclass(frozen=True)
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
    quality = PrecondQuality(gamma=gamma, gamma1=1.0 - gamma, gamma2=1.0 + gamma)
    return Preconditioner(matrix=np.eye(n) - e, quality=quality, coords="diagonal")


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
        predicted_ratio=setup.sigma * setup.sigma,
    )


@dataclass(frozen=True)
class EllipseQuantities:
    """Intercepts of the tangent line and the tangent-ellipse axis ratio."""

    c_k: float
    c_l: float
    axis_ratio: float
    c_l_infinite: bool = False


def _intercepts(setup, big_gamma):
    mu_j, mu_k, mu_l = setup.mus
    delta, alpha0, beta0 = setup.delta, setup.alpha0, setup.beta0
    x_norm = math.sqrt(1.0 + alpha0 * alpha0 + beta0 * beta0)
    # mu_j - mu and mu - mu_k in closed form, as in WorstCaseSetup.b.
    num = (x_norm * delta * (mu_j - mu_k) / (1.0 + delta)
           + big_gamma * alpha0 * beta0 * (mu_k - mu_l))
    den_k = (x_norm * alpha0 * (mu_j - mu_k) / (1.0 + delta)
             + big_gamma * beta0 * (mu_j - mu_l))
    den_l = x_norm * beta0 * (setup.mu - mu_l) + big_gamma * alpha0 * (mu_k - mu_j)
    return num, den_k, den_l


def ellipse_quantities(setup):
    """Closed-form tangent-line intercepts and tangent-ellipse axis ratio.

    The line through ``S1 = (1, c_k, 0)`` and ``S2 = (1, 0, c_l)`` is
    the trace of the worst search plane; the concentric ellipse with the
    level-set aspect ratio tangent to it has squared-semi-axis ratio
    ``axis_ratio = c_k^2 c_l^2 / (b^2 c_k^2 + a^2 c_l^2)`` against the
    level set, which bounds the measured contraction ratio.  When the
    ``c_l`` denominator vanishes the line is parallel to the third axis
    and the limit ``axis_ratio = c_k^2 / a^2`` is used (flagged).
    """
    num, den_k, den_l = _intercepts(setup, setup.Gamma)
    c_k = num / den_k
    a_sq = setup.a * setup.a
    b_sq = setup.b * setup.b
    if abs(den_l) < 1e-12 * abs(num):
        return EllipseQuantities(
            c_k=c_k,
            c_l=math.inf,
            axis_ratio=c_k * c_k / a_sq,
            c_l_infinite=True,
        )
    c_l = num / den_l
    axis_ratio = (c_k * c_k * c_l * c_l) / (b_sq * c_k * c_k + a_sq * c_l * c_l)
    return EllipseQuantities(c_k=c_k, c_l=c_l, axis_ratio=axis_ratio)


def axis_ratio_closed_form(delta, t, kappa, gamma):
    """Tangent-ellipse axis ratio as an explicit function of the invariants.

    Equivalent to :func:`ellipse_quantities` but parametrized by the
    four invariants ``(delta, t, kappa, gamma)`` alone; its reciprocal
    is strictly increasing in ``delta``, so the ``delta -> 0`` value
    bounds the contraction ratio at every level, with the global
    optimum over the level set at ``t = t_star(kappa, gamma)``.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1) for the closed form")
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie in (0, 1)")
    if delta < 0.0 or t <= 0.0:
        raise ValueError("delta must be nonnegative and t positive")
    big_gamma = math.sqrt(1.0 - gamma * gamma) / gamma
    one_m_k = 1.0 - kappa
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
    return den / num


def householder_reduce(x):
    """Flip coordinate signs to make ``x`` componentwise nonnegative.

    Reflections through coordinate hyperplanes leave the Rayleigh
    quotient of a diagonal ``B`` invariant, and map the cone landscape
    of ``x`` onto that of the reduced vector; returns the reduced vector
    and the sign pattern that undoes the reduction.
    """
    x = np.asarray(x, dtype=float)
    signs = np.where(x < 0, -1.0, 1.0)
    return np.abs(x), signs


# -- empirical check of the 3-D concentration of the worst case --------------

# A coordinate of the unit optimizer counts as significant above this size.
_SIGNIFICANCE = 1e-6


@dataclass
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
    """Closed-form worst larger Ritz value over a 3-D level set."""
    import scipy.optimize  # loaded on first use: no command path needs it

    mu_j, mu_k, mu_l = mu_triple
    delta0 = (mu_j - mu0) / (mu0 - mu_k)

    def value_at(t):
        setup = WorstCaseSetup(mus=np.asarray(mu_triple), gamma=gamma,
                               delta=delta0, t=t)
        return worst_case_instance(setup).mu_after

    ts = np.logspace(-3.0, 3.0, 181)
    values = np.array([value_at(t) for t in ts])
    idx = int(np.argmin(values))
    lo = ts[max(idx - 1, 0)]
    hi = ts[min(idx + 1, ts.size - 1)]
    res = scipy.optimize.minimize_scalar(
        value_at, bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-12},
    )
    return float(min(res.fun, values[idx]))


def _perp_basis(r):
    """Orthonormal basis of the hyperplane orthogonal to ``r``.

    Columns 2..n of the Householder reflector mapping ``r`` onto the
    first coordinate axis; much cheaper than an SVD null space and
    deterministic in ``r``.
    """
    n = r.size
    h = r / np.linalg.norm(r)
    h[0] += math.copysign(1.0, h[0])
    reflector = np.eye(n) - 2.0 * np.outer(h, h) / (h @ h)
    return reflector[:, 1:]


def _disc_worst(mus, x, gamma, samples, refine=True):
    """Inner level: smallest larger Ritz value over the cone at ``x``.

    ``samples`` is a fixed pattern of points of the unit ball in
    dimension ``k = n - 1`` (so the outer objective is deterministic).
    ``refine`` polishes the best sample by multi-scale compass rounds:
    the ``3^k - 1`` stencil around the best ``y`` at the four scales
    ``step``, ``step/2``, ``step/4`` and ``step/8``, projected into the
    unit ball, is one :func:`_disc_min` call per round, and the round
    moves to its best point.  A win at a smaller scale sets ``step`` to
    that scale, a win at ``step`` itself doubles it (at most 0.25), and a
    round without a win divides it by 16, down to 1e-10.  A point wins
    only if it beats the best value by more than ``1e-15`` relative:
    where the disc landscape is flat, strict ``<`` would keep accepting
    gains at the rounding level, each doubling the step.
    """
    try:
        _, r, _, center, radius = _cone_disc(mus, x, gamma)
    except StationaryPointError:
        return math.inf, None
    basis = _perp_basis(r)  # (n, n-1)
    best_val, best_d, best_y, _ = _disc_min(mus, x, center, radius, basis, samples)
    if not refine:
        return best_val, best_d
    k = samples.shape[1]
    stencil = np.indices((3,) * k).reshape(k, -1).T - 1.0
    stencil = stencil[np.any(stencil, axis=1)]
    scales = 0.5 ** np.arange(4)
    moves = np.concatenate([scale * stencil for scale in scales])
    step = 0.25  # the spacing of the sample rings
    while step >= 1e-10:
        ys = best_y + step * moves
        ys /= np.maximum(1.0, np.linalg.norm(ys, axis=1))[:, None]
        value, d, y, idx = _disc_min(mus, x, center, radius, basis, ys)
        if best_val - value > 1e-15 * abs(best_val):
            best_val, best_d, best_y = value, d, y
            scale = scales[idx // len(stencil)]
            step = min(2.0 * step, 0.25) if scale == 1.0 else step * scale
        else:
            step /= 16.0
    return best_val, best_d


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def three_d_concentration_check(spectrum, gamma, mu0, n_outer=200, *, seed):
    """Empirical check that the two-level worst case lives in 3 coordinates.

    Runs ``n_outer`` seeded Nelder-Mead descents over the level set
    ``mu(x) = mu0`` in dimension 3, 4 or 5, with the cone minimum at each
    iterate evaluated by assumption-free disc sampling; the best descent
    is polished with the multi-scale compass rounds of :func:`_disc_worst`.
    The optimizer is then hard-thresholded coordinate by coordinate (a
    zeroed coordinate is kept only if it does not worsen the objective),
    and the report compares the best value against the closed-form worst
    value of every admissible invariant triple.  Report-only: the caller
    decides what to do with a discordant outcome.  scipy's optimizers are
    imported here, on first use, so that no command path loads scipy.
    ``n_outer`` must be an integer of at least 1, ``seed`` a nonnegative
    integer and ``gamma`` and ``mu0`` real numbers (bools are none of
    these); anything else raises ``ValueError`` before the search starts.
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
    import scipy.optimize

    rng = np.random.default_rng(seed)

    pos = np.nonzero(mus > mu0)[0]
    neg = np.nonzero(mus < mu0)[0]

    # Fixed disc sampling pattern reused for every x: boundary shell plus rings.
    k = n - 1
    dirs = rng.standard_normal((40, k))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    samples = np.concatenate([frac * dirs for frac in (1.0, 0.75, 0.5, 0.25)])

    def x_of(params):
        p = params[pos]
        q = params[neg]
        wp = float(np.sum((mus[pos] - mu0) * p * p))
        wq = float(np.sum((mu0 - mus[neg]) * q * q))
        if wp <= 0.0 or wq <= 0.0:
            return None
        x = np.zeros(n)
        x[pos] = p
        x[neg] = math.sqrt(wp / wq) * q
        return x / np.linalg.norm(x)

    def objective(params, refine=False):
        x = x_of(params)
        if x is None:
            return 1e3 * mus[0]
        return _disc_worst(mus, x, gamma, samples, refine=refine)[0]

    best_params = None
    best_value = math.inf
    for _ in range(n_outer):
        start = rng.standard_normal(n)
        res = scipy.optimize.minimize(
            objective, start, method="Nelder-Mead",
            options={"maxfev": 300, "xatol": 1e-8, "fatol": 1e-12},
        )
        if res.fun < best_value:
            best_value = float(res.fun)
            best_params = res.x

    # Polish with the refined inner solver (the sampled objective carries a
    # per-x discretization bias that would drown the comparisons below).
    refined = lambda params: objective(params, refine=True)
    res = scipy.optimize.minimize(
        refined, best_params, method="Nelder-Mead",
        options={"maxfev": 300, "xatol": 1e-10, "fatol": 1e-14},
    )
    best_value = float(res.fun)
    best_params = res.x

    # Hard-threshold trial moves: a coordinate joins the persistent zero
    # mask only when re-optimizing without it (and everything already
    # zeroed) does not worsen the value beyond the search tolerance.
    zeroed = set()

    def masked(params):
        out = np.asarray(params, dtype=float).copy()
        out[list(zeroed)] = 0.0
        return out

    changed = True
    while changed:
        changed = False
        magnitudes = np.abs(x_of(masked(best_params)))
        for coord in np.argsort(magnitudes):
            coord = int(coord)
            if coord in zeroed:
                continue
            zeroed.add(coord)
            trial = masked(best_params)
            if x_of(trial) is None:
                zeroed.discard(coord)
                continue
            res = scipy.optimize.minimize(
                lambda prm: refined(masked(prm)), trial,
                method="Nelder-Mead",
                options={"maxfev": 300, "xatol": 1e-10, "fatol": 1e-14},
            )
            if res.fun <= best_value + 1e-6:
                best_value = float(min(res.fun, best_value))
                best_params = masked(res.x)
                changed = True
                break
            zeroed.discard(coord)

    best_x = x_of(masked(best_params))
    best_value = min(best_value, refined(best_params))
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


