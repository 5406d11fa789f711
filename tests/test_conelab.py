"""Cone geometry: extremal directions, worst case, algebraic identities."""

import functools
import math
import tracemalloc
import warnings
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from psdlab import (
    ConeSpec,
    DegenerateSubspaceError,
    Spectrum,
    StationaryPointError,
    SymmetricPencil,
    WorstCaseSetup,
    axis_ratio_closed_form,
    bounds,
    brute_force_cone_min,
    diagonalize,
    extremal_directions,
    generate_problem,
    rayleigh_ritz,
    ritz_gap,
    ritz_on_segment,
    run,
    t_star,
    three_d_concentration_check,
    worst_aligned_preconditioner,
    worst_case_instance,
    worst_direction,
)
from psdlab.bounds import HOLDS
import psdlab.conelab as conelab
from psdlab.conelab import _cone_disc, _perp_basis, _worst_direction
from psdlab.pencil import _unit_scale as unit_scale

MUS = np.array([1.0, 0.5, 0.25])


def random_cone(rng, gamma=None, nonnegative=True):
    mus = np.sort(rng.uniform(0.05, 3.0, size=3))[::-1]
    while np.min(-np.diff(mus)) < 1e-3:
        mus = np.sort(rng.uniform(0.05, 3.0, size=3))[::-1]
    x = rng.uniform(0.1, 1.0, size=3) if nonnegative else rng.standard_normal(3)
    g = rng.uniform(0.05, 0.95) if gamma is None else gamma
    return ConeSpec(mus=mus, x=x, gamma=g)


def ball_pattern(rng, k):
    """Sample pattern of :func:`sampled_disc_worst`: 40 directions on 4 rings."""
    dirs = rng.standard_normal((40, k))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return np.concatenate([frac * dirs for frac in (1.0, 0.75, 0.5, 0.25)])


def disc_values(mus, x, gamma, ys):
    """Larger Ritz values at disc points of one iterate ``x``, and the points.

    ``ys`` ``(k, P)`` holds points of the unit ``k``-ball, ``k = n - 1``,
    in the Householder basis of ``r^⊥``; the disc point of ``y`` is
    ``center + radius * basis @ y``.  One :func:`_ritz_gap` call.
    """
    _, r, center, radius, _ = _cone_disc(mus, x[:, None], gamma)
    d = center + radius * (_perp_basis(r)[:, :, 0] @ ys)
    return mus[0] - conelab._ritz_gap(mus, x[:, None], d), d


def disc_min_one(mus, x, gamma, ys):
    """The smallest of :func:`disc_values` at the rows of ``ys``, and its ``y``."""
    values, _ = disc_values(mus, x, gamma, ys.T)
    best = int(np.argmin(values))
    return float(values[best]), ys[best]


def dense_disc_min(mus, x, gamma):
    """Oracle of :func:`_worst_direction`: dense sampling of the unit ``k``-ball.

    50,000 seeded uniform points of the ball and as many of its sphere,
    then full grids of ``g^k`` points zooming on the best point until
    the grid is 1e-7 wide.  It assumes nothing of where the minimum lies.
    """
    n_points, k = 50_000, len(x) - 1
    rng = np.random.default_rng(0)
    ys = rng.standard_normal((n_points, k))
    ys /= np.linalg.norm(ys, axis=1)[:, None]
    ys = np.concatenate([ys, ys * (rng.uniform(size=n_points) ** (1.0 / k))[:, None]])
    best, y = disc_min_one(mus, x, gamma, ys)
    g = {2: 201, 3: 31, 4: 13}[k]
    axis = np.linspace(-1.0, 1.0, g)
    grid = np.stack(np.meshgrid(*([axis] * k)), axis=-1).reshape(-1, k)
    w = 0.25
    while w > 1e-7:
        ys = y + w * grid
        ys /= np.maximum(1.0, np.linalg.norm(ys, axis=1))[:, None]
        value, y = disc_min_one(mus, x, gamma, ys)
        best = min(best, value)
        w *= 4.0 / (g - 1)  # the next grid spans two spacings of this one
    return best


def sampled_disc_worst(mus, x, gamma, samples):
    """Oracle of :func:`_worst_direction`: a sampled and polished search of the disc.

    Scores the disc points of ``samples`` (rows of the unit ``k``-ball)
    and polishes the best by :func:`conelab._compass` over the ``3^k - 1``
    stencil, projected into the ball, down to a step of 1e-10.  Returns
    the polished and the sampled minimum.
    """
    values, _ = disc_values(mus, x, gamma, samples.T)
    best = int(np.argmin(values))
    k = len(x) - 1
    stencil = np.indices((3,) * k).reshape(k, -1) - 1.0
    stencil = stencil[:, np.any(stencil, axis=0)]
    _, (refined,) = conelab._compass(
        lambda ys: disc_values(mus, x, gamma, ys[:, 0])[0][None],
        samples[best][:, None], values[best:best + 1], stencil, 0.25, 1e-10,
        project=lambda ys: ys / np.maximum(1.0, np.linalg.norm(ys, axis=0)))
    return float(refined), float(values[best])


def worst_one(mus, x, gamma):
    """:func:`_worst_direction` on a batch of one ``x``: its value and disc point."""
    value, d = _worst_direction(mus, np.asarray(x, dtype=float)[:, None], gamma)
    return float(value[0]), d[:, 0]


def count_ritz_gap_calls(monkeypatch):
    """Record the rows of each of conelab's :func:`ritz_gap` calls into the returned list.

    The module's own searches call the unscaled ``_ritz_gap`` (their mus
    are at unit scale already), so that is the one counted.
    """
    calls = []
    real = conelab._ritz_gap

    def counted(*args):
        gaps = real(*args)
        calls.append(gaps.size)
        return gaps

    monkeypatch.setattr(conelab, "_ritz_gap", counted)
    return calls


def spy_ritz_gap_directions(monkeypatch):
    """Record the directions ``dt`` of conelab's ``_ritz_gap`` calls in the returned list."""
    points = []
    real = conelab._ritz_gap

    def spied(mus, xt, dt):
        points.append(np.array(dt))
        return real(mus, xt, dt)

    monkeypatch.setattr(conelab, "_ritz_gap", spied)
    return points


def in_ball(cone, d):
    """Whether direction(s) ``d`` lie in the ball of admissible fixed steps."""
    dist = np.linalg.norm(np.atleast_2d(cone.center - d), axis=1)
    return bool(np.all(dist <= cone.gamma * np.linalg.norm(cone.r) + 1e-12))


def shifted_worst_case_step(setup):
    """Oracle of :func:`worst_case_instance`: the worst PSD step from shifted quantities.

    Carries each residual component as ``(mu_i - mu(x)) x_i`` from
    distances to ``mu_j``, searches along the unit direction
    ``sqrt(1 - gamma^2) r-hat + gamma v-hat`` and takes the gap after the
    step from :func:`ritz_gap`; it shares neither the solver's step nor
    the worst-aligned preconditioner.  Returns the contraction ratio of
    the ``mu``-form deltas and ``mu`` after the step.
    """
    mu_j, mu_k, mu_l = setup.mus
    alpha0, beta0 = setup.alpha0, setup.beta0
    x = setup.x
    x_sq = 1.0 + alpha0 * alpha0 + beta0 * beta0
    p = ((mu_j - mu_k) * alpha0 * alpha0 + (mu_j - mu_l) * beta0 * beta0) / x_sq
    r = np.array([p, (p - (mu_j - mu_k)) * alpha0, (p - (mu_j - mu_l)) * beta0])
    r_norm = np.linalg.norm(r)
    g = setup.gamma
    dbar = (math.sqrt(1.0 - g * g) * r / r_norm
            + g * np.cross(x, r) / (math.sqrt(x_sq) * r_norm))
    gap_after = float(ritz_gap(setup.mus, x, dbar)[0])
    delta_before = p / ((mu_j - mu_k) - p)
    delta_after = gap_after / ((mu_j - mu_k) - gap_after)
    return delta_after / delta_before, mu_j - gap_after


def random_bracketed_cone(rng, gamma=None):
    """Cone whose level sits inside the top bracket (mu_k, mu_j).

    The extremal-segment and worst-direction statements are about this
    regime; below mu_k the line search can land exactly on the middle
    eigenvector and the interior of the segment touches mu_k.
    """
    mus = np.sort(rng.uniform(0.05, 3.0, size=3))[::-1]
    while np.min(-np.diff(mus)) < 1e-3:
        mus = np.sort(rng.uniform(0.05, 3.0, size=3))[::-1]
    g = rng.uniform(0.05, 0.95) if gamma is None else gamma
    setup = WorstCaseSetup(
        mus=mus, gamma=g,
        delta=10 ** rng.uniform(-4.0, 0.7), t=10 ** rng.uniform(-1.5, 1.5),
    )
    return setup.cone()


class TestConeSpec:
    def test_residual_orthogonal_and_radius(self):
        cone = ConeSpec(mus=MUS, x=np.array([1.0, 1.0, 1.0]), gamma=0.5)
        assert abs(cone.r @ cone.x) <= 1e-12 * np.linalg.norm(cone.r)
        assert cone.radius == 0.5 * np.linalg.norm(cone.r)
        np.testing.assert_array_equal(cone.center, MUS * cone.x)

    def test_eigenvector_rejected(self):
        with pytest.raises(StationaryPointError):
            ConeSpec(mus=MUS, x=np.array([0.0, 1.0, 0.0]), gamma=0.5)

    def test_disc_is_the_one_cone_disc(self):
        # the cone keeps the disc of its one _cone_disc call, bit for bit
        rng = np.random.default_rng(4)
        for _ in range(20):
            cone = random_cone(rng, nonnegative=False)
            _, r, center, radius, _ = _cone_disc(cone.mus, cone.x, cone.gamma)
            np.testing.assert_array_equal(cone.r, r)
            np.testing.assert_array_equal(cone.disc_center, center)
            assert cone.disc_radius == radius
            v = np.cross(cone.x, r)
            np.testing.assert_array_equal(cone.v, v / np.linalg.norm(v))
        for name in ("disc_center", "disc_radius", "v"):
            with pytest.raises(TypeError):
                ConeSpec(mus=MUS, x=np.ones(3), gamma=0.5, **{name: 0.0})

    def test_opening_angle_is_arcsin_gamma(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            cone = random_cone(rng)
            d1, d2 = extremal_directions(cone)
            for d in (d1, d2):
                u = d - cone.mu_x * cone.x
                cos_angle = (u @ cone.r) / (np.linalg.norm(u) * np.linalg.norm(cone.r))
                angle = math.acos(np.clip(cos_angle, -1.0, 1.0))
                assert angle == pytest.approx(math.asin(cone.gamma), abs=1e-10)

    @given(x=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
           mus=st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3, unique=True),
           gamma=st.floats(0.0, 0.99))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_v_and_radius_are_the_numpy_forms(self, x, mus, gamma):
        # the explicit cross product and the dot-product norms keep the bits
        # of np.cross and np.linalg.norm (at unit scale, where r is unscaled)
        if not np.max(np.abs(x)) >= 1e-3:
            reject()  # x.x underflows: outside the cone geometry's range
        try:
            cone = ConeSpec(mus=unit_scale(np.array(sorted(mus, reverse=True)))[0], x=x,
                            gamma=gamma)
        except (StationaryPointError, ValueError):
            reject()  # an eigenvector, or x = 0
        v = np.cross(cone.x, cone.r)
        np.testing.assert_array_equal(cone.v, v / np.linalg.norm(v))
        assert cone.radius == gamma * np.linalg.norm(cone.r)
        np.testing.assert_array_equal(conelab._cross(cone.x, cone.r), v)


class TestScaleSafeGeometry:
    # ConeSpec, brute_force_cone_min, ritz_on_segment, ritz_gap and
    # worst_aligned_preconditioner take their mus, x and directions at unit
    # scale; at c = 1e±200 their squares leave the double range
    X = np.array([1.0, 0.7, 0.4])
    ROWS = np.array([[0.3, 1.0, 0.2], [1.0, -0.5, 0.25]])
    T = np.array([0.0, 0.3, 1.0])

    @classmethod
    def _outputs(cls, c):
        """Every scaled output of the public cone geometry on mus ``c * (1, 0.5, 0.25)``."""
        mus = c * np.array([1.0, 0.5, 0.25])
        cone = ConeSpec(mus=mus, x=cls.X, gamma=0.5)
        value, direction = brute_force_cone_min(cone, 200)
        return {
            "mu_x": cone.mu_x, "r": cone.r, "center": cone.center, "radius": cone.radius,
            "disc_center": cone.disc_center, "disc_radius": cone.disc_radius,
            "cone_min": value, "cone_min_direction": direction,
            "segment": ritz_on_segment(cone, cls.T), "gaps": ritz_gap(mus, cls.X, cls.ROWS),
        }, cone.v

    @pytest.mark.parametrize("c", [1e200, 1e-200])
    def test_extreme_scales_give_the_plain_values(self, c):
        base, base_v = self._outputs(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled, scaled_v = self._outputs(c)
        for name, value in scaled.items():
            np.testing.assert_allclose(np.asarray(value) / c, base[name], rtol=1e-12,
                                       atol=0.0, err_msg=name)
        np.testing.assert_allclose(scaled_v, base_v, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("power", [600, -600])
    def test_a_power_of_two_keeps_every_bit(self, power):
        base, base_v = self._outputs(1.0)
        scaled, scaled_v = self._outputs(2.0 ** power)
        for name, value in scaled.items():
            np.testing.assert_array_equal(value, np.ldexp(base[name], power), err_msg=name)
        np.testing.assert_array_equal(scaled_v, base_v)

    def test_tiny_gap_is_not_flushed_to_zero(self):
        # the products of 1e-200 entries underflowed, and the gap read 0.0
        gap = ritz_gap(1e-200 * np.array([1.0, 0.5, 0.25]), self.X, self.ROWS[:1])[0]
        assert gap == pytest.approx(1e-200 * ritz_gap(MUS, self.X, self.ROWS[:1])[0], rel=1e-12)
        assert gap == pytest.approx(7.2e-202, rel=0.01)

    @classmethod
    def _x_outputs(cls, c):
        """Every cone geometry output on ``c * x`` or ``c * d``, with its degree in ``c``."""
        cone = ConeSpec(mus=MUS, x=c * cls.X, gamma=0.5)
        value, direction = brute_force_cone_min(cone, 200)
        worst = worst_direction(cone)
        return {
            "mu_x": (cone.mu_x, 0), "r": (cone.r, 1), "center": (cone.center, 1),
            "radius": (cone.radius, 1), "disc_center": (cone.disc_center, 1),
            "disc_radius": (cone.disc_radius, 1), "v": (cone.v, 0),
            "cone_min": (value, 0), "cone_min_direction": (direction, 1),
            "segment": (ritz_on_segment(cone, cls.T), 0), "worst": (worst, 1),
            "aligned": (worst_aligned_preconditioner(cone, worst).matrix, 0),
            "gaps_x": (ritz_gap(MUS, c * cls.X, cls.ROWS), 0),
            "gaps_x_rows": (ritz_gap(MUS, c * np.stack([cls.X, -cls.X]), cls.ROWS), 0),
            "gaps_d": (ritz_gap(MUS, cls.X, c * cls.ROWS), 0),
            "gaps_d_row": (ritz_gap(MUS, cls.X, np.stack([cls.ROWS[0], c * cls.ROWS[1]])), 0),
        }

    @pytest.mark.parametrize("c", [1e200, 1e-200])
    def test_extreme_x_and_direction_scales_give_the_plain_values(self, c):
        base = self._x_outputs(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = self._x_outputs(c)
        for name, (value, degree) in scaled.items():
            np.testing.assert_allclose(np.asarray(value) / c ** degree, base[name][0],
                                       rtol=1e-12, atol=1e-15, err_msg=name)

    @pytest.mark.parametrize("power", [600, -600])
    def test_a_power_of_two_on_x_and_directions_keeps_every_bit(self, power):
        base = self._x_outputs(1.0)
        for name, (value, degree) in self._x_outputs(2.0 ** power).items():
            np.testing.assert_array_equal(value, np.ldexp(base[name][0], power * degree),
                                          err_msg=name)

    @staticmethod
    def _aligned(c):
        """The worst-aligned ``T`` of the cone on mus ``c * (1, 0.5, 0.25)``."""
        cone = ConeSpec(mus=c * MUS, x=TestScaleSafeGeometry.X, gamma=0.5)
        return worst_aligned_preconditioner(cone, worst_direction(cone)).matrix

    @pytest.mark.parametrize("power", [600, -600])
    def test_aligned_preconditioner_keeps_every_bit_under_a_power_of_two(self, power):
        # T is of degree 0 in mus: at 2**-600 it read I (E = 0 from an
        # underflowed norm), and at 2**600 a norm overflowed
        np.testing.assert_array_equal(self._aligned(2.0 ** power), self._aligned(1.0))

    @pytest.mark.parametrize("c", [1e200, 1e-200])
    def test_aligned_preconditioner_at_extreme_scales(self, c):
        base = self._aligned(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = self._aligned(c)
        assert np.max(np.abs(scaled - base)) <= 1e-15 * np.max(np.abs(base))
        assert np.max(np.abs(base - np.eye(3))) > 0.4  # E is not lost


class TestExtremalDirections:
    def test_gamma_zero_collapses_to_center_ray(self):
        cone = ConeSpec(mus=MUS, x=np.array([1.0, 1.0, 1.0]), gamma=0.0)
        d1, d2 = extremal_directions(cone)
        np.testing.assert_allclose(d1, cone.center, atol=1e-15)
        np.testing.assert_allclose(d2, cone.center, atol=1e-15)

    def test_norms_at_gamma_inv_sqrt2(self):
        g = 1.0 / math.sqrt(2.0)
        cone = ConeSpec(mus=MUS, x=np.array([1.0, 1.0, 1.0]), gamma=g)
        r_norm = np.linalg.norm(cone.r)
        assert cone.disc_radius == pytest.approx(r_norm / 2.0, rel=1e-14)
        for d in extremal_directions(cone):
            assert np.linalg.norm(d - cone.mu_x * cone.x) == pytest.approx(
                r_norm / math.sqrt(2.0), rel=1e-13
            )

    def test_off_diagonal_identity(self):
        cone = ConeSpec(mus=MUS, x=np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0), gamma=0.5)
        r_norm = np.linalg.norm(cone.r)
        expected = math.sqrt(1.0 - 0.25) * r_norm
        for d in extremal_directions(cone):
            dbar = (d - cone.mu_x * cone.x) / np.linalg.norm(d - cone.mu_x * cone.x)
            assert dbar @ (MUS * cone.x) == pytest.approx(expected, rel=1e-12)

    def test_norm_identity_random(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            cone = random_cone(rng)
            r_sq = np.linalg.norm(cone.r) ** 2
            expected = (1.0 - cone.gamma**2) * r_sq
            for d in extremal_directions(cone):
                got = np.linalg.norm(d - cone.mu_x * cone.x) ** 2
                assert got == pytest.approx(expected, rel=1e-12)

    def test_cross_section_unit_vector(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            cone = random_cone(rng)
            assert np.linalg.norm(cone.v) == pytest.approx(1.0, abs=1e-12)
            assert abs(cone.v @ cone.x) <= 1e-12
            assert abs(cone.v @ cone.r) <= 1e-12 * np.linalg.norm(cone.r)
            assert cone.disc_radius == pytest.approx(
                cone.gamma * math.sqrt(1 - cone.gamma**2) * np.linalg.norm(cone.r),
                rel=1e-14,
            )


class TestWorstDirection:
    def test_gamma_zero_is_steepest_descent(self):
        cone = ConeSpec(mus=MUS, x=np.array([1.0, 1.0, 1.0]), gamma=0.0)
        np.testing.assert_allclose(worst_direction(cone), MUS * cone.x, atol=1e-15)

    def test_negative_component_rejected(self):
        cone = ConeSpec(mus=MUS, x=np.array([1.0, -1.0, 1.0]), gamma=0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            worst_direction(cone)

    def test_sign_identity(self):
        # (r, B(x cross r)) computed directly vs the product formula
        rng = np.random.default_rng(4)
        for _ in range(50):
            cone = random_cone(rng)
            mus, x, r = cone.mus, cone.x, cone.r
            lhs = r @ (mus * np.cross(x, r))
            rhs = -(x[0] * x[1] * x[2]
                    * (mus[0] - mus[1]) * (mus[0] - mus[2]) * (mus[1] - mus[2]))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)
            assert lhs <= 1e-14  # nonpositive for nonnegative x

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            cone = random_bracketed_cone(rng)
            d = worst_direction(cone)
            closed = float(cone.mus[0] - ritz_gap(cone.mus, cone.x, d[None, :])[0])
            brute, _ = brute_force_cone_min(cone, 10_000)
            assert brute == pytest.approx(closed, abs=1e-8)
            assert brute >= closed - 1e-12  # closed form is the true minimum

    def test_level_below_middle_rejected(self):
        # mu(x) = 0.306 < mus[1]: the extremal point gives 0.5476, yet the
        # cone reaches 0.5000, so the closed form would miss the minimum.
        cone = ConeSpec(mus=MUS, x=np.array([0.1, 0.5, 1.0]), gamma=0.8)
        d1, _ = extremal_directions(cone)
        extremal = float(cone.mus[0] - ritz_gap(cone.mus, cone.x, d1[None, :])[0])
        brute, _ = brute_force_cone_min(cone, 20_000)
        assert extremal == pytest.approx(0.5476, abs=1e-4)
        assert brute == pytest.approx(0.5, abs=1e-6)
        with pytest.raises(ValueError, match="mus\\[1\\]"):
            worst_direction(cone)


@st.composite
def ritz_gap_cases(draw):
    """mus, x and rows: general rows, rows parallel to x, x near e_1."""
    n = draw(st.integers(3, 6))
    mus = np.sort(np.array(draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n))))[::-1]
    unit = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        eps = 10.0 ** draw(st.floats(-12.0, -6.0))
        x = np.eye(n)[0] + eps * np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    else:
        x = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
        if not np.linalg.norm(x) > 1e-3:
            x[0] = 1.0
    rows, parallel = [], []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            rows.append(draw(st.floats(-3.0, 3.0)) * x)
            parallel.append(True)
        else:
            rows.append(np.array(draw(st.lists(unit, min_size=n, max_size=n))))
            parallel.append(False)
    return mus, x, np.array(rows), parallel


@st.composite
def layout_cases(draw):
    """Unit-scale mus and component-major ``(xt, dt)`` in one of ``_ritz_gap``'s three layouts.

    One x per column with ``P`` points each, ``(n, m, 1)`` with
    ``(n, m, P)``; one x per direction, ``(n, m)`` with ``(n, m)``; and
    one shared x, ``(n, 1)`` with ``(n, P)``.
    """
    n, m, p = draw(st.integers(3, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mus = unit_scale(np.sort(rng.uniform(0.05, 3.0, size=n))[::-1])[0]
    x_shape, d_shape = draw(st.sampled_from([((n, m, 1), (n, m, p)), ((n, m), (n, m)),
                                             ((n, 1), (n, p))]))
    xt = rng.standard_normal(x_shape)
    dt = rng.standard_normal(d_shape) * 10.0 ** rng.uniform(-6.0, 6.0, size=d_shape[1:])
    if draw(st.booleans()):
        dt[..., 0] = 2.5 * xt[..., 0]  # a direction parallel to its x
    return mus, xt, dt


class TestRitzGap:
    @given(case=layout_cases())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_public_rows_match_the_component_major_core(self, case):
        # public ritz_gap takes rows and moves the component axis to the
        # front once; the module's searches call _ritz_gap on the
        # component-major arrays they hold, and the bits are the same
        mus, xt, dt = case
        core = conelab._ritz_gap(mus, xt, dt)
        rows = ritz_gap(mus, np.moveaxis(xt, 0, -1), np.moveaxis(dt, 0, -1))
        assert rows.shape == core.shape
        assert np.array_equal(rows, core)

    @given(case=ritz_gap_cases())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_rayleigh_ritz(self, case):
        # span{x, d} on the dense pencil; a row parallel to x spans {x} alone
        mus, x, rows, parallel = case
        pencil = SymmetricPencil(np.eye(mus.size), np.diag(mus))
        values = mus[0] - ritz_gap(mus, x, rows)
        for row, is_parallel, value in zip(rows, parallel, values):
            basis = [x] if is_parallel else [x, row]
            try:
                expected = rayleigh_ritz(pencil, basis)[0].mu
            except DegenerateSubspaceError:
                reject()  # a drawn row numerically parallel to x
            assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 12])
    def test_batch_of_one_gives_the_same_bits(self, n):
        # one x per row, or one x for every row: each row alone, as a batch of
        # one, gives the bits it gets among many (12 components is past the
        # length from which numpy's own sums go pairwise)
        rng = np.random.default_rng(n)
        mus = np.sort(rng.uniform(0.05, 3.0, size=n))[::-1]
        xs = rng.standard_normal((200, n))
        ds = rng.standard_normal((200, n)) * 10.0 ** rng.uniform(-6.0, 6.0, size=(200, 1))
        many = ritz_gap(mus, xs, ds)
        shared = ritz_gap(mus, xs[0], ds)
        grouped = ritz_gap(mus, xs.reshape(20, 10, n)[:, :1], ds.reshape(20, 10, n))
        for i in range(200):
            assert ritz_gap(mus, xs[i], ds[i])[0] == many[i]
            assert ritz_gap(mus, xs[i:i + 1], ds[i:i + 1])[0] == many[i]
            assert ritz_gap(mus, xs[0], ds[i])[0] == shared[i]
        np.testing.assert_array_equal(grouped.ravel(),
                                      ritz_gap(mus, np.repeat(xs[::10], 10, axis=0), ds))

    def test_top_eigenvector_gives_zero_gap(self):
        mus = np.array([2.0, 2.0, 1.0])
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, 0.2, 0.1]])
        np.testing.assert_array_equal(ritz_gap(mus, np.array([0.6, 0.8, 0.0]), rows), 0.0)

    # measured_ratio of worst_case_instance at t = t_star for delta = 1e-2,
    # 1e-4, 1e-6, 1e-8 from a shifted evaluation.  An unshifted 2x2 form
    # loses about eps / delta relative accuracy and fails this.
    PINNED = {
        ((1.0, 0.5, 0.1), 0.0): (0.08151385586592454, 0.08163146310098089,
                                 0.0816326411614233, 0.0816326529422264),
        ((1.0, 0.5, 0.1), 0.2): (0.2104174932469734, 0.2110960966721357,
                                 0.21110292590027768, 0.21110299419691314),
        ((1.0, 0.5, 0.1), 0.5): (0.47135804978799994, 0.47264319022149714,
                                 0.4726561193943816, 0.47265624869394296),
        ((1.0, 0.5, 0.1), 0.8): (0.7800229455307396, 0.7809532378400312,
                                 0.7809625880794279, 0.7809626815865808),
        ((2.0, 1.0, 0.25), 0.0): (0.07427304630470942, 0.07437909235486347,
                                  0.07438015455973745, 0.07438016518196078),
        ((2.0, 1.0, 0.25), 0.2): (0.20027174693949934, 0.20094440998347673,
                                  0.20095118012398563, 0.2009512478297768),
        ((2.0, 1.0, 0.25), 0.5): (0.46106781290795307, 0.4623865980473543,
                                  0.46239986597240806, 0.462399998659723),
        ((2.0, 1.0, 0.25), 0.8): (0.7744670577626229, 0.775441213504437,
                                  0.7754510037986656, 0.7754511017065092),
    }

    @pytest.mark.parametrize("mus, gamma", list(PINNED))
    def test_worst_case_ratio_pinned(self, mus, gamma):
        pinned_ratios = self.PINNED[mus, gamma]
        mus = np.array(mus)
        t = t_star((mus[1] - mus[2]) / (mus[0] - mus[2]), gamma)
        for delta, pinned in zip((1e-2, 1e-4, 1e-6, 1e-8), pinned_ratios):
            setup = WorstCaseSetup(mus=mus, gamma=gamma, delta=delta, t=t)
            assert worst_case_instance(setup).measured_ratio == pytest.approx(pinned, rel=1e-10)


def mp_ritz_gap(mus, x, d):
    """``mus[0]`` less the larger Ritz value of ``span{x, d}`` at 60 digits, from the doubles given."""
    with mpmath.workdps(60):
        m, xs, ds = ([mpmath.mpf(float(v)) for v in a] for a in (mus, x, d))

        def dot(a, b, w=None):
            return mpmath.fsum(p * q * (1 if w is None else c) for p, q, c in zip(a, b, w or a))

        g11, g12, g22 = dot(xs, xs), dot(xs, ds), dot(ds, ds)
        b11, b12, b22 = dot(xs, xs, m), dot(xs, ds, m), dot(ds, ds, m)
        a, b, c = g11 * g22 - g12**2, b11 * g22 + b22 * g11 - 2 * b12 * g12, b11 * b22 - b12**2
        theta = (b + mpmath.sqrt(b * b - 4 * a * c)) / (2 * a)
        sin = mpmath.sqrt(1 - g12**2 / (g11 * g22))
        mu_gap = m[0] - b11 / g11
        return m[0] - theta, mu_gap, sin


class TestRitzGapErrorBound:
    # the docstring's bound 4 eps (mus[0] - mu(x)) / (gap sin(x, d)) at a
    # clustered top pair (mus[0] - mus[1] = 1e-9) and x 2e-5 off its top
    # eigenvector, on the worst disc point of gamma 0.444 (|d - mu(x) x| =
    # 1.9e-5 |x|; 1.7e-14 relative, 0.44 of the bound), and on a d about
    # 1e-15 off x
    MUS = (0.9581981372144006, 0.9581981362458329, 0.4830882057921968)
    X = (-1.2665262527538954, 0.1936908844450461, -5.71850001788075e-05)
    PARALLEL = ((1.0, 0.8478012226283063, 0.4435618010512426),
                (1.0, 0.671383751, -1.39834729e-08), (1.0, 0.671383751, -1.39834737e-08))

    def assert_within_bound(self, mus, x, d):
        gap = ritz_gap(np.array(mus), np.array(x), np.array(d)[None])[0]
        exact, mu_gap, sin = mp_ritz_gap(mus, x, d)
        error = abs(mpmath.mpf(float(gap)) - exact) / exact
        assert error <= 4 * np.finfo(float).eps * mu_gap / (exact * sin)

    def test_worst_disc_point_of_a_clustered_pair(self):
        _, d = worst_one(np.array(self.MUS), np.array(self.X), 0.444)
        self.assert_within_bound(self.MUS, self.X, d)

    def test_direction_nearly_parallel_to_x(self):
        self.assert_within_bound(*self.PARALLEL)


class TestRitzOnSegment:
    def test_endpoints_match_extremal_directions(self):
        rng = np.random.default_rng(6)
        cone = random_cone(rng)
        d1, d2 = extremal_directions(cone)
        t0 = ritz_on_segment(cone, 0.0)
        t1 = ritz_on_segment(cone, 1.0)
        assert t0 == pytest.approx(float(cone.mus[0] - ritz_gap(cone.mus, cone.x, d2[None])[0]), rel=1e-13)
        assert t1 == pytest.approx(float(cone.mus[0] - ritz_gap(cone.mus, cone.x, d1[None])[0]), rel=1e-13)

    def test_grid_minimum_at_endpoints(self):
        rng = np.random.default_rng(7)
        ts = np.linspace(0.0, 1.0, 1001)
        for _ in range(20):
            cone = random_bracketed_cone(rng)
            values = ritz_on_segment(cone, ts)
            assert int(np.argmin(values)) in (0, 1000)

    def test_worst_endpoint_ordering(self):
        # the +v endpoint (t=1) is never better than the other for x >= 0
        rng = np.random.default_rng(8)
        for _ in range(50):
            cone = random_cone(rng)
            assert ritz_on_segment(cone, 1.0) <= ritz_on_segment(cone, 0.0) + 1e-14

    def test_scalar_and_array_agree(self):
        rng = np.random.default_rng(9)
        cone = random_cone(rng)
        ts = np.array([0.0, 0.25, 0.5, 1.0])
        values = ritz_on_segment(cone, ts)
        for t, v in zip(ts, values):
            assert ritz_on_segment(cone, float(t)) == pytest.approx(v, rel=1e-13)

    def test_out_of_range_rejected(self):
        cone = ConeSpec(mus=MUS, x=np.ones(3), gamma=0.3)
        for t in (1.5, math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError, match="t must lie in"):
                ritz_on_segment(cone, t)

    def test_matches_lapack_generalized_solver(self):
        # differential: every point against LAPACK's generalized
        # symmetric-definite solver on the projected pencil of [x, d - mu(x) x]
        rng = np.random.default_rng(10)
        ts = np.linspace(0.0, 1.0, 101)
        cones = [random_bracketed_cone(rng) for _ in range(15)]
        cones += [random_cone(rng, nonnegative=False) for _ in range(15)]
        for cone in cones:
            values = ritz_on_segment(cone, ts)
            d1, d2 = extremal_directions(cone)
            x, bx = cone.x, cone.mus * cone.x
            for t, value in zip(ts, values):
                u = t * d1 + (1.0 - t) * d2 - cone.mu_x * x
                pa = np.array([[x @ x, x @ u], [x @ u, u @ u]])
                pb = np.array([[x @ bx, u @ bx], [u @ bx, u @ (cone.mus * u)]])
                general = scipy.linalg.eigh(pb, pa, eigvals_only=True)[1]
                assert abs(general - value) <= 1e-12 * abs(value)


class TestBruteForce:
    def test_samples_stay_in_ball(self, monkeypatch):
        rng = np.random.default_rng(10)
        cone = random_cone(rng)
        xh = cone.x / np.linalg.norm(cone.x)
        angles = np.linspace(0.0, 2.0 * np.pi, 500, endpoint=False)
        circle = np.outer(np.cos(angles), cone.v) + np.outer(np.sin(angles), xh)
        for frac in (0.25, 0.5, 0.75, 1.0):
            assert in_ball(cone, cone.disc_center + cone.disc_radius * frac * circle)
        # the directions the production searches return or evaluate: the
        # oracle's minimizer, and the disc point of _worst_direction, as it
        # returns it and as _ritz_gap sees it, on the cone's own scale
        for _ in range(20):
            cone = random_cone(rng)
            assert in_ball(cone, brute_force_cone_min(cone, 500)[1])
            points = spy_ritz_gap_directions(monkeypatch)
            _, d = worst_one(cone.mus, cone.x, cone.gamma)
            monkeypatch.undo()
            assert len(points) == 1
            assert np.array_equal(points[0][:, 0], d)
            assert in_ball(cone, d)

    def test_gamma_zero_single_direction(self):
        cone = ConeSpec(mus=MUS, x=np.ones(3), gamma=0.0)
        value, direction = brute_force_cone_min(cone, 1000)
        np.testing.assert_allclose(direction, cone.center, atol=1e-15)
        assert value == pytest.approx(
            float(cone.mus[0] - ritz_gap(cone.mus, cone.x, cone.center[None])[0]), rel=1e-14
        )

    def test_sample_count_convergence(self):
        cone = ConeSpec(mus=np.array([1.0, 0.5, 0.25]), x=np.array([1.0, 0.7, 0.4]),
                        gamma=0.5)
        coarse, _ = brute_force_cone_min(cone, 1000)
        fine, _ = brute_force_cone_min(cone, 100_000)
        assert abs(coarse - fine) < 1e-6

    def test_needs_enough_samples(self):
        cone = ConeSpec(mus=MUS, x=np.ones(3), gamma=0.5)
        with pytest.raises(ValueError):
            brute_force_cone_min(cone, 50)


class TestColsum:
    @given(rows=st.integers(1, 9), cols=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_index_order_sum_bit_for_bit(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(rows, 1))
        expected = []
        for j in range(cols):
            total = a[0, j]
            for i in range(1, rows):
                total = total + a[i, j]
            expected.append(total)
        np.testing.assert_array_equal(conelab._colsum(a), np.array(expected))

    def test_one_row_gives_a_fresh_array(self):
        a = np.arange(6.0).reshape(1, 6)
        total = conelab._colsum(a)
        np.testing.assert_array_equal(total, a[0])
        assert not np.shares_memory(total, a)

    def test_unit_blocks_pass_one_row_blocks(self, monkeypatch):
        # at mus (1, .6, .3, .1) and level 0.8 the block above the level is
        # the one entry of mus[0]: the check sums one-row blocks, and each
        # such sum is a fresh array
        one_row = []
        real = conelab._colsum

        def recorded(a):
            total = real(a)
            if len(a) == 1:
                one_row.append(not np.shares_memory(total, a))
            return total

        monkeypatch.setattr(conelab, "_colsum", recorded)
        report = three_d_concentration_check(TestConcentrationCheck.SPECTRUM, gamma=0.5,
                                             mu0=0.8, n_outer=2, seed=42)
        assert one_row and all(one_row)
        assert report.reference_triple == (0, 1, 3)


def level_spectrum(rng, n, kind):
    """``n`` strictly decreasing mus at unit scale: random, with a cluster, or conditioned.

    ``"clustered"`` puts two neighbours 1e-9 to 1e-3 apart (relative),
    ``"conditioned"`` spreads the mus over up to 12 decades.
    """
    while True:
        if kind == "conditioned":
            mus = 10.0 ** rng.uniform(-12.0, 0.0, size=n)
        else:
            mus = rng.uniform(0.05, 1.0, size=n)
            if kind == "clustered":
                i = rng.integers(n - 1)
                mus[i + 1] = mus[i] * (1.0 - 10.0 ** rng.uniform(-9.0, -3.0))
        mus = np.sort(mus)[::-1]
        if np.all(np.diff(mus) < 0.0):
            return unit_scale(mus)[0]


def level_x(rng, mus, frac=None):
    """A random iterate on the level ``mus[-2] + frac (mus[0] - mus[-2])``.

    ``frac`` is drawn from ``(1e-3, 1 - 1e-3)`` by default.
    """
    if frac is None:
        frac = rng.uniform(1e-3, 1.0 - 1e-3)
    mu0 = mus[-2] + frac * (mus[0] - mus[-2])
    pos, neg = mus > mu0, mus < mu0
    x = rng.standard_normal(len(mus))
    wp = np.sum((mus[pos] - mu0) * x[pos] ** 2)
    wq = np.sum((mu0 - mus[neg]) * x[neg] ** 2)
    x[neg] *= math.sqrt(wp / wq)
    return x


def level_case(rng, n, kind=None):
    """``(mus, x, gamma)`` with ``mu(x)`` above ``mus[-2]``.

    One level in ten lies within 1e-9 relative of ``mus[-2]``; ``kind`` is
    that of :func:`level_spectrum`, drawn at random by default.
    """
    if kind is None:
        kind = rng.choice(["random", "clustered", "conditioned"])
    mus = level_spectrum(rng, n, kind)
    x = level_x(rng, mus, 1e-9 if rng.integers(10) == 0 else None)
    return mus, x, rng.uniform(0.05, 0.95)


@st.composite
def level_iterates(draw):
    """``(kind, mus, x, gamma)`` of :func:`level_case` over ``n`` in 3 to 5, from a drawn seed."""
    n = draw(st.sampled_from([3, 4, 5]))
    kind = draw(st.sampled_from(["random", "clustered", "conditioned"]))
    mus, x, gamma = level_case(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, kind)
    if not np.sum(mus * x * x) / np.sum(x * x) > mus[-2]:
        reject()  # the level rounds onto mus[-2]
    return kind, mus, x, gamma


def trust_region_point(h, g, s):
    """A point of norm ``s`` minimizing ``u.Hu + 2 g.u``, independently of the module.

    The multiplier ``lam`` with ``(H - lam) u = -g`` is the smallest real
    eigenvalue of ``[[H, -I], [-g g^T / s^2, H]]`` (Gander, Golub and
    von Matt, 1989), and ``u = -(H - lam)^-1 g`` is scaled to norm
    ``s`` exactly, so it is a point of the sphere even where the solve
    is inexact.
    """
    k = len(g)
    pencil = np.block([[h, -np.eye(k)], [-np.outer(g, g) / (s * s), h]])
    eig = np.linalg.eigvals(pencil)
    lam = np.min(eig[np.abs(eig.imag) <= 1e-9 * np.max(np.abs(eig))].real)
    u = -np.linalg.solve(h - lam * np.eye(k), g)
    return s * u / np.linalg.norm(u)


def bisected_secular_root(h, g_sq):
    """Oracle of :func:`conelab._secular_root`: the bisection that Newton's method replaced.

    The secular sum rises with ``lam`` on ``[h[0] - |g|, h[0])``, where it
    starts at most 1; halving that interval down to adjacent doubles (at
    most 80 times) ends at the last ``lam`` found below the crossing, or
    just below ``h[0]`` in the hard case.
    """
    lo, hi = h[0] - np.sqrt(conelab._colsum(g_sq)), h[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if np.all((mid == lo) | (mid == hi)):
                break
            dist = h - mid
            below = conelab._colsum(g_sq / (dist * dist)) < 1.0
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return lo


def secular_sum(h, g_sq, lam):
    """``sum_i g_sq[i] / (h[i] - lam)^2`` of one column, over the rows with ``g``."""
    with np.errstate(divide="ignore"):
        return float(np.sum(g_sq[g_sq > 0] / (h[g_sq > 0] - lam) ** 2))


def counted_secular_root(h, g_sq, root=None):
    """:func:`conelab._secular_root` (or ``root``) of ``(h, g_sq)`` and its number of Newton rounds."""
    root = root or conelab._secular_root
    rounds = []
    real = conelab._secular_sums

    def counted(dist, g_sq_):
        rounds.append(dist.shape[-1])
        return real(dist, g_sq_)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conelab, "_secular_sums", counted)
        lam = root(h, g_sq)
    return lam, len(rounds)


@st.composite
def secular_columns(draw):
    """A secular column ``(h, g)`` of 1 to 4 rows (``n - 2`` at ``n`` = 3 to 6).

    ``h`` is random, clustered (``h[1]`` 1e-9 to 1e-3 relative above
    ``h[0]``) or repeated (``h[0] == h[1]``, and more); ``g_0`` is 0, tiny
    (1e-300 to 1e-8 of ``|g|``) or ordinary, and the column is taken to
    ``2**±300`` or left at unit scale.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "clustered", "repeated"]))
    h = np.sort(rng.uniform(0.05, 1.0, size=k))
    if k > 1 and kind == "clustered":
        h[1] = h[0] * (1.0 + 10.0 ** rng.uniform(-9.0, -3.0))
    elif k > 1 and kind == "repeated":
        h[1:rng.integers(2, k + 1)] = h[0]
    h = np.sort(h)
    g = rng.standard_normal(k) * 10.0 ** rng.uniform(-3.0, 1.0)
    g0 = draw(st.sampled_from(["zero", "tiny", "ordinary"]))
    if g0 == "zero":
        g[0] = 0.0
    elif g0 == "tiny":
        g[0] = np.linalg.norm(g) * 10.0 ** rng.uniform(-300.0, -8.0)
    power = draw(st.sampled_from([0, 300, -300]))
    return np.ldexp(h, power), np.ldexp(g, power)


class TestSecularRoot:
    # The most Newton rounds a column may take: 15 the most seen over
    # 40,000 columns of secular_columns (2.5 on average).  A tiny g_0 whose
    # other terms sum to 1 - delta at h[0] can take more: up to 21 at
    # delta = 1e-6, 32 at 1e-10 and 45 at delta = 0.
    ROUNDS = 20

    @given(column=secular_columns())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_newton_root_against_the_bisection(self, column):
        # the root crosses s = 1 to within 4 eps, or within 2 ulps of lam
        # where an ulp of lam moves s by more than that (a root near h[0]);
        # the hard case ends at h[0].  The bisected root agrees to 16 eps of
        # max(|lam|, |h[0]|): at most 9.2 eps on 80,000 columns, where s is
        # flat enough that several doubles lie within 4 eps of 1 (an ulp of
        # the bisected root itself means nothing where lam cancels to near
        # 0).  A power of two on the column keeps every bit where g_sq has
        # no subnormal entry, before or after it
        h, g = column
        g_sq = g * g
        (lam,), rounds = counted_secular_root(h[:, None], g_sq[:, None])
        assert rounds <= self.ROUNDS
        eps = np.finfo(float).eps
        if not np.any(g_sq[h == h[0]]) and secular_sum(h, g_sq, h[0]) < 1.0:
            assert lam == h[0]
        else:
            ulps = 2.0 * np.spacing(abs(lam))
            assert abs(secular_sum(h, g_sq, lam) - 1.0) <= 4.0 * eps or (
                secular_sum(h, g_sq, lam - ulps) <= 1.0 + 4.0 * eps
                and secular_sum(h, g_sq, min(lam + ulps, h[0])) >= 1.0 - 4.0 * eps)
        bisected = bisected_secular_root(h[:, None], g_sq[:, None])[0]
        assert abs(lam - bisected) <= 16.0 * eps * max(abs(lam), abs(h[0]))
        if np.all((g_sq == 0.0) | (g_sq >= 4.0 * np.finfo(float).tiny)):
            for power in (-1, 1):
                scaled = conelab._secular_root(np.ldexp(h, power)[:, None],
                                               np.ldexp(g_sq, 2 * power)[:, None])
                assert scaled[0] == math.ldexp(lam, power)

    @given(case=level_iterates(), tiny=st.sampled_from([None, 0.0, 1e-300, 1e-12, 1e-8]))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_either_root_gives_the_worst_value(self, case, tiny):
        # _worst_direction on the Newton root and on the bisected one, with
        # one coordinate of x zeroed or made tiny (g_0 zero or tiny): the
        # values agree to TestBatchedWorstDirection's tolerance, and every
        # call stays within the round bound
        _, mus, x, gamma = case
        if len(x) == 3:
            reject()
        if tiny is not None:
            x = x.copy()
            i = np.random.default_rng(len(x)).integers(len(x))
            x[i] *= tiny
            if not np.sum(mus * x * x) / np.sum(x * x) > mus[-2]:
                reject()
        real = conelab._secular_root
        rounds = []

        def counted(h, g_sq):
            lam, n = counted_secular_root(h, g_sq, real)
            rounds.append(n)
            return lam

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(conelab, "_secular_root", counted)
            newton, _ = worst_one(mus, x, gamma)
            patch.setattr(conelab, "_secular_root", bisected_secular_root)
            bisected, _ = worst_one(mus, x, gamma)
        assert rounds and max(rounds) <= self.ROUNDS
        if not math.isfinite(newton):
            assert newton == bisected
            return
        _, r, _, _, _ = _cone_disc(mus, x[:, None], gamma)
        tol = 4 * np.spacing(mus[0]) * max(1.0, np.linalg.norm(x) / np.linalg.norm(r))
        assert abs(newton - bisected) <= tol


class TestBatchedWorstDirection:
    @given(case=level_iterates())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_between_the_sampled_search_and_a_dense_sample(self, case):
        # differential: never above the sampled and polished search by more
        # than a few ulps of mus[0] (a value is mus[0] less a gap) times
        # |x| / |r|, as the disc's offset from x is formed to ulps of x (0.86
        # ulp times |x| / |r| the most seen, at n = 3 over 12 decades).  Its
        # point lies on the boundary sphere orthogonal to x and r, to the
        # rounding of forming it, and its value is LAPACK's on the projected
        # pencil, so no cone point is missed and none outside the cone
        # counts.  A dense sample of the whole ball, interior included, is
        # never below it on random spectra; on clustered and conditioned ones
        # the sample's zoom can start outside a narrow basin, and it stays
        # within 1e-4 relative (7.3e-5 the largest miss seen, at n = 5 over
        # 12 decades)
        kind, mus, x, gamma = case
        value, d = worst_one(mus, x, gamma)
        refined, sampled = sampled_disc_worst(mus, x, gamma,
                                              ball_pattern(np.random.default_rng(1), len(x) - 1))
        _, r, center, radius, _ = _cone_disc(mus, x[:, None], gamma)
        ulp = np.spacing(mus[0])
        tol = 4 * ulp * max(1.0, np.linalg.norm(x) / np.linalg.norm(r))
        assert value <= refined + tol
        assert value <= sampled + tol
        dense = dense_disc_min(mus, x, gamma)
        assert value >= dense - (4 * ulp if kind == "random" else 1e-4 * dense)
        y, scale = d - center[:, 0], np.linalg.norm(d)
        assert abs(np.linalg.norm(y) - radius[0]) <= 1e-15 * scale
        assert abs(y @ r[:, 0]) <= 1e-15 * scale * np.linalg.norm(r)
        assert abs(y @ x) <= 1e-15 * scale * np.linalg.norm(x)
        u = d - np.sum(mus * x * x) / np.sum(x * x) * x
        basis = np.stack([x, u])
        lapack = scipy.linalg.eigh(basis @ (mus[:, None] * basis.T), basis @ basis.T,
                                   eigvals_only=True)[1]
        assert abs(lapack - value) <= 1e-12 * value

    @given(case=level_iterates())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_three_dimensions_give_the_closed_form(self, case):
        # at n = 3 {x, r}^⊥ is the line of x cross r; reflections leave the
        # cone landscape unchanged, so |x| has worst_direction's value, to
        # the ulps of the differential test above
        _, mus, x, gamma = case
        if len(x) != 3:
            reject()
        value, _ = worst_one(mus, x, gamma)
        cone = ConeSpec(mus=mus, x=np.abs(x), gamma=gamma)
        closed = float(cone.mus[0] - ritz_gap(cone.mus, cone.x, worst_direction(cone)[None])[0])
        conditioning = max(1.0, np.linalg.norm(x) / np.linalg.norm(cone.r))
        assert abs(value - closed) <= 4 * np.spacing(mus[0]) * conditioning

    @pytest.mark.parametrize("mus, x, h, g, root", [
        ((1.0, 0.6, 0.3, 0.1), (0.8819171, 0.0, 0.0, 0.47140452), None, None, "h0"),
        ((1.0, 0.6, 0.3, 0.1), (-0.70710678, 0.70710678, 0.0, 0.0), None, None, "h0"),
        ((1.0, 0.7, 0.5, 0.3, 0.1), (1.0, 0.5, 0.3, 0.2, 0.0), None, None, "h0"),
        ((1.0, 0.7, 0.5, 0.3, 0.1), (1.0, 0.5, 0.3, 0.2, 1e-12), None, None, "near"),
        (None, None, (0.3, 0.3, 0.7), (0.0, 0.25, 0.1), 0.04701580567018804),
    ], ids=["n4-x1-x2-zero", "n4-x2-x3-zero", "n5-x4-zero", "n5-x4-near-zero",
            "coincident-lowest-h"])
    def test_hard_case(self, monkeypatch, mus, x, h, g, root):
        # x with zero coordinates puts their eigenvectors into {x, r}^⊥ and
        # none of Br on them; where the lowest is one of them, the secular
        # sum stays below 1 up to h[0]: the root is h[0] ("h0"), and the
        # point takes the norm the other eigenvectors leave on it.  The
        # first two are two-coordinate threshold iterates of the
        # concentration check, where g = 0.  Near it, a g_0 of about 1e-12
        # |g| ("near") puts the root h[0] - |g_0| / sqrt(1 - s_1(h[0])) to
        # first order, with s_1 the sum less its g_0 term.  Two lowest h
        # that coincide, one with g = 0, are not the hard case: the root
        # (here to 50 digits) is where the other's term reaches 1, and a
        # start at h[0] - |g_0| = h[0] would take it for the hard case
        if mus is None:
            h, g_sq = np.array(h), np.square(g)
            lam = conelab._secular_root(h[:, None], g_sq[:, None])[0]
            assert abs(lam - root) <= 2 * np.spacing(root)
            assert abs(secular_sum(h, g_sq, lam) - 1.0) <= 4 * np.finfo(float).eps
            return
        mus, x = np.array(mus), np.array(x)
        roots = []
        real = conelab._secular_root

        def spied(h, g_sq):
            lam = real(h, g_sq)
            roots.append((h[:, 0], g_sq[:, 0], lam[0]))
            return lam

        monkeypatch.setattr(conelab, "_secular_root", spied)
        value, d = worst_one(mus, x, 0.5)
        monkeypatch.undo()
        (h, g_sq, lam), = roots
        rest = np.sum(g_sq[1:] / (h[1:] - h[0]) ** 2)
        assert rest < 1.0
        if root == "h0":
            assert g_sq[0] == 0.0 and lam == h[0]
        else:
            assert 0.0 < g_sq[0] <= 1e-20 * np.sum(g_sq)
            assert abs(lam - (h[0] - math.sqrt(g_sq[0] / (1.0 - rest)))) <= 2 * np.spacing(h[0])
        # the leftover norm sits on the (near) zero coordinate of the lowest mu
        low = np.flatnonzero(x == 0.0 if root == "h0" else np.abs(x) <= 1e-12)[-1]
        assert mus[low] == h[0] and d[low] != 0.0
        _, r, center, radius, _ = _cone_disc(mus, x[:, None], 0.5)
        assert abs(np.linalg.norm(d - center[:, 0]) - radius[0]) <= 1e-15 * radius[0]
        # no sample beats it; near the hard case the dense zoom misses its
        # narrow basin by about 1e-13
        dense = dense_disc_min(mus, x, 0.5)
        assert value <= dense + 4 * np.spacing(mus[0])
        assert value >= dense - (4 * np.spacing(mus[0]) if root == "h0" else 1e-12)

    def test_boundary_beats_every_smaller_norm(self):
        # the domain claim: where mu(x) > mus[-2], no |u| = s < 1 does
        # better than |u| = 1.  Each s gets the trust-region point of
        # trust_region_point on an orthonormal basis of {x, r}^⊥ from an
        # SVD, levels just above mus[-2] included; s = 1 itself checks the
        # secular solve against that independent one
        rng = np.random.default_rng(31)
        scan = np.linspace(0.02, 1.0, 50)
        worst = 0.0
        for n in (4, 5, 6) * 50:
            mus, x, gamma = level_case(rng, n)
            value, _ = worst_one(mus, x, gamma)
            _, r, center, radius, _ = _cone_disc(mus, x[:, None], gamma)
            r, center, radius = r[:, 0], center[:, 0], radius[0]
            q = np.linalg.svd(np.stack([x, r]), full_matrices=True)[2][2:].T
            h = q.T @ (mus[:, None] * q)
            g = (1.0 - gamma * gamma) / radius * (q.T @ (mus * r))
            points = np.array([center + radius * (q @ trust_region_point(h, g, s))
                               for s in scan])
            values = mus[0] - conelab._ritz_gap(mus, x[:, None], points.T)
            worst = max(worst, (value - np.min(values)) / value)
        assert worst <= 1e-12

    def test_batches_and_powers_of_two_keep_every_bit(self):
        # a column's bits are its own: alone or among others of any
        # dimension's batch, and under a power of two on x (the point
        # scales with it, exactly)
        rng = np.random.default_rng(32)
        for n in (3, 4, 5):
            mus, _, gamma = level_case(rng, n)
            xs = np.stack([level_x(rng, mus) for _ in range(40)], axis=1)
            values, points = _worst_direction(mus, xs, gamma)
            for j in range(xs.shape[1]):
                one, d = worst_one(mus, xs[:, j], gamma)
                assert one.hex() == float(values[j]).hex()
                assert np.array_equal(d, points[:, j])
                for power in (-300, -1, 1, 300):
                    scaled, ds = worst_one(mus, np.ldexp(xs[:, j], power), gamma)
                    assert scaled.hex() == one.hex()
                    assert np.array_equal(ds, np.ldexp(d, power))

    def test_empty_cone_gives_inf(self):
        # an eigenvector among ordinary iterates: inf and NaN in its column only
        xs = np.array([[1.0, 0.0, 0.8819171], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                       [0.0, 1.0, 0.47140452]])
        values, points = _worst_direction(np.array([1.0, 0.6, 0.3, 0.1]), xs, 0.5)
        assert np.isinf(values[:2]).all() and np.isnan(points[:, :2]).all()
        assert values[2] == worst_one(np.array([1.0, 0.6, 0.3, 0.1]), xs[:, 2], 0.5)[0]


class TestConcentrationCheck:
    SPECTRUM = Spectrum(lambdas=1.0 / np.array([1.0, 0.6, 0.3, 0.1]))

    @pytest.mark.parametrize("n_outer", [0, -1])
    def test_needs_an_outer_run(self, n_outer):
        with pytest.raises(ValueError, match="n_outer"):
            three_d_concentration_check(self.SPECTRUM, gamma=0.5, mu0=0.8,
                                        n_outer=n_outer, seed=1)

    @pytest.mark.parametrize("n_outer", [2.5, 2.0, True, "2", None])
    def test_n_outer_must_be_an_integer(self, monkeypatch, n_outer):
        monkeypatch.setattr(conelab, "_ritz_gap", None)  # any search work would fail
        with pytest.raises(ValueError, match="n_outer"):
            three_d_concentration_check(self.SPECTRUM, gamma=0.5, mu0=0.8,
                                        n_outer=n_outer, seed=1)

    @pytest.mark.parametrize("seed", [None, 1.5, 1.0, -1, True, "1"])
    def test_seed_must_be_a_nonnegative_integer(self, monkeypatch, seed):
        monkeypatch.setattr(conelab, "_ritz_gap", None)  # any search work would fail
        with pytest.raises(ValueError, match="seed"):
            three_d_concentration_check(self.SPECTRUM, gamma=0.5, mu0=0.8,
                                        n_outer=1, seed=seed)

    @pytest.mark.parametrize("gamma, mu0", [
        (None, 0.8), ("0.5", 0.8), (True, 0.8), (0.5, None), (0.5, "0.8"), (0.5, True),
    ])
    def test_gamma_and_mu0_must_be_real_numbers(self, monkeypatch, gamma, mu0):
        monkeypatch.setattr(conelab, "_ritz_gap", None)  # any search work would fail
        name = "gamma" if not isinstance(gamma, float) else "mu0"
        with pytest.raises(ValueError, match=name):
            three_d_concentration_check(self.SPECTRUM, gamma=gamma, mu0=mu0,
                                        n_outer=1, seed=1)

    def test_bottom_interval_rejected(self, monkeypatch):
        # no invariant triple (j, k, l) has mus[k] < mu0 with an l below k
        monkeypatch.setattr(conelab, "_ritz_gap", None)  # any search work would fail
        with pytest.raises(ValueError, match="bottom interval"):
            three_d_concentration_check(self.SPECTRUM, gamma=0.5, mu0=0.2, n_outer=1, seed=1)

    def test_numpy_floats_accepted(self, monkeypatch):
        # a flat cone objective: only the input handling is under test
        monkeypatch.setattr(conelab, "_worst_direction",
                            lambda mus, x, gamma: (np.ones(x.shape[1]), x))
        report = three_d_concentration_check(
            Spectrum(lambdas=1.0 / np.array([1.0, 0.6, 0.1])), gamma=np.float32(0.5),
            mu0=np.float64(0.8), n_outer=1, seed=3,
        )
        assert (report.gamma, report.mu0) == (0.5, 0.8)

    def test_numpy_integers_accepted(self):
        report = three_d_concentration_check(
            Spectrum(lambdas=1.0 / np.array([1.0, 0.6, 0.1])), gamma=0.5, mu0=0.8,
            n_outer=np.int64(1), seed=np.uint32(3),
        )
        assert (report.n_outer, report.seed) == (1, 3)

    # The closed-form worst values at the benchmark's settings, from the
    # earlier Brent search over t (they do not depend on the seed).
    TRIPLE_VALUES = {(0, 1, 2): 0.890226562483907, (0, 1, 3): 0.8692938785492135,
                     (0, 2, 3): 0.9266496068145708}

    # Outputs at n_outer 20 of the search whose inner level is the
    # trust-region reduction, as exact reprs.  best_value and best_x per
    # seed of the sweep below, where significant is (0, 1, 3):
    SWEEP_BITS = {
        42: (0.8692938785492135,
             (-0.7281297945401423, -0.6675991343203452, 0.0, -0.15536536987905572)),
        43: (0.8692938785492135,
             (-0.7281297944026078, -0.6675991345903536, 0.0, -0.1553653693634043)),
        44: (0.8692938785492135,
             (0.7281297949011861, -0.6675991336115424, 0.0, -0.15536537123269964)),
        45: (0.8692938785492139,
             (-0.728129800549367, -0.6675991225230081, 0.0, -0.1553653924091483)),
        46: (0.8692938785492137,
             (0.7281297919252483, -0.667599139453917, 0.0, 0.1553653600751601)),
        47: (0.8692938785492136,
             (0.7281297937670024, 0.6675991358381771, 0.0, -0.15536536698035955)),
        48: (0.8692938785492136,
             (-0.7281297968337062, -0.6675991298176105, 0.0, 0.15536537847820264)),
        49: (0.8692938785492137,
             (-0.728129791681503, 0.6675991399324388, 0.0, 0.1553653591612978)),
        50: (0.8692938785492139,
             (-0.7281297896885148, -0.6675991438450821, 0.0, -0.1553653516890833)),
        51: (0.869293878549214,
             (-0.7281297894418362, -0.667599144329363, 0.0, 0.15536535076422264)),
        52: (0.8692938785492137,
             (0.7281297909540426, -0.6675991413605922, 0.0, -0.15536535643386565)),
        53: (0.8692938785492136,
             (0.7281297962786206, 0.6675991309073568, 0.0, 0.1553653763970478)),
        54: (0.8692938785492137,
             (0.7281297980194162, 0.6675991274898192, 0.0, -0.1553653829237274)),
        55: (0.8692938785492138,
             (-0.7281297910418562, 0.6675991411881963, 0.0, 0.15536535676310087)),
        56: (0.8692938785492136,
             (-0.728129794609198, 0.6675991341847746, 0.0, -0.1553653701379632)),
        57: (0.8692938785492137,
             (-0.7281297991133875, -0.6675991253421296, 0.0, -0.1553653870253009)),
    }
    SWEEP_TRIPLE_BITS = {(0, 1, 2): 0.890226562483907, (0, 1, 3): 0.8692938785492136,
                         (0, 2, 3): 0.9266496068145708}
    # (mus, gamma, mu0, best_value, best_x, significant, triple_values) at
    # seed 42: a lone block at n = 3 and n = 5, a level in the middle of
    # n = 5 and one in the middle of n = 4, where no block starts lone
    LEVEL_BITS = [
        ((1.0, 0.6, 0.1), 0.5, 0.8, 0.8692938785492137,
         (0.7281297987564052, -0.6675991260429589, -0.1553653856868844), (0, 1, 2),
         {(0, 1, 2): 0.8692938785492136}),
        ((1.0, 0.7, 0.5, 0.3, 0.1), 0.4, 0.85, 0.8979058728437173,
         (0.7290848839468123, -0.6727948037852217, 0.0, 0.0, -0.12562795867110288), (0, 1, 4),
         {(0, 1, 2): 0.9356191016843678, (0, 1, 3): 0.9120317902951042,
          (0, 1, 4): 0.8979058728437173, (0, 2, 3): 0.953657153446109,
          (0, 2, 4): 0.936589304488977, (0, 3, 4): 0.9605172254141607}),
        ((1.0, 0.7, 0.5, 0.3, 0.1), 0.4, 0.6, 0.6319372485624783,
         (0.0, -0.7290848816689917, 0.672794807487817, 0.0, -0.1256279520614093), (1, 2, 4),
         {(0, 2, 3): 0.8285146064580706, (0, 2, 4): 0.7595938213030256,
          (0, 3, 4): 0.8790537857052174, (1, 2, 3): 0.6481509801013834,
          (1, 2, 4): 0.6319372485624781, (1, 3, 4): 0.6665930169633504}),
        ((1.0, 0.6, 0.3, 0.1), 0.5, 0.45, 0.521109333743242,
         (0.0, -0.7294969074797939, 0.6477543168081112, 0.21965565559273495), (1, 2, 3),
         {(0, 2, 3): 0.7457894758840526, (1, 2, 3): 0.521109333743242}),
    ]

    @staticmethod
    def assert_bits(report, best_value, best_x, significant, triple_values):
        """``report`` holds these values bit for bit (``float.hex`` tells -0.0 from 0.0)."""
        assert report.best_value.hex() == best_value.hex()
        assert [float(v).hex() for v in report.best_x] == [v.hex() for v in best_x]
        assert report.significant == significant
        assert {t: v.hex() for t, v in report.triple_values.items()} == {
            t: v.hex() for t, v in triple_values.items()}

    @staticmethod
    def assert_value_is_at_best_x(report, mus):
        """``report.best_value`` is the inner level's value at ``report.best_x``, bit for bit.

        ``mus`` are at unit scale, so the report's units are the search's.
        """
        assert unit_scale(np.array(mus))[1] == 0
        value, _ = worst_one(np.array(mus), report.best_x, report.gamma)
        assert value.hex() == report.best_value.hex()

    @pytest.mark.parametrize("case", LEVEL_BITS, ids=lambda case: f"{len(case[0])}-{case[2]}")
    def test_other_levels_keep_every_bit(self, case):
        mus, gamma, mu0, *bits = case
        report = three_d_concentration_check(Spectrum(lambdas=1.0 / np.array(mus)),
                                             gamma=gamma, mu0=mu0, n_outer=20, seed=42)
        self.assert_bits(report, *bits)
        self.assert_value_is_at_best_x(report, mus)

    @pytest.mark.parametrize("mu0", [0.3 + 1e-9, math.nextafter(0.3, 1.0)])
    def test_levels_just_above_the_second_smallest_mu(self, mu0):
        # the inner level's domain reaches down to mus[-2] = 0.3: the check
        # still confirms the 3-D reduction there
        report = three_d_concentration_check(self.SPECTRUM, gamma=0.5, mu0=mu0, n_outer=20,
                                             seed=42)
        assert report.n_significant <= 3
        assert report.reference_triple == (1, 2, 3)
        assert report.beats_reference_by <= 1e-12
        self.assert_value_is_at_best_x(report, (1.0, 0.6, 0.3, 0.1))

    @staticmethod
    def spy_search(monkeypatch, mus, mu0):
        """The outer search's events in one check, and its ``(pos, neg)`` blocks.

        ``("eval", x)`` for each objective call (its iterates ``x``, all
        through one :func:`_worst_direction` call), ``("round", y, moves)``
        for each :func:`_compass` call.
        """
        events = []
        real_compass, real_worst = conelab._compass, conelab._worst_direction

        def compass(objective, y, value, moves, *args, **kwargs):
            events.append(("round", y.copy(), moves.copy()))
            return real_compass(objective, y, value, moves, *args, **kwargs)

        def worst(mus_, x, gamma):
            events.append(("eval", x.copy()))
            return real_worst(mus_, x, gamma)

        monkeypatch.setattr(conelab, "_compass", compass)
        monkeypatch.setattr(conelab, "_worst_direction", worst)
        three_d_concentration_check(Spectrum(lambdas=1.0 / np.array(mus)), gamma=0.5,
                                    mu0=mu0, n_outer=2, seed=42)
        mus = np.array(mus)
        return events, (np.flatnonzero(mus > mu0), np.flatnonzero(mus < mu0))

    @pytest.mark.parametrize("mus, mu0", [((1.0, 0.6, 0.3, 0.1), 0.8),
                                          ((1.0, 0.6, 0.3, 0.1), 0.45),
                                          ((1.0, 0.7, 0.5, 0.3, 0.1), 0.85)])
    def test_lone_coordinates_do_not_move(self, monkeypatch, mus, mu0):
        # a zeroed coordinate is 0 in every column; a block's only free
        # coordinate gets no move, every other free coordinate gets +-e_i
        events, blocks = self.spy_search(monkeypatch, mus, mu0)
        rounds = [event[1:] for event in events if event[0] == "round"]
        lone_seen = False
        for y, moves in rounds:
            movable = []
            for block in blocks:
                free = block[np.any(y[block] != 0.0, axis=1)]
                lone_seen |= free.size == 1
                if free.size > 1:
                    movable.extend(free)
            unit = np.eye(len(mus))[:, sorted(movable)]
            assert np.array_equal(moves, np.concatenate([unit, -unit], axis=1))
        assert rounds and lone_seen

    @pytest.mark.parametrize("mus", [(1.0, 0.6, 0.1), (1.0, 0.6, 0.3, 0.1)])
    def test_one_free_entry_per_block_runs_no_round(self, monkeypatch, mus):
        # the hard-threshold trials that leave each block one free entry:
        # the search evaluates the start and returns, where a compass round
        # over an empty stencil has no argmin
        events, blocks = self.spy_search(monkeypatch, mus, 0.8)
        pinned = [i for i, event in enumerate(events) if event[0] == "eval"
                  and all(np.count_nonzero(np.any(event[1][b] != 0.0, axis=1)) == 1
                          for b in blocks)]
        assert pinned
        for i in pinned:
            assert events[i][1].shape[1] == 1
            assert i + 1 == len(events) or events[i + 1][0] == "eval"

    @pytest.mark.parametrize("seed", range(42, 58))
    def test_seed_sweep_within_call_budget(self, monkeypatch, seed):
        # criterion 10's gate at the benchmark's settings on 16 seeds; the
        # budgets are about 1.5x the most inner evaluations (39, each one
        # _worst_direction call over all of a round's iterates), columns
        # (7,232), ritz_gap calls (75, one per evaluation and 36 for the
        # reference) and rows (7,679) any of these seeds takes.  The
        # closed-form reference builds no scalar worst-case instance: it is
        # one ritz_gap call per grid, 12 grids of 149 points in all per triple.
        # Each evaluation's secular solve takes at most 14 Newton rounds
        # (about 1.5x the 9 these seeds take; 3.5 on average).
        # best_value is the inner level's value at best_x
        calls = count_ritz_gap_calls(monkeypatch)
        evaluations, sums, rounds = [], [], []
        real_worst, real_sums = conelab._worst_direction, conelab._secular_sums

        def counted_worst(mus, x, gamma):
            evaluations.append(x.shape[1])
            start = len(sums)
            result = real_worst(mus, x, gamma)
            rounds.append(len(sums) - start)
            return result

        monkeypatch.setattr(conelab, "_worst_direction", counted_worst)
        monkeypatch.setattr(conelab, "_secular_sums", lambda *a: sums.append(1) or real_sums(*a))
        instances = []
        monkeypatch.setattr(conelab, "worst_case_instance",
                            lambda setup: instances.append(setup))
        reference_calls = []
        real_reference = conelab._worst_value_3d

        def counted_reference(*args):
            start = len(calls)
            value = real_reference(*args)
            reference_calls.append(calls[start:])
            return value

        monkeypatch.setattr(conelab, "_worst_value_3d", counted_reference)
        report = three_d_concentration_check(self.SPECTRUM, gamma=0.5, mu0=0.8,
                                             n_outer=20, seed=seed)
        assert instances == []
        assert reference_calls == [[61] + [8] * 11] * 3
        assert report.n_significant <= 3
        assert report.reference_triple == (0, 1, 3)
        assert report.beats_reference_by <= 1e-12
        assert len(evaluations) <= 60
        assert max(rounds) <= 14
        assert sum(evaluations) <= 11_000
        assert len(calls) <= 110
        assert sum(calls) <= 11_500
        assert report.triple_values.keys() == self.TRIPLE_VALUES.keys()
        for triple, value in report.triple_values.items():
            pinned = self.TRIPLE_VALUES[triple]
            assert value <= pinned + 1e-12 * pinned, triple
        self.assert_bits(report, *self.SWEEP_BITS[seed], (0, 1, 3), self.SWEEP_TRIPLE_BITS)
        monkeypatch.undo()
        self.assert_value_is_at_best_x(report, (1.0, 0.6, 0.3, 0.1))

    @staticmethod
    @functools.cache
    def _scaled_report(c):
        """The check on lambdas ``c * (1, 1.5, 3, 5)`` at the level ``0.8 / c``."""
        return three_d_concentration_check(Spectrum(lambdas=c * np.array([1.0, 1.5, 3.0, 5.0])),
                                           gamma=0.5, mu0=0.8 / c, n_outer=1, seed=7)

    @pytest.mark.parametrize("power", [600, -600])
    def test_a_power_of_two_keeps_every_bit(self, power):
        # the search runs at unit scale: these mus reach it exactly, and its
        # values go back by the exact power (without it, a RuntimeWarning)
        base, scaled = self._scaled_report(1.0), self._scaled_report(2.0 ** power)
        assert scaled.mu0 == math.ldexp(base.mu0, -power)
        assert scaled.best_value == math.ldexp(base.best_value, -power)
        assert np.array_equal(scaled.best_x, base.best_x)
        assert scaled.significant == base.significant
        assert scaled.reference_triple == base.reference_triple
        assert scaled.triple_values == {
            triple: math.ldexp(value, -power) for triple, value in base.triple_values.items()}

    @pytest.mark.parametrize("c", [1e200, 1e-200])
    def test_extreme_scales_give_the_plain_values(self, c):
        base, scaled = self._scaled_report(1.0), self._scaled_report(c)
        assert scaled.best_value * c == pytest.approx(base.best_value, rel=1e-12)
        np.testing.assert_allclose(scaled.best_x, base.best_x, rtol=1e-9, atol=1e-12)
        assert (scaled.significant, scaled.reference_triple) == (
            base.significant, base.reference_triple)
        assert scaled.triple_values.keys() == base.triple_values.keys()
        for triple, value in scaled.triple_values.items():
            assert value * c == pytest.approx(base.triple_values[triple], rel=1e-12)

    def test_search_memory_stays_bounded(self):
        # the benchmark's check: each inner evaluation holds a few arrays of
        # its round's iterates, so the traced peak stays near 0.5 MB
        tracemalloc.start()
        try:
            three_d_concentration_check(self.SPECTRUM, 0.5, 0.8, n_outer=20, seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


def scalar_worst_value_3d(mu_triple, gamma, mu0):
    """Oracle of :func:`conelab._worst_value_3d`: its zoom with one scalar instance per point."""
    mu_j, mu_k, _ = mu_triple
    delta0 = (mu_j - mu0) / (mu0 - mu_k)

    def value_at(u):
        setup = WorstCaseSetup(mus=np.asarray(mu_triple), gamma=gamma, delta=delta0,
                               t=10.0 ** u)
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
        us = center + spacing * np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0])
    return float(best)


def check_triples(rng, n):
    """Unit-scale mus of a random ``n``-spectrum, a level, a gamma and the check's triples."""
    mus = np.sort(rng.uniform(0.05, 3.0, size=n))[::-1]
    while np.min(-np.diff(mus)) < 1e-3:
        mus = np.sort(rng.uniform(0.05, 3.0, size=n))[::-1]
    mus = unit_scale(mus)[0]
    i = int(rng.integers(0, n - 2))  # a level in (mus[i+1], mus[i]), above mus[-2]
    mu0 = mus[i + 1] + rng.uniform(0.05, 0.95) * (mus[i] - mus[i + 1])
    triples = [(mus[j], mus[k], mus[l]) for j in range(n - 2) for k in range(j + 1, n - 1)
               for l in range(k + 1, n) if mus[k] < mu0 < mus[j]]
    return mu0, rng.uniform(0.05, 0.95), triples


class TestWorstValue3d:
    # The batched closed-form reference against the scalar worst-case instance

    @staticmethod
    def cases():
        """The benchmark check's three triples, then those of random checks at n = 3 to 5."""
        mus = unit_scale(np.asarray(TestConcentrationCheck.SPECTRUM.mus, dtype=float))[0]
        for triple in ((0, 1, 2), (0, 1, 3), (0, 2, 3)):
            yield tuple(mus[list(triple)]), 0.5, 0.8
        rng = np.random.default_rng(28)
        for n in (3, 4, 5):
            for _ in range(3):
                mu0, gamma, triples = check_triples(rng, n)
                yield from ((triple, gamma, mu0) for triple in triples)

    def test_grid_values_match_the_scalar_instance(self):
        rng = np.random.default_rng(5)
        for triple, gamma, mu0 in self.cases():
            mu_j, mu_k, _ = triple
            delta = (mu_j - mu0) / (mu0 - mu_k)
            unit, e = unit_scale(np.asarray(triple))
            _, a, b = conelab._level_set(unit, delta)
            us = np.concatenate([np.linspace(-3.0, 3.0, 61), rng.uniform(-3.1, 3.1, 20)])
            ts = [10.0 ** u for u in us.tolist()]
            batched = conelab._worst_mu_after(unit, gamma, a, b, ts)
            for t, value in zip(ts, batched):
                scalar = worst_case_instance(WorstCaseSetup(mus=np.asarray(triple), gamma=gamma,
                                                            delta=delta, t=t)).mu_after
                assert abs(math.ldexp(value, e) - scalar) <= 4 * math.ulp(scalar), (triple, t)

    def test_zoom_matches_the_scalar_zoom(self):
        for triple, gamma, mu0 in list(self.cases())[::3]:
            expected = scalar_worst_value_3d(triple, gamma, mu0)
            got = conelab._worst_value_3d(triple, gamma, mu0)
            assert abs(got - expected) <= 4 * math.ulp(expected), triple

    def test_empty_cone_raises_as_the_instance_does(self):
        # below the stationary floor, as in TestWorstCaseInstance.test_stationary_floor
        mus = np.array([1.0, 0.5, 0.1])
        t = t_star(4.0 / 9.0, 0.5)
        for delta, raises in ((1e-24, False), (1e-26, True)):
            _, a, b = conelab._level_set(mus, delta)
            if raises:
                with pytest.raises(StationaryPointError):
                    worst_case_instance(WorstCaseSetup(mus=mus, gamma=0.5, delta=delta, t=t))
                with pytest.raises(StationaryPointError):
                    conelab._worst_mu_after(mus, 0.5, a, b, [1.0, t])
            else:
                value = conelab._worst_mu_after(mus, 0.5, a, b, [t])[0]
                scalar = worst_case_instance(
                    WorstCaseSetup(mus=mus, gamma=0.5, delta=delta, t=t)).mu_after
                assert abs(value - scalar) <= 4 * math.ulp(scalar)


class TestWorstCaseInstance:
    @pytest.mark.parametrize("power", [700, -700, 2, -2])
    def test_a_power_of_four_keeps_every_bit(self, power):
        # the instance is built and stepped at unit scale; its mu values go
        # back to the setup's units by the exact power
        mus = np.array([1.0, 0.5, 0.1])
        t = t_star(4.0 / 9.0, 0.5)
        base = WorstCaseSetup(mus=mus, gamma=0.5, delta=1e-8, t=t)
        setup = WorstCaseSetup(mus=np.ldexp(mus, power), gamma=0.5, delta=1e-8, t=t)
        assert np.array_equal(setup.mus, np.ldexp(mus, power))
        assert setup.mu == math.ldexp(base.mu, power)
        assert np.array_equal(setup.x, base.x)
        assert (setup.kappa, setup.sigma) == (base.kappa, base.sigma)
        want, got = worst_case_instance(base), worst_case_instance(setup)
        assert np.array_equal(got.d, np.ldexp(want.d, power))
        assert (got.mu_before, got.mu_after) == (math.ldexp(want.mu_before, power),
                                                  math.ldexp(want.mu_after, power))
        assert (got.delta_before, got.delta_after, got.measured_ratio, got.predicted_ratio) == (
            want.delta_before, want.delta_after, want.measured_ratio, want.predicted_ratio)

    def test_a_spread_beyond_the_double_range_is_named(self):
        with pytest.raises(ValueError, match="^mus spread by about 1e310 "):
            WorstCaseSetup(mus=np.array([1e300, 0.5, 1e-10]), gamma=0.5, delta=1e-4, t=1.0)

    def test_frozen_hand_values(self):
        mus = np.array([1.0, 0.5, 0.1])
        setup = WorstCaseSetup(mus=mus, gamma=0.5, delta=1e-4, t=0.4)
        assert setup.kappa == pytest.approx(4.0 / 9.0, rel=1e-15)
        assert setup.sigma == pytest.approx(11.0 / 16.0, rel=1e-15)
        result = worst_case_instance(setup)
        assert result.predicted_ratio == pytest.approx(0.47265625, rel=1e-15)

    def test_kappa_and_sigma_squared_are_those_of_certify_step(self):
        # The setup's kappa and predicted sigma^2 are the bits certify_step
        # judges a run's PSD step by on the same spectrum.
        rng = np.random.default_rng(0)
        for _ in range(20_000):
            mus = np.sort(rng.uniform(0.01, 1.0, size=3))[::-1]
            gamma = float(rng.uniform(0.0, 1.0))
            setup = WorstCaseSetup(mus=mus, gamma=gamma, delta=1e-3, t=1.0)
            spectrum = Spectrum(1.0 / mus)
            check = bounds.certify_step(spectrum, gamma, 0, (1.0, 0.5), kind="psd")
            assert setup.kappa == bounds.kappa(spectrum, 0)
            assert setup.sigma ** 2 == check.sigma_squared
        assert worst_case_instance(setup).predicted_ratio == check.sigma_squared

    def test_t_star_hand_value(self):
        assert t_star(4.0 / 9.0, 0.5) == pytest.approx(math.sqrt(15.0) / 9.0, rel=1e-14)

    def test_level_reproduced(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            mus = np.sort(rng.uniform(0.05, 3.0, size=3))[::-1]
            setup = WorstCaseSetup(
                mus=mus, gamma=rng.uniform(0.05, 0.95),
                delta=10 ** rng.uniform(-6, 0.5), t=10 ** rng.uniform(-1.5, 1.5),
            )
            mu_num = (setup.x @ (mus * setup.x)) / (setup.x @ setup.x)
            assert mu_num == pytest.approx(setup.mu, rel=1e-12)
            # x lies on the level-set ellipse
            assert (setup.alpha0 / setup.a) ** 2 + (setup.beta0 / setup.b) ** 2 == (
                pytest.approx(1.0, rel=1e-13)
            )

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("mus", [(1.0, 0.5, 0.1), (2.0, 1.0, 0.25)])
    def test_sharpness_limit(self, gamma, mus):
        mus = np.asarray(mus)
        kappa = (mus[1] - mus[2]) / (mus[0] - mus[2])
        setup = WorstCaseSetup(mus=mus, gamma=gamma, delta=1e-8,
                               t=t_star(kappa, gamma))
        result = worst_case_instance(setup)
        ratio = result.measured_ratio / result.predicted_ratio
        assert 1.0 - 1e-3 <= ratio <= 1.0

    def test_gamma_zero_route(self):
        # vanishing gamma reduces to plain steepest descent with factor k/(2-k)
        mus = np.array([1.0, 0.5, 0.1])
        kappa = 4.0 / 9.0
        sigma0 = kappa / (2.0 - kappa)
        setup = WorstCaseSetup(mus=mus, gamma=0.0, delta=1e-8, t=math.sqrt(1 - kappa))
        result = worst_case_instance(setup)
        assert result.predicted_ratio == pytest.approx(sigma0**2, rel=1e-14)
        assert result.measured_ratio / result.predicted_ratio == pytest.approx(1.0, abs=1e-3)

    def test_gap_shrinks_with_delta(self):
        mus = np.array([1.0, 0.5, 0.1])
        gamma = 0.5
        t1 = t_star(4.0 / 9.0, gamma)
        gaps = []
        for delta in (1e-2, 1e-4, 1e-6, 1e-8):
            r = worst_case_instance(WorstCaseSetup(mus=mus, gamma=gamma, delta=delta, t=t1))
            gaps.append(r.predicted_ratio - r.measured_ratio)
        assert all(g > 0 for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("delta", [1e-4, 1e-12, 1e-16])
    def test_minor_semi_axis_exact_below_eps(self, delta):
        # b^2 = (mu_j - mu) / (mu - mu_l) at the exact level; subtracting the
        # rounded level from mu_j cancels, and at delta = 1e-16 gives b = 0
        mus = (1.0, 0.5, 0.1)
        setup = WorstCaseSetup(mus=np.array(mus), gamma=0.5, delta=delta, t=0.4)
        mu_j, mu_k, mu_l = (Fraction(m) for m in mus)
        d = Fraction(delta)
        mu = (mu_j + d * mu_k) / (1 + d)
        exact = float((mu_j - mu) / (mu - mu_l))
        assert setup.b ** 2 == pytest.approx(exact, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("gamma", [0.0, 0.2, 0.5, 0.8, 0.9])
    @pytest.mark.parametrize("mus", [(1.0, 0.5, 0.1), (2.0, 1.0, 0.25)])
    def test_solver_step_matches_shifted_oracle(self, mus, gamma):
        # the solver's psd_step under the worst-aligned preconditioner
        # against the shifted evaluation, down to delta = 1e-18
        mus = np.array(mus)
        t = t_star((mus[1] - mus[2]) / (mus[0] - mus[2]), gamma)
        for exponent in range(2, 19):
            setup = WorstCaseSetup(mus=mus, gamma=gamma, delta=10.0 ** -exponent, t=t)
            result = worst_case_instance(setup)
            ratio, mu_after = shifted_worst_case_step(setup)
            assert result.measured_ratio == pytest.approx(ratio, rel=1e-12, abs=0.0)
            assert result.mu_after == pytest.approx(mu_after, rel=1e-15, abs=0.0)
            assert result.delta_before == pytest.approx(
                setup.delta * mus[1] / mus[0], rel=1e-12, abs=0.0
            )

    def test_stationary_floor(self):
        # below the floor the cone is numerically empty and nothing steps
        mus = np.array([1.0, 0.5, 0.1])
        t = t_star(4.0 / 9.0, 0.5)
        deep = worst_case_instance(WorstCaseSetup(mus=mus, gamma=0.5, delta=1e-24, t=t))
        assert deep.measured_ratio == pytest.approx(deep.predicted_ratio, rel=1e-9)
        with pytest.raises(StationaryPointError):
            worst_case_instance(WorstCaseSetup(mus=mus, gamma=0.5, delta=1e-26, t=t))

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("mus", [(1.0, 0.5, 0.1), (2.0, 1.0, 0.25)])
    def test_worst_step_certified_by_run(self, mus, gamma):
        # one certified step through run() holds at every delta, and from
        # 1e-12 on it sits within RATIO_TOL of sigma^2: the margin of the
        # verdict is measured, not assumed
        pencil = generate_problem("diagonal", lambdas=1.0 / np.array(mus))
        form = diagonalize(pencil)
        t = t_star((mus[1] - mus[2]) / (mus[0] - mus[2]), gamma)
        for exponent in range(4, 19):
            delta = 10.0 ** -exponent
            setup = WorstCaseSetup(mus=form.mus, gamma=gamma, delta=delta, t=t)
            cone = setup.cone()
            precond = worst_aligned_preconditioner(cone, worst_direction(cone))
            result = run(pencil, precond, form.from_diagonal(setup.x), "psd",
                         max_steps=1, residual_tol=0.0)
            check = result.records[1].bound
            assert check.verdict == HOLDS, (delta, check.note)
            if exponent in (12, 14, 16):
                assert check.ratio / check.sigma_squared >= 1.0 - 1e-9

    def test_invalid_inputs(self):
        mus = np.array([1.0, 0.5, 0.1])
        with pytest.raises(ValueError):
            WorstCaseSetup(mus=mus, gamma=0.5, delta=0.0, t=1.0)
        with pytest.raises(ValueError):
            WorstCaseSetup(mus=mus, gamma=0.5, delta=1e-4, t=-1.0)
        with pytest.raises(ValueError):
            WorstCaseSetup(mus=np.array([1.0, 1.0, 0.5]), gamma=0.5, delta=1e-4, t=1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="delta"):
                WorstCaseSetup(mus=mus, gamma=0.5, delta=bad, t=1.0)
            with pytest.raises(ValueError, match="t must"):
                WorstCaseSetup(mus=mus, gamma=0.5, delta=1e-4, t=bad)
            with pytest.raises(ValueError, match="mus"):
                WorstCaseSetup(mus=np.array([1.0, bad, 0.1]), gamma=0.5, delta=1e-4, t=1.0)
            with pytest.raises(ValueError, match="mus"):
                ConeSpec(mus=np.array([1.0, bad, 0.1]), x=np.ones(3), gamma=0.5)
            with pytest.raises(ValueError, match="x must"):
                ConeSpec(mus=mus, x=np.array([1.0, bad, 0.1]), gamma=0.5)


@dataclass(frozen=True)
class EllipseQuantities:
    """Intercepts of the tangent line and the tangent-ellipse axis ratio."""

    c_k: float
    c_l: float
    axis_ratio: float
    c_l_infinite: bool = False


def _big_gamma(setup):
    """``Gamma = sqrt(1 - gamma^2) / gamma`` of an instance with ``gamma > 0``."""
    return math.sqrt(1.0 - setup.gamma * setup.gamma) / setup.gamma


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
    """Tangent-line intercepts and tangent-ellipse axis ratio of one instance.

    The oracle of :func:`axis_ratio_closed_form`: the line through
    ``S1 = (1, c_k, 0)`` and ``S2 = (1, 0, c_l)`` is the trace of the
    worst search plane, and ``axis_ratio = c_k^2 c_l^2 / (b^2 c_k^2 +
    a^2 c_l^2)``.  When the ``c_l`` denominator vanishes the line is
    parallel to the third axis and the limit ``axis_ratio = c_k^2 / a^2``
    is used (flagged).
    """
    num, den_k, den_l = _intercepts(setup, _big_gamma(setup))
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


_SPEC4 = Spectrum(lambdas=1.0 / np.array([1.0, 0.6, 0.3, 0.1]))


class TestArgumentChecks:
    @pytest.mark.parametrize("build, message", [
        (lambda: ConeSpec(mus=MUS[:2], x=np.ones(3), gamma=0.5),
         "cone geometry is three-dimensional"),
        (lambda: ConeSpec(mus=MUS, x=np.ones(4), gamma=0.5), "cone geometry is three-dimensional"),
        (lambda: ConeSpec(mus=MUS, x=np.ones(3), gamma=1.0), r"gamma must lie in \[0, 1\)"),
        (lambda: ConeSpec(mus=MUS, x=np.ones(3), gamma=math.nan), r"gamma must lie in \[0, 1\)"),
        (lambda: t_star(0.0, 0.5), r"kappa must lie in \(0, 1\)"),
        (lambda: t_star(1.0, 0.5), r"kappa must lie in \(0, 1\)"),
        (lambda: t_star(0.5, 1.0), r"gamma must lie in \[0, 1\)"),
        (lambda: WorstCaseSetup(mus=MUS, gamma=-0.1, delta=0.1, t=1.0),
         r"gamma must lie in \[0, 1\)"),
        (lambda: axis_ratio_closed_form(0.1, 1.0, 0.5, 0.0),
         r"gamma must lie in \(0, 1\) for the closed form"),
        (lambda: axis_ratio_closed_form(0.1, 1.0, 1.0, 0.5), r"kappa must lie in \(0, 1\)"),
        (lambda: three_d_concentration_check(Spectrum(lambdas=np.arange(1.0, 7.0)), 0.5, 0.5,
                                             seed=1),
         r"the concentration check is a desk-scale tool \(n in \{3, 4, 5\}\)"),
        (lambda: three_d_concentration_check(_SPEC4, 0.0, 0.8, seed=1),
         r"gamma must lie in \(0, 1\)"),
        (lambda: three_d_concentration_check(_SPEC4, 0.5, 0.6, seed=1),
         "mu0 must lie strictly inside an eigenvalue interval"),
        (lambda: three_d_concentration_check(_SPEC4, 0.5, 1.5, seed=1),
         "mu0 must lie strictly inside an eigenvalue interval"),
    ])
    def test_bad_arguments_rejected(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


class TestEllipseQuantities:
    def test_tangent_line_orthogonal_to_ball_radius(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            mus = np.sort(rng.uniform(0.05, 3.0, size=3))[::-1]
            setup = WorstCaseSetup(
                mus=mus, gamma=rng.uniform(0.05, 0.95),
                delta=10 ** rng.uniform(-5, 0.5), t=10 ** rng.uniform(-1.5, 1.5),
            )
            eq = ellipse_quantities(setup)
            if not np.isfinite(eq.c_l):
                continue
            result = worst_case_instance(setup)
            bx_minus_d = mus * setup.x - result.d
            s1 = np.array([1.0, eq.c_k, 0.0])
            s2 = np.array([1.0, 0.0, eq.c_l])
            scale = np.linalg.norm(bx_minus_d)
            assert abs(bx_minus_d @ s1) <= 1e-10 * scale * np.linalg.norm(s1)
            assert abs(bx_minus_d @ s2) <= 1e-10 * scale * np.linalg.norm(s2)

    def test_gamma_one_limit_intercept(self):
        # at vanishing Gamma the k-intercept reduces to a^2 / alpha0
        mus = np.array([1.0, 0.5, 0.1])
        setup = WorstCaseSetup(mus=mus, gamma=0.5, delta=0.3, t=0.8)
        num, den_k, _ = _intercepts(setup, 0.0)
        assert num / den_k == pytest.approx(setup.a**2 / setup.alpha0, rel=1e-13)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            mus = np.sort(rng.uniform(0.05, 3.0, size=3))[::-1]
            gamma = rng.uniform(0.05, 0.95)
            delta = 10 ** rng.uniform(-6, 0.5)
            t = 10 ** rng.uniform(-2, 2)
            setup = WorstCaseSetup(mus=mus, gamma=gamma, delta=delta, t=t)
            eq = ellipse_quantities(setup)
            if not np.isfinite(eq.c_l):
                continue
            cf = axis_ratio_closed_form(delta, t, setup.kappa, gamma)
            assert eq.axis_ratio == pytest.approx(cf, rel=1e-8)
        # the intercepts take the level's distances in closed form, so the
        # ratio keeps its accuracy where mu_j - mu would cancel
        mus = np.array([1.0, 0.5, 0.1])
        for gamma in (0.2, 0.5, 0.8):
            t = t_star(4.0 / 9.0, gamma)
            for delta in (1e-12, 1e-14, 1e-16, 1e-18):
                setup = WorstCaseSetup(mus=mus, gamma=gamma, delta=delta, t=t)
                cf = axis_ratio_closed_form(delta, t, setup.kappa, gamma)
                assert ellipse_quantities(setup).axis_ratio == pytest.approx(cf, rel=1e-12)

    def test_axis_ratio_bounded_by_sigma_squared(self):
        mus = np.array([1.0, 0.5, 0.1])
        gamma = 0.5
        kappa = 4.0 / 9.0
        sigma_sq = (11.0 / 16.0) ** 2
        t1 = t_star(kappa, gamma)
        for delta in np.logspace(-8, 0, 9):
            for t in np.logspace(-1.5, 1.5, 13):
                ar = axis_ratio_closed_form(delta, t, kappa, gamma)
                assert ar <= sigma_sq * (1.0 + 1e-12)
        # equality approached at delta -> 0, t -> t1
        assert axis_ratio_closed_form(0.0, t1, kappa, gamma) == pytest.approx(
            sigma_sq, rel=1e-14
        )
        assert axis_ratio_closed_form(1e-8, t1, kappa, gamma) == pytest.approx(
            sigma_sq, rel=1e-6
        )

    def test_invalid_invariants_rejected(self):
        for args in ((math.nan, 1.0, 0.5, 0.5), (0.1, math.nan, 0.5, 0.5),
                     (math.inf, 1.0, 0.5, 0.5), (0.1, math.inf, 0.5, 0.5),
                     (-0.1, 1.0, 0.5, 0.5), (0.1, 0.0, 0.5, 0.5)):
            with pytest.raises(ValueError, match="delta must be finite"):
                axis_ratio_closed_form(*args)

    def test_overflowing_terms_rejected(self):
        # t * t overflows (this gave NaN), (1 + delta) times the Gamma term
        # overflows (this gave 0.0, against a true value of about 0.268),
        # and Gamma**2 overflows (this raised OverflowError)
        for args in ((0.1, 1e200, 0.5, 0.5), (1e308, 1.0, 0.5, 0.5), (0.1, 1.0, 0.5, 1e-160)):
            with pytest.raises(ValueError, match="out of range"):
                axis_ratio_closed_form(*args)
        # just inside the range the ratio is finite and near its limit
        assert axis_ratio_closed_form(1e307, 1.0, 0.5, 0.5) == pytest.approx(0.268, abs=1e-3)
        assert math.isfinite(axis_ratio_closed_form(0.1, 1e150, 0.5, 0.5))

    def test_reciprocal_monotone_in_delta(self):
        # finite differences of 1/axis_ratio stay positive
        kappa, gamma = 0.3, 0.6
        for t in (0.2, 0.7, 2.0):
            deltas = np.linspace(0.0, 2.0, 40)
            f_vals = np.array(
                [1.0 / axis_ratio_closed_form(d, t, kappa, gamma) for d in deltas]
            )
            assert np.all(np.diff(f_vals) > 0)

    def test_c_l_infinite_limit_is_continuous(self):
        # straddle the degenerate tangent line and compare with the limit
        from scipy.optimize import brentq

        mus = np.array([1.0, 0.5, 0.1])
        gamma, delta = 0.5, 0.3

        def den_l(t):
            s = WorstCaseSetup(mus=mus, gamma=gamma, delta=delta, t=t)
            return _intercepts(s, _big_gamma(s))[2]

        t0 = brentq(den_l, 1.0, 2.0, xtol=1e-15)
        flagged = ellipse_quantities(WorstCaseSetup(mus=mus, gamma=gamma, delta=delta, t=t0))
        assert flagged.c_l_infinite
        nearby = ellipse_quantities(
            WorstCaseSetup(mus=mus, gamma=gamma, delta=delta, t=t0 * (1 + 1e-7))
        )
        assert flagged.axis_ratio == pytest.approx(nearby.axis_ratio, rel=1e-5)


class TestHouseholderReduce:
    """Reflections through the coordinate planes: ``x -> np.abs(x)``."""

    def test_sign_flip_preserves_mu(self):
        x = np.array([1.0, -1.0, 1.0])
        reduced = np.abs(x)
        np.testing.assert_array_equal(reduced, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(reduced * np.sign(x), x)
        mu = lambda v: (v @ (MUS * v)) / (v @ v)
        assert mu(x) == mu(reduced)

    def test_cone_minimum_invariant_under_reflection(self):
        mus = np.array([1.0, 0.5, 0.25])
        x = np.array([1.0, 0.8, 0.6])
        flipped = x * np.array([1.0, -1.0, 1.0])
        base, _ = brute_force_cone_min(ConeSpec(mus=mus, x=x, gamma=0.4), 20_000)
        refl, _ = brute_force_cone_min(ConeSpec(mus=mus, x=flipped, gamma=0.4), 20_000)
        assert refl == pytest.approx(base, abs=1e-10)
