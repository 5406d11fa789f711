"""Cone geometry: extremal directions, worst case, algebraic identities."""

import math
from dataclasses import dataclass
from fractions import Fraction

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
from psdlab.conelab import _cone_disc, _disc_min, _disc_worst, _perp_basis

MUS = np.array([1.0, 0.5, 0.25])


def random_cone(rng, gamma=None, nonnegative=True):
    mus = np.sort(rng.uniform(0.05, 3.0, size=3))[::-1]
    while np.min(-np.diff(mus)) < 1e-3:
        mus = np.sort(rng.uniform(0.05, 3.0, size=3))[::-1]
    x = rng.uniform(0.1, 1.0, size=3) if nonnegative else rng.standard_normal(3)
    g = rng.uniform(0.05, 0.95) if gamma is None else gamma
    return ConeSpec(mus=mus, x=x, gamma=g)


def ball_pattern(rng, k):
    """Sample pattern of the concentration check: 40 directions on 4 rings."""
    dirs = rng.standard_normal((40, k))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return np.concatenate([frac * dirs for frac in (1.0, 0.75, 0.5, 0.25)])


def dense_disc_min(mus, x, gamma, k):
    """Oracle of :func:`_disc_worst`: dense sampling of the unit ``k``-ball.

    50,000 seeded uniform points of the ball and as many of its sphere,
    then full grids of ``g^k`` points zooming on the best point until
    the grid is 1e-7 wide, every batch through one :func:`_disc_min`
    call.  It shares no step rule with the polish.
    """
    n_points = 50_000
    _, r, _, center, radius, _ = _cone_disc(mus, x[:, None], gamma)
    basis = _perp_basis(r)
    rng = np.random.default_rng(0)
    ys = rng.standard_normal((n_points, k))
    ys /= np.linalg.norm(ys, axis=1)[:, None]
    ys = np.concatenate([ys, ys * (rng.uniform(size=n_points) ** (1.0 / k))[:, None]])
    best, y = disc_min_one(mus, x, center, radius, basis, ys)
    g = {2: 201, 3: 31, 4: 13}[k]
    axis = np.linspace(-1.0, 1.0, g)
    grid = np.stack(np.meshgrid(*([axis] * k)), axis=-1).reshape(-1, k)
    w = 0.25
    while w > 1e-7:
        ys = y + w * grid
        ys /= np.maximum(1.0, np.linalg.norm(ys, axis=1))[:, None]
        value, y = disc_min_one(mus, x, center, radius, basis, ys)
        best = min(best, value)
        w *= 4.0 / (g - 1)  # the next grid spans two spacings of this one
    return best


def disc_min_one(mus, x, center, radius, basis, ys):
    """:func:`_disc_min` on a batch of one ``x`` (its disc data from a batch of one).

    ``ys`` holds the unit-ball points as rows; returns the smallest
    value and its ``y``.
    """
    value, _, y, _ = _disc_min(mus, x[:, None], center, radius, basis, ys.T[:, None, :])
    return float(value[0]), y[:, 0]


def disc_worst_one(mus, x, gamma, samples, refine):
    """:func:`_disc_worst` on a batch of one ``x``: its value and direction."""
    value, direction = _disc_worst(mus, np.asarray(x, dtype=float)[:, None], gamma, samples,
                                   refine=refine)
    return float(value[0]), direction[:, 0]


def count_ritz_gap_calls(monkeypatch):
    """Record the rows of each of conelab's :func:`ritz_gap` calls into the returned list."""
    calls = []
    real = conelab.ritz_gap

    def counted(*args):
        gaps = real(*args)
        calls.append(gaps.size)
        return gaps

    monkeypatch.setattr(conelab, "ritz_gap", counted)
    return calls


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
            _, r, _, center, radius, _ = _cone_disc(cone.mus, cone.x, cone.gamma)
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


class TestRitzGap:
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
    def test_samples_stay_in_ball(self):
        rng = np.random.default_rng(10)
        cone = random_cone(rng)
        xh = cone.x / np.linalg.norm(cone.x)
        angles = np.linspace(0.0, 2.0 * np.pi, 500, endpoint=False)
        circle = np.outer(np.cos(angles), cone.v) + np.outer(np.sin(angles), xh)
        for frac in (0.25, 0.5, 0.75, 1.0):
            assert in_ball(cone, cone.disc_center + cone.disc_radius * frac * circle)
        # the directions the production searches return
        for _ in range(20):
            cone = random_cone(rng)
            assert in_ball(cone, brute_force_cone_min(cone, 500)[1])
            samples = ball_pattern(rng, 2)
            for refine in (False, True):
                assert in_ball(cone, disc_worst_one(cone.mus, cone.x, cone.gamma,
                                                    samples, refine=refine)[1])

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


class TestDiscWorst:
    def test_matches_brute_force_oracle(self):
        # the batched polish against the assumption-free dense sampling
        rng = np.random.default_rng(14)
        for _ in range(40):
            cone = random_cone(rng)
            samples = ball_pattern(rng, 2)
            args = (cone.mus, cone.x, cone.gamma, samples)
            refined, _ = disc_worst_one(*args, refine=True)
            sampled, _ = disc_worst_one(*args, refine=False)
            brute, _ = brute_force_cone_min(cone, 20_000)
            assert abs(refined - brute) <= 1e-8
            assert refined <= brute + 1e-12 * abs(brute)
            assert refined <= sampled

    @pytest.mark.parametrize("n", [4, 5])
    def test_matches_dense_oracle_in_concentration_dimensions(self, n):
        # the dimensions the concentration check runs in (k = 3, 4)
        rng = np.random.default_rng(14 + n)
        for _ in range(8):
            mus = np.sort(rng.uniform(0.05, 3.0, size=n))[::-1]
            while np.min(-np.diff(mus)) < 1e-3:
                mus = np.sort(rng.uniform(0.05, 3.0, size=n))[::-1]
            x = rng.uniform(0.1, 1.0, size=n)
            gamma = rng.uniform(0.05, 0.95)
            samples = ball_pattern(rng, n - 1)
            refined, _ = disc_worst_one(mus, x, gamma, samples, refine=True)
            sampled, _ = disc_worst_one(mus, x, gamma, samples, refine=False)
            dense = dense_disc_min(mus, x, gamma, n - 1)
            assert abs(refined - dense) <= 1e-8
            assert refined <= dense + 1e-12 * abs(dense)
            assert refined <= sampled

    @pytest.mark.parametrize("x", [
        (0.8819171, 0.0, 0.0, 0.47140452),
        (-0.70710678, 0.70710678, 0.0, 0.0),
    ])
    def test_polish_ignores_rounding_level_gains(self, monkeypatch, x):
        # two-coordinate threshold iterates of the concentration check, where
        # the disc landscape is flat to about 1e-12: the polish takes 15-17
        # calls here; a strict `<` win test takes 49 at the first, because it
        # accepts gains below 1e-15 relative and then keeps doubling its step
        mus = np.array([1.0, 0.6, 0.3, 0.1])
        x = np.array(x)
        samples = ball_pattern(np.random.default_rng(45), 3)
        calls = count_ritz_gap_calls(monkeypatch)
        refined, _ = disc_worst_one(mus, x, 0.5, samples, refine=True)
        assert len(calls) <= 30
        monkeypatch.undo()
        assert abs(refined - dense_disc_min(mus, x, 0.5, 3)) <= 1e-8


class TestConcentrationCheck:
    SPECTRUM = Spectrum(lambdas=1.0 / np.array([1.0, 0.6, 0.3, 0.1]))

    @pytest.mark.parametrize("n_outer", [0, -1])
    def test_needs_an_outer_run(self, n_outer):
        with pytest.raises(ValueError, match="n_outer"):
            three_d_concentration_check(self.SPECTRUM, gamma=0.5, mu0=0.8,
                                        n_outer=n_outer, seed=1)

    @pytest.mark.parametrize("n_outer", [2.5, 2.0, True, "2", None])
    def test_n_outer_must_be_an_integer(self, monkeypatch, n_outer):
        monkeypatch.setattr(conelab, "ritz_gap", None)  # any search work would fail
        with pytest.raises(ValueError, match="n_outer"):
            three_d_concentration_check(self.SPECTRUM, gamma=0.5, mu0=0.8,
                                        n_outer=n_outer, seed=1)

    @pytest.mark.parametrize("seed", [None, 1.5, 1.0, -1, True, "1"])
    def test_seed_must_be_a_nonnegative_integer(self, monkeypatch, seed):
        monkeypatch.setattr(conelab, "ritz_gap", None)  # any search work would fail
        with pytest.raises(ValueError, match="seed"):
            three_d_concentration_check(self.SPECTRUM, gamma=0.5, mu0=0.8,
                                        n_outer=1, seed=seed)

    @pytest.mark.parametrize("gamma, mu0", [
        (None, 0.8), ("0.5", 0.8), (True, 0.8), (0.5, None), (0.5, "0.8"), (0.5, True),
    ])
    def test_gamma_and_mu0_must_be_real_numbers(self, monkeypatch, gamma, mu0):
        monkeypatch.setattr(conelab, "ritz_gap", None)  # any search work would fail
        name = "gamma" if not isinstance(gamma, float) else "mu0"
        with pytest.raises(ValueError, match=name):
            three_d_concentration_check(self.SPECTRUM, gamma=gamma, mu0=mu0,
                                        n_outer=1, seed=1)

    def test_bottom_interval_rejected(self, monkeypatch):
        # no invariant triple (j, k, l) has mus[k] < mu0 with an l below k
        monkeypatch.setattr(conelab, "ritz_gap", None)  # any search work would fail
        with pytest.raises(ValueError, match="bottom interval"):
            three_d_concentration_check(self.SPECTRUM, gamma=0.5, mu0=0.2, n_outer=1, seed=1)

    def test_numpy_floats_accepted(self, monkeypatch):
        # a flat cone objective: only the input handling is under test
        monkeypatch.setattr(conelab, "_disc_worst", lambda *args, **kwargs: (1.0, None))
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

    @pytest.mark.parametrize("seed", range(42, 58))
    def test_seed_sweep_within_call_budget(self, monkeypatch, seed):
        # criterion 10's gate at the benchmark's settings on 16 seeds; the
        # budgets are about 1.5x the most calls (1,210) and rows (3.86M) any
        # of these seeds takes
        calls = count_ritz_gap_calls(monkeypatch)
        report = three_d_concentration_check(self.SPECTRUM, gamma=0.5, mu0=0.8,
                                             n_outer=20, seed=seed)
        assert report.n_significant <= 3
        assert report.reference_triple == (0, 1, 3)
        assert report.beats_reference_by <= 1e-12
        assert len(calls) <= 1_800
        assert sum(calls) <= 5_800_000
        assert report.triple_values.keys() == self.TRIPLE_VALUES.keys()
        for triple, value in report.triple_values.items():
            pinned = self.TRIPLE_VALUES[triple]
            assert value <= pinned + 1e-12 * pinned, triple


class TestWorstCaseInstance:
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
