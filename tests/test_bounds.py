"""Convergence factors, interval-relative errors, and step certification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdlab import (
    IntervalError,
    SolverKind,
    Spectrum,
    bounds,
    certify_step,
    delta,
    factors,
    kappa,
    locate_interval,
    sigma,
)
from psdlab.bounds import HOLDS, PASSED_LAMBDA_I, VIOLATED


@pytest.fixture
def spec124():
    return Spectrum(lambdas=np.array([1.0, 2.0, 4.0]))


def _lambda_delta(spec, i, rho):
    """``delta(spec, i, rho)``, or its negative value for a ``rho`` below lambda_i."""
    lam = spec.lambdas
    return delta(spec, i, rho) if rho >= lam[i] else (rho - lam[i]) / (lam[i + 1] - rho)


def _step(spec, rho_before, rho_after):
    """``(i, deltas)`` of the step ``rho_before -> rho_after``, as certify_step takes them."""
    i = locate_interval(spec, rho_before)
    return i, (_lambda_delta(spec, i, rho_before), _lambda_delta(spec, i, rho_after))


class TestDelta:
    def test_midpoint(self):
        s = Spectrum(lambdas=np.array([1.0, 2.0, 8.0]))
        assert delta(s, 0, 1.5) == pytest.approx(1.0)

    def test_left_boundary_is_zero(self, spec124):
        assert delta(spec124, 0, 1.0) == 0.0

    def test_hand_value(self, spec124):
        assert delta(spec124, 0, 1.2) == pytest.approx(0.25, rel=1e-14)

    def test_outside_interval_raises(self, spec124):
        with pytest.raises(IntervalError):
            delta(spec124, 0, 2.0)
        with pytest.raises(IntervalError):
            delta(spec124, 0, 0.5)
        with pytest.raises(IntervalError):
            delta(spec124, 5, 1.5)

    def test_blows_up_at_right_boundary(self, spec124):
        assert delta(spec124, 0, 2.0 - 1e-12) > 1e11


class TestLocateInterval:
    def test_left_closed(self, spec124):
        assert locate_interval(spec124, 1.0) == 0
        assert locate_interval(spec124, 2.0) == 1
        assert locate_interval(spec124, 3.9) == 1

    def test_out_of_range(self, spec124):
        with pytest.raises(IntervalError):
            locate_interval(spec124, 4.0)
        with pytest.raises(IntervalError):
            locate_interval(spec124, 0.99)

    @staticmethod
    def _oracle(lam, value):
        """The index the numpy lookup gave before locate_interval bisected floats."""
        return int(np.searchsorted(lam, max(value, lam[0]), side="right")) - 1

    @given(
        n=st.integers(min_value=2, max_value=12),
        log10_cond=st.floats(min_value=0.0, max_value=12.0),
        shape=st.sampled_from(["random", "repeated", "lambda1_repeated", "clustered"]),
        fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_searchsorted_oracle(self, n, log10_cond, shape, fractions, seed):
        rng = np.random.default_rng(seed)
        lam = np.sort(10.0 ** rng.uniform(0.0, log10_cond, size=n))
        lam[0], lam[-1] = 1.0, max(10.0 ** log10_cond, 1.0)
        if shape == "repeated":
            lam[rng.integers(1, n)] = lam[rng.integers(0, n)]
        elif shape == "lambda1_repeated":
            lam[1] = lam[0]
        elif shape == "clustered":  # all within 1e-8 relative of lambda_1
            lam = lam[0] * (1.0 + 1e-8 * np.sort(rng.uniform(0.0, 1.0, size=n)))
        lam.sort()
        spec = Spectrum(lambdas=lam)
        lam = spec.lambdas
        bottom, top = lam[0], lam[-1]
        values = [bottom * (1.0 - 1e-13), np.nextafter(top, 0.0)]
        values += [bottom + f * (top - bottom) for f in fractions]
        for v in lam:
            values += [np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)]
        for v in map(float, values):
            if bottom * (1.0 - 1e-12) <= v < top:
                assert locate_interval(spec, v) == self._oracle(lam, v), (lam.tolist(), v)
            else:
                with pytest.raises(IntervalError):
                    locate_interval(spec, v)

    def test_repeated_lambda1_starts_at_its_last_copy(self):
        spec = Spectrum(lambdas=[1.0, 1.0, 1.0, 2.0, 4.0])
        assert locate_interval(spec, 1.0) == 2
        assert locate_interval(spec, 1.0 - 1e-13) == 2
        assert locate_interval(spec, np.nextafter(4.0, 0.0)) == 3


class TestKappa:
    def test_hand_value(self, spec124):
        assert kappa(spec124, 0) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_mu_form_agrees(self, spec124):
        mus = spec124.mus
        k_mu = (mus[1] - mus[2]) / (mus[0] - mus[2])
        assert kappa(spec124, 0) == pytest.approx(k_mu, rel=1e-14)

    def test_mu_form_agrees_random(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            lam = np.sort(np.exp(rng.uniform(0.0, 3.0, size=6)))
            lam += np.arange(6) * 1e-6  # enforce strict gaps
            s = Spectrum(lambdas=lam)
            for i in range(4):
                k_mu = (s.mus[i + 1] - s.mus[-1]) / (s.mus[i] - s.mus[-1])
                assert kappa(s, i) == pytest.approx(k_mu, rel=1e-14)

    def test_top_interval_rejected(self, spec124):
        with pytest.raises(ValueError, match="topmost"):
            kappa(spec124, 1)

    def test_vanishing_gap_to_top(self):
        s = Spectrum(lambdas=np.array([1.0, 4.0 - 1e-9, 4.0]))
        assert kappa(s, 0) < 1e-9

    def test_degenerate_gap_rejected(self):
        s = Spectrum(lambdas=np.array([1.0, 1.0, 4.0]))
        with pytest.raises(ValueError, match="strict gaps"):
            kappa(s, 0)

    def test_repeated_top_interval_rejected(self):
        # lambda_{i+1} == lambda_n by value, although i + 1 != n - 1
        s = Spectrum(lambdas=np.array([1.0, 2.0, 3.0, 3.0]))
        with pytest.raises(ValueError, match="topmost"):
            kappa(s, 1)


class TestSigma:
    def test_psd_gamma_zero(self, spec124):
        assert sigma(SolverKind.PSD, spec124, 0, 0.0) == pytest.approx(0.2, rel=1e-14)

    def test_psd_gamma_one_boundary(self, spec124):
        assert sigma(SolverKind.PSD, spec124, 0, 1.0) == pytest.approx(1.0, rel=1e-15)
        # beyond the boundary, and NaN, sigma and factors both refuse
        s = Spectrum(lambdas=[1.0, 2.0, 4.0, 8.0])
        for gamma in (1.5, math.nan, -0.2):
            with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\]"):
                sigma(SolverKind.PSD, s, 0, gamma)
            with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\]"):
                factors(s, 0, gamma)

    def test_psd_hand_value(self, spec124):
        assert sigma(SolverKind.PSD, spec124, 0, 0.5) == pytest.approx(7.0 / 11.0, rel=1e-14)

    def test_pinvit1_hand_value(self):
        s = Spectrum(lambdas=np.array([1.0, 2.0]))
        assert sigma(SolverKind.PINVIT1, s, 0, 0.5) == pytest.approx(0.75, rel=1e-15)

    def test_invit_kinds_ignore_gamma(self, spec124):
        assert sigma(SolverKind.INVIT1, spec124, 0, 0.9) == pytest.approx(0.5)
        assert sigma(SolverKind.INVIT2, spec124, 0, 0.9) == pytest.approx(0.2)

    def test_gamma_zero_reductions(self, spec124):
        assert sigma(SolverKind.PSD, spec124, 0, 0.0) == sigma(SolverKind.INVIT2, spec124, 0)
        assert sigma(SolverKind.PINVIT1, spec124, 0, 0.0) == sigma(SolverKind.INVIT1, spec124, 0)

    @pytest.mark.parametrize("lambdas, i", [([1.0, 2.0, 4.0], 1), ([1.0, 2.0, 3.0, 3.0], 1)])
    def test_top_interval_matches_certify_step(self, lambdas, i):
        # the public factor is the one certify_step uses: the limit kappa = 0
        s = Spectrum(lambdas=np.array(lambdas))
        rho = 0.5 * (s.lambdas[i] + s.lambdas[i + 1])
        check = certify_step(s, 0.3, *_step(s, rho, rho), kind="psd")
        assert check.interval_index == i
        assert sigma(SolverKind.PSD, s, i, 0.3) == pytest.approx(0.3, rel=1e-15)
        assert sigma(SolverKind.PSD, s, i, 0.3) ** 2 == check.sigma_squared
        f = factors(s, i, 0.3)
        assert f.kappa == 0.0
        assert f.sigma_psd ** 2 == check.sigma_squared
        assert f.sigma_invit2 == 0.0


class TestFactorMonotonicityAndHierarchy:
    def test_sigma_psd_increasing_in_kappa(self):
        # finite differences of the closed form on a grid; the derivative
        # 2 (1 - gamma^2) / ((2 - kappa) + gamma kappa)^2 never vanishes
        for gamma in (0.0, 0.3, 0.7, 0.95):
            ks = np.linspace(0.01, 0.99, 50)
            vals = (ks + gamma * (2 - ks)) / ((2 - ks) + gamma * ks)
            diffs = np.diff(vals)
            assert np.all(diffs > 0)
            mid = 0.5 * (ks[:-1] + ks[1:])
            expected = 2 * (1 - gamma**2) / ((2 - mid) + gamma * mid) ** 2
            np.testing.assert_allclose(diffs / np.diff(ks), expected, rtol=1e-3)

    def test_sigma_psd_increasing_in_gamma(self):
        for k in (0.05, 0.3, 0.8):
            gs = np.linspace(0.0, 0.99, 50)
            vals = (k + gs * (2 - k)) / ((2 - k) + gs * k)
            assert np.all(np.diff(vals) > 0)

    def test_hierarchy_on_grids(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            lam = np.sort(np.exp(rng.uniform(0.0, 4.0, size=8)))
            lam += np.arange(8) * 1e-6
            s = Spectrum(lambdas=lam)
            for i in range(6):
                for gamma in (0.0, 0.2, 0.5, 0.9):
                    f = factors(s, i, gamma)
                    assert f.sigma_invit1 <= f.sigma_pinvit1 + 1e-15
                    assert f.sigma_invit2 <= f.sigma_psd + 1e-15
                    assert f.sigma_invit2 <= f.sigma_invit1 + 1e-15
                    assert f.sigma_psd <= f.sigma_pinvit1 + 1e-15
                    for value in (f.sigma_invit1, f.sigma_pinvit1,
                                  f.sigma_invit2, f.sigma_psd):
                        assert 0.0 < value <= 1.0
                    if gamma == 0.0:
                        assert f.sigma_psd == f.sigma_invit2
                        assert f.sigma_pinvit1 == f.sigma_invit1

    def test_equality_only_at_gamma_zero(self, spec124):
        f0 = factors(spec124, 0, 0.0)
        assert f0.sigma_psd == f0.sigma_invit2
        f = factors(spec124, 0, 0.3)
        assert f.sigma_psd > f.sigma_invit2
        assert f.sigma_pinvit1 > f.sigma_invit1


class TestCertifyStep:
    def test_holds(self, spec124):
        # sigma^2 = 0.04 on the first interval; delta shrinks 1 -> 0.03/0.97
        check = certify_step(spec124, 0.0, *_step(spec124, 1.5, 1.03), kind="psd")
        assert check.verdict == HOLDS
        assert check.ratio == pytest.approx((0.03 / 0.97) / 1.0, rel=1e-12)
        assert check.slack > 0

    def test_passed_lambda_i(self, spec124):
        check = certify_step(spec124, 0.3, *_step(spec124, 2.5, 1.9), kind="psd")
        assert check.verdict == PASSED_LAMBDA_I
        assert check.interval_index == 1

    def test_stationary_boundary(self, spec124):
        check = certify_step(spec124, 0.3, *_step(spec124, 1.0, 1.0), kind="psd")
        assert check.verdict == PASSED_LAMBDA_I
        assert check.ratio is None

    def test_violation_detected(self, spec124):
        # a fake step that contracts less than sigma^2 allows
        sig_sq = sigma(SolverKind.PSD, spec124, 0, 0.0) ** 2
        rho_before = 1.5
        d_before = delta(spec124, 0, rho_before)
        target = d_before * sig_sq * 4.0
        rho_after = (target * 2.0 + 1.0) / (1.0 + target)
        check = certify_step(spec124, 0.0, *_step(spec124, rho_before, rho_after), kind="psd")
        assert check.verdict == VIOLATED
        assert check.ratio > check.sigma_squared

    def test_tolerance_absorbs_roundoff(self, spec124):
        sig_sq = sigma(SolverKind.PSD, spec124, 0, 0.5) ** 2
        d_before = delta(spec124, 0, 1.5)
        target = d_before * sig_sq * (1.0 + 1e-10)  # inside the 1e-9 band
        rho_after = (target * 2.0 + 1.0) / (1.0 + target)
        check = certify_step(spec124, 0.5, *_step(spec124, 1.5, rho_after), kind="psd")
        assert check.verdict == HOLDS

    def test_top_interval_uses_degenerate_kappa(self, spec124):
        check = certify_step(spec124, 0.5, *_step(spec124, 3.0, 2.2), kind="psd")
        assert check.interval_index == 1
        assert check.sigma_squared == pytest.approx(0.25, rel=1e-12)

    def test_repeated_top_eigenvalue_uses_degenerate_kappa(self):
        # lambda_{i+1} == lambda_n by value, although i + 1 != n - 1
        spec = Spectrum(lambdas=np.array([1.0, 2.0, 4.0, 4.0]))
        check = certify_step(spec, 0.5, *_step(spec, 3.0, 2.2), kind="psd")
        assert check.interval_index == 1
        assert check.sigma_squared == pytest.approx(0.25, rel=1e-12)

    def test_fixed_step_kinds_need_no_kappa(self):
        spec = Spectrum(lambdas=np.array([1.0, 2.0, 3.0, 3.0]))
        check = certify_step(spec, 0.5, *_step(spec, 2.5, 2.2), kind="pinvit1")
        assert check.sigma_squared == pytest.approx((0.5 + 0.5 * 2.0 / 3.0) ** 2)
        check = certify_step(spec, 0.0, *_step(spec, 2.5, 2.2), kind="invit1")
        assert check.sigma_squared == pytest.approx((2.0 / 3.0) ** 2)

    def test_repeated_bottom_eigenvalue_below_roundoff(self):
        # a value a roundoff below a repeated lambda_1 brackets at its last copy
        spec = Spectrum(lambdas=np.array([1.0, 1.0, 2.0, 3.0]))
        assert locate_interval(spec, 1.0 - 1e-15) == 1
        check = certify_step(spec, 0.3, *_step(spec, 1.0 - 1e-15, 1.0 - 1e-15), kind="psd")
        assert check.interval_index == 1
        assert check.verdict == PASSED_LAMBDA_I

    @pytest.mark.parametrize("i", [-1, 2])
    def test_interval_out_of_range_raises(self, spec124, i):
        with pytest.raises(IntervalError):
            certify_step(spec124, 0.3, i, (0.5, 0.1), kind="psd")

    def test_pinvit1_kind(self, spec124):
        check = certify_step(spec124, 0.5, *_step(spec124, 1.5, 1.3), kind="pinvit1")
        assert check.sigma_squared == pytest.approx(0.75**2, rel=1e-12)
        assert check.verdict == HOLDS


def numpy_scalar_sigma(kind, spectrum, i, gamma):
    """sigma() from the interval ends as numpy scalars, the reference for its bits."""
    lam = spectrum.lambdas
    if kind.exact_inverse:
        gamma = 0.0
    if not kind.line_search:
        return float(gamma + (1.0 - gamma) * float(lam[i] / lam[i + 1]))
    k = 0.0 if lam[i + 1] == lam[-1] else float(
        lam[i] * (lam[-1] - lam[i + 1]) / (lam[i + 1] * (lam[-1] - lam[i])))
    return float((k + gamma * (2.0 - k)) / ((2.0 - k) + gamma * k))


class TestCertifiedSigmaSquared:
    # certify_step takes sigma^2 per step from Python floats; every factor
    # must keep the bits of the numpy-scalar formula.
    LAMBDAS = [1.0, 1.5, 2.0, 4.0, 7.0, 7.0]  # a repeated lambda_n

    def test_factor_is_sigma_squared_under_interleaving(self):
        spec = Spectrum(lambdas=np.array(self.LAMBDAS))
        calls = [(kind, gamma, i)
                 for gamma in (0.0, 0.3, 0.9, 0.3, 0.55, 0.0)
                 for i in (4, 0, 2, 3, 1)
                 for kind in (SolverKind.PSD, SolverKind.INVIT1, SolverKind.PINVIT1,
                              SolverKind.INVIT2)]
        for kind, gamma, i in calls + calls[::-1]:
            check = certify_step(spec, gamma, i, (0.5, 0.1), kind=kind)
            effective = 0.0 if kind.exact_inverse else gamma
            expected = sigma(kind, spec, i, effective) ** 2
            assert check.sigma_squared.hex() == expected.hex(), (kind, gamma, i)
            assert expected.hex() == (numpy_scalar_sigma(kind, spec, i, gamma) ** 2).hex()
            assert check.gamma == effective
            if kind.exact_inverse:  # the exact inverse is gamma 0 whatever is passed
                assert expected == sigma(kind, spec, i, gamma) ** 2

    @given(lams=st.lists(st.floats(1e-6, 1e6), min_size=3, max_size=8),
           gamma=st.floats(0.0, 1.0), data=st.data())
    def test_sigma_keeps_the_bits_of_numpy_scalars(self, lams, gamma, data):
        spec = Spectrum(lambdas=np.sort(np.array(lams)))
        i = data.draw(st.integers(0, len(lams) - 2))
        lam = spec.lambdas
        for kind in SolverKind:
            if kind.line_search and lam[i + 1] != lam[-1] and not lam[i] < lam[i + 1]:
                continue  # kappa needs a strict gap there
            assert (sigma(kind, spec, i, gamma).hex()
                    == numpy_scalar_sigma(kind, spec, i, gamma).hex())

    @pytest.mark.parametrize("i", [3, 4])
    def test_repeated_largest_eigenvalue_takes_the_kappa_zero_limit(self, i):
        # lambda_{i+1} == lambda_n by value on both top intervals
        spec = Spectrum(lambdas=np.array(self.LAMBDAS))
        check = certify_step(spec, 0.3, i, (0.5, 0.1), kind="psd")
        assert check.sigma_squared == 0.3 ** 2
        check = certify_step(spec, 0.3, i, (0.5, 0.1), kind="invit2")
        assert check.sigma_squared == 0.0

    @pytest.mark.parametrize("i", [-1, 5, 6])
    def test_out_of_range_raises_interval_error(self, i):
        spec = Spectrum(lambdas=np.array(self.LAMBDAS))
        certify_step(spec, 0.3, 0, (0.5, 0.1), kind="psd")
        with pytest.raises(IntervalError):
            certify_step(spec, 0.3, i, (0.5, 0.1), kind="psd")
