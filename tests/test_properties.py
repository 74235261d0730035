"""Property-based invariants of the closed-form algebra and the spin model."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poppersim.experiments as ex
import poppersim.gaussian_core as gc
import poppersim.spin_model as sm
from poppersim.errors import DomainError
from poppersim.gaussian_core import (
    GaussianParam,
    PhysParams,
    PropagationLeg,
    SlitSpec,
)

from conftest import BIG_OMEGA

PARAMS = PhysParams(wavelength_mm=702e-6)

positive_scale = st.floats(min_value=0.01, max_value=10.0)
distance = st.floats(min_value=0.0, max_value=5000.0)
gamma_re = st.floats(min_value=1e-4, max_value=100.0)
gamma_im = st.floats(min_value=-100.0, max_value=100.0)


class TestGammaAlgebra:
    @given(re=gamma_re, im=gamma_im, L1=distance, L2=distance)
    def test_propagation_additivity(self, re, im, L1, L2):
        gamma = GaussianParam(complex(re, im))
        stepped = gc.propagate_conditional(
            gc.propagate_conditional(gamma, PropagationLeg(L1), PARAMS),
            PropagationLeg(L2), PARAMS)
        direct = gc.propagate_conditional(gamma, PropagationLeg(L1 + L2), PARAMS)
        assert stepped.gamma == pytest.approx(direct.gamma, rel=1e-12)

    @given(eps=positive_scale, a=positive_scale, omega=positive_scale,
           L1=distance, L2=distance)
    def test_positivity_preserved(self, eps, a, omega, L1, L2):
        state = gc.make_epr_state(a, omega)
        gamma = gc.condition_on_gaussian_slit(
            state, SlitSpec(kind="gaussian", epsilon=eps),
            PropagationLeg(L1), PARAMS)
        assert gamma.gamma.real > 0
        out = gc.propagate_conditional(gamma, PropagationLeg(L2), PARAMS)
        assert out.gamma.real > 0

    @given(eps=positive_scale, a=positive_scale, omega=positive_scale,
           L1=distance)
    def test_momentum_spread_bound(self, eps, a, omega, L1):
        state = gc.make_epr_state(a, omega)
        gamma = gc.condition_on_gaussian_slit(
            state, SlitSpec(kind="gaussian", epsilon=eps),
            PropagationLeg(L1), PARAMS)
        conditional = gc.momentum_spread_conditional(gamma)
        initial = gc.momentum_uncertainty(state)
        assert conditional < initial * (1.0 + 1e-12)

    @given(eps=st.floats(min_value=0.01, max_value=0.5),
           a=st.floats(min_value=0.02, max_value=1.0),
           L1=st.floats(min_value=0.0, max_value=1000.0))
    def test_exact_matches_approx_for_wide_source(self, eps, a, L1):
        # validity window: omega >> eps, a/2 and omega^2 >> Lambda*L1
        omega = 100.0 * max(eps, a / 2.0,
                            math.sqrt(PARAMS.rescaled_wavelength_mm * max(L1, 1.0)))
        state = gc.make_epr_state(a, omega)
        gamma = gc.condition_on_gaussian_slit(
            state, SlitSpec(kind="gaussian", epsilon=eps),
            PropagationLeg(L1), PARAMS)
        exact = gc.momentum_spread_conditional(gamma)
        approx = gc.momentum_spread_conditional_approx(eps, a, omega, L1, PARAMS)
        assert approx == pytest.approx(exact, rel=0.01)


class TestVirtualSlit:
    @given(eps=st.floats(min_value=0.02, max_value=0.5),
           a=st.floats(min_value=0.01, max_value=0.5),
           L1=st.floats(min_value=0.0, max_value=900.0),
           L2=st.floats(min_value=0.0, max_value=900.0))
    def test_split_invariance_wide_source(self, eps, a, L1, L2):
        # detector-plane Gamma depends on the legs only through 2*L1 + L2
        state = gc.make_epr_state(a, BIG_OMEGA)
        slit = SlitSpec(kind="gaussian", epsilon=eps)

        def gamma_at(l1, l2):
            g = gc.condition_on_gaussian_slit(state, slit, PropagationLeg(l1),
                                              PARAMS)
            return gc.propagate_conditional(g, PropagationLeg(l2), PARAMS).gamma

        total = 2.0 * L1 + L2
        g_split = gamma_at(L1, L2)
        g_flat = gamma_at(0.0, total)
        assert abs(g_split - g_flat) <= 1e-10 * abs(g_flat) + 1e-12

    @given(eps=st.floats(min_value=0.02, max_value=0.5),
           a=st.floats(min_value=0.01, max_value=0.5),
           L1=st.floats(min_value=10.0, max_value=900.0),
           L2=st.floats(min_value=0.0, max_value=900.0))
    def test_back_propagation_recovers_source_width(self, eps, a, L1, L2):
        # undoing the full effective flight leaves a real Gamma of squared
        # width eps^2 + a^2: the virtual slit sits at the real slit's plane
        state = gc.make_epr_state(a, BIG_OMEGA)
        slit = SlitSpec(kind="gaussian", epsilon=eps)
        g = gc.condition_on_gaussian_slit(state, slit, PropagationLeg(L1), PARAMS)
        g = gc.propagate_conditional(g, PropagationLeg(L2), PARAMS).gamma
        total = 2.0 * L1 + L2
        back = g - 1j * PARAMS.rescaled_wavelength_mm * total
        assert abs(back.imag) <= 1e-6 * abs(back.real)
        assert back.real == pytest.approx(eps * eps + a * a, rel=1e-5)


class TestFitForwardConsistency:
    @given(eps=st.floats(min_value=0.02, max_value=0.5),
           a=st.floats(min_value=0.01, max_value=0.5),
           L2=st.floats(min_value=100.0, max_value=2000.0))
    def test_some_root_recovers_scale(self, eps, a, L2):
        s2 = eps * eps + a * a
        lam_l = PARAMS.rescaled_wavelength_mm * L2
        W = math.sqrt(s2 + lam_l * lam_l / s2)
        fit = ex.fit_sigma_from_width(gc.fwhm_from_width(W), 0.0, L2, PARAMS)
        s = math.sqrt(s2)
        best = min(abs(fit.branch_info["s_near_mm"] / s - 1.0),
                   abs(fit.branch_info["s_far_mm"] / s - 1.0))
        assert best < 1e-6


class TestSpinProperties:
    alphas = st.floats(min_value=0.0, max_value=math.sqrt(0.5) - 1e-6)

    @given(alpha=alphas)
    def test_probability_conservation(self, alpha):
        beta = math.sqrt(1.0 - 2.0 * alpha ** 2)
        state = sm.make_popper_spin_state(alpha, beta)
        for particle in ("A", "B"):
            for axis in ("x", "z"):
                assert sum(sm.marginal_probabilities(state, particle, axis)) == \
                    pytest.approx(1.0, abs=1e-12)

    @given(alpha=alphas)
    @example(alpha=0.0)
    def test_zero_marginal_exactly_where_conditioning_refuses(self, alpha):
        beta = math.sqrt(1.0 - 2.0 * alpha ** 2)
        state = sm.make_popper_spin_state(alpha, beta)
        for particle in ("A", "B"):
            for axis in ("x", "z"):
                marginal = sm.marginal_probabilities(state, particle, axis)
                for value, p in zip(sm.EIGENVALUES, marginal):
                    try:
                        sm.condition_on(state, particle, axis, value)
                    except DomainError:
                        assert p == 0.0
                    else:
                        assert p != 0.0

    @given(alpha=st.floats(min_value=1e-3, max_value=math.sqrt(0.5) - 1e-6))
    def test_x_correlation(self, alpha):
        beta = math.sqrt(1.0 - 2.0 * alpha ** 2)
        state = sm.make_popper_spin_state(alpha, beta)
        out = sm.condition_on(state, "A", "x", 0)
        np.testing.assert_allclose(
            sm.marginal_probabilities(out.post_state, "B", "x"),
            (0.0, 1.0, 0.0), atol=1e-12)

    @given(alpha=alphas)
    def test_conditioning_preserves_normalization(self, alpha):
        beta = math.sqrt(1.0 - 2.0 * alpha ** 2)
        state = sm.make_popper_spin_state(alpha, beta)
        for value in sm.EIGENVALUES:
            try:
                out = sm.condition_on(state, "B", "z", value)
            except Exception:
                continue
            total = float(np.sum(np.abs(out.post_state.amplitudes) ** 2))
            assert total == pytest.approx(1.0, abs=1e-12)
