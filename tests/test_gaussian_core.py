"""Closed-form algebra: constructors, conditioning, widths, lens geometry.

Expected numbers fall in three buckets: exact constants asserted directly,
values frozen from independent grid-oracle runs (noted per test), and
published reference widths of the lens layout (0.657 / 2.0 / 0.217 mm).
"""

import math

import numpy as np
import pytest

import poppersim.gaussian_core as gc
from poppersim.errors import ConfigError, DomainError

from conftest import BIG_OMEGA

SQRT_A2 = math.sqrt(0.043)


class TestPhysParams:
    def test_rescaled_wavelength(self, params702):
        assert params702.rescaled_wavelength_mm == pytest.approx(
            702e-6 / math.pi, rel=1e-15)
        # the constant every reference width hangs off
        assert params702.rescaled_wavelength_mm == pytest.approx(
            2.2345354e-4, rel=1e-7)

    def test_mean_momentum(self, params702):
        assert params702.mean_momentum_rad_per_mm == pytest.approx(
            2.0 * math.pi / 702e-6, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            gc.PhysParams(wavelength_mm=0.0)
        with pytest.raises(DomainError):
            gc.PhysParams(wavelength_mm=-1.0)


class TestMakeEprState:
    def test_kim_shih_source(self):
        state = gc.make_epr_state(SQRT_A2, 2.0)
        assert state.gamma_u == pytest.approx(0.043)
        assert state.gamma_v == pytest.approx(16.0)
        assert state.at_source

    def test_separable_case(self):
        # a = 2*omega makes the two exponents equal and the state a product
        state = gc.make_epr_state(1.0, 0.5)
        assert state.gamma_u == pytest.approx(1.0)
        assert state.gamma_v == pytest.approx(1.0)

    def test_strekalov_source(self):
        state = gc.make_epr_state(0.04, 3.0)
        assert state.gamma_u == pytest.approx(0.0016)
        assert state.gamma_v == pytest.approx(36.0)

    @pytest.mark.parametrize("a,omega", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
    def test_rejects_nonpositive(self, a, omega):
        with pytest.raises(DomainError):
            gc.make_epr_state(a, omega)


class TestSourceUncertainties:
    def test_position_small_a_limit(self):
        state = gc.make_epr_state(1e-9, 2.0)
        assert gc.position_uncertainty(state) == pytest.approx(1.0, rel=1e-12)

    def test_position_kim_shih(self):
        # 0.5*sqrt(4 + 0.043/4); grid second moment agrees (test_grid_oracle)
        state = gc.make_epr_state(SQRT_A2, 2.0)
        assert gc.position_uncertainty(state) == pytest.approx(1.0013434, rel=1e-6)

    def test_position_symmetric(self):
        state = gc.make_epr_state(2.0, 1.0)
        assert gc.position_uncertainty(state) == pytest.approx(math.sqrt(2) / 2)

    def test_momentum_wide_source_limit(self):
        state = gc.make_epr_state(0.2074, 1e9)
        assert gc.momentum_uncertainty(state) == pytest.approx(1.0 / 0.2074, rel=1e-9)
        assert gc.momentum_uncertainty(state) == pytest.approx(4.8216, rel=1e-4)

    def test_momentum_kim_shih(self):
        state = gc.make_epr_state(SQRT_A2, 2.0)
        expected = math.sqrt(1.0 / 0.043 + 1.0 / 16.0)
        assert gc.momentum_uncertainty(state) == pytest.approx(expected, rel=1e-12)

    def test_momentum_product_case(self):
        state = gc.make_epr_state(1.0, 0.5)
        assert gc.momentum_uncertainty(state) == pytest.approx(math.sqrt(2.0))

    def test_rejects_evolved_state(self, params702):
        state = gc.evolve_free(gc.make_epr_state(1.0, 1.0),
                               gc.PropagationLeg(10.0), params702)
        with pytest.raises(DomainError):
            gc.position_uncertainty(state)
        with pytest.raises(DomainError):
            gc.momentum_uncertainty(state)


class TestInstantLocalization:
    def test_ideal_epr_limit(self):
        state = gc.make_epr_state(1e-9, 1e9)
        assert gc.instant_localization_width(0.1, state) == pytest.approx(0.1, rel=1e-9)

    def test_wide_source_finite_a(self):
        state = gc.make_epr_state(SQRT_A2, BIG_OMEGA)
        expected = math.sqrt(0.065 ** 2 + 0.043 / 4.0)
        got = gc.instant_localization_width(0.065, state)
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(0.122372, rel=1e-5)

    def test_finite_omega_narrows(self):
        state = gc.make_epr_state(1e-9, 1.0)
        got = gc.instant_localization_width(0.1, state)
        assert got == pytest.approx(math.sqrt(0.01 / 1.04), rel=1e-6)
        assert got < 0.1


class TestEvolveFree:
    def test_identity_at_zero(self, params702):
        state = gc.make_epr_state(SQRT_A2, 2.0)
        out = gc.evolve_free(state, gc.PropagationLeg(0.0), params702)
        assert out.gamma_u == state.gamma_u
        assert out.gamma_v == state.gamma_v

    def test_strekalov_leg(self, params702, lam702):
        state = gc.make_epr_state(0.04, 3.0)
        out = gc.evolve_free(state, gc.PropagationLeg(900.0), params702)
        assert out.gamma_u == pytest.approx(0.0016 + 2j * lam702 * 900.0, rel=1e-12)
        assert out.gamma_u.imag == pytest.approx(0.402216, rel=1e-5)
        assert out.gamma_v == pytest.approx(36.0 + 2j * lam702 * 900.0, rel=1e-12)

    def test_composition(self, params702):
        state = gc.make_epr_state(0.3, 1.5)
        one = gc.evolve_free(gc.evolve_free(state, gc.PropagationLeg(123.0), params702),
                             gc.PropagationLeg(456.0), params702)
        both = gc.evolve_free(state, gc.PropagationLeg(579.0), params702)
        assert one.gamma_u == pytest.approx(both.gamma_u, rel=1e-14)
        assert one.gamma_v == pytest.approx(both.gamma_v, rel=1e-14)


class TestConditionOnGaussianSlit:
    def test_wide_source_at_slit_plane(self, params702):
        state = gc.make_epr_state(SQRT_A2, BIG_OMEGA)
        slit = gc.SlitSpec(kind="gaussian", epsilon=0.065)
        gamma = gc.condition_on_gaussian_slit(state, slit, gc.PropagationLeg(0.0),
                                              params702)
        # virtual slit of squared width eps^2 + a^2
        assert gamma.gamma.real == pytest.approx(0.047225, rel=1e-5)
        assert abs(gamma.gamma.imag) < 1e-12
        assert math.sqrt(gamma.gamma.real) == pytest.approx(0.21731, rel=1e-4)

    def test_separable_state_shape_unchanged(self, params702):
        # product state: conditioning renormalizes but cannot reshape phi2
        state = gc.make_epr_state(1.0, 0.5)
        slit = gc.SlitSpec(kind="gaussian", epsilon=0.1)
        gamma = gc.condition_on_gaussian_slit(state, slit, gc.PropagationLeg(0.0),
                                              params702)
        # the two unit exponents add to 2(y1^2 + y2^2): the product factor
        # for either particle is exp(-y^2/0.5)
        assert gamma.gamma == pytest.approx(0.5, rel=1e-12)

    def test_finite_omega_with_flight_matches_oracle(self, params702):
        # frozen from the 2048^2 grid quadrature (extent 12 mm), which agrees
        # with this closed form to ~1e-15; see test_grid_oracle for the live run
        state = gc.make_epr_state(SQRT_A2, 2.0)
        slit = gc.SlitSpec(kind="gaussian", epsilon=0.065)
        gamma = gc.condition_on_gaussian_slit(state, slit, gc.PropagationLeg(500.0),
                                              params702)
        assert gamma.gamma.real == pytest.approx(0.05012716262824172, rel=1e-3)
        assert gamma.gamma.imag == pytest.approx(0.22194105457478153, rel=1e-3)

    def test_rejects_rectangular(self, params702):
        state = gc.make_epr_state(0.2, 2.0)
        slit = gc.SlitSpec(kind="rectangular", full_width=0.16)
        with pytest.raises(DomainError):
            gc.condition_on_gaussian_slit(state, slit, gc.PropagationLeg(0.0),
                                          params702)

    def test_rejects_evolved_input(self, params702):
        state = gc.evolve_free(gc.make_epr_state(0.2, 2.0),
                               gc.PropagationLeg(100.0), params702)
        slit = gc.SlitSpec(kind="gaussian", epsilon=0.1)
        with pytest.raises(DomainError):
            gc.condition_on_gaussian_slit(state, slit, gc.PropagationLeg(0.0),
                                          params702)


class TestMomentumSpreadConditional:
    def test_real_gamma(self):
        assert gc.momentum_spread_conditional(gc.GaussianParam(0.04)) == \
            pytest.approx(5.0)

    def test_kim_shih_value_and_bound(self):
        spread = gc.momentum_spread_conditional(gc.GaussianParam(0.047225))
        assert spread == pytest.approx(4.6017, rel=1e-4)
        initial = gc.momentum_uncertainty(gc.make_epr_state(SQRT_A2, 2.0))
        assert spread < initial

    def test_no_slit_limit_matches_approx(self, params702):
        a = 0.3
        exact_like = gc.momentum_spread_conditional_approx(1e-9, a, BIG_OMEGA,
                                                           0.0, params702)
        assert exact_like == pytest.approx(1.0 / a, rel=1e-9)


class TestPropagateConditional:
    def test_identity(self, params702):
        gamma = gc.GaussianParam(0.047225)
        out = gc.propagate_conditional(gamma, gc.PropagationLeg(0.0), params702)
        assert out.gamma == gamma.gamma

    def test_kim_shih_leg(self, params702, lam702):
        out = gc.propagate_conditional(gc.GaussianParam(0.047225),
                                       gc.PropagationLeg(500.0), params702)
        assert out.gamma == pytest.approx(0.047225 + 1j * lam702 * 500.0, rel=1e-12)
        assert out.gamma.imag == pytest.approx(0.111727, rel=1e-5)

    def test_split_invariance_wide_source(self, params702, lam702):
        # condition at L1 then fly L2: depends only on 2*L1 + L2 when the
        # source is effectively infinite
        state = gc.make_epr_state(0.04, BIG_OMEGA)
        slit = gc.SlitSpec(kind="gaussian", epsilon=0.1)

        def detector_gamma(L1, L2):
            g = gc.condition_on_gaussian_slit(state, slit, gc.PropagationLeg(L1),
                                              params702)
            return gc.propagate_conditional(g, gc.PropagationLeg(L2), params702).gamma

        g_a = detector_gamma(900.0, 0.0)
        g_b = detector_gamma(450.0, 900.0)
        expected = 0.1 ** 2 + 0.04 ** 2 + 1j * lam702 * 1800.0
        assert g_a == pytest.approx(expected, rel=1e-7)
        assert g_a == pytest.approx(g_b, rel=1e-8)


class TestIntensityWidth:
    def test_kim_shih_virtual_slit(self):
        gamma = gc.GaussianParam(0.047225 + 0.111726j)
        W = gc.intensity_width(gamma)
        assert W == pytest.approx(0.55816, rel=1e-4)
        assert gc.fwhm_from_width(W) == pytest.approx(0.65719, rel=1e-4)

    def test_real_gamma_is_sqrt(self):
        assert gc.intensity_width(gc.GaussianParam(0.25)) == pytest.approx(0.5)

    def test_kim_shih_real_slit(self):
        gamma = gc.GaussianParam(0.004225 + 0.111726j)
        W = gc.intensity_width(gamma)
        assert W == pytest.approx(1.72008, rel=1e-4)
        assert gc.fwhm_from_width(W) == pytest.approx(2.0252, rel=1e-4)

    def test_far_field_coefficient(self, lam702):
        # W^2 = s^2 + Lambda^2 D^2 / s^2, the coefficient the grid oracle
        # confirms (test_grid_oracle::test_single_particle_factor)
        s2, D = 0.01, 100.0
        gamma = gc.GaussianParam(s2 + 1j * lam702 * D)
        expected = math.sqrt(s2 + (lam702 * D) ** 2 / s2)
        assert gc.intensity_width(gamma) == pytest.approx(expected, rel=1e-12)


class TestFwhmFromWidth:
    def test_constant(self):
        assert gc.fwhm_from_width(1.0) == pytest.approx(1.1774100, rel=1e-6)

    def test_reference_values(self):
        assert gc.fwhm_from_width(0.55817) == pytest.approx(0.65720, rel=1e-4)
        assert gc.fwhm_from_width(1.72008) == pytest.approx(2.02524, rel=1e-4)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            gc.fwhm_from_width(0.0)


class TestSlitSpec:
    def test_half_width_convention(self):
        slit = gc.SlitSpec(kind="rectangular", full_width=0.2,
                           convention="half-width")
        assert slit.gaussian_epsilon() == pytest.approx(0.1)

    def test_diffraction_matched(self, params702):
        # reproduce a 2.0 mm far-field FWHM at 500 mm: the 0.16 mm slit maps
        # to roughly 0.065 mm Gaussian width
        slit = gc.SlitSpec(kind="rectangular", full_width=0.16,
                           convention="diffraction-matched",
                           reference_fwhm_mm=2.0, reference_L_mm=500.0)
        eps = slit.gaussian_epsilon(params702)
        assert eps == pytest.approx(0.0658, rel=2e-3)
        # and the mapping closes: that eps really gives the reference FWHM
        gamma = gc.propagate_conditional(
            gc.GaussianParam(eps * eps), gc.PropagationLeg(500.0), params702)
        assert gc.fwhm_from_width(gc.intensity_width(gamma)) == \
            pytest.approx(2.0, rel=1e-9)

    def test_diffraction_matched_needs_reference(self, params702):
        slit = gc.SlitSpec(kind="rectangular", full_width=0.16,
                           convention="diffraction-matched")
        with pytest.raises(ConfigError):
            slit.gaussian_epsilon(params702)

    def test_rejects_bad_specs(self):
        with pytest.raises(DomainError):
            gc.SlitSpec(kind="circular", epsilon=0.1)
        with pytest.raises(DomainError):
            gc.SlitSpec(kind="gaussian", epsilon=0.0)
        with pytest.raises(DomainError):
            gc.SlitSpec(kind="rectangular", full_width=0.16, convention="exotic")


class TestLensGeometry:
    def test_image_plane_is_real(self, params702):
        slit = gc.SlitSpec(kind="gaussian", epsilon=0.065)
        lens = gc.LensConfig(f=500.0, b1=500.0)
        gamma = gc.lens_ghost_param(slit, SQRT_A2, lens,
                                    gc.PropagationLeg(lens.image_distance), params702)
        assert gamma.gamma.imag == pytest.approx(0.0, abs=1e-15)
        assert gamma.gamma.real == pytest.approx(0.047225, rel=1e-5)
        assert gc.intensity_width(gamma) == pytest.approx(0.21731, rel=1e-4)

    def test_detector_plane(self, params702):
        slit = gc.SlitSpec(kind="gaussian", epsilon=0.065)
        lens = gc.LensConfig(f=500.0, b1=500.0)
        gamma = gc.lens_ghost_param(
            slit, SQRT_A2, lens,
            gc.PropagationLeg(lens.image_distance + 500.0), params702)
        assert gamma.gamma.imag == pytest.approx(0.111727, rel=1e-5)
        fwhm = gc.fwhm_from_width(gc.intensity_width(gamma))
        assert fwhm == pytest.approx(0.657, rel=1e-3)

    def test_perfect_correlation_limit(self, params702):
        slit = gc.SlitSpec(kind="gaussian", epsilon=0.065)
        lens = gc.LensConfig(f=500.0, b1=500.0)
        gamma = gc.lens_ghost_param(slit, 1e-9, lens,
                                    gc.PropagationLeg(lens.image_distance), params702)
        assert gamma.gamma.real == pytest.approx(0.065 ** 2, rel=1e-9)

    def test_rejects_bad_image_distance(self):
        with pytest.raises(ConfigError):
            gc.LensConfig(f=100.0, b1=300.0)


class TestBeamWidth:
    def test_reduces_to_initial_spread(self, params702):
        state = gc.make_epr_state(SQRT_A2, 2.0)
        W0 = gc.beam_width(state, gc.PropagationLeg(0.0), params702)
        assert W0 == pytest.approx(2.0 * gc.position_uncertainty(state), rel=1e-12)

    def test_monotone_in_distance(self, params702):
        state = gc.make_epr_state(0.04, 3.0)
        widths = [gc.beam_width(state, gc.PropagationLeg(L), params702)
                  for L in (0.0, 300.0, 900.0, 1800.0)]
        assert all(w1 > w0 for w0, w1 in zip(widths, widths[1:]))

    def test_strekalov_value_frozen_from_oracle(self, params702):
        # grid marginal second moment at a=0.04, omega=3, L=1800 gives
        # W = 10.49362 mm (n=4096, extent 32); the law meets it to the
        # figure's rounding (4e-7; the grid's own width, 10.4936242, to 2e-9)
        state = gc.make_epr_state(0.04, 3.0)
        W = gc.beam_width(state, gc.PropagationLeg(1800.0), params702)
        assert W == pytest.approx(10.49362, rel=1e-6)

    def test_rejects_evolved_state(self, params702):
        state = gc.evolve_free(gc.make_epr_state(0.04, 3.0),
                               gc.PropagationLeg(100.0), params702)
        with pytest.raises(DomainError):
            gc.beam_width(state, gc.PropagationLeg(100.0), params702)


class TestConditionalAmplitude:
    def test_unit_probability(self):
        gamma = gc.GaussianParam(0.047225 + 0.111726j)
        y = np.linspace(-8.0, 8.0, 20001)
        amp = gc.conditional_amplitude(gamma, y)
        prob = np.trapezoid(np.abs(amp) ** 2, y)
        assert prob == pytest.approx(1.0, abs=1e-9)

    def test_width_matches_closed_form(self):
        gamma = gc.GaussianParam(0.3 + 0.2j)
        y = np.linspace(-10.0, 10.0, 40001)
        density = np.abs(gc.conditional_amplitude(gamma, y)) ** 2
        rms = math.sqrt(float(np.trapezoid(y ** 2 * density, y)))
        assert 2.0 * rms == pytest.approx(gc.intensity_width(gamma), rel=1e-9)


class TestNonFiniteInput:
    """A NaN or infinite size is refused, not carried into a confident NaN
    or infinite width."""

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: gc.position_uncertainty(
            gc.make_epr_state(math.nan, 1.0)), id="position_uncertainty-a-nan"),
        *[pytest.param(lambda a=a, omega=omega: gc.make_epr_state(a, omega),
                       id=f"make_epr_state-{a}-{omega}")
          for a, omega in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                           (1.0, math.inf))],
        pytest.param(lambda: gc.EprState(a=math.nan, omega=1.0, gamma_u=1.0,
                                         gamma_v=4.0), id="EprState-a-nan"),
        pytest.param(lambda: gc.EprState(a=1.0, omega=1.0, gamma_u=math.nan,
                                         gamma_v=4.0), id="EprState-gamma_u-nan"),
        *[pytest.param(lambda x=x: gc.PhysParams(wavelength_mm=x),
                       id=f"wavelength-{x}") for x in (math.nan, math.inf)],
        pytest.param(lambda: gc.SlitSpec(kind="gaussian", epsilon=math.nan),
                     id="epsilon-nan"),
        pytest.param(lambda: gc.SlitSpec(kind="rectangular",
                                         full_width=math.nan),
                     id="full_width-nan"),
        pytest.param(lambda: gc.PropagationLeg(math.nan), id="leg-nan"),
        pytest.param(lambda: gc.LensConfig(f=math.nan, b1=500.0), id="f-nan"),
        pytest.param(lambda: gc.LensConfig(f=500.0, b1=math.nan), id="b1-nan"),
        pytest.param(lambda: gc.GaussianParam(complex(math.nan, 1.0)),
                     id="gamma-real-nan"),
        pytest.param(lambda: gc.GaussianParam(complex(1.0, math.nan)),
                     id="gamma-imag-nan"),
    ])
    def test_refused(self, call):
        with pytest.raises(DomainError):
            call()
