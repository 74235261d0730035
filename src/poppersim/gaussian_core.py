"""Closed-form complex-Gaussian algebra for entangled two-particle beams.

Conventions
-----------
All lengths are millimetres, hbar = 1, transverse momenta are rad/mm.
A 1-D Gaussian amplitude is written exp(-y^2 / Gamma) with complex squared
width Gamma (mm^2).  Free flight over an axial distance D multiplies each
plane wave by a quadratic phase such that Gamma gains i * Lambda * D, with
Lambda = wavelength / pi the rescaled wavelength.  The intensity |amp|^2 is
proportional to exp(-2 y^2 / W^2) with W^2 = |Gamma|^2 / Re(Gamma); for
Gamma = s^2 + i*Lambda*D this gives W^2 = s^2 + Lambda^2 D^2 / s^2.

The two-particle source amplitude is

    psi(y1, y2) ~ exp(-(y1 - y2)^2 / gamma_u) * exp(-(y1 + y2)^2 / gamma_v)

with gamma_u = a^2 and gamma_v = 4 * omega^2 at the source plane, where
a = hbar / sigma is the inverse momentum-correlation scale and omega the
transverse source extent.  Free flight adds 2i * Lambda * L to both
gamma_u and gamma_v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError

FWHM_FACTOR = math.sqrt(2.0 * math.log(2.0))


@dataclass(frozen=True)
class PhysParams:
    """Global wavelength convention.

    Parameters
    ----------
    wavelength_mm : float
        de Broglie (or photon) wavelength in mm.
    """

    wavelength_mm: float

    def __post_init__(self):
        if not 0 < self.wavelength_mm < math.inf:
            raise DomainError(f"wavelength must be positive, got {self.wavelength_mm}")

    @property
    def rescaled_wavelength_mm(self) -> float:
        """Rescaled wavelength Lambda = wavelength / pi (mm)."""
        return self.wavelength_mm / math.pi

    @property
    def mean_momentum_rad_per_mm(self) -> float:
        """Mean axial momentum 2*pi/wavelength in hbar=1 units."""
        return 2.0 * math.pi / self.wavelength_mm


@dataclass(frozen=True)
class EprState:
    """Two-particle correlated Gaussian state.

    gamma_u parametrises exp(-(y1-y2)^2/gamma_u), gamma_v parametrises
    exp(-(y1+y2)^2/gamma_v).  Both are real at the source plane.
    """

    a: float
    omega: float
    gamma_u: complex
    gamma_v: complex

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.omega < math.inf):
            raise DomainError("a and omega must be positive")
        if not (self.gamma_u.real > 0 and self.gamma_v.real > 0):
            raise DomainError("Re(gamma_u) and Re(gamma_v) must stay positive")

    @property
    def at_source(self) -> bool:
        """True when the state has not been propagated (real gammas)."""
        return self.gamma_u.imag == 0.0 and self.gamma_v.imag == 0.0


@dataclass(frozen=True)
class GaussianParam:
    """Complex squared width of a single-particle Gaussian amplitude."""

    gamma: complex

    def __post_init__(self):
        if not self.gamma.real > 0 or math.isnan(self.gamma.imag):
            raise DomainError(f"Re(gamma) must be positive, got {self.gamma}")


@dataclass(frozen=True)
class SlitSpec:
    """Aperture description with its Gaussian-equivalent convention.

    kind 'gaussian' uses ``epsilon`` directly as the width of the amplitude
    transmission exp(-y^2/epsilon^2).  kind 'rectangular' carries the full
    width of a hard slit plus the convention used to map it to a Gaussian:

    - 'half-width': epsilon = full_width / 2.
    - 'diffraction-matched': epsilon is chosen so that a single Gaussian
      slit reproduces a reference far-field FWHM (``reference_fwhm_mm``
      observed at distance ``reference_L_mm``).
    """

    kind: str
    epsilon: float = 0.0
    full_width: float = 0.0
    convention: str = "half-width"
    reference_fwhm_mm: float = 0.0
    reference_L_mm: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "rectangular"):
            raise DomainError(f"unknown slit kind {self.kind!r}")
        if self.kind == "gaussian" and not self.epsilon > 0:
            raise DomainError("gaussian slit requires epsilon > 0")
        if self.kind == "rectangular":
            if not self.full_width > 0:
                raise DomainError("rectangular slit requires full_width > 0")
            if self.convention not in ("half-width", "diffraction-matched"):
                raise DomainError(f"unknown slit convention {self.convention!r}")

    def gaussian_epsilon(self, params: PhysParams | None = None) -> float:
        """Gaussian width equivalent of this slit, per its convention."""
        if self.kind == "gaussian":
            return self.epsilon
        if self.convention == "half-width":
            return self.full_width / 2.0
        # diffraction-matched: invert W^2 = eps^2 + Lambda^2 L^2 / eps^2
        # for the eps that reproduces the reference far-field FWHM.
        if self.reference_fwhm_mm <= 0 or self.reference_L_mm <= 0:
            raise ConfigError(
                "diffraction-matched slit needs reference_fwhm_mm and reference_L_mm"
            )
        if params is None:
            raise ConfigError("diffraction-matched slit mapping needs PhysParams")
        # near-field root: the physical slit is narrower than sqrt(Lambda*L)
        return far_field_inverse(self.reference_fwhm_mm / FWHM_FACTOR,
                                 self.reference_L_mm, params).near


@dataclass(frozen=True)
class PropagationLeg:
    """Axial flight distance (mm)."""

    L: float

    def __post_init__(self):
        if not self.L >= 0:
            raise DomainError(f"propagation distance must be >= 0, got {self.L}")


@dataclass(frozen=True)
class LensConfig:
    """Thin converging lens of focal length f placed b1 behind the source."""

    f: float
    b1: float

    def __post_init__(self):
        if not self.f > 0:
            raise DomainError(f"focal length must be positive, got {self.f}")
        if not self.b1 >= 0:
            raise DomainError(f"source-to-lens distance must be >= 0, got {self.b1}")
        if not self.image_distance > 0:
            raise ConfigError(
                f"ghost-image distance 2f - b1 = {2 * self.f - self.b1} must be positive"
            )

    @property
    def image_distance(self) -> float:
        """Distance from the source at which the ghost image forms: 2f - b1."""
        return 2.0 * self.f - self.b1


def make_epr_state(a: float, omega: float) -> EprState:
    """Source-plane state with gamma_u = a^2 and gamma_v = 4*omega^2."""
    if not (0 < a < math.inf and 0 < omega < math.inf):
        raise DomainError(f"a and omega must be positive, got a={a}, omega={omega}")
    return EprState(a=a, omega=omega, gamma_u=complex(a * a), gamma_v=complex(4.0 * omega * omega))


def position_uncertainty(state: EprState) -> float:
    """Single-particle position spread at the source plane.

    Delta y1 = Delta y2 = (1/2) * sqrt(omega^2 + a^2/4).  Only defined for
    an unpropagated state; use :func:`beam_width` after free flight.
    """
    if not state.at_source:
        raise DomainError("position_uncertainty is defined at the source plane only; "
                          "use beam_width for a propagated state")
    return 0.5 * math.sqrt(state.omega ** 2 + state.a ** 2 / 4.0)


def momentum_uncertainty(state: EprState) -> float:
    """Single-particle momentum spread sqrt(1/a^2 + 1/(4*omega^2)), rad/mm."""
    if not state.at_source:
        raise DomainError("momentum_uncertainty is defined at the source plane only")
    return math.sqrt(1.0 / state.a ** 2 + 1.0 / (4.0 * state.omega ** 2))


def instant_localization_width(epsilon1: float, state: EprState) -> float:
    """Width to which particle 2 is localized when particle 1 is confined to epsilon1.

    Evaluated at the source plane, before any free flight:

        eps2^2 = (eps1^2 (1 + a^2/(4 omega^2)) + a^2/4)
                 / (1 + 4 eps1^2/omega^2 + a^2/(4 omega^2))

    eps2 -> eps1 only in the joint limit a -> 0, omega -> infinity.
    """
    if epsilon1 <= 0:
        raise DomainError(f"epsilon1 must be positive, got {epsilon1}")
    if not state.at_source:
        raise DomainError("instant localization is defined at the source plane only")
    a2 = state.a ** 2
    om2 = state.omega ** 2
    num = epsilon1 ** 2 * (1.0 + a2 / (4.0 * om2)) + a2 / 4.0
    den = 1.0 + 4.0 * epsilon1 ** 2 / om2 + a2 / (4.0 * om2)
    return math.sqrt(num / den)


def evolve_free(state: EprState, leg: PropagationLeg, params: PhysParams) -> EprState:
    """Free flight of both particles over leg.L; adds 2i*Lambda*L to each gamma."""
    shift = 2j * params.rescaled_wavelength_mm * leg.L
    return EprState(a=state.a, omega=state.omega,
                    gamma_u=state.gamma_u + shift, gamma_v=state.gamma_v + shift)


def condition_on_gaussian_slit(state: EprState, slit: SlitSpec,
                               L1: PropagationLeg, params: PhysParams) -> GaussianParam:
    """Conditional Gaussian parameter of particle 2 after particle 1 passes a slit.

    The source state is propagated internally over L1 to the slit plane,
    particle 1 is projected onto the normalized Gaussian aperture mode of
    width epsilon, and the resulting particle-2 amplitude is exp(-y^2/Gamma)
    with

        Gamma = (eps^2 + i*Lambda*L1 + a^2 / (1 + a^2/(4 omega^2)))
                / (1 + (eps^2 + i*Lambda*L1) / (omega^2 + a^2/4))
                + i*Lambda*L1
    """
    if slit.kind != "gaussian":
        raise DomainError("closed-form conditioning handles Gaussian slits only; "
                          "map a rectangular slit through SlitSpec.gaussian_epsilon first")
    if not state.at_source:
        raise DomainError("pass the source-plane state; L1 is applied internally")
    eps = slit.epsilon
    a2 = state.a ** 2
    om2 = state.omega ** 2
    z = eps * eps + 1j * params.rescaled_wavelength_mm * L1.L
    gamma = (z + a2 / (1.0 + a2 / (4.0 * om2))) / (1.0 + z / (om2 + a2 / 4.0)) \
        + 1j * params.rescaled_wavelength_mm * L1.L
    return GaussianParam(gamma=gamma)


def momentum_spread_conditional(gamma: GaussianParam) -> float:
    """Momentum spread of the conditional state: 1/sqrt(Re Gamma), rad/mm."""
    return 1.0 / math.sqrt(gamma.gamma.real)


def momentum_spread_conditional_approx(epsilon: float, a: float, omega: float,
                                       L1: float, params: PhysParams) -> float:
    """Wide-source approximation of the conditional momentum spread.

    sigma / sqrt(1 + (sigma*eps)^2 + (sigma*Lambda*L1/omega)^2) with
    sigma = 1/a; valid for omega much larger than eps, a/2 and for
    omega^2 much larger than Lambda*L1.
    """
    sigma = 1.0 / a
    lam_l = params.rescaled_wavelength_mm * L1
    return sigma / math.sqrt(1.0 + (sigma * epsilon) ** 2 + (sigma * lam_l / omega) ** 2)


def propagate_conditional(gamma: GaussianParam, leg: PropagationLeg,
                          params: PhysParams) -> GaussianParam:
    """Free flight of a single-particle Gaussian: Gamma' = Gamma + i*Lambda*L."""
    return GaussianParam(gamma=gamma.gamma + 1j * params.rescaled_wavelength_mm * leg.L)


def intensity_width(gamma: GaussianParam) -> float:
    """Gaussian intensity width W = |Gamma| / sqrt(Re Gamma).

    |amp|^2 ∝ exp(-2 y^2 / W^2); for Gamma = s^2 + i*Lambda*D this is
    W^2 = s^2 + Lambda^2 D^2 / s^2.
    """
    g = gamma.gamma
    return abs(g) / math.sqrt(g.real)


def far_field_width(s2: float, distance: float, params: PhysParams) -> float:
    """Intensity width W of a focused Gaussian of squared width s^2 after
    flying ``distance``: W^2 = s^2 + (Lambda*D)^2 / s^2."""
    lam_d = params.rescaled_wavelength_mm * distance
    return math.sqrt(s2 + lam_d * lam_d / s2)


class FarFieldRoots(NamedTuple):
    """Both focused widths s that :func:`far_field_width` maps to one W."""

    near: float          # s < sqrt(Lambda*D)
    far: float           # s > sqrt(Lambda*D); near * far = Lambda*D
    discriminant: float  # W^4 - 4 (Lambda*D)^2, mm^4


def far_field_inverse(W: float, distance: float, params: PhysParams) -> FarFieldRoots:
    """Invert the far-field law: solve s^4 - W^2 s^2 + (Lambda*D)^2 = 0 for s."""
    lam_d = params.rescaled_wavelength_mm * distance
    w2 = W ** 2
    disc = w2 * w2 - 4.0 * lam_d * lam_d
    if disc < 0:
        raise DomainError(
            f"unreachable width: W = {W:.6g} mm (FWHM {FWHM_FACTOR * W:.6g} mm) "
            f"is below the diffraction minimum W = {math.sqrt(2.0 * lam_d):.6g} mm "
            f"for distance {distance} mm"
        )
    far = math.sqrt((w2 + math.sqrt(disc)) / 2.0)
    # the roots' product is Lambda*D; sqrt((W^2 - sqrt(disc)) / 2) would
    # cancel when Lambda*D << W^2 (to 0.0 at FWHM 1 mm, D = 1e-6 mm)
    return FarFieldRoots(near=lam_d / far, far=far, discriminant=disc)


def fwhm_from_width(W: float) -> float:
    """Full width at half maximum of exp(-2 y^2 / W^2): sqrt(2 ln 2) * W."""
    if W <= 0:
        raise DomainError(f"width must be positive, got {W}")
    return FWHM_FACTOR * W


def lens_ghost_param(slit: SlitSpec, a: float, lens: LensConfig,
                     L: PropagationLeg, params: PhysParams) -> GaussianParam:
    """Conditional particle-2 Gaussian in the lens (ghost-imaging) geometry.

    Wide-source regime.  The lens makes the conditional amplitude converge
    onto the ghost-image plane at L = 2f - b1:

        Gamma(L) = eps^2 + a^2 - i*Lambda*(2f - b1) + i*Lambda*L

    which is real (a focused image of width sqrt(eps^2 + a^2)) exactly at
    the image plane and diffracts beyond it.
    """
    eps = slit.gaussian_epsilon(params)
    lam = params.rescaled_wavelength_mm
    gamma = eps * eps + a * a + 1j * lam * (L.L - lens.image_distance)
    return GaussianParam(gamma=gamma)


def conditional_amplitude(gamma: GaussianParam, y: np.ndarray) -> np.ndarray:
    """Normalized sampled amplitude for a Gaussian parameter.

    amp(y) = ((Gamma + Gamma*) / (pi * Gamma * Gamma*))^(1/4) * exp(-y^2/Gamma)
    integrates to unit probability.
    """
    g = gamma.gamma
    norm = ((g + g.conjugate()) / (math.pi * g * g.conjugate())) ** 0.25
    return norm * np.exp(-np.asarray(y) ** 2 / g)


def beam_width(state: EprState, leg: PropagationLeg, params: PhysParams) -> float:
    """All-counts transverse width of either particle after distance L.

    W(L) = sqrt(omega^2 + Lambda^2 L^2/(4 omega^2) + a^2/4 + Lambda^2 L^2/a^2),
    in the same Gaussian-equivalent convention as :func:`intensity_width`
    (W = 2 * rms of the marginal intensity).  Free flight maps y to
    y + (Lambda L / 2) k, so W^2 = (2 Delta y)^2 + (Lambda L Delta k)^2 with
    the source-plane spreads of :func:`position_uncertainty` and
    :func:`momentum_uncertainty`.
    """
    if not state.at_source:
        raise DomainError("beam_width expects the source-plane state")
    lam_l = params.rescaled_wavelength_mm * leg.L
    om2 = state.omega ** 2
    a2 = state.a ** 2
    return math.sqrt(om2 + lam_l ** 2 / (4.0 * om2) + a2 / 4.0 + lam_l ** 2 / a2)
