"""Entangled-pair wave optics: correlated Gaussian beams, ghost diffraction,
a discrete two-spin analogue, and a brute-force grid simulator."""

from .errors import ConfigError, DomainError, ResolutionError
from .gaussian_core import (
    EprState,
    GaussianParam,
    LensConfig,
    PhysParams,
    PropagationLeg,
    SlitSpec,
    beam_width,
    condition_on_gaussian_slit,
    fwhm_from_width,
    instant_localization_width,
    intensity_width,
    lens_ghost_param,
    make_epr_state,
    momentum_spread_conditional,
    momentum_uncertainty,
    position_uncertainty,
    propagate_conditional,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DomainError",
    "ResolutionError",
    "EprState",
    "GaussianParam",
    "LensConfig",
    "PhysParams",
    "PropagationLeg",
    "SlitSpec",
    "beam_width",
    "condition_on_gaussian_slit",
    "fwhm_from_width",
    "instant_localization_width",
    "intensity_width",
    "lens_ghost_param",
    "make_epr_state",
    "momentum_spread_conditional",
    "momentum_uncertainty",
    "position_uncertainty",
    "propagate_conditional",
    "__version__",
]
