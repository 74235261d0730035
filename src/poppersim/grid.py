"""The grid oracle's grid, its sizing rules and its memory-cap variable,
without numpy.

A scenario's ``oracle`` block is a :class:`GridSpec`, the CLI names
``MAX_GRID_ENV``, and sizing a grid (``experiments.default_grid``) needs
only the step and extent rules below, so all live here: parsing a scenario,
sizing its grid, and every command that runs no oracle, never import numpy
or ``grid_oracle``.  ``grid_oracle`` re-exports them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# the environment variable capping a pass's modelled peak memory, in bytes
MAX_GRID_ENV = "POPPER_SIM_MAX_GRID"


@dataclass(frozen=True)
class GridSpec:
    """Symmetric square grid: n points per axis on [-extent, extent)."""

    n: int
    extent: float

    def __post_init__(self):
        if self.n < 256 or self.n & (self.n - 1) != 0:
            raise DomainError(f"n must be a power of two >= 256, got {self.n!r:.40}")
        if not 0 < self.extent < math.inf:
            raise DomainError(
                f"extent must be positive and finite, got {self.extent}")

    @property
    def dy(self) -> float:
        return 2.0 * self.extent / self.n

    @property
    def y(self):
        """The grid's n sample points, a numpy array."""
        import numpy as np
        return (np.arange(self.n) - self.n // 2) * self.dy


def required_extent(a: float, omega: float) -> float:
    """Smallest admissible half-extent for the source state: 6 x position rms."""
    return 6.0 * 0.5 * math.sqrt(omega ** 2 + a ** 2 / 4.0)


def max_step(a: float, omega: float) -> float:
    """Coarsest grid step whose Nyquist wavenumber pi/dy spans 4 standard
    deviations of the source's per-axis momentum spectrum."""
    return math.pi / (4.0 * math.sqrt(2.0 / a ** 2 + 0.5 / omega ** 2))


def gaussian_max_step(epsilon: float) -> float:
    """Coarsest grid step whose Nyquist wavenumber pi/dy spans 4 standard
    deviations, 1/epsilon each, of a Gaussian aperture's momentum spectrum."""
    return math.pi * epsilon / 4.0


def points_for_step(extent: float, step: float, n: int = 256,
                    most: float = math.inf) -> int:
    """The first of n, 2 n, 4 n, ... whose grid over [-extent, extent) has
    a step 2 extent / N of at most ``step``, as ``GridSpec.dy`` computes it,
    or ``most`` if that comes first."""
    while n < most and 2.0 * extent / n > step:
        n *= 2
    return n
