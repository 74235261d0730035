"""The grid oracle's grid and memory-cap variable, without numpy.

A scenario's ``oracle`` block is a :class:`GridSpec`, and the CLI names
``MAX_GRID_ENV``, so both live here: parsing a scenario, and every command
that runs no oracle, never imports numpy or ``grid_oracle``.
``grid_oracle`` re-exports both.
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
