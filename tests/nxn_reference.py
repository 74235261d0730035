"""The n x n reference route: the sampled source held as one n x n array,
flown by 2-D spectral evolution and conditioned by direct quadrature.

``grid_oracle.source_pass`` replaced this route in the package; it stays
here, test-only, as the independent reference every parity test checks the
pass against (``build_grid_state`` -> ``evolve_spectral`` -> ``condition``,
``marginal_intensity`` and the n x n ``ghost_double_slit``).  An n x n
complex array takes n^2 * 16 bytes: 67 MB at n = 2048.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from poppersim.errors import DomainError
from poppersim.gaussian_core import FWHM_FACTOR, PhysParams
from poppersim.grid_oracle import (
    Aperture,
    GhostPattern,
    GridSpec,
    _check_source,
    _flight_phase,
    _source_blocks,
    _tail_failures,
    fringe_metrics,
    intensity_widths,
    propagate_amplitude,
    source_tables,
)


@dataclass
class GridState:
    """Sampled two-particle amplitude psi[i1, i2] = psi(y[i1], y[i2])."""

    psi: np.ndarray
    y: np.ndarray
    dy: float

    @property
    def n(self) -> int:
        return self.y.size

    def norm(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.dy * self.dy)


@dataclass
class ConditionalAmplitude:
    """Particle-2 amplitude after conditioning, plus the coincidence fraction."""

    y: np.ndarray
    amplitude: np.ndarray
    dy: float
    weight: float

    def widths(self):
        """Width measures of |amplitude|^2."""
        return intensity_widths(self.y, np.abs(self.amplitude) ** 2, self.dy)


def build_grid_state(a: float, omega: float, grid: GridSpec) -> GridState:
    """Sample and normalize the correlated source amplitude."""
    _check_source(a, omega, grid)
    psi = np.zeros((grid.n, grid.n), dtype=complex)
    for rows, cols, band in _source_blocks(source_tables(a, omega, grid)):
        psi[rows, cols] = band
    prob = np.abs(psi)
    prob **= 2
    psi /= math.sqrt(float(np.sum(prob)) * grid.dy ** 2)
    return GridState(psi=psi, y=grid.y, dy=grid.dy)


def evolve_spectral(state: GridState, L_particle1: float, L_particle2: float,
                    params: PhysParams) -> GridState:
    """Free flight of the two particles over independent distances.

    Only the axes with a nonzero leg are transformed, in one output buffer;
    ``state`` is left unchanged.  A leg that is not finite and >= 0, NaN
    included, is refused, as every flight of the pass refuses it.
    """
    if not (0 <= L_particle1 < math.inf and 0 <= L_particle2 < math.inf):
        raise DomainError("propagation distances must be finite and >= 0")
    legs = [(axis, L) for axis, L in ((0, L_particle1), (1, L_particle2)) if L > 0]
    if legs:
        axes = [axis for axis, _ in legs]
        psi = np.fft.fftn(state.psi, axes=axes, out=np.empty_like(state.psi))
        for axis, L in legs:
            phase = _flight_phase(state.n, state.dy, L, params)
            psi *= phase[:, None] if axis == 0 else phase
        np.fft.ifftn(psi, axes=axes, out=psi)
    else:
        psi = state.psi.copy()
    prob = np.abs(psi)
    prob **= 2
    _tail_failures(prob.sum(axis=1))
    _tail_failures(prob.sum(axis=0))
    return GridState(psi=psi, y=state.y, dy=state.dy)


def condition(state: GridState, aperture: Aperture) -> ConditionalAmplitude:
    """Project particle 1 onto the aperture mode.

    phi2(y2) = integral phi1*(y1) psi(y1, y2) dy1, by direct quadrature.
    The returned amplitude is renormalized; ``weight`` is the coincidence
    fraction (the squared norm before renormalization).
    """
    phi1 = aperture.sample(state.y, state.dy)
    phi2 = (np.conj(phi1) @ state.psi) * state.dy
    weight = float(np.sum(np.abs(phi2) ** 2) * state.dy)
    if weight < 1e-12:
        raise DomainError(f"degenerate conditioning: coincidence weight {weight:.3g}")
    return ConditionalAmplitude(y=state.y, amplitude=phi2 / math.sqrt(weight),
                                dy=state.dy, weight=weight)


def marginal_intensity(state: GridState, particle: int = 2) -> np.ndarray:
    """All-counts intensity of one particle (normalized to unit sum * dy)."""
    if particle not in (1, 2):
        raise DomainError("particle must be 1 or 2")
    axis = 1 if particle == 1 else 0
    intensity = np.sum(np.abs(state.psi) ** 2, axis=axis) * state.dy
    return intensity / (float(np.sum(intensity)) * state.dy)


def ghost_double_slit(state: GridState, slit: Aperture, d1: float, L2: float,
                      params: PhysParams) -> GhostPattern:
    """Coincidence pattern of particle 2 behind an aperture on particle 1.

    ``state`` must already sit at the aperture plane.  Particle 1 passes the
    aperture, flies a further d1, and is point-detected on axis; particle 2
    then flies L2 to its detector.
    """
    # aperture scale drops out after the renormalized conditioning
    mask = slit.sample(state.y, state.dy)
    masked = GridState(psi=state.psi * mask[:, None], y=state.y, dy=state.dy)
    if d1 > 0:
        masked = evolve_spectral(masked, d1, 0.0, params)
    detector = Aperture(kind="point")
    cond = condition(masked, detector)
    amp = propagate_amplitude(cond.amplitude, cond.dy, L2, params)
    intensity = np.abs(amp) ** 2
    spacing, visibility = fringe_metrics(state.y, intensity)
    env = intensity_widths(state.y, intensity, state.dy)
    return GhostPattern(y=state.y, intensity=intensity, dy=state.dy,
                        weight=cond.weight, fringe_spacing=spacing,
                        visibility=visibility,
                        envelope_fwhm=2.0 * env.rms * FWHM_FACTOR)
