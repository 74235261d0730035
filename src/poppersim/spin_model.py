"""Two spin-1 particles with anti-correlated z-components.

Finite-dimensional analogue of the correlated-beam experiment: the
z-component plays the role of transverse momentum, the x-component the
role of transverse position.  Basis ordering is m = +1, 0, -1 for both
the z and x eigenbases, everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

NORM_TOL = 1e-9
# an outcome probability at or below this is zero: the eigensolver's
# residue, an outcome condition_on refuses and a marginal prints as 0.0
PROBABILITY_FLOOR = 1e-15

# index <-> eigenvalue mapping, fixed package-wide
EIGENVALUES = (+1, 0, -1)
_INDEX = {+1: 0, 0: 1, -1: 2}


@dataclass(frozen=True)
class SpinState:
    """Joint amplitudes indexed [m_A, m_B] in the z basis, order (+1, 0, -1)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (3, 3):
            raise DomainError(f"amplitudes must be 3x3, got shape {amps.shape}")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise DomainError(f"state not normalized: sum |amp|^2 = {norm}")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class MeasurementOutcome:
    axis: str
    particle: str
    value: int
    probability: float
    post_state: SpinState


def make_popper_spin_state(alpha: float, beta: float) -> SpinState:
    """State alpha|+1,-1> + beta|0,0> + alpha|-1,+1>, with 2a^2 + b^2 = 1."""
    if abs(2.0 * alpha ** 2 + beta ** 2 - 1.0) > NORM_TOL:
        raise DomainError(
            f"normalization 2*alpha^2 + beta^2 = 1 violated: "
            f"{2.0 * alpha ** 2 + beta ** 2}"
        )
    amps = np.zeros((3, 3), dtype=complex)
    amps[_INDEX[+1], _INDEX[-1]] = alpha
    amps[_INDEX[0], _INDEX[0]] = beta
    amps[_INDEX[-1], _INDEX[+1]] = alpha
    return SpinState(amplitudes=amps)


def x_basis_matrix() -> np.ndarray:
    """Change of basis from z to x eigenstates of a spin-1.

    Row k holds the z-basis components of the x-eigenket with eigenvalue
    EIGENVALUES[k]; obtained by diagonalizing
    S_x = (1/sqrt2)[[0,1,0],[1,0,1],[0,1,0]] with the phase fixed so each
    eigenvector's first nonzero component is real and positive.
    """
    sx = np.array([[0.0, 1.0, 0.0],
                   [1.0, 0.0, 1.0],
                   [0.0, 1.0, 0.0]]) / np.sqrt(2.0)
    evals, evecs = np.linalg.eigh(sx)
    rows = []
    for target in EIGENVALUES:
        k = int(np.argmin(np.abs(evals - target)))
        v = evecs[:, k]
        lead = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
        rows.append(v * (abs(lead) / lead))
    return np.array(rows)


def _measurement_vectors(axis: str) -> np.ndarray:
    if axis == "z":
        return np.eye(3, dtype=complex)
    if axis == "x":
        return x_basis_matrix()
    raise DomainError(f"axis must be 'x' or 'z', got {axis!r}")


def _partner(state: SpinState, particle: str, row: np.ndarray) -> np.ndarray:
    """Unnormalized partner amplitudes after projecting ``particle`` onto ``row``."""
    if particle == "A":
        return np.conj(row) @ state.amplitudes
    if particle == "B":
        return state.amplitudes @ np.conj(row)
    raise DomainError(f"particle must be 'A' or 'B', got {particle!r}")


def marginal_probabilities(state: SpinState, particle: str, axis: str):
    """Born-rule marginal (p_plus, p_zero, p_minus) for one particle, each
    0.0 at or below ``PROBABILITY_FLOOR``."""
    probs = (float(np.sum(np.abs(_partner(state, particle, row)) ** 2))
             for row in _measurement_vectors(axis))
    return tuple(p if p > PROBABILITY_FLOOR else 0.0 for p in probs)


def condition_on(state: SpinState, particle: str, axis: str, value: int) -> MeasurementOutcome:
    """Projective measurement on one particle; returns the renormalized joint state."""
    if value not in _INDEX:
        raise DomainError(f"value must be one of {EIGENVALUES}, got {value}")
    row = _measurement_vectors(axis)[_INDEX[value]]
    partner = _partner(state, particle, row)
    post = np.outer(row, partner) if particle == "A" else np.outer(partner, row)
    prob = float(np.sum(np.abs(partner) ** 2))
    if prob <= PROBABILITY_FLOOR:
        raise DomainError(
            f"impossible outcome: P({particle}, {axis}, {value:+d}) = 0"
        )
    return MeasurementOutcome(
        axis=axis, particle=particle, value=value, probability=prob,
        post_state=SpinState(amplitudes=post / np.sqrt(prob)),
    )
