"""Brute-force two-particle grid simulator.

Samples the joint amplitude psi(y1, y2) on n points per axis, propagates it
spectrally (exactly unitary), applies arbitrary apertures by direct
quadrature, and extracts widths from sampled intensities.  Everything here
is deliberately independent of the closed forms in ``gaussian_core`` so the
two can be checked against each other.

Every oracle layout takes one route, ``source_pass``, which never holds psi
as an n x n array.  Free flight is the separable unitary U1 x U2, and free
flight and an aperture mask are each their own transpose on the periodic
grid.  So conditioning particle 1, after a chain of them, on a detector mode
phi equals conditioning the source on the chain applied to conj(phi) in
reverse order, then flying the 1-D result over particle 2's own legs.  The
pass builds the chain up to the slit plane L1 from each of particle 1's
apertures, one slit-plane mode each, and flies it the last leg back.  For a slit at L1 the
mode is conj(phi):

    condition(evolve(psi, L1, L1), phi) = fly(fly(conj(phi), L1) @ psi, L1),

and for the ghost double slit, a point detector d1 behind a mask at L1, it
is mask * fly(conj(point), d1).  The pass flies its K modes back over L1 in
place and writes their projections into the same buffer, so beside that
buffer the pass holds only the modes' real and imaginary products: two
K x n complex arrays' worth, and it flies the projections on in the same
buffer, one flight a distance.  The source is real and closed-form per
sample, so one pass over row blocks of it gives every conditional amplitude
and particle 2's marginals without an n x n buffer.
The n x n route the pass replaced is kept only as the tests' reference
(``tests/nxn_reference.py``), which every parity test compares the pass
against.

The source is F(i - j) G(i + j - n) (``source_tables``), F(d) =
exp(-(d dy)^2 / a^2), cut where F < DENSITY_FLOOR = 2^-100: only
|i - j| <= R (R about 8.3 a / dy) is kept, so a block of rows is generated
on its diagonal band alone.  On each anti-diagonal s = i + j - n the cut
samples F(d) G(s), |d| > R, have between them a kept sample off the
self-mirrored edge with d = 0 or 1, at least F(1) G(s), and
F(1)^2 >= e^(-pi^2/16) as dy <= ``max_step``.  With F's Gaussian tail, the
cut part delta of the kept source psi has |delta|_F <= beta |psi|_F,

    beta^2 = 2 e^(pi^2/16) (1 + (R + 1) / (400 ln 2)) 2^-200 < 2^-190

for R < n <= 65536.  So the cut moves the norm by at most beta^2 of itself,
a normalized projection onto a mode phi by 2 beta |phi|_2, and a flown
intensity, summed over the grid, by (2 beta + beta^2) of the norm: the
flight is unitary and | |x|^2 - |x'|^2 | <= |x - x'| (|x| + |x'|).

Particle 2's flown marginal diag(U rho U^H) needs only its reduced density
matrix rho = psi^T psi.  Completing the square in i in each term
psi(i, j) psi(i, l) of the uncut source gives, for j, l >= 1,

    rho(j, l) = E(j - l) H(j + l),
    E(d) = exp(-d^2 dy^2 (1/(2 a^2) + 1/(8 omega^2))),

with H a function of j + l alone.  So rho is known by its diagonals
r_d(j) = rho(j, j+d) = E(d) H(2j + d), and diagonals 0 and 1 fix H
everywhere, H(2j) = r_0(j) and H(2j + 1) = r_1(j) / E(1):

    r_d(j) = E(d) / E(d mod 2) r_{d mod 2}(j + floor(d / 2)).

The block walk sums r_0, particle 2's source-plane intensity, from each
band's columns and r_1 from its adjacent pairs of columns; no other table
of rho is built, and nothing comes from ``gaussian_core``.  rho is 0 on row
0 and column 0, as the source is: index 0 (y = -extent) is its own mirror
mod n, and the source samples its row and column as 0.0
(``source_rows``), so every diagonal is 0.0 in column 0 and the source
stays exchange- and mirror-symmetric bit for bit.  With the flight kernel
K = ifft(flight phase) and G_d(x) = K(x) conj K(x - d), indices mod n,

    I = Re ifft(sum_d w_d fft(G_d) fft(r_d)),   w_0 = 1, w_d = 2 (d > 0),

exactly on the periodic grid, because rho is real and symmetric.  r_d is
real, so the real part passes inside: I = sum_d w_d Re(G_d) (*) r_d, a sum of
real circular convolutions.  Particle 2's flown marginals always take this
route, at every band width.

It keeps the diagonals d = 0..D with E(d) >= DENSITY_FLOOR, so D + 1 is
about 11.8 a / dy, clipped at n, where the sum over d is exact.  On the
grid |K| <= 1, so a move of the diagonals moves a flown intensity by at
most sum_d w_d |move of r_d|_1 at any point.  Leaving out the diagonals
past D moves it by at most 2 sum_{d>D} |r_d|_1.  rho is positive
semidefinite, so |r_d|_1 <= E(d) tr(rho) / E(1), and dy <= ``max_step``
makes E(1) >= exp(-pi^2/64); E's Gaussian tail then bounds that move by

    2 e^(pi^2/64) (1 + (D + 1) / (200 ln 2)) 2^-100 tr(rho).

The walk's r_0 and r_1 are the cut source's, and differ from the uncut
source's only by terms the source cut drops: r_0 by the squares of the cut
samples, |delta|_F^2 <= beta^2 tr(rho) in all, and r_1 by the products
with a cut sample, at most 2 |delta|_F |psi|_F <= 2 beta tr(rho) in all
(Cauchy-Schwarz).  Each diagonal scales one of them by
E(d) / E(d mod 2) <= e^(pi^2/64), so together they move a flown intensity
by at most 4 (D + 1) e^(pi^2/64) beta tr(rho).  With D + 1 <= n, at
n = 65536 the first move is at most 8.8e-28 tr(rho) and the second under
7.8e-24 tr(rho), so together they stay under 1e-23 tr(rho) for every
n <= 65536, while a flown intensity peaks at tr(rho) / n or more: far below
float64 rounding.

Grid convention: y = (arange(n) - n/2) * dy with dy = 2 * extent / n, and
wavenumbers k = 2*pi*fftfreq(n, dy).  A plane-wave component exp(i k y)
acquires the phase exp(-i k^2 * Lambda * L / 4) over an axial distance L,
the unique quadratic phase mapping exp(-y^2/eps^2) to
exp(-y^2/(eps^2 + i*Lambda*L)).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ResolutionError
from .gaussian_core import FWHM_FACTOR, PhysParams

TAIL_BAND_FRACTION = 0.05
TAIL_PROB_LIMIT = 1e-6
# rows of the source generated at a time
SOURCE_BLOCK_ROWS = 64
# values of rho's diagonals flown at a time (``_chunk_rows``)
DIAGONAL_VALUES = 16384
# where the source's u factor and E are cut (module docstring)
DENSITY_FLOOR = 2.0 ** -100
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
    def y(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dy


@dataclass(frozen=True)
class Aperture:
    """Transmission profile for particle 1.

    kinds: 'gaussian' (amplitude exp(-y^2/epsilon^2)), 'rect' (hard slit of
    ``full_width``), 'double_slit' (two hard slits of ``slit_width`` whose
    centers are ``separation`` apart), 'point' (narrow Gaussian sampler on
    axis, one grid step wide).
    """

    kind: str
    epsilon: float = 0.0
    full_width: float = 0.0
    slit_width: float = 0.0
    separation: float = 0.0

    def __post_init__(self):
        if self.kind == "gaussian":
            if not self.epsilon > 0:
                raise DomainError("gaussian aperture needs epsilon > 0")
        elif self.kind == "rect":
            if not self.full_width > 0:
                raise DomainError("rect aperture needs full_width > 0")
        elif self.kind == "double_slit":
            if not self.separation > self.slit_width > 0:
                raise DomainError("double slit needs separation > slit_width > 0")
        elif self.kind != "point":
            raise DomainError(f"unknown aperture kind {self.kind!r}")

    def check_resolved(self, n: int, dy: float):
        """Refuse a Gaussian aperture that an n-point grid of step dy cannot
        resolve.  Its amplitude exp(-y^2/epsilon^2) has momentum spectrum
        |phi(k)|^2 ~ exp(-k^2 epsilon^2 / 2), of standard deviation
        1/epsilon, so ``max_step``'s rule needs dy <= pi epsilon / 4
        (``gaussian_max_step``).  The one-step 'point' sampler is narrower
        than that on purpose and is exempt."""
        if self.kind != "gaussian":
            return
        step = gaussian_max_step(self.epsilon)
        if dy > step:
            # n is a power of two, so n dy / 2 is the grid's extent exactly
            need = points_for_step(n * dy / 2.0, step, n)
            raise ResolutionError(
                f"gaussian aperture epsilon {self.epsilon:.3g} mm unresolved: "
                f"step {dy:.3g} mm, need dy <= {step:.3g} mm (n >= {need} on "
                f"this extent)")

    def sample(self, y: np.ndarray, dy: float) -> np.ndarray:
        """Normalized amplitude profile on the grid (sum |phi|^2 dy = 1)."""
        self.check_resolved(y.size, dy)
        if self.kind == "gaussian":
            phi = np.exp(-(y ** 2) / self.epsilon ** 2)
        elif self.kind == "rect":
            phi = (np.abs(y) < self.full_width / 2.0).astype(float)
        elif self.kind == "double_slit":
            phi = (np.abs(np.abs(y) - self.separation / 2.0)
                   < self.slit_width / 2.0).astype(float)
        else:  # point
            phi = np.exp(-(y ** 2) / dy ** 2)
        norm = math.sqrt(float(np.sum(np.abs(phi) ** 2)) * dy)
        if norm == 0.0:
            raise ResolutionError("aperture has no support on this grid")
        return phi.astype(complex) / norm


@dataclass
class WidthResult:
    rms: float
    fwhm: float
    gaussian_equiv_W: float


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


def _check_source(a: float, omega: float, grid: GridSpec):
    """Refuse an a or omega that is not positive and finite, and a grid
    whose extent or step cannot hold the source."""
    if not (0 < a < math.inf and 0 < omega < math.inf):
        raise DomainError("a and omega must be positive and finite")
    need = required_extent(a, omega)
    if grid.extent < need:
        raise ResolutionError(
            f"extent {grid.extent} mm too small: need >= {need:.3g} mm "
            f"for a={a}, omega={omega}"
        )
    step = max_step(a, omega)
    if grid.dy > step:
        need = points_for_step(grid.extent, step, grid.n)
        raise ResolutionError(
            f"step {grid.dy:.3g} mm too coarse: need dy <= "
            f"{step:.3g} mm to hold the momentum spectrum (n >= {need} on "
            f"this extent)"
        )


@dataclass(frozen=True)
class SourceTables:
    """The source's two Gaussian factors on a grid of n points, one 1-D table
    each.  Sample (i, j) has u = (i - j) dy and v = (i + j - n) dy, so it is
    u_factor[n - 1 + j - i] * v_factor[i + j] with

        u_factor[n - 1 + d] = exp(-(d dy)^2 / a^2),          d = 1 - n .. n - 1,
        v_factor[n + s] = exp(-(s dy)^2 / (4 omega^2)),      s = -n .. n - 2,

    each u_factor entry below DENSITY_FLOOR taken as 0.0 (module docstring):
    ``reach`` R is the largest |d| kept.  ``u_factor`` is even in d bit for
    bit, since (-d) dy = -(d dy) exactly.  Both tables are read-only.
    """

    reach: int
    u_factor: np.ndarray
    v_factor: np.ndarray


def _gaussian_table(first: int, size: int, dy: float,
                    scale: float) -> np.ndarray:
    """exp(-(t dy)^2 / scale) for t = first .. first + size - 1, computed in
    place."""
    table = np.arange(first, first + size, dtype=float)
    table *= dy
    np.square(table, out=table)
    table /= -scale
    np.exp(table, out=table)
    return table


def source_tables(a: float, omega: float, grid: GridSpec) -> SourceTables:
    """The two factor tables of the source on ``grid``, 4 n - 2 values."""
    n, dy = grid.n, grid.dy
    u_factor = _gaussian_table(1 - n, 2 * n - 1, dy, a ** 2)
    u_factor[u_factor < DENSITY_FLOOR] = 0.0
    v_factor = _gaussian_table(-n, 2 * n - 1, dy, 4.0 * omega ** 2)
    u_factor.flags.writeable = v_factor.flags.writeable = False
    # u_factor is even and falls from d = 0, so it keeps d = -R .. R
    reach = int(np.count_nonzero(u_factor)) // 2
    return SourceTables(reach, u_factor, v_factor)


def source_rows(tables: SourceTables, start: int,
                stop: int) -> tuple[slice, np.ndarray]:
    """Rows start:stop of the unnormalized source
    exp(-u^2/a^2) exp(-v^2/(4 omega^2)) with u = y1 - y2, v = y1 + y2, cut
    where its u factor falls below DENSITY_FLOOR, as (cols, band): ``cols``
    is the band of columns within ``tables.reach`` of some row, outside
    which every sample is 0.0 and is not evaluated, and band[:, j] is column
    cols.start + j.  Row 0 and column 0, the grid's self-mirrored edge, are
    0.0 (module docstring).

    The band is one product of two read-only views of ``tables``: a Toeplitz
    view of the u factor and a Hankel view of the v factor, so a block takes
    one multiply a sample and no temporary.  Both factors are exact under
    i <-> j and even about the grid's centre, so the sampled source is
    exchange- and mirror-symmetric bit for bit.
    """
    n = (tables.u_factor.size + 1) // 2
    cols = slice(max(0, start - tables.reach), min(n, stop + tables.reach))
    shape = (stop - start, cols.stop - cols.start)
    item = tables.u_factor.itemsize
    # views on the tables' buffers, which the constructor bounds-checks:
    # sample (start + r, cols.start + c) is u_factor[k - r + c] with
    # k = n - 1 + cols.start - start, times v_factor[start + cols.start + r + c]
    toeplitz = np.ndarray(shape, float, tables.u_factor,
                          (n - 1 + cols.start - start) * item, (-item, item))
    hankel = np.ndarray(shape, float, tables.v_factor,
                        (start + cols.start) * item, (item, item))
    # np.multiply would stage these overlapping views through two iterator
    # buffers of np.getbufsize() values; einsum reads them directly, and its
    # one-term products are np.multiply's bits
    band = np.einsum("ij,ij->ij", toeplitz, hankel)
    if start == 0:
        band[0] = 0.0
    if cols.start == 0:
        band[:, 0] = 0.0
    return cols, band


def _source_blocks(tables: SourceTables):
    """(row slice, column band, band) of the unnormalized source,
    SOURCE_BLOCK_ROWS rows at a time from ``tables`` (see ``source_rows``);
    the block size divides every grid's n, a power of two."""
    n = (tables.u_factor.size + 1) // 2
    for start in range(0, n, SOURCE_BLOCK_ROWS):
        rows = slice(start, start + SOURCE_BLOCK_ROWS)
        cols, band = source_rows(tables, start, rows.stop)
        yield rows, cols, band


def _tail_failures(prob: np.ndarray,
                   failures: dict[int, Exception]) -> dict[int, Exception]:
    """Add to ``failures``, {row: first error}, and return it, an error for
    each probability profile along the last axis of ``prob`` (a 1-D one is
    row 0) whose outer bands hold more than TAIL_PROB_LIMIT of its total:
    spectral flight has wrapped it.  A row that failed before keeps its
    first error."""
    rows = prob.reshape(-1, prob.shape[-1])
    band = max(1, int(round(TAIL_BAND_FRACTION * rows.shape[1])))
    tail = np.sum(rows[:, :band], axis=1) + np.sum(rows[:, -band:], axis=1)
    total = np.sum(rows, axis=1)
    for k in np.flatnonzero(tail > TAIL_PROB_LIMIT * total):
        failures.setdefault(int(k), ResolutionError(
            f"propagated state reaches the domain boundary (tail probability "
            f"{tail[k] / total[k]:.3g} > {TAIL_PROB_LIMIT}); enlarge the extent"))
    return failures


def _check_tails(prob: np.ndarray):
    """Refuse a 1-D profile that ``_tail_failures`` flags."""
    for error in _tail_failures(prob, {}).values():
        raise error


def _flight_phase(n: int, dy: float, L: float, params: PhysParams) -> np.ndarray:
    """Spectral free-flight factor exp(-i k^2 Lambda L / 4) on the FFT axis."""
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dy)
    return np.exp(-0.25j * params.rescaled_wavelength_mm * L * k ** 2)


def fly(amp: np.ndarray, dy: float, L: float, params: PhysParams) -> np.ndarray:
    """Spectral free flight over L along the last axis of the complex array
    ``amp``, in place, returning it; no tail guard: for the modes a pass
    flies back, whose tails say nothing about a wrapped state."""
    if L != 0:
        np.fft.fft(amp, out=amp)
        amp *= _flight_phase(amp.shape[-1], dy, L, params)
        np.fft.ifft(amp, out=amp)
    return amp


def propagate_amplitude(amp: np.ndarray, dy: float, L: float,
                        params: PhysParams) -> np.ndarray:
    """Single-particle spectral free flight of a sampled 1-D amplitude,
    into a new array."""
    if L < 0:
        raise DomainError("propagation distance must be >= 0")
    out = fly(np.array(amp, dtype=complex), dy, L, params)
    if L > 0:
        _check_tails(np.abs(out) ** 2)
    return out


@dataclass
class SourcePass:
    """What one :func:`source_pass` over the source yields.

    ``norm`` is the squared norm of the source as sampled.  ``slit_plane`` and
    ``beam`` are particle 2's intensity of that source flown over L1 and over
    the beam distance, from rho's diagonals (``_density_flights``), or its
    source-plane intensity over a distance of 0 (``beam`` is None without
    one, and ``slit_plane`` itself when the beam lies at L1); each integrates
    to its flown norm.
    ``amplitude[k]`` is particle 2's amplitude at the slit plane, normalized,
    conditioned on particle 1's detector mode k, and ``weight[k]`` its
    coincidence weight; ``failures`` maps a failed row to the first error it
    hit: its aperture unresolved, its flight wrapped or its weight
    degenerate.  ``guard`` is the profile of a d1 leg's guard, unnormalized,
    and None without one.
    """

    y: np.ndarray
    dy: float
    params: PhysParams
    norm: float
    slit_plane: np.ndarray
    beam: np.ndarray | None
    amplitude: np.ndarray
    weight: np.ndarray
    failures: dict[int, Exception]
    guard: np.ndarray | None

    def fly(self, L: float) -> SourcePass:
        """Fly every row a further L >= 0 in place and tail-check it."""
        fly(self.amplitude, self.dy, L, self.params)
        if L > 0:
            _tail_failures(np.abs(self.amplitude) ** 2, self.failures)
        return self

    def widths(self, k: int) -> WidthResult:
        """Width measures of |row k|^2, or row k's first failure raised."""
        if k in self.failures:
            raise self.failures[k]
        return intensity_widths(self.y, np.abs(self.amplitude[k]) ** 2,
                                self.dy)


def _diagonal_scale(a: float, omega: float) -> float:
    """The scale of E(d) = exp(-(d dy)^2 / scale), the factor of rho's
    diagonal d (module docstring): 1 / (1/(2 a^2) + 1/(8 omega^2))."""
    return 1.0 / (0.5 / a ** 2 + 0.125 / omega ** 2)


def _density_count(a: float, omega: float, grid: GridSpec) -> int:
    """D + 1, the number of diagonals d = 0..D of rho = psi^T psi that a
    pass keeps: those with E(d) >= DENSITY_FLOOR, at most n."""
    reach = math.sqrt(-math.log(DENSITY_FLOOR) * _diagonal_scale(a, omega))
    return int(min(grid.n - 1, reach / grid.dy)) + 1


def _diagonal_chunk(e: np.ndarray, diagonals, first: int,
                    out: np.ndarray) -> np.ndarray:
    """Write diagonals d = first .. first + len(out) - 1 of rho, each scaled
    by e[d], into ``out`` from the walk's ``diagonals`` (r_0, r_1):
    out[d - first, j] = e[d] r_{d mod 2}(j + d // 2) where column j and row
    j + d lie on the grid and are not its self-mirrored edge (module
    docstring), and 0.0 elsewhere."""
    m, n = out.shape
    for row, d in enumerate(range(first, first + m)):
        half = d // 2
        np.multiply(diagonals[d % 2][half:half + n - d], e[d],
                    out=out[row, :n - d])
        # rho(j, j + d) with j + d >= n is off the grid
        out[row, n - d:] = 0.0
    out[:, 0] = 0.0
    return out


def _chunk_rows(n: int, count: int) -> int:
    """Diagonals of rho that ``_density_flights`` flies at a time on an
    n-point grid keeping ``count`` of them: DIAGONAL_VALUES // n, but at
    least 4, as a batched real transform of fewer rows runs slower a value,
    and at most ``count``."""
    return min(count, max(4, DIAGONAL_VALUES // n))


def _kernel_windows(n: int, dy: float, L: float, params: PhysParams,
                    count: int) -> tuple[np.ndarray, np.ndarray]:
    """(parts, windows) of the flight kernel K = ifft(flight phase) over L:
    parts is Re K and Im K, and windows[:, D - d] is K(x - d), x = 0..n-1,
    for d = 0..D, D + 1 = ``count``: views on one array of n + D values a
    row, K's last D values then K."""
    kernel = np.fft.ifft(_flight_phase(n, dy, L, params))
    parts = np.stack([kernel.real, kernel.imag])
    tiled = np.concatenate([parts[:, n - count + 1:], parts], axis=1)
    return tiled[:, count - 1:], np.lib.stride_tricks.sliding_window_view(
        tiled, n, axis=1)


def _density_flights(a: float, omega: float, grid: GridSpec, diagonals,
                     flights, params: PhysParams) -> list[np.ndarray]:
    """Particle 2's intensity diag(U rho U^H) flown over each L in
    ``flights``, from rho's diagonals r_d(j) = rho(j, j+d), d = 0..D, which
    the walk's two, ``diagonals`` = (r_0, r_1) of n and n - 1 values, fix:
    r_d(j) = E(d) / E(d mod 2) r_{d mod 2}(j + d // 2) (module docstring).

    With K = ifft(flight phase), the flight kernel, rho real and symmetric:
    I = sum_d w_d Re(G_d) (*) r_d, a circular convolution with
    G_d(x) = K(x) conj K(x - d), w_0 = 1 and w_d = 2 for d > 0.  Diagonals
    are built from r_0, r_1 and a table of E over D + 1 values,
    ``_chunk_rows`` at a time, and go through real transforms; each chunk's
    spectrum serves every flight.  A chunk takes three buffers of its size,
    one real and two of half-spectra, whatever D: its diagonals share the
    real one with each flight's Re G_d, as their transform has read them
    before Re G_d is written.  Each flight holds its kernel over n + D values
    (``_kernel_windows``).
    """
    n, dy = grid.n, grid.dy
    count = _density_count(a, omega, grid)
    e = _gaussian_table(0, count, dy, _diagonal_scale(a, omega))
    # diagonal d scales diagonal d mod 2 by E(d) / E(d mod 2), and rho is
    # symmetric: diagonal d > 0 also stands for diagonal -d
    e[1::2] /= e[1]
    e[1:] *= 2.0
    chunk = _chunk_rows(n, count)
    kernels = [_kernel_windows(n, dy, L, params, count) for L in flights]
    spectra = [np.zeros(n // 2 + 1, dtype=complex) for _ in flights]
    re_g = np.empty((chunk, n))
    rho_hat = np.empty((chunk, n // 2 + 1), dtype=complex)
    kernel_hat = np.empty_like(rho_hat)
    for d0 in range(0, count, chunk):
        d1 = min(d0 + chunk, count)
        m = d1 - d0
        np.fft.rfft(_diagonal_chunk(e, diagonals, d0, re_g[:m]),
                     out=rho_hat[:m])
        for (parts, windows), spectrum in zip(kernels, spectra):
            # Re G_d = Re K * Re K(. - d) + Im K * Im K(. - d)
            np.einsum("kx,kmx->mx", parts,
                      windows[:, count - d1:count - d0][:, ::-1],
                      out=re_g[:m])
            np.fft.rfft(re_g[:m], out=kernel_hat[:m])
            np.multiply(kernel_hat[:m], rho_hat[:m], out=kernel_hat[:m])
            spectrum += kernel_hat[:m].sum(axis=0)
    return [np.fft.irfft(spectrum, n) for spectrum in spectra]


def peak_bytes(a: float, omega: float, grid: GridSpec, modes: int,
               points: int = 0) -> int:
    """Modelled peak memory of a :func:`source_pass` on ``grid`` over
    K = ``modes`` detector modes and the |S| = ``points`` point modes of a d1
    leg's guard, with its Gram: the sum of what each stage allocates,
    8 bytes a real value.  The stages do not hold their arrays all at once,
    so the sum bounds the peak with room for each stage's one-axis
    transients; the tests hold traced peaks between half the model and the
    model.

    - The K + |S| modes, flown in place and overwritten by their
      projections, and their real and imaginary products: 4 (K + |S|) n
      values, which cover the K x n real intensity the rows are weighed by
      too.
    - The block walk: the band of a block and the next one being generated,
      64 x w values each with w = min(n, 64 + 2 R) columns, the block's
      2 (K + |S|) x 64 stacked modes and their 2 (K + |S|) x w product, the
      source's two factor tables of 2 n - 1 values each, and rho's diagonal
      1, n - 1 values, which it sums beside particle 2's source-plane
      intensity.
    - The flights (``_density_flights``): one ``_chunk_rows`` chunk in its
      three buffers, two flights' kernels over n + D values a row and their
      spectra, and E over D + 1 values.
    - The guard's Gram over its |S| <= n points: |S|^2 complex values.

    R and D + 1 come from their closed forms, so the model builds no table.
    """
    n = grid.n
    rows = modes + points
    # R: the source's u factor exp(-(d dy)^2 / a^2) >= DENSITY_FLOOR
    reach = int(min(n - 1, a * math.sqrt(-math.log(DENSITY_FLOOR)) / grid.dy))
    width = min(n, SOURCE_BLOCK_ROWS + 2 * reach)
    count = _density_count(a, omega, grid)
    spectrum = n + 2  # the real values of an rfft's n // 2 + 1 outputs
    held = 4 * rows * n
    walk = (2 * SOURCE_BLOCK_ROWS * width
            + 2 * rows * (SOURCE_BLOCK_ROWS + width) + 2 * (2 * n - 1)
            + (n - 1))
    flights = (_chunk_rows(n, count) * (n + 2 * spectrum)
               + 2 * (2 * (n + count - 1) + spectrum) + count)
    gram = 2 * points * points
    return 8 * (held + walk + flights + gram)


def _check_grid_cap(a: float, omega: float, grid: GridSpec, modes: int,
                    points: int):
    """Refuse a pass on ``grid`` over ``modes`` detector modes and a guard's
    ``points`` whose modelled peak memory (``peak_bytes``) exceeds the
    MAX_GRID_ENV cap, or the machine's physical memory when it is unset."""
    cap = os.environ.get(MAX_GRID_ENV)
    if cap:
        try:
            cap_bytes = int(cap)
        except ValueError:
            raise ConfigError(
                f"{MAX_GRID_ENV} must be an integer byte count, got {cap!r}")
        name = MAX_GRID_ENV
    else:
        cap_bytes = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        name = "physical memory"
    need = peak_bytes(a, omega, grid, modes, points)
    if need > cap_bytes:
        guard = f" and {points} point{'' if points == 1 else 's'}" if points else ""
        raise ConfigError(
            f"oracle pass on n = {grid.n} over {modes} "
            f"mode{'' if modes == 1 else 's'}{guard} needs {need} bytes, over "
            f"the {name} cap of {cap_bytes}")


def source_pass(a: float, omega: float, grid: GridSpec, params: PhysParams,
                L1: float, apertures=(), beam_L: float | None = None,
                d1: float | None = None) -> SourcePass:
    """Particle 2's amplitudes at the slit plane L1 conditioned on each of
    particle 1's ``apertures`` there, and its marginals, from one pass over
    row blocks of the source with no n x n array.

    Each aperture phi gives the slit-plane mode conj(phi), sampled one row
    at a time after the source is checked.  An aperture the grid cannot
    resolve (``Aperture.sample`` raises ResolutionError) leaves its row 0.0
    with that error as the row's failure, and the other rows run.  Given
    ``d1``, particle 1 passes its one aperture, a mask m, flies a further d1
    and is point-detected on axis: the pass conditions on the one mode
    m * fly(conj(point), d1) (module docstring) and guards the d1 leg
    (below), so a mask the grid cannot resolve is refused.  ``d1`` with any
    other number of apertures is refused, as is a distance that is not
    >= 0, NaN included.

    Before it allocates its modes, the pass refuses with ConfigError a
    modelled peak (``peak_bytes``) over its K modes above the MAX_GRID_ENV
    cap, or above the machine's physical memory when that is unset; a d1
    leg is checked again with its |S| points once its mask is sampled.  The
    source is checked first, as the model divides by a and omega.

    The pass flies the modes back over L1 in place, with no tail check.
    Each block of SOURCE_BLOCK_ROWS rows is generated on its diagonal band
    only, multiplied into the block's columns of every flown mode, real and
    imaginary parts stacked, and its band's column sums of squares are added
    to particle 2's source-plane intensity, whose total is the source norm.
    The sums of its adjacent columns' products are added to rho's diagonal
    1 (module docstring).  No block is transformed.  Besides the modes, the
    pass holds their 2 K x n real products, so at most two K x n complex
    arrays' worth.  After the last block ``_density_flights`` builds the
    D + 1 diagonals of rho = psi^T psi from diagonals 0 and 1, the
    source-plane intensity and that sum, a chunk at a time, and flies them
    to particle 2's intensity over L1 and, when given, over ``beam_L``: once
    per distinct nonzero distance, whatever K, so with ``beam_L == L1`` the
    two are one array.  An intensity over L = 0 is the source-plane
    intensity, and every intensity is tail-checked.  The normalized
    projections then take the modes' buffer, and ``_normalize`` flies the
    detector modes' rows over L1 in it, in one ``fly``.

    The d1 leg's guard is particle 1's real intensity behind the mask,
    flown d1 and summed over particle 2 (the back-flown modes spread over
    the grid by design), from the same pass: on S, the samples with
    |m_j| >= DENSITY_FLOOR max|m|, particle 1's slit-plane amplitude for
    each row of particle 2 is the projection P on the points delta_j,
    slit-plane modes that follow the detector mode in the pass.  With
    A = m_S P, C = A A^H and K_j = fly(delta_j, d1), the guard is
    Re sum_{s,t} K_s C_st conj K_t, as particle 2's flight is unitary.  The
    samples left out move its total by at most 2^-99/sqrt(q) + 2^-200/q of
    itself, q the mask's transmitted share over max|m|^2.  It holds C and at
    most two arrays of |S| + 1 rows of n complex values: A is taken in place
    in the projections' buffer, and the kernels K then take A's rows, flown
    and conjugated in place.  The guard is kept as ``guard`` and, for
    d1 > 0, tail-checked, and the detector mode's row is copied out, so the
    returned pass holds none of those arrays.  ``peak_bytes`` models the
    pass's peak memory from them.
    """
    if not all(L >= 0 for L in (L1, beam_L, d1) if L is not None):
        raise DomainError("propagation distances must be >= 0")
    if d1 is not None and len(apertures) != 1:
        raise DomainError(f"a d1 leg takes one aperture, got {len(apertures)}")
    _check_source(a, omega, grid)
    # the modes first: a d1 leg's points are counted once its mask is sampled
    _check_grid_cap(a, omega, grid, len(apertures), 0)
    n, dy, y = grid.n, grid.dy, grid.y
    failures = {}
    if d1 is None:
        modes = np.empty((len(apertures), n), dtype=complex)
        for k, aperture in enumerate(apertures):
            try:
                modes[k] = np.conj(aperture.sample(y, dy))
            except ResolutionError as exc:
                # the row is 0.0 and fails alone
                modes[k] = 0.0
                failures[k] = exc
    else:
        # aperture scale drops out after the renormalized conditioning
        mask = apertures[0].sample(y, dy)
        support = np.flatnonzero(
            np.abs(mask) >= DENSITY_FLOOR * np.abs(mask).max())
        _check_grid_cap(a, omega, grid, 1, support.size)
        point = Aperture(kind="point").sample(y, dy)
        # the detector mode's chain up to the slit plane, then a point on
        # each sample of S; the points are built again for the d1 leg, not
        # held through the pass
        points = np.arange(support.size)
        modes = np.zeros((1 + support.size, n), dtype=complex)
        modes[0] = mask * fly(np.conj(point), dy, d1, params)
        modes[1 + points, support] = 1.0
    tables = source_tables(a, omega, grid)
    # particle 1's flight from the slit plane back to the source
    fly(modes, dy, L1, params)
    # real and imaginary rows of the projections, summed apart
    products = np.zeros((2 * len(modes), n))
    # particle 2's intensity at the source plane, unscaled: each block adds
    # its band's column sums of squares.  Its total is the source norm, and
    # a flight over L = 0 reads it.
    source_plane = np.zeros(n)
    # rho's diagonal 1: each block adds its band's sums over rows of
    # adjacent columns' products
    adjacent = np.zeros(n - 1)
    for rows, cols, band in _source_blocks(tables):
        source_plane[cols] += np.einsum("ij,ij->j", band, band)
        adjacent[cols.start:cols.stop - 1] += np.einsum(
            "ij,ij->j", band[:, :-1], band[:, 1:])
        # the block's columns of the modes, real and imaginary parts
        # stacked: one real product per block
        block = modes[:, rows]
        products[:, cols] += np.concatenate([block.real, block.imag]) @ band
    # the last block is done: the flights below need no source
    del tables
    flights = [L1] if beam_L is None else [L1, beam_L]
    # each distinct nonzero distance is flown once
    flown = [L for L in dict.fromkeys(flights) if L > 0]
    marginals = dict(zip(flown, _density_flights(
        a, omega, grid, (source_plane, adjacent), flown,
        params))) if flown else {}
    intensities = {L: marginals.get(L, source_plane) for L in flights}
    # the norm before the source-plane intensity is scaled in place below
    norm = float(np.sum(source_plane)) * dy * dy
    # Particle 1's slit-plane intensity equals particle 2's: the sampled
    # source is exchange-symmetric bit for bit (see source_rows) and both
    # particles fly L1, so the one check below guards both axes.
    for total in intensities.values():
        total *= dy
        _check_tails(total)
    products *= dy / math.sqrt(norm)
    # the projections take the flown modes' buffer
    modes.real, modes.imag = products[:len(modes)], products[len(modes):]
    del products
    guard = None
    if d1 is not None:
        amp = modes[1:]
        amp *= mask[support, None]
        gram = amp @ amp.conj().T
        # the point kernels K_j take the points' rows, flown in place and
        # conjugated in place
        amp[:] = 0.0
        amp[points, support] = 1.0
        fly(amp, dy, d1, params)
        guard = np.einsum("sx,sx->x", gram.T @ amp,
                          np.conj(amp, out=amp)).real
        if d1 > 0:
            _check_tails(guard)
    # a d1 leg's detector row is copied out of its guard's buffer, so the
    # returned pass does not hold that buffer
    amplitude = modes if d1 is None else modes[:1].copy()
    weight = _normalize(amplitude, dy, L1, params, failures)
    return SourcePass(y=y, dy=dy, params=params, norm=norm,
                      slit_plane=intensities[L1],
                      beam=None if beam_L is None else intensities[beam_L],
                      amplitude=amplitude, weight=weight, failures=failures,
                      guard=guard)


def _normalize(rows: np.ndarray, dy: float, L1: float, params: PhysParams,
               failures: dict[int, Exception]) -> np.ndarray:
    """The weights of the projections ``rows``, flown over L1 in place in
    one ``fly``, then tail-checked, weighed and normalized in place.
    ``failures`` maps a row to the first error it hit: one that failed
    before (an unresolved aperture's 0.0 row), whose flight wraps, or whose
    weight is below 1e-12 keeps that first failure there, unnormalized."""
    fly(rows, dy, L1, params)
    prob = np.abs(rows) ** 2
    if L1 > 0:
        _tail_failures(prob, failures)
    weight = np.sum(prob, axis=1) * dy
    del prob
    for k in np.flatnonzero(weight < 1e-12):
        failures.setdefault(int(k), DomainError(
            f"degenerate conditioning: coincidence weight {weight[k]:.3g}"))
    scale = np.sqrt(weight)
    scale[list(failures)] = 1.0
    rows /= scale[:, None]
    return weight


def _local_maxima(intensity: np.ndarray, floor: float) -> np.ndarray:
    left = intensity[1:-1] > intensity[:-2]
    right = intensity[1:-1] >= intensity[2:]
    idx = np.flatnonzero(left & right) + 1
    return idx[intensity[idx] > floor]


def _half_crossing(y, intensity, i_peak, half, step):
    """Linearly interpolated position where intensity falls to half, walking
    from i_peak in direction step."""
    i = i_peak
    while 0 < i < intensity.size - 1 and intensity[i + step] >= half:
        i += step
    j = i + step
    if j < 0 or j >= intensity.size:
        return y[i]
    frac = (intensity[i] - half) / (intensity[i] - intensity[j])
    return y[i] + frac * (y[j] - y[i])


def intensity_widths(y: np.ndarray, intensity: np.ndarray,
                     dy: float) -> WidthResult:
    """Width measures of a sampled 1-D intensity profile.

    rms is the second central moment; fwhm comes from linear interpolation
    around half maximum (global-max lobe when the profile is multimodal);
    gaussian_equiv_W = 2 * rms, exact for a Gaussian intensity
    exp(-2 y^2 / W^2).
    """
    total = float(np.sum(intensity)) * dy
    if total <= 0:
        raise DomainError("intensity profile is empty")
    p = intensity / total
    mean = float(np.sum(y * p) * dy)
    rms = math.sqrt(float(np.sum((y - mean) ** 2 * p) * dy))
    i_peak = int(np.argmax(intensity))
    half = intensity[i_peak] / 2.0
    y_lo = _half_crossing(y, intensity, i_peak, half, -1)
    y_hi = _half_crossing(y, intensity, i_peak, half, +1)
    return WidthResult(rms=rms, fwhm=float(y_hi - y_lo),
                       gaussian_equiv_W=2.0 * rms)


@dataclass
class GhostPattern:
    """Coincidence intensity behind a fixed partner detector."""

    y: np.ndarray
    intensity: np.ndarray
    dy: float
    weight: float
    fringe_spacing: float
    visibility: float
    envelope_fwhm: float


def fringe_metrics(y: np.ndarray, intensity: np.ndarray):
    """(spacing, visibility) of the central fringes, (nan, 0) when smooth.

    Spacing is the mean distance from the central maximum to its two
    neighbouring maxima; visibility contrasts the central maximum against
    the first interior minimum.
    """
    floor = 0.05 * float(intensity.max())
    maxima = _local_maxima(intensity, floor)
    if maxima.size < 2:
        return float("nan"), 0.0
    central = maxima[np.argmin(np.abs(y[maxima]))]
    left = [i for i in maxima if i < central]
    right = [i for i in maxima if i > central]
    gaps = []
    lows = []
    for side in (left, right):
        if not side:
            continue
        neighbour = min(side, key=lambda i: abs(y[i] - y[central]))
        gaps.append(abs(y[neighbour] - y[central]))
        lo, hi = sorted((neighbour, central))
        lows.append(float(intensity[lo:hi + 1].min()))
    spacing = float(np.mean(gaps))
    i_max = float(intensity[central])
    i_min = min(lows)
    return spacing, (i_max - i_min) / (i_max + i_min)


def ghost_double_slit(a: float, omega: float, grid: GridSpec, slit: Aperture,
                      L1: float, d1: float, L2: float,
                      params: PhysParams) -> GhostPattern:
    """Coincidence pattern of particle 2 behind an aperture on particle 1.

    Both particles fly L1 from the source.  Particle 1 passes ``slit``,
    flies a further d1, and is point-detected on axis; particle 2 then flies
    L2 to its detector.  One :func:`source_pass` with its d1 leg conditions
    the source on that chain and guards the leg; a distance that is not
    >= 0 is refused.
    """
    if not L2 >= 0:
        raise DomainError("propagation distances must be >= 0")
    source = source_pass(a, omega, grid, params, L1, [slit], d1=d1).fly(L2)
    env = source.widths(0)
    intensity = np.abs(source.amplitude[0]) ** 2
    spacing, visibility = fringe_metrics(source.y, intensity)
    return GhostPattern(y=source.y, intensity=intensity, dy=source.dy,
                        weight=float(source.weight[0]), fringe_spacing=spacing,
                        visibility=visibility,
                        envelope_fwhm=2.0 * env.rms * FWHM_FACTOR)
