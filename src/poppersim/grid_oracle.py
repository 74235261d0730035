"""Brute-force two-particle grid simulator.

Samples the source psi(y1, y2) on an n-point grid per axis, a band of rows
at a time and never as an n x n array, flies one-particle amplitudes and
particle 2's marginals spectrally (exactly unitary), applies arbitrary
apertures by direct quadrature, and extracts widths from sampled
intensities.  Everything here is deliberately independent of the closed
forms in ``gaussian_core`` so the two can be checked against each other.

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

    I = sum_d w_d Re(G_d) (*) r_d,   w_0 = 1, w_d = 2 (d > 0),

a sum of real circular convolutions, exactly on the periodic grid, because
rho is real and symmetric.  r_d is 0.0 off 1 <= j <= n - d - 1, and on it
r_d(j) = c_d r_p(j + h) with d = 2 h + p, p = d mod 2 and
c_d = w_d E(d) / E(p).  So with m = j + h, the fold terms and their
suffix sums

    S_h^p(y) = c_d Re(K(y + h) conj K(y - h - p)),   P_m^p = sum_{h>=m} S_h^p,

the diagonals of parity p sum to sum_h sum_m r_p(m) S_h^p(x - m) over
h < m < n - h - p.  Over every m the sum is one circular convolution,
P_0^p (*) r_p.  Two edge sums take out the m the window on j cuts off:
m <= h (j <= 0) and m >= n - h - p (j + d >= n), which no term is both, as
d < n.  With r_1 read as 0 at n - 1 and r_p(0) = 0.0,

    I(x) = sum_p [ (P_0^p (*) r_p)(x) - sum_{m>=1} r_p(m) P_m^p(x - m)
                   - sum_{q>=1-p} r_p(n - q - p) P_q^p(x + q + p) ].

The fold is an identity on the same sum, so it moves a flown intensity by
rounding alone, and the bounds below, on moves of the r_d, hold for it
unchanged.  A flight costs O((D + 1) n) products and adds and, beside its
kernel's transform, three real transforms, whatever D.  Particle 2's flown
marginals always take this route, at every band width.

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
# defined beside the grid oracle, without numpy, for the CLI and scenario
# parsing; both are this module's names too
from .grid import MAX_GRID_ENV, GridSpec

TAIL_BAND_FRACTION = 0.05
TAIL_PROB_LIMIT = 1e-6
# rows of the source generated at a time
SOURCE_BLOCK_ROWS = 64
# values of the flights' fold terms built at a time (``_chunk_rows``)
DIAGONAL_VALUES = 16384
# where the source's u factor and E are cut (module docstring)
DENSITY_FLOOR = 2.0 ** -100


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

    u_factor filled on d = -R .. R alone, ``reach`` R = ``_cut_reach``, the
    largest |d| whose entry is at least DENSITY_FLOOR, and 0.0 past it
    (module docstring).  ``u_factor`` is even in d bit for bit, since
    (-d) dy = -(d dy) exactly.  Both tables are read-only.
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


def _cut_reach(scale: float, grid: GridSpec) -> int:
    """The largest d <= n - 1 with exp(-(d dy)^2 / scale) >= DENSITY_FLOOR:
    R for the source's u factor (scale a^2), D for E (``_diagonal_scale``)."""
    reach = math.sqrt(-math.log(DENSITY_FLOOR) * scale)
    return int(min(grid.n - 1, reach / grid.dy))


def source_tables(a: float, omega: float, grid: GridSpec) -> SourceTables:
    """The two factor tables of the source on ``grid``, 4 n - 2 values."""
    n, dy = grid.n, grid.dy
    reach = _cut_reach(a ** 2, grid)
    u_factor = np.zeros(2 * n - 1)
    u_factor[n - 1 - reach:n + reach] = _gaussian_table(
        -reach, 2 * reach + 1, dy, a ** 2)
    v_factor = _gaussian_table(-n, 2 * n - 1, dy, 4.0 * omega ** 2)
    u_factor.flags.writeable = v_factor.flags.writeable = False
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
    """Spectral free-flight factor exp(-i k^2 Lambda L / 4) on the FFT axis.
    Every flight builds its phase here, so this is where a distance that is
    not finite and >= 0, NaN included, is refused."""
    if not 0 <= L < math.inf:
        raise DomainError("propagation distances must be finite and >= 0")
    # built in place, the same operations in the same order: n wavenumbers
    # beside the 2 n-value phase
    k = np.fft.fftfreq(n, d=dy)
    k *= 2.0 * np.pi
    np.square(k, out=k)
    phase = np.empty(n, dtype=complex)
    np.multiply(-0.25j * params.rescaled_wavelength_mm * L, k, out=phase)
    return np.exp(phase, out=phase)


def fly(amp: np.ndarray, dy: float, L: float, params: PhysParams) -> np.ndarray:
    """Spectral free flight over L along the last axis of the complex array
    ``amp``, in place, returning it; no tail guard: for the modes a pass
    flies back, whose tails say nothing about a wrapped state.  Any L but 0
    is flown, its phase built before ``amp`` is touched, so a distance that
    ``_flight_phase`` refuses leaves ``amp`` as it was."""
    if L != 0:
        phase = _flight_phase(amp.shape[-1], dy, L, params)
        np.fft.fft(amp, out=amp)
        amp *= phase
        np.fft.ifft(amp, out=amp)
    return amp


def propagate_amplitude(amp: np.ndarray, dy: float, L: float,
                        params: PhysParams) -> np.ndarray:
    """Single-particle spectral free flight of a sampled 1-D amplitude,
    into a new array, tail-checked; ``fly`` refuses a bad distance."""
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
        """Fly every row a further L in place and tail-check it
        (``_fly_rows``); a distance that is not finite and >= 0 is refused
        with the rows untouched, and over L = 0 nothing is flown."""
        if L != 0:
            _fly_rows(self.amplitude, self.dy, L, self.params, self.failures)
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
    return _cut_reach(_diagonal_scale(a, omega), grid) + 1


def _chunk_rows(n: int, count: int) -> int:
    """Rows of one parity's fold terms S_h^p that ``_density_flights``
    builds at a time on an n-point grid keeping ``count`` diagonals of rho:
    DIAGONAL_VALUES // n, but at least 4, as a chunk of fewer rows runs
    slower a value, and at most (count + 1) // 2, parity 0's rows."""
    return min((count + 1) // 2, max(4, DIAGONAL_VALUES // n))


def _rows_view(buffer: np.ndarray, start: int, shape: tuple,
               strides: tuple) -> np.ndarray:
    """A view on the C-contiguous float ``buffer`` from its flat value
    ``start``, with byte ``strides``: a row stride one value off the
    buffer's own shifts each row one value from the last, with none of
    ``as_strided``'s per-call cost."""
    return np.ndarray(shape, dtype=float, buffer=buffer, offset=8 * start,
                      strides=strides)


def _wrap(rows: np.ndarray, reach: int):
    """Fill the first and last ``reach`` values of each of ``rows``' rows of
    n + 2 reach values from its middle n, so that value x is the middle's
    x - reach, indices mod n (reach <= n / 2)."""
    n = rows.shape[-1] - 2 * reach
    rows[..., :reach] = rows[..., n:n + reach]
    rows[..., n + reach:] = rows[..., reach:2 * reach]


def _kernel_parts(n: int, dy: float, L: float, params: PhysParams,
                  out: np.ndarray):
    """Re K and Im K of the flight kernel K = ifft(flight phase) over L,
    written into ``out``'s two rows of n + 2 reach values (``_wrap``)."""
    reach = (out.shape[1] - n) // 2
    kernel = _flight_phase(n, dy, L, params)
    np.fft.ifft(kernel, out=kernel)
    out[0, reach:reach + n] = kernel.real
    out[1, reach:reach + n] = kernel.imag
    _wrap(out, reach)


def _density_flights(a: float, omega: float, grid: GridSpec, diagonals,
                     flights, params: PhysParams) -> list[np.ndarray]:
    """Particle 2's intensity diag(U rho U^H) flown over each L in
    ``flights``, from rho's diagonals r_d(j) = rho(j, j+d), d = 0..D, which
    the walk's two, ``diagonals`` = (r_0, r_1) of n and n - 1 values, fix:
    r_d(j) = c_d r_p(j + h), d = 2 h + p, on 1 <= j <= n - d - 1, with
    c_d = w_d E(d) / E(p) (module docstring).

    The sum I = sum_d w_d Re(G_d) (*) r_d is taken through the fold of the
    module docstring, one parity p at a time.  Its terms S_h^p are built
    ``_chunk_rows`` rows at a time from the highest h down, and the suffix
    sum P_h^p is carried from chunk to chunk.  A chunk's rows hold P_h^p
    over n + 2 B values, B = (D + 1) // 2, wrapped mod n (``_wrap``), so the
    rows shifted by their own h that an edge sum reads are one view of the
    chunk, and each edge sum of a chunk is one matrix-vector product.  P_0^p
    is the last carry, and its circular convolution with r_p goes through
    real transforms; r_0's and r_1's spectra serve every flight, so a flight
    takes three real transforms beside its kernel's, whatever D.  Each
    flight holds its kernel over n + 2 B values a part (``_kernel_parts``).
    """
    n, dy = grid.n, grid.dy
    count = _density_count(a, omega, grid)
    e = _gaussian_table(0, count, dy, _diagonal_scale(a, omega))
    # diagonal d scales diagonal d mod 2 by E(d) / E(d mod 2), and rho is
    # symmetric: diagonal d > 0 also stands for diagonal -d
    e[1::2] /= e[1]
    e[1:] *= 2.0
    # B = (D + 1) // 2 values wrapped at each end of a row: every fold row
    # has h + p <= B, so each shifted view below stays inside its buffer
    reach = count // 2
    width = n + 2 * reach
    # each parity's rows h = 0 .. H_p with their weights c_d, d = 2 h + p,
    # the edge sums' coefficients r_p(m) and r_p(n - m - p) over
    # m = 0 .. H_p (the second is 0 at m = 0, where it stands for no term),
    # and r_p's spectrum
    parities = []
    for p, diagonal in enumerate(diagonals):
        rows = (count + 1 - p) // 2
        high = np.zeros(rows)
        high[1:] = diagonal[n - p - 1:n - p - rows:-1]
        parities.append((p, rows, e[p::2].tolist(), diagonal[:rows], high,
                         np.fft.rfft(diagonal, n)))
    chunk = _chunk_rows(n, count)
    folded = np.empty((chunk, width))
    carry = np.empty(n)
    # a flight's kernel, spectrum and edge sums, the same buffers each flight
    parts = np.empty((2, width))
    spectrum = np.empty(n // 2 + 1, dtype=complex)
    edges = np.empty(n)
    # byte strides of the shifted views: K's two parts with a row a value
    # up (K(. + h)) or down (K(. - h - p)) from the last, and the chunk's
    # rows a value down (P_h^p(. - h)) or up (P_h^p(. + h + p))
    kernel_up, kernel_down = (8 * width, 8, 8), (8 * width, -8, 8)
    rows_down, rows_up = (8 * (width - 1), 8), (8 * (width + 1), 8)
    out = []
    for L in flights:
        _kernel_parts(n, dy, L, params, parts)
        spectrum[:] = 0.0
        edges[:] = 0.0
        for p, rows, weights, low, high, rho_hat in parities:
            carry[:] = 0.0
            for h1 in range(rows, 0, -chunk):
                h0 = max(0, h1 - chunk)
                m = h1 - h0
                terms = folded[:m, reach:reach + n]
                # S_h^p / c_d = Re K(. + h) conj K(. - h - p), h = h0 .. h1 - 1
                np.einsum("kix,kix->ix",
                          _rows_view(parts, reach + h0, (2, m, n), kernel_up),
                          _rows_view(parts, reach - h0 - p, (2, m, n),
                                     kernel_down), out=terms)
                # the suffix sums P_h^p = c_d S_h^p + P_{h+1}^p, row by row
                # from the carried one
                above = carry
                for row, weight in zip(terms[::-1],
                                       reversed(weights[h0:h1])):
                    row *= weight
                    row += above
                    above = row
                carry[:] = terms[0]
                _wrap(folded[:m], reach)
                # the edge sums: P_h^p(x - h) and P_h^p(x + h + p) on row h
                edges += low[h0:h1] @ _rows_view(folded, reach - h0, (m, n),
                                                 rows_down)
                edges += high[h0:h1] @ _rows_view(folded, reach + h0 + p,
                                                  (m, n), rows_up)
            folded_hat = np.fft.rfft(carry)
            folded_hat *= rho_hat
            spectrum += folded_hat
        intensity = np.fft.irfft(spectrum, n)
        intensity -= edges
        out.append(intensity)
    return out


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
    - The flights (``_density_flights``): one ``_chunk_rows`` chunk of
      rows of n + 2 B values, B = (D + 1) // 2, a flight's kernel in two
      such rows, r_0's, r_1's and a flight's spectra, the flight's edge
      sums, the carried suffix sum and two flights' intensities, E and the
      edge sums' coefficients, D + 1 values each, and 6 n values while a
      flight's phase is built (its in-place build traces 5 n).
    - The guard's Gram over its |S| <= n points: |S|^2 complex values.

    R and D + 1 come from ``_cut_reach``, as in the pass, so the model
    builds no table.
    """
    n = grid.n
    rows = modes + points
    reach = _cut_reach(a ** 2, grid)
    width = min(n, SOURCE_BLOCK_ROWS + 2 * reach)
    count = _density_count(a, omega, grid)
    spectrum = n + 2  # the real values of an rfft's n // 2 + 1 outputs
    held = 4 * rows * n
    walk = (2 * SOURCE_BLOCK_ROWS * width
            + 2 * rows * (SOURCE_BLOCK_ROWS + width) + 2 * (2 * n - 1)
            + (n - 1))
    fold_row = n + 2 * (count // 2)
    flights = ((_chunk_rows(n, count) + 2) * fold_row + 3 * spectrum
               + 10 * n + 2 * count)
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
    row blocks of the source with no n x n array.  The pass is five stages,
    each a function of this module with its own contract and bound:

    - ``_arm``: particle 1's slit-plane modes, one a row, each row's
      failure and a d1 leg's guard support; it refuses bad input and a pass
      over the memory cap before it allocates its modes.
    - ``_walk``: flies the modes back over L1 and walks the source's row
      blocks once, leaving the normalized projections in the modes' buffer,
      and returns rho's diagonals 0 and 1 and the source norm.
    - ``_marginals``: particle 2's intensity over L1 and ``beam_L``.
    - ``_d1_guard``, given ``d1``: the d1 leg's guard, from the pass's
      projections on the points of its support, and the detector row,
      copied out of the guard's buffer so the returned pass holds none of
      the guard's arrays.
    - ``_normalize``: flies the detector rows over L1 (``_fly_rows``), then
      weighs and normalizes them.

    Every distance other than 0 is flown, and its flight refuses it if it
    is not finite and >= 0, NaN included (``_flight_phase``): d1 in the arm,
    L1 in the walk and ``beam_L`` in the marginals.  ``peak_bytes`` models
    the pass's peak memory from what the stages allocate.
    """
    modes, failures, support = _arm(a, omega, grid, params, apertures, d1)
    diagonals, norm = _walk(a, omega, grid, params, modes, L1)
    slit_plane, beam = _marginals(a, omega, grid, params, diagonals, L1, beam_L)
    guard, amplitude = (None, modes) if d1 is None else _d1_guard(
        modes, *support, grid.dy, d1, params)
    weight = _normalize(amplitude, grid.dy, L1, params, failures)
    return SourcePass(y=grid.y, dy=grid.dy, params=params, norm=norm,
                      slit_plane=slit_plane, beam=beam, amplitude=amplitude,
                      weight=weight, failures=failures, guard=guard)


def _arm(a: float, omega: float, grid: GridSpec, params: PhysParams,
         apertures, d1: float | None):
    """Particle 1's slit-plane modes for a pass on ``grid``, one row each, as
    (modes, failures, support).

    ``d1`` with other than one aperture is refused, then the source
    (``_check_source``: the cap's model divides by a and omega), then with
    ConfigError, before any mode is allocated, a modelled peak
    (``peak_bytes``) over the K modes above the MAX_GRID_ENV cap, or above
    the machine's physical memory when that is unset (``_check_grid_cap``).

    Without ``d1`` each aperture phi gives the mode conj(phi), sampled one
    row at a time.  An aperture the grid cannot resolve (``Aperture.sample``
    raises ResolutionError) leaves its row 0.0, with that error as the row's
    entry in ``failures``, and the other rows run; ``support`` is None.

    Given ``d1``, particle 1 passes its one aperture, a mask m, flies a
    further d1 and is point-detected on axis: row 0 is the one detector mode
    m * fly(conj(point), d1) (module docstring), so a mask the grid cannot
    resolve is refused.  The guard's support S is the samples with
    |m_j| >= DENSITY_FLOOR max|m| (``_d1_guard``), and the cap is checked
    again with its |S| points once the mask is sampled.  Rows 1 .. |S| are
    the points delta_j, j in S, in order, so the walk projects the source on
    them too; the points are built again for the guard's flight, not held
    through the pass.  ``support`` is (S, m_S) and ``failures`` is empty.
    """
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
        return modes, failures, None
    # aperture scale drops out after the renormalized conditioning
    mask = apertures[0].sample(y, dy)
    support = np.flatnonzero(np.abs(mask) >= DENSITY_FLOOR * np.abs(mask).max())
    _check_grid_cap(a, omega, grid, 1, support.size)
    point = Aperture(kind="point").sample(y, dy)
    modes = np.zeros((1 + support.size, n), dtype=complex)
    modes[0] = mask * fly(np.conj(point), dy, d1, params)
    modes[1 + np.arange(support.size), support] = 1.0
    return modes, failures, (support, mask[support])


def _walk(a: float, omega: float, grid: GridSpec, params: PhysParams,
          modes: np.ndarray, L1: float):
    """Fly the K slit-plane ``modes`` back over L1 in place, with no tail
    check, and project the source on them in one walk over its row blocks
    (``_source_blocks``), as ((r_0, r_1), norm).  Each row of ``modes``
    then holds its mode's projection of the normalized source: the sum over
    the source's rows of each row times the flown mode, times
    dy / sqrt(norm).

    Each block of SOURCE_BLOCK_ROWS rows is generated on its diagonal band
    alone and multiplied into the block's columns of every flown mode, real
    and imaginary parts stacked: one real product a block, and no block is
    transformed.  Its band's column sums of squares are added to r_0,
    particle 2's source-plane intensity, unscaled, whose total times dy^2 is
    ``norm``, the squared norm of the source as sampled, and the sums of its
    adjacent columns' products to r_1, rho's diagonal 1, n - 1 values
    (module docstring).  Beside the modes the walk holds their 2 K x n real
    products, so at most two K x n complex arrays' worth, and the source's
    two factor tables (``source_tables``) while it walks.
    """
    n, dy = grid.n, grid.dy
    fly(modes, dy, L1, params)
    # real and imaginary rows of the projections, summed apart
    products = np.zeros((2 * len(modes), n))
    # r_0 and r_1, each block adding to them
    source_plane, adjacent = np.zeros(n), np.zeros(n - 1)
    for rows, cols, band in _source_blocks(source_tables(a, omega, grid)):
        source_plane[cols] += np.einsum("ij,ij->j", band, band)
        adjacent[cols.start:cols.stop - 1] += np.einsum(
            "ij,ij->j", band[:, :-1], band[:, 1:])
        # the block's columns of the modes, real and imaginary parts
        # stacked: one real product per block
        block = modes[:, rows]
        products[:, cols] += np.concatenate([block.real, block.imag]) @ band
    norm = float(np.sum(source_plane)) * dy * dy
    products *= dy / math.sqrt(norm)
    # the projections take the flown modes' buffer
    modes.real, modes.imag = products[:len(modes)], products[len(modes):]
    return (source_plane, adjacent), norm


def _marginals(a: float, omega: float, grid: GridSpec, params: PhysParams,
               diagonals, L1: float, beam_L: float | None):
    """Particle 2's intensity flown over L1 and over ``beam_L``, as
    (slit_plane, beam), beam None without ``beam_L``; each integrates to its
    flown norm.

    ``_density_flights`` flies the D + 1 diagonals of rho that
    ``diagonals`` = (r_0, r_1) of the walk fix, through one folded kernel a
    parity, in one call over the distinct nonzero distances: each is flown
    once, whatever K, so with ``beam_L == L1`` the two are one array.  An
    intensity over L = 0 is r_0 itself.  The source's cut and the diagonals
    past D move a flown intensity by under 1e-23 tr(rho) for every
    n <= 65536 (module docstring).  Each intensity is scaled by dy in place
    and tail-checked.  Particle 1's slit-plane intensity equals
    particle 2's, as the sampled source is exchange-symmetric bit for bit
    (``source_rows``) and both particles fly L1, so the one check guards
    both axes.
    """
    # one intensity a distinct distance, r_0 until its flight replaces it
    intensities = {L: diagonals[0] for L in (L1, beam_L) if L is not None}
    # each distinct nonzero distance is flown once, and a bad one is refused
    # by its flight, not read as none
    flown = [L for L in intensities if L != 0]
    if flown:
        intensities.update(zip(flown, _density_flights(
            a, omega, grid, diagonals, flown, params)))
    for total in intensities.values():
        total *= grid.dy
        _check_tails(total)
    return intensities[L1], intensities.get(beam_L)


def _d1_guard(projections: np.ndarray, support: np.ndarray,
              mask: np.ndarray, dy: float, d1: float, params: PhysParams):
    """The d1 leg's guard and its detector row, as (guard, row): the pass's
    normalized ``projections`` on the detector mode, row 0, and on the
    points delta_j of the support S = ``support``, where the mask takes the
    values m_S = ``mask`` (``_arm``).  The guard is particle 1's real
    intensity behind the mask, flown d1 and summed over particle 2,
    unnormalized; it is put here and not on the back-flown modes, which
    spread over the grid by design.

    On S, the samples with |m_j| >= DENSITY_FLOOR max|m|, particle 1's
    slit-plane amplitude for each row of particle 2 is the projection P on
    the points.  With A = m_S P, C = A A^H and K_j = fly(delta_j, d1), the
    guard is Re sum_{s,t} K_s C_st conj K_t, as particle 2's flight is
    unitary.  The samples left out move its total by at most
    2^-99/sqrt(q) + 2^-200/q of itself, q the mask's transmitted share over
    max|m|^2.  It holds C and at most two arrays of |S| + 1 rows of n
    complex values: A is taken in place in ``projections``, and the kernels
    K then take A's rows, flown and conjugated in place.  For d1 > 0 the
    guard is tail-checked.  The detector row is copied out, so the caller
    need not hold ``projections``.
    """
    points = projections[1:]
    points *= mask[:, None]
    gram = points @ points.conj().T
    # the point kernels K_j take the points' rows, flown in place and
    # conjugated in place
    points[:] = 0.0
    points[np.arange(support.size), support] = 1.0
    fly(points, dy, d1, params)
    guard = np.einsum("sx,sx->x", gram.T @ points,
                      np.conj(points, out=points)).real
    if d1 > 0:
        _check_tails(guard)
    return guard, projections[:1].copy()


def _fly_rows(rows: np.ndarray, dy: float, L: float, params: PhysParams,
              failures: dict[int, Exception]) -> np.ndarray:
    """Fly ``rows`` a further L in place (``fly``, which refuses a distance
    that is not finite and >= 0 with the rows untouched) and, for L > 0, add
    to ``failures`` each row whose flight wraps (``_tail_failures``); a row
    that failed before keeps its first failure.  Returns the rows' intensity
    |rows|^2, which the tail check reads.  This is the one flight of
    conditional rows: the pass's detector rows over L1 (``_normalize``) and
    every further leg (``SourcePass.fly``)."""
    fly(rows, dy, L, params)
    prob = np.abs(rows) ** 2
    if L > 0:
        _tail_failures(prob, failures)
    return prob


def _normalize(rows: np.ndarray, dy: float, L1: float, params: PhysParams,
               failures: dict[int, Exception]) -> np.ndarray:
    """The weights of the projections ``rows``, flown over L1 in place and
    tail-checked (``_fly_rows``), then weighed and normalized in place.
    ``failures`` maps a row to the first error it hit: one that failed
    before (an unresolved aperture's 0.0 row), whose flight wraps, or whose
    weight is below 1e-12 keeps that first failure there, unnormalized."""
    weight = np.sum(_fly_rows(rows, dy, L1, params, failures), axis=1) * dy
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
    the source on that chain and guards the leg.  Each leg's flight refuses
    a distance that is not finite and >= 0 (``_flight_phase``); L2's is
    flown last, after the pass.
    """
    source = source_pass(a, omega, grid, params, L1, [slit], d1=d1).fly(L2)
    env = source.widths(0)
    intensity = np.abs(source.amplitude[0]) ** 2
    spacing, visibility = fringe_metrics(source.y, intensity)
    return GhostPattern(y=source.y, intensity=intensity, dy=source.dy,
                        weight=float(source.weight[0]), fringe_spacing=spacing,
                        visibility=visibility,
                        envelope_fwhm=2.0 * env.rms * FWHM_FACTOR)
