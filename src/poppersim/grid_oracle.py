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
caller builds that source-plane mode.  For a slit at the plane L1 it is

    condition(evolve(psi, L1, L1), phi) = fly(fly(conj(phi), L1) @ psi, L1),

and for the ghost double slit, a point detector d1 behind a mask at L1, the
mode is fly(mask * fly(conj(point), d1), L1).  The source is real and
closed-form per sample, so one pass over row blocks of it gives every
conditional amplitude and particle 2's marginals without an n x n buffer.
The n x n route the pass replaced is kept only as the tests' reference
(``tests/nxn_reference.py``), which every parity test compares the pass
against.

Particle 2's flown marginal diag(U rho U^H) needs only its reduced density
matrix rho = psi^T psi.  Samples below GRAM_FLOOR are left out of it, and a
source sample more than R rows off the diagonal lies below the floor, so
rho(j, l) = 0 for |j - l| > D = 2R and rho is known by its diagonals
r_d(j) = rho(j, j+d), d = 0..D.  With the flight kernel
K = ifft(flight phase) and G_d(x) = K(x) conj K(x - d), indices mod n,

    I = Re ifft(sum_d w_d fft(G_d) fft(r_d)),   w_0 = 1, w_d = 2 (d > 0),

exactly on the periodic grid, because rho is real and symmetric.  r_d is
real, so the real part passes inside: I = sum_d w_d Re(G_d) (*) r_d, a sum of
real circular convolutions.  When D + 1 <= n / DENSITY_RATIO (10) the pass
takes this route.

Wider bands fly source rows instead, half of them.  Index 0 (y = -extent)
is its own mirror mod n, so its samples have no partner on the grid; the
source takes them as 0.0 (``source_rows``).  Both factor tables are even
bit for bit, so the sampled source is then mirror-symmetric,
psi(n - i, n - j) = psi(i, j) for all i, j mod n, and the flight kernel is
even on the periodic grid.  With F_i the flown row i and R the reflection
m -> (n - m) mod n, flown row n - i is R F_i, and row n/2 is its own.  With
P = sum |F_i|^2 over rows 0..n/2 - 1 (row 0 is zero),

    I = P + R(P) + |F_{n/2}|^2,

so rows 0..n/2 fly and the blocks past row n/2 only add to the products
and the source-plane intensity.

Rows/density time of one pass, each route forced, by (D + 1) / n, with one
flight / two flights (+-40 mm, omega = 10 mm, one slit, L1 = 600 mm, beam
1800 mm; 2 vCPU, OpenBLAS on one thread, best of 2):

    (D + 1) / n   1/16      1/10      1/8        0.15       0.20
    n = 2048      2.9/4.3   -         1.2/2.0    1.1/1.6    0.72/1.1
    n = 4096      3.1/4.4   -         0.85/1.4   0.64/0.97  0.40/0.60
    n = 8192      1.8/2.6   0.81/1.2  0.45/0.69  0.34/0.49  -

One flight breaks even near 0.17 n, 0.12 n and 0.09 n, two flights near
0.21 n, 0.15 n and 0.11 n: the density route's Gram grows as D^2 per block
while the row flights do not grow with D.

Grid convention: y = (arange(n) - n/2) * dy with dy = 2 * extent / n, and
wavenumbers k = 2*pi*fftfreq(n, dy).  A plane-wave component exp(i k y)
acquires the phase exp(-i k^2 * Lambda * L / 4) over an axial distance L,
the unique quadratic phase mapping exp(-y^2/eps^2) to
exp(-y^2/(eps^2 + i*Lambda*L)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError
from .gaussian_core import FWHM_FACTOR, PhysParams

TAIL_BAND_FRACTION = 0.05
TAIL_PROB_LIMIT = 1e-6
# rows of the source generated at a time, and apertures stacked in one pass
SOURCE_BLOCK_ROWS = 64
APERTURE_CHUNK = 64
# particle 2's flown marginals come from the D + 1 diagonals of its reduced
# density matrix when D + 1 <= n / DENSITY_RATIO, else from flown source rows
# (half of them, the source being mirror-symmetric).  One pass with two
# flights breaks even near 0.21 n (n = 2048), 0.15 n (4096) and 0.11 n
# (8192), one flight earlier (table in the module docstring).  At 1/10 and
# n = 8192 the rows take 1.2x the diagonals' time with two flights, but
# 0.8x with one.
DENSITY_RATIO = 10
# diagonals flown at a time on that route
DIAGONAL_CHUNK = 16
# source samples below this are left out of rho's Gram: a product of two
# samples at or above it is a normal float (>= 2**-1022), while subnormal
# products run several times slower through BLAS (50 -> 8 ms a pass on the
# strekalov grid).  A left-out sample's products are under 2**-511 times
# their partner; the flown marginals of the strekalov grids and of n = 2048
# over +-20 mm come out bit-identical either way.
GRAM_FLOOR = 2.0 ** -511
# a source sample with u^2/a^2 above UNDERFLOW_EXPONENT underflows to 0.0
# whatever v is, since its v factor is at most 1, and one with u^2/a^2 above
# GRAM_EXPONENT lies below GRAM_FLOOR; each carries a margin over the float64
# exp underflow (745.13) and -ln GRAM_FLOOR (354.2) that absorbs the
# rounding of u and of the band's edges
UNDERFLOW_EXPONENT = 750.0
GRAM_EXPONENT = -math.log(GRAM_FLOOR) + 5.0


@dataclass(frozen=True)
class GridSpec:
    """Symmetric square grid: n points per axis on [-extent, extent)."""

    n: int
    extent: float

    def __post_init__(self):
        if self.n < 256 or self.n & (self.n - 1) != 0:
            raise DomainError(f"n must be a power of two >= 256, got {self.n!r:.40}")
        if self.extent <= 0:
            raise DomainError(f"extent must be positive, got {self.extent}")

    @property
    def dy(self) -> float:
        return 2.0 * self.extent / self.n

    @property
    def y(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dy

    @property
    def peak_bytes(self) -> int:
        """Peak memory of a source pass on this grid, 8 bytes a value: seven
        real arrays of one block of source rows at full width, three real
        stacks of a full aperture chunk (back-flown modes, running products
        and one block's product, each with real and imaginary rows), 64
        one-axis arrays and n / DENSITY_RATIO diagonals of particle 2's
        reduced density matrix, the most the density route keeps.

        The model over-counts.  The one-axis arrays include the source's two
        factor tables (``source_tables``, 4 n - 2 values), which every block
        reads and none copies.  Every per-block array spans only the block's
        diagonal band: the band, its column sums of squares (one row) and
        the block's product.  Only the row route holds full-width block
        arrays, four of them: the zeroed block its bands are written into,
        the flown rows and two half spectra, and only until it has flown row
        n/2; the blocks past it need none, so the model is unchanged.  The
        density route holds none;
        its Gram buffer, (SOURCE_BLOCK_ROWS + D) x (SOURCE_BLOCK_ROWS + 2 D)
        values, and its band-wide block arrays fit in the seven block arrays
        and the band-wide product's stack for every n <= 16384, since
        D + 1 <= n / DENSITY_RATIO (computed, not run, at n = 16384; at
        32768 the widest band's Gram buffer alone would not fit).  So the
        model stays an upper bound on both routes up to n = 16384."""
        return 8 * self.n * (7 * SOURCE_BLOCK_ROWS + 3 * 2 * APERTURE_CHUNK + 64
                             + self.n // DENSITY_RATIO)


@dataclass(frozen=True)
class Aperture:
    """Transmission profile for particle 1.

    kinds: 'gaussian' (amplitude exp(-y^2/epsilon^2)), 'rect' (hard slit of
    ``full_width``), 'double_slit' (two hard slits of ``slit_width`` whose
    centers are ``separation`` apart), 'point' (narrow Gaussian sampler of
    width ``tolerance`` at ``center``; defaults to one grid step).
    """

    kind: str
    epsilon: float = 0.0
    full_width: float = 0.0
    slit_width: float = 0.0
    separation: float = 0.0
    center: float = 0.0
    tolerance: float = 0.0

    def __post_init__(self):
        if self.kind == "gaussian":
            if self.epsilon <= 0:
                raise DomainError("gaussian aperture needs epsilon > 0")
        elif self.kind == "rect":
            if self.full_width <= 0:
                raise DomainError("rect aperture needs full_width > 0")
        elif self.kind == "double_slit":
            if self.slit_width <= 0 or self.separation <= self.slit_width:
                raise DomainError("double slit needs separation > slit_width > 0")
        elif self.kind == "point":
            if self.tolerance < 0:
                raise DomainError("point tolerance must be >= 0")
        else:
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
            w = self.tolerance if self.tolerance > 0 else dy
            phi = np.exp(-((y - self.center) ** 2) / w ** 2)
        norm = math.sqrt(float(np.sum(np.abs(phi) ** 2)) * dy)
        if norm == 0.0:
            raise ResolutionError("aperture has no support on this grid")
        return phi.astype(complex) / norm


@dataclass
class ConditionalAmplitude:
    """Particle-2 amplitude after conditioning, plus the coincidence fraction."""

    y: np.ndarray
    amplitude: np.ndarray
    dy: float
    weight: float


@dataclass
class WidthResult:
    rms: float
    fwhm: float
    gaussian_equiv_W: float
    multimodal: bool = False


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
    """Refuse a grid whose extent or step cannot hold the source."""
    if a <= 0 or omega <= 0:
        raise DomainError("a and omega must be positive")
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


def _band(a: float, y: np.ndarray, start: int, stop: int,
          exponent: float = UNDERFLOW_EXPONENT) -> slice:
    """Columns of source rows start:stop (``y`` ascending) within
    a * sqrt(exponent) of some row's y: by default those that can be nonzero,
    with GRAM_EXPONENT those that can reach GRAM_FLOOR."""
    reach = a * math.sqrt(exponent)
    return slice(int(np.searchsorted(y, y[start] - reach, side="left")),
                 int(np.searchsorted(y, y[stop - 1] + reach, side="right")))


@dataclass(frozen=True)
class SourceTables:
    """The source's two Gaussian factors on a grid of n points, one 1-D table
    each.  Sample (i, j) has u = (i - j) dy and v = (i + j - n) dy, so it is
    u_factor[n - 1 + j - i] * v_factor[i + j] with

        u_factor[n - 1 + d] = exp(-(d dy)^2 / a^2),          d = 1 - n .. n - 1,
        v_factor[n + s] = exp(-(s dy)^2 / (4 omega^2)),      s = -n .. n - 2.

    ``u_factor`` is even in d bit for bit, since (-d) dy = -(d dy) exactly.
    Both tables are read-only.
    """

    a: float
    y: np.ndarray
    u_factor: np.ndarray
    v_factor: np.ndarray


def source_tables(a: float, omega: float, grid: GridSpec) -> SourceTables:
    """The two factor tables of the source on ``grid``, 4 n - 2 values,
    each computed in place."""
    n, dy = grid.n, grid.dy
    tables = []
    for first, scale in ((1 - n, a ** 2), (-n, 4.0 * omega ** 2)):
        table = np.arange(first, first + 2 * n - 1, dtype=float)
        table *= dy
        np.square(table, out=table)
        table /= -scale
        np.exp(table, out=table)
        table.flags.writeable = False
        tables.append(table)
    return SourceTables(a, grid.y, *tables)


def source_rows(tables: SourceTables, start: int, stop: int,
                out: np.ndarray | None = None) -> tuple[slice, np.ndarray]:
    """Rows start:stop of the unnormalized source
    exp(-u^2/a^2) exp(-v^2/(4 omega^2)) with u = y1 - y2, v = y1 + y2, as
    (cols, band): ``cols`` is the diagonal band of columns that ``_band``
    gives and band[:, j] is column cols.start + j.  Every sample outside the
    band underflows to 0.0 and is not evaluated.  Row 0 and column 0, the
    grid's self-mirrored edge, are 0.0 (module docstring).  With ``out``,
    real rows start:stop of the full width, the band is written into
    out[:, cols] and returned as that view.

    The band is one product of two read-only views of ``tables``: a Toeplitz
    view of the u factor and a Hankel view of the v factor, so a block takes
    one multiply a sample and no temporary.  Both factors are exact under
    i <-> j and even about the grid's centre, so the sampled source is
    exchange- and mirror-symmetric bit for bit.
    """
    cols = _band(tables.a, tables.y, start, stop)
    shape = (stop - start, cols.stop - cols.start)
    item = tables.u_factor.itemsize
    # views on the tables' buffers, which the constructor bounds-checks:
    # sample (start + r, cols.start + c) is u_factor[k - r + c] with
    # k = n - 1 + cols.start - start, times v_factor[start + cols.start + r + c]
    toeplitz = np.ndarray(shape, float, tables.u_factor,
                          (tables.y.size - 1 + cols.start - start) * item,
                          (-item, item))
    hankel = np.ndarray(shape, float, tables.v_factor,
                        (start + cols.start) * item, (item, item))
    # np.multiply would stage these overlapping views through two iterator
    # buffers of np.getbufsize() values; einsum reads them directly, and its
    # one-term products are np.multiply's bits
    band = np.einsum("ij,ij->ij", toeplitz, hankel,
                     out=None if out is None else out[:, cols])
    if start == 0:
        band[0] = 0.0
    if cols.start == 0:
        band[:, 0] = 0.0
    return cols, band


def _source_blocks(tables: SourceTables, out: np.ndarray | None = None,
                   out_stop: int | None = None):
    """(row slice, column band, band) of the unnormalized source,
    SOURCE_BLOCK_ROWS rows at a time from ``tables`` (see ``source_rows``);
    the block size divides every grid's n, a power of two.  With ``out``, a
    zeroed array of one block's rows at full width, the band of each block
    that starts before row ``out_stop`` (by default every block) is written
    into it, and its columns are zeroed again once the consumer asks for the
    next block."""
    n = tables.y.size
    out_stop = n if out_stop is None else out_stop
    for start in range(0, n, SOURCE_BLOCK_ROWS):
        if start >= out_stop:
            # released, so the consumer can free it
            out = None
        rows = slice(start, start + SOURCE_BLOCK_ROWS)
        cols, band = source_rows(tables, start, rows.stop, out)
        yield rows, cols, band
        if out is not None:
            out[:, cols] = 0.0


def _check_tails(prob: np.ndarray):
    """Refuse a 1-D probability profile whose outer bands hold more than
    TAIL_PROB_LIMIT of its total: spectral flight has wrapped it around."""
    band = max(1, int(round(TAIL_BAND_FRACTION * prob.size)))
    tail = float(np.sum(prob[:band]) + np.sum(prob[-band:]))
    total = float(np.sum(prob))
    if tail > TAIL_PROB_LIMIT * total:
        raise ResolutionError(
            f"propagated state reaches the domain boundary (tail probability "
            f"{tail / total:.3g} > {TAIL_PROB_LIMIT}); enlarge the extent"
        )


def _flight_phase(n: int, dy: float, L: float, params: PhysParams) -> np.ndarray:
    """Spectral free-flight factor exp(-i k^2 Lambda L / 4) on the FFT axis."""
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dy)
    return np.exp(-0.25j * params.rescaled_wavelength_mm * L * k ** 2)


def fly(amp: np.ndarray, dy: float, L: float, params: PhysParams) -> np.ndarray:
    """Spectral free flight over L along the last axis, with no tail guard:
    for source-plane modes, whose tails say nothing about a wrapped state."""
    if L == 0:
        return amp.copy()
    return np.fft.ifft(np.fft.fft(amp) * _flight_phase(amp.shape[-1], dy, L, params))


def propagate_amplitude(amp: np.ndarray, dy: float, L: float,
                        params: PhysParams) -> np.ndarray:
    """Single-particle spectral free flight of a sampled 1-D amplitude."""
    if L < 0:
        raise DomainError("propagation distance must be >= 0")
    out = fly(amp, dy, L, params)
    if L > 0:
        _check_tails(np.abs(out) ** 2)
    return out


def _conditional(y: np.ndarray, phi2: np.ndarray, dy: float) -> ConditionalAmplitude:
    """Renormalize a conditioned particle-2 amplitude; its squared norm is the
    coincidence weight."""
    weight = float(np.sum(np.abs(phi2) ** 2) * dy)
    if weight < 1e-12:
        raise DomainError(f"degenerate conditioning: coincidence weight {weight:.3g}")
    return ConditionalAmplitude(y=y, amplitude=phi2 / math.sqrt(weight), dy=dy,
                                weight=weight)


@dataclass
class SourcePass:
    """What one :func:`source_pass` over the source yields.

    ``norm`` is the squared norm of the source as sampled.  ``slit_plane`` and
    ``beam`` are particle 2's intensity of that source flown over L1 and over
    the beam distance (``beam`` is None without one, and ``slit_plane``
    itself when the beam lies at L1); each integrates to its flown norm.
    ``projections[k]`` is particle 2's amplitude at the source plane,
    conditioned on source-plane mode k, for the normalized source.
    """

    y: np.ndarray
    dy: float
    L1: float
    params: PhysParams
    norm: float
    projections: np.ndarray
    slit_plane: np.ndarray
    beam: np.ndarray | None

    def conditional(self, k: int) -> ConditionalAmplitude:
        """Mode k's conditional amplitude of particle 2 at the slit plane:
        its projection flown forward over L1, tail-checked, then weighed."""
        phi2 = propagate_amplitude(self.projections[k], self.dy, self.L1,
                                   self.params)
        return _conditional(self.y, phi2, self.dy)


def _diagonal_count(a: float, dy: float) -> int:
    """D + 1, the number of diagonals d = 0..D of rho = psi^T psi that can be
    nonzero once samples below GRAM_FLOOR are left out.  A source sample more
    than R = floor(a * sqrt(GRAM_EXPONENT) / dy) + 1 rows off the diagonal is
    below the floor, so rho(j, l) is 0.0 for |j - l| > D = 2R."""
    return 2 * (int(a * math.sqrt(GRAM_EXPONENT) / dy) + 1) + 1


def _density_route(a: float, grid: GridSpec) -> bool:
    """Whether particle 2's flown marginals come from rho's diagonals: when
    there are at most n / DENSITY_RATIO of them."""
    return DENSITY_RATIO * _diagonal_count(a, grid.dy) <= grid.n


def _add_band_gram(diagonals: np.ndarray, band: np.ndarray, start: int,
                   buffer: np.ndarray):
    """Add the Gram band^T band of one block's band of columns, the first of
    them column ``start``, to rho's diagonals: diagonals[d, j] = rho(j, j+d).

    ``band`` holds every sample of the block's rows at or above GRAM_FLOOR
    (``_band`` with GRAM_EXPONENT); samples below the floor are set to 0.0
    in place.  The Gram of a band w columns wide goes into the first
    w x (w + D) values of ``buffer``, its last D columns zeros; strides
    (1, w + D + 1) then walk its diagonals.  Past the band's last column
    they read the zeros, so rho(j, j+d) stays 0.0 where j + d runs off the
    grid.
    """
    count = diagonals.shape[0]
    width = band.shape[1]
    band[band < GRAM_FLOOR] = 0.0
    gram = buffer[:width * (width + count - 1)].reshape(width, width + count - 1)
    gram[:, width:] = 0.0
    np.matmul(band.T, band, out=gram[:, :width])
    item = gram.itemsize
    walk = np.lib.stride_tricks.as_strided(
        gram, shape=(count, width), strides=(item, (width + count) * item),
        writeable=False)
    diagonals[:, start:start + width] += walk


def _density_flights(diagonals: np.ndarray, dy: float, flights,
                     params: PhysParams) -> list[np.ndarray]:
    """Particle 2's intensity diag(U rho U^H) flown over each L in
    ``flights``, from rho's diagonals r_d(j) = rho(j, j+d) with the
    off-diagonal ones (d > 0) already doubled.

    With K = ifft(flight phase), the flight kernel, rho real and symmetric:
    I = sum_d Re(G_d) (*) r_d, a circular convolution with
    G_d(x) = K(x) conj K(x - d).  Diagonals go DIAGONAL_CHUNK at a time
    through real transforms; each chunk's spectrum serves every flight.
    """
    count, n = diagonals.shape
    chunk = min(DIAGONAL_CHUNK, count)
    kernels = []
    for L in flights:
        kernel = np.fft.ifft(_flight_phase(n, dy, L, params))
        # K(x - d) for x = 0..n-1 is window n - d of K repeated twice
        kernels.append([(part, np.lib.stride_tricks.sliding_window_view(
            np.tile(part, 2), n)) for part in (kernel.real, kernel.imag)])
    spectra = [np.zeros(n // 2 + 1, dtype=complex) for _ in flights]
    rho_hat = np.empty((chunk, n // 2 + 1), dtype=complex)
    kernel_hat = np.empty_like(rho_hat)
    re_g = np.empty((chunk, n))
    term = np.empty_like(re_g)
    for d0 in range(0, count, chunk):
        d1 = min(d0 + chunk, count)
        m = d1 - d0
        np.fft.rfft(diagonals[d0:d1], out=rho_hat[:m])
        for parts, spectrum in zip(kernels, spectra):
            # Re G_d = Re K * Re K(. - d) + Im K * Im K(. - d)
            for out, (part, windows) in zip((re_g, term), parts):
                np.multiply(windows[n - d1 + 1:n - d0 + 1][::-1], part,
                            out=out[:m])
            re_g[:m] += term[:m]
            np.fft.rfft(re_g[:m], out=kernel_hat[:m])
            spectrum += np.einsum("ij,ij->j", rho_hat[:m], kernel_hat[:m])
    return [np.fft.irfft(spectrum, n) for spectrum in spectra]


def source_pass(a: float, omega: float, grid: GridSpec, params: PhysParams,
                L1: float, modes=(), beam_L: float | None = None) -> SourcePass:
    """Condition the source on particle 1's source-plane ``modes``, 1-D
    arrays of n values, in one pass over row blocks of the source, with no
    n x n array.  For an aperture phi at the slit plane L1 the mode is
    fly(conj(phi), L1); a chain of flights and masks gives its own (module
    docstring).  The modes are not tail-checked.

    Each block of SOURCE_BLOCK_ROWS rows is generated on its diagonal band
    only, multiplied into the stacked modes, and its band's column sums of
    squares are added to particle 2's source-plane intensity, whose total is
    the source norm.  Particle 2's intensity flown over L1 and, when given,
    over ``beam_L`` is flown once per distinct nonzero distance, so with
    ``beam_L == L1`` the two are one array.  It takes one of two routes,
    chosen by ``_density_route``:

    - density, when rho = psi^T psi has D + 1 <= n / DENSITY_RATIO nonzero
      diagonals: each block adds its band's Gram to them, and after the last
      block ``_density_flights`` flies them, with no transform per block;
    - rows, otherwise: the band of each block up to row n/2 is written into
      one zeroed full-width block, whose rows 0..n/2 take one real transform
      along particle 2's axis and two inverse ones per nonzero flight.  The
      source, its edge sampled as 0.0, is mirror-symmetric, so the flown
      rows past n/2 add the reflection R(P) of the squares P of rows
      0..n/2 - 1 (module docstring).

    An intensity over L = 0 is the source-plane intensity on either route.
    Every intensity is tail-checked.
    """
    _check_source(a, omega, grid)
    if len(modes) > APERTURE_CHUNK:
        raise DomainError(f"one pass takes at most {APERTURE_CHUNK} modes, "
                          f"got {len(modes)}")
    n, dy, y = grid.n, grid.dy, grid.y
    tables = source_tables(a, omega, grid)
    count = len(modes)
    back = np.reshape(np.asarray(modes, dtype=complex), (count, n))
    # real and imaginary parts stacked: one real product per block
    back = np.concatenate([back.real, back.imag])
    products = np.zeros((2 * count, n))
    # particle 2's intensity at the source plane, unscaled: each block adds
    # its band's column sums of squares.  Its total is the source norm, and
    # a flight over L = 0 reads it.  Every other distance is flown once.
    source_plane = np.zeros(n)
    flights = [L1] if beam_L is None else [L1, beam_L]
    intensities = {L: source_plane if L == 0 else np.zeros(n) for L in flights}
    flown = [(total, L) for L, total in intensities.items() if L > 0]
    density = bool(flown) and _density_route(a, grid)
    rows_out = None
    half = n // 2
    if density:
        diagonals = np.zeros((_diagonal_count(a, dy), n))
        # one Gram buffer for the pass: the columns a block's samples at or
        # above GRAM_FLOOR reach span 63 dy + 2 a sqrt(GRAM_EXPONENT), fewer
        # than SOURCE_BLOCK_ROWS + D grid columns; the rounding of their
        # edges may add one
        widest = SOURCE_BLOCK_ROWS + diagonals.shape[0] - 1
        gram = np.empty(widest * (widest + diagonals.shape[0] - 1))
    elif flown:
        # only rows 0..n/2 fly (module docstring): ``paired`` sums the
        # squares of flown rows 0..n/2 - 1, whose reflections stand for the
        # rows past n/2
        phases = [_flight_phase(n, dy, L, params)[:half + 1] for _, L in flown]
        paired = [np.zeros(n) for _ in flown]
        # the band of each flown block is written into this one zeroed
        # full-width block, which its transform along particle 2's axis needs
        rows_out = np.zeros((SOURCE_BLOCK_ROWS, n))
        rows_flown = np.empty_like(rows_out)
        spectra = np.empty((SOURCE_BLOCK_ROWS, half + 1), dtype=complex)
        product = np.empty_like(spectra)
    for rows, cols, band in _source_blocks(tables, rows_out, half + 1):
        source_plane[cols] += np.einsum("ij,ij->j", band, band)
        products[:, cols] += back[:, rows] @ band
        if density:
            reach = _band(a, y, rows.start, rows.stop, GRAM_EXPONENT)
            _add_band_gram(diagonals, band[:, reach.start - cols.start:
                                           reach.stop - cols.start],
                           reach.start, gram)
        elif flown and rows.start <= half:
            m = min(SOURCE_BLOCK_ROWS, half + 1 - rows.start)
            np.fft.rfft(rows_out[:m], out=spectra[:m])
            for (total, _), phase, pair in zip(flown, phases, paired):
                # row n/2, its block's one row, is its own reflection and
                # adds straight into the total
                sums = total if rows.start == half else pair
                # the flight kernel is even, so real rows fly as two real
                # convolutions: irfft(spectra * Re phase) + i irfft(spectra *
                # Im phase)
                for part in (phase.real, phase.imag):
                    np.multiply(spectra[:m], part, out=product[:m])
                    np.fft.irfft(product[:m], n, out=rows_flown[:m])
                    sums += np.einsum("ij,ij->j", rows_flown[:m],
                                      rows_flown[:m])
            if rows.start == half:
                # no later block is flown
                del rows_out, rows_flown, spectra, product
    # the last block is done: the flights below need no source
    del tables
    if density:
        del gram
        # rho is symmetric: diagonal d > 0 also stands for diagonal -d
        diagonals[1:] *= 2.0
        marginals = _density_flights(diagonals, dy, [L for _, L in flown], params)
        del diagonals
        for (total, _), marginal in zip(flown, marginals):
            total += marginal
    elif flown:
        # the rows past n/2 add the reflection of P
        for (total, _), pair in zip(flown, paired):
            total += pair
            total[0] += pair[0]
            total[1:] += pair[:0:-1]
    # the norm before the source-plane intensity is scaled in place below
    norm = float(np.sum(source_plane)) * dy * dy
    # Particle 1's slit-plane intensity equals particle 2's: the sampled
    # source is exchange-symmetric bit for bit (see source_rows) and both
    # particles fly L1, so the one check below guards both axes.
    for total in intensities.values():
        total *= dy
        _check_tails(total)
    products *= dy / math.sqrt(norm)
    projections = products[:count] + 1j * products[count:]
    return SourcePass(y=y, dy=dy, L1=L1, params=params, norm=norm,
                      projections=projections,
                      slit_plane=intensities[L1],
                      beam=None if beam_L is None else intensities[beam_L])


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
    maxima = _local_maxima(intensity, half)
    return WidthResult(rms=rms, fwhm=float(y_hi - y_lo),
                       gaussian_equiv_W=2.0 * rms,
                       multimodal=maxima.size > 1)


def widths(amplitude: ConditionalAmplitude) -> WidthResult:
    """Width measures of |amplitude|^2."""
    return intensity_widths(amplitude.y, np.abs(amplitude.amplitude) ** 2,
                            amplitude.dy)


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


def _masked_intensity(a: float, omega: float, grid: GridSpec, mask: np.ndarray,
                      L1: float, d1: float, params: PhysParams) -> np.ndarray:
    """Particle 1's intensity behind ``mask`` at the plane L1, flown a
    further d1, unnormalized.  The sampled source is exchange-symmetric bit
    for bit, so row i of a source block is particle 1's amplitude for
    particle 2 at y[i]; each full-width block flies L1, takes the mask and
    flies d1 along its rows, and its squared moduli add up over the rows.
    Particle 2's own flight is unitary and leaves that sum unchanged."""
    block = np.zeros((SOURCE_BLOCK_ROWS, grid.n))
    intensity = np.zeros(grid.n)
    for _ in _source_blocks(source_tables(a, omega, grid), block):
        amp = fly(mask * fly(block, grid.dy, L1, params), grid.dy, d1, params)
        intensity += np.sum(np.abs(amp) ** 2, axis=0)
    return intensity


def ghost_double_slit(a: float, omega: float, grid: GridSpec, slit: Aperture,
                      L1: float, d1: float, L2: float,
                      params: PhysParams) -> GhostPattern:
    """Coincidence pattern of particle 2 behind an aperture on particle 1.

    Both particles fly L1 from the source.  Particle 1 passes ``slit``,
    flies a further d1, and is point-detected on axis; particle 2 then flies
    L2 to its detector.  One :func:`source_pass` conditions the source on
    the chain's source-plane mode fly(mask * fly(conj(point), d1), L1).

    The d1 leg's guard is particle 1's real intensity behind the mask,
    flown d1 (``_masked_intensity``), not the back-flown modes: the point
    mode flown back d1 spreads over the whole grid by design (3.6e-2 of it
    in the outer bands for a 0.1 mm slit with d1 = 400 mm, n = 2048 over
    +-10 mm), and criterion 9's mode after L1 holds 5.4e-5 there, while
    both states stay well inside the grid.
    """
    if L1 < 0 or d1 < 0:
        raise DomainError("propagation distances must be >= 0")
    y, dy = grid.y, grid.dy
    # aperture scale drops out after the renormalized conditioning
    mask = slit.sample(y, dy)
    point = Aperture(kind="point", center=0.0).sample(y, dy)
    mode = fly(mask * fly(np.conj(point), dy, d1, params), dy, L1, params)
    source = source_pass(a, omega, grid, params, L1, [mode])
    if d1 > 0:
        _check_tails(_masked_intensity(a, omega, grid, mask, L1, d1, params))
    cond = source.conditional(0)
    amp = propagate_amplitude(cond.amplitude, cond.dy, L2, params)
    intensity = np.abs(amp) ** 2
    spacing, visibility = fringe_metrics(y, intensity)
    env = intensity_widths(y, intensity, dy)
    return GhostPattern(y=y, intensity=intensity, dy=dy,
                        weight=cond.weight, fringe_spacing=spacing,
                        visibility=visibility,
                        envelope_fwhm=2.0 * env.rms * FWHM_FACTOR)
