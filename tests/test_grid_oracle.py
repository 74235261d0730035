"""Brute-force grid simulator: construction guards, unitary propagation,
conditioning quadrature, and width extraction, cross-checked against the
closed forms where they exist, and the source pass against the n x n
reference route (``nxn_reference``)."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import nxn_reference as ref
import poppersim.gaussian_core as gc
import poppersim.grid_oracle as go
from poppersim.errors import ConfigError, DomainError, ResolutionError

from conftest import NO_REFERENCE_CALLS, traced_peak

SQRT_A2 = math.sqrt(0.043)


def correlation_coefficient(state):
    prob = np.abs(state.psi) ** 2
    prob /= prob.sum()
    y = state.y
    p1 = prob.sum(axis=1)
    p2 = prob.sum(axis=0)
    m1 = float(y @ p1)
    m2 = float(y @ p2)
    cov = float((y - m1) @ prob @ (y - m2))
    s1 = math.sqrt(float((y - m1) ** 2 @ p1))
    s2 = math.sqrt(float((y - m2) ** 2 @ p2))
    return cov / (s1 * s2)


class TestGridSpec:
    def test_step_convention(self):
        grid = go.GridSpec(n=512, extent=4.0)
        assert grid.dy == pytest.approx(8.0 / 512)
        assert grid.y[0] == pytest.approx(-4.0)
        assert grid.y[256] == pytest.approx(0.0)

    @pytest.mark.parametrize("n", [100, 255, 300, 1000])
    def test_rejects_bad_n(self, n):
        with pytest.raises(DomainError):
            go.GridSpec(n=n, extent=4.0)

    def test_rejects_bad_extent(self):
        with pytest.raises(DomainError):
            go.GridSpec(n=512, extent=0.0)


class TestBuildGridState:
    def test_separable_state_uncorrelated(self):
        state = ref.build_grid_state(1.0, 0.5, go.GridSpec(n=512, extent=4.0))
        assert abs(correlation_coefficient(state)) < 1e-6
        assert state.norm() == pytest.approx(1.0, abs=1e-12)

    def test_position_spread_matches_closed_form(self):
        state = ref.build_grid_state(SQRT_A2, 2.0, go.GridSpec(n=1024, extent=12.0))
        prob = np.abs(state.psi) ** 2 * state.dy ** 2
        p2 = prob.sum(axis=0)
        rms = math.sqrt(float(state.y ** 2 @ p2))
        expected = gc.position_uncertainty(gc.make_epr_state(SQRT_A2, 2.0))
        assert rms == pytest.approx(expected, rel=2e-3)
        assert rms == pytest.approx(1.00134, rel=2e-3)

    def test_correlation_grows_with_detuning(self):
        # a = 2*omega is the product point; detuning a downward from it
        # builds positive position correlation monotonically
        grid = go.GridSpec(n=512, extent=4.0)
        rs = [abs(correlation_coefficient(
            ref.build_grid_state(1.0 * (1.0 - d), 0.5, grid)))
            for d in (0.01, 0.02, 0.04, 0.08)]
        assert all(r1 > r0 for r0, r1 in zip(rs, rs[1:]))

    def test_rejects_small_extent(self):
        with pytest.raises(ResolutionError, match="extent"):
            ref.build_grid_state(0.5, 5.0, go.GridSpec(n=512, extent=4.0))

    def test_rejects_coarse_step(self):
        # a = 0.01 needs a momentum band far beyond this grid's Nyquist
        with pytest.raises(ResolutionError, match="step"):
            ref.build_grid_state(0.01, 1.0, go.GridSpec(n=256, extent=8.0))


class TestEvolveSpectral:
    def test_identity_at_zero(self, params702):
        state = ref.build_grid_state(0.3, 1.0, go.GridSpec(n=512, extent=8.0))
        out = ref.evolve_spectral(state, 0.0, 0.0, params702)
        np.testing.assert_allclose(out.psi, state.psi, atol=1e-14)

    def test_norm_preserved(self, params702):
        state = ref.build_grid_state(0.3, 1.0, go.GridSpec(n=512, extent=12.0))
        out = ref.evolve_spectral(state, 400.0, 250.0, params702)
        assert abs(out.norm() - state.norm()) < 1e-10

    def test_single_particle_factor(self, params702, lam702):
        # Gaussian eps=0.1 over 100 mm: Gamma = 0.01 + i*0.0223451
        grid = go.GridSpec(n=2048, extent=4.0)
        phi = np.exp(-grid.y ** 2 / 0.1 ** 2).astype(complex)
        phi /= math.sqrt(float(np.sum(np.abs(phi) ** 2)) * grid.dy)
        out = go.propagate_amplitude(phi, grid.dy, 100.0, params702)
        w = go.intensity_widths(grid.y, np.abs(out) ** 2, grid.dy)
        expected = gc.intensity_width(gc.GaussianParam(0.01 + 1j * lam702 * 100.0))
        assert w.gaussian_equiv_W == pytest.approx(expected, rel=1e-3)
        assert w.gaussian_equiv_W == pytest.approx(0.24481, rel=1e-3)

    def test_aliasing_guard(self, params702):
        # long flight on a tight domain must be refused, not silently wrapped
        state = ref.build_grid_state(0.3, 0.5, go.GridSpec(n=256, extent=4.0))
        with pytest.raises(ResolutionError, match="boundary"):
            ref.evolve_spectral(state, 5000.0, 5000.0, params702)

    def test_rejects_negative_distance(self, params702):
        state = ref.build_grid_state(0.3, 1.0, go.GridSpec(n=512, extent=8.0))
        with pytest.raises(DomainError):
            ref.evolve_spectral(state, -1.0, 0.0, params702)

    @pytest.mark.parametrize("L1, L2", [(0.0, 250.0), (250.0, 0.0)])
    def test_one_leg_matches_two_axis_route(self, params702, L1, L2):
        # skipping the axis whose leg is 0 must agree with the full
        # fft2 -> phases -> ifft2 evolution
        state = ref.build_grid_state(0.3, 1.0, go.GridSpec(n=512, extent=12.0))
        k = 2.0 * np.pi * np.fft.fftfreq(state.n, d=state.dy)
        lam = params702.rescaled_wavelength_mm
        psi_k = np.fft.fft2(state.psi)
        psi_k *= np.exp(-0.25j * lam * L1 * k ** 2)[:, None]
        psi_k *= np.exp(-0.25j * lam * L2 * k ** 2)[None, :]
        expected = np.fft.ifft2(psi_k)
        out = ref.evolve_spectral(state, L1, L2, params702)
        np.testing.assert_allclose(out.psi, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("L1, L2", [(0.0, 0.0), (0.0, 250.0), (400.0, 250.0)])
    def test_input_state_unchanged(self, params702, L1, L2):
        state = ref.build_grid_state(0.3, 1.0, go.GridSpec(n=512, extent=12.0))
        before = state.psi.copy()
        out = ref.evolve_spectral(state, L1, L2, params702)
        assert np.array_equal(state.psi, before)
        assert not np.shares_memory(out.psi, state.psi)

    def test_propagate_amplitude_aliasing_guard(self, params702):
        # a 0.1 mm Gaussian spreads to W ~ 11 mm over 5 m: it wraps around
        # a +-4 mm domain and must be refused
        grid = go.GridSpec(n=512, extent=4.0)
        phi = go.Aperture(kind="gaussian", epsilon=0.1).sample(grid.y, grid.dy)
        with pytest.raises(ResolutionError, match="boundary"):
            go.propagate_amplitude(phi, grid.dy, 5000.0, params702)


class TestCondition:
    def test_gaussian_aperture_matches_closed_form(self, params702):
        # finite omega, finite flight: the strongest cross-check of the
        # conditioning formula (0.1% width agreement demanded, ~1e-6 seen)
        grid = go.GridSpec(n=2048, extent=12.0)
        state = ref.build_grid_state(SQRT_A2, 2.0, grid)
        state = ref.evolve_spectral(state, 500.0, 500.0, params702)
        cond = ref.condition(state, go.Aperture(kind="gaussian", epsilon=0.065))
        gamma = gc.condition_on_gaussian_slit(
            gc.make_epr_state(SQRT_A2, 2.0),
            gc.SlitSpec(kind="gaussian", epsilon=0.065),
            gc.PropagationLeg(500.0), params702)
        got = cond.widths().gaussian_equiv_W
        assert got == pytest.approx(gc.intensity_width(gamma), rel=1e-3)

    def test_separable_state_conditional_is_marginal(self, params702):
        grid = go.GridSpec(n=512, extent=4.0)
        state = ref.build_grid_state(1.0, 0.5, grid)
        cond = ref.condition(state, go.Aperture(kind="rect", full_width=0.3))
        w_cond = cond.widths().gaussian_equiv_W
        w_marg = go.intensity_widths(state.y, ref.marginal_intensity(state, 2),
                                     state.dy).gaussian_equiv_W
        assert w_cond == pytest.approx(w_marg, rel=1e-3)

    def test_rect_aperture_regression(self):
        # 0.16 mm hard slit on the unpropagated correlated source: between
        # the rect half-width and the beam, value frozen as a fixture
        grid = go.GridSpec(n=2048, extent=12.0)
        state = ref.build_grid_state(SQRT_A2, 2.0, grid)
        cond = ref.condition(state, go.Aperture(kind="rect", full_width=0.16))
        w = cond.widths().gaussian_equiv_W
        beam = go.intensity_widths(state.y, ref.marginal_intensity(state, 2),
                                   state.dy).gaussian_equiv_W
        assert 0.08 < w < beam
        assert w == pytest.approx(REGRESSION_RECT_W, rel=1e-6)

    def test_weight_is_coincidence_fraction(self):
        grid = go.GridSpec(n=512, extent=4.0)
        state = ref.build_grid_state(1.0, 0.5, grid)
        cond = ref.condition(state, go.Aperture(kind="gaussian", epsilon=0.2))
        assert 0.0 < cond.weight < 1.0
        norm = float(np.sum(np.abs(cond.amplitude) ** 2) * cond.dy)
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_conditioning(self):
        grid = go.GridSpec(n=512, extent=4.0)
        state = ref.build_grid_state(0.2, 0.3, grid)
        # a narrow double slit far outside the state's support
        aperture = go.Aperture(kind="double_slit", slit_width=0.05,
                               separation=7.8)
        with pytest.raises(DomainError, match="degenerate"):
            ref.condition(state, aperture)


def formula_rows(a, omega, y, start, stop):
    """Rows start:stop of the unnormalized source as one exp per sample,
    every column evaluated."""
    u = y[start:stop, None] - y[None, :]
    v = y[start:stop, None] + y[None, :]
    return np.exp(-(u ** 2) / a ** 2 - (v ** 2) / (4.0 * omega ** 2))


def product_rows(a, omega, grid, start, stop):
    """Rows start:stop of the source as the product of its two factors, each
    evaluated on the integer offsets i - j and i + j - n of every sample."""
    i = np.arange(start, stop)[:, None]
    j = np.arange(grid.n)[None, :]
    u = (i - j) * grid.dy
    v = (i + j - grid.n) * grid.dy
    return np.exp(-(u ** 2) / a ** 2) * np.exp(-(v ** 2) / (4.0 * omega ** 2))


def assert_near_formula(got, want, a, omega, y, start, stop):
    """``got`` is within the rounding of two evaluations of each sample of
    ``want`` = formula_rows.  On a grid whose y are exact, u and v are exact
    in both, and with eps = 2**-53 and e = u^2/a^2 + v^2/(4 omega^2):
    the one-exp argument carries <= 4 e eps of rounding (two squares, a^2,
    omega^2, two divisions and the sum), the two factors' arguments <= 3 e
    eps between them, and an exp turns an argument error into the same
    relative error.  Three exps of at most 4 ulp (8 eps) each and the product's
    rounding add 25 eps.  So |got - want| <= (8 e + 32) eps max(got, want),
    plus 2**-1074 for each of three results rounded to a subnormal."""
    u = y[start:stop, None] - y[None, :]
    v = y[start:stop, None] + y[None, :]
    exponent = u ** 2 / a ** 2 + v ** 2 / (4.0 * omega ** 2)
    bound = ((8.0 * exponent + 32.0) * 2.0 ** -53 * np.maximum(got, want)
             + 2.0 * 2.0 ** -1074)
    assert np.all(np.abs(got - want) <= bound)


def assert_exact_steps(grid):
    """y = k dy with dy a multiple of 2**-10 below 2**10: every y, y1 - y2
    and y1 + y2 on the grid is exact."""
    assert (grid.dy * 1024).is_integer() and grid.dy < 1024


def as_sampled(rows, start, a, grid):
    """``rows``, rows start:stop of the source's factor product, as the
    source samples them, in place: 0.0 where the u factor is below
    DENSITY_FLOOR, the source floor, and on row 0 and column 0, the grid's
    self-mirrored edge."""
    i = np.arange(start, start + rows.shape[0])[:, None]
    u = (i - np.arange(grid.n)[None, :]) * grid.dy
    rows[np.exp(-(u ** 2) / a ** 2) < go.DENSITY_FLOOR] = 0.0
    if start == 0:
        rows[0] = 0.0
    rows[:, 0] = 0.0
    return rows


def full_grid_source(a, omega, grid):
    """The source as one n x n product of its factors, as the source samples
    it, normalized."""
    psi = as_sampled(product_rows(a, omega, grid, 0, grid.n), 0, a,
                     grid).astype(complex)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * grid.dy ** 2)
    return psi


def raw_tables(a, omega, grid):
    """The source's factor tables without the source floor: every block's
    band spans the grid, and the blocks are the raw factor product with its
    self-mirrored edge zeroed."""
    u_factor = go._gaussian_table(1 - grid.n, 2 * grid.n - 1, grid.dy, a ** 2)
    return go.SourceTables(grid.n - 1, u_factor,
                           go.source_tables(a, omega, grid).v_factor)


def max_rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def walk_diagonals(monkeypatch, params, a, omega, grid):
    """The diagonals 0 and 1 of rho that the block walk of a pass over 300
    mm sums and hands to ``_density_flights``."""
    captured = []
    density_flights = go._density_flights

    def spy(a, omega, grid, diagonals, flights, params):
        captured.append(diagonals)
        return density_flights(a, omega, grid, diagonals, flights, params)

    with monkeypatch.context() as patch:
        patch.setattr(go, "_density_flights", spy)
        go.source_pass(a, omega, grid, params, 300.0)
    (diagonals,) = captured
    return diagonals


# a small resolved layout: dy = 0.0625 mm against max_step 0.111 mm
PARITY_GRID = go.GridSpec(n=512, extent=16.0)
PARITY_A, PARITY_OMEGA = 0.2, 2.0
# the a = 0.3, omega = 1 source at its required extent: the raw source at
# column 0, the self-mirrored edge, is not negligible there, and its band is
# wide (D + 1 = 295 of 512)
TIGHT_GRID = go.GridSpec(n=512, extent=go.required_extent(0.3, 1.0))
# (a, omega, grid) whose density count is clipped at n: E(d) stays above
# DENSITY_FLOOR on every diagonal of the grid
CLIPPED = (1.0, 0.3, go.GridSpec(n=256, extent=1.75))


class TestSourcePass:
    """The matrix-free pass against the n x n reference route."""

    @pytest.mark.parametrize("a, omega, n, extent", [
        (0.3, 1.0, 256, 8.0), (PARITY_A, PARITY_OMEGA, 512, 16.0),
        (0.3, 1.0, 1024, 12.0), (0.04, 1.0, 1024, 8.0)])
    def test_blocked_build_matches_full_grid_formula(self, a, omega, n, extent):
        # built block by block, the state is the one-array product of the
        # factors to the bit, and that product is the one-exp formula to
        # within the rounding of each
        grid = go.GridSpec(n=n, extent=extent)
        assert_exact_steps(grid)
        state = ref.build_grid_state(a, omega, grid)
        assert np.array_equal(state.psi, full_grid_source(a, omega, grid))
        assert_near_formula(product_rows(a, omega, grid, 0, n),
                            formula_rows(a, omega, grid.y, 0, n),
                            a, omega, grid.y, 0, n)

    def test_narrow_band_input_is_narrow(self):
        # the last build input above evaluates under a quarter of each row:
        # its reach R = 21 gives a block's band at most 64 + 2 R columns
        grid = go.GridSpec(n=1024, extent=8.0)
        tables = go.source_tables(0.04, 1.0, grid)
        assert tables.reach == 21
        for start in range(0, grid.n, go.SOURCE_BLOCK_ROWS):
            cols, _ = go.source_rows(tables, start,
                                     start + go.SOURCE_BLOCK_ROWS)
            assert cols.stop - cols.start \
                <= go.SOURCE_BLOCK_ROWS + 2 * tables.reach < grid.n // 4

    @pytest.mark.parametrize("a, omega, grid", [
        (0.04, 10.0, go.GridSpec(n=4096, extent=40.0)),  # strekalov.json
        (SQRT_A2, 10.0, go.GridSpec(n=2048, extent=40.0))],  # kim_shih.json
        ids=["strekalov", "kim_shih"])
    def test_fixture_blocks_match_formula(self, a, omega, grid):
        # each band is the factors' product on its columns to the bit, cut
        # at the source floor and its self-mirrored edge zeroed, and the cut
        # product is 0.0 outside them; outside them every sample of the
        # one-exp formula is below DENSITY_FLOOR, and the formula is within
        # rounding of the raw product everywhere.  Written into a zeroed
        # full-width block the band is the sampled source's block.
        assert_exact_steps(grid)
        y = grid.y
        tables = go.source_tables(a, omega, grid)
        out = np.zeros((go.SOURCE_BLOCK_ROWS, grid.n))
        for start in range(0, grid.n, go.SOURCE_BLOCK_ROWS):
            stop = start + go.SOURCE_BLOCK_ROWS
            raw = product_rows(a, omega, grid, start, stop)
            want = as_sampled(raw.copy(), start, a, grid)
            formula = formula_rows(a, omega, y, start, stop)
            cols, band = go.source_rows(tables, start, stop)
            assert np.array_equal(band, want[:, cols])
            assert np.count_nonzero(want) == np.count_nonzero(want[:, cols])
            outside = np.ones(grid.n, dtype=bool)
            outside[cols] = False
            assert np.all(formula[:, outside] < go.DENSITY_FLOOR)
            assert_near_formula(raw, formula, a, omega, y, start, stop)
            out[:, cols] = band
            assert np.array_equal(out, want)
            out[:, cols] = 0.0

    def test_block_allocates_about_its_own_size(self):
        # on the strekalov grid the band is 98 of 4096 columns (R = 17); the
        # factor tables are built in place and the band is one product of
        # two views of them: nothing but the band and the tables
        grid = go.GridSpec(n=4096, extent=40.0)
        start = grid.n // 2
        tracemalloc.start()
        try:
            tables = go.source_tables(0.04, 10.0, grid)
            cols, band = go.source_rows(tables, start,
                                        start + go.SOURCE_BLOCK_ROWS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cols.stop - cols.start == 98
        table_bytes = tables.u_factor.nbytes + tables.v_factor.nbytes
        assert table_bytes == 8 * (4 * grid.n - 2)
        assert peak < band.nbytes + table_bytes + 4096

    def test_source_exchange_symmetric(self):
        grid = go.GridSpec(n=1024, extent=40.0)
        tables = go.source_tables(0.04, 10.0, grid)
        cols, block = go.source_rows(tables, 0, grid.n)
        assert cols == slice(0, grid.n)
        assert np.array_equal(block, block.T)

    @pytest.mark.parametrize("a, omega, grid", [
        (PARITY_A, PARITY_OMEGA, PARITY_GRID),
        (0.3, 1.0, TIGHT_GRID),
        (0.04, 10.0, go.GridSpec(n=4096, extent=40.0)),  # strekalov.json
        (SQRT_A2, 10.0, go.GridSpec(n=2048, extent=40.0))],  # kim_shih.json
        ids=["parity", "tight", "strekalov", "kim_shih"])
    def test_source_mirror_symmetric(self, a, omega, grid):
        # row n - i is row i reflected, m -> (n - m) mod n, at every column,
        # column 0 included, bit for bit; row 0 and column 0, the grid's
        # self-mirrored edge, are 0.0
        n = grid.n
        tables = go.source_tables(a, omega, grid)

        def full_rows(start, stop):
            out = np.zeros((stop - start, n))
            cols, band = go.source_rows(tables, start, stop)
            out[:, cols] = band
            return out

        for start in range(0, n, go.SOURCE_BLOCK_ROWS):
            first, stop = max(start, 1), start + go.SOURCE_BLOCK_ROWS
            rows = full_rows(first, stop)
            # rows n - first down to n - stop + 1
            mirror = full_rows(n - stop + 1, n - first + 1)[::-1]
            assert np.array_equal(mirror, np.roll(rows[:, ::-1], 1, axis=1))
            assert np.all(rows[:, 0] == 0.0)
        assert np.all(full_rows(0, go.SOURCE_BLOCK_ROWS)[0] == 0.0)

    @pytest.mark.parametrize("L1, L2", [(300.0, 300.0), (0.0, 500.0)])
    def test_conditional_matches_reference(self, params702, L1, L2):
        state = ref.build_grid_state(PARITY_A, PARITY_OMEGA, PARITY_GRID)
        at_slit = ref.evolve_spectral(state, L1, L1, params702) if L1 else state
        slit = go.Aperture(kind="gaussian", epsilon=0.1)
        want = ref.condition(at_slit, slit)
        got = go.source_pass(PARITY_A, PARITY_OMEGA, PARITY_GRID, params702,
                             L1, [slit])
        assert max_rel(got.amplitude[0], want.amplitude) <= 1e-12
        assert got.weight[0] == pytest.approx(want.weight, rel=1e-12, abs=0)
        amp = go.propagate_amplitude(want.amplitude, want.dy, L2, params702)
        fwhm = go.intensity_widths(want.y, np.abs(amp) ** 2, want.dy).fwhm
        assert got.fly(L2).widths(0).fwhm == pytest.approx(fwhm, rel=1e-12,
                                                           abs=0)

    @pytest.mark.parametrize("L1", [300.0, 0.0])
    def test_marginals_match_reference(self, params702, L1):
        # particle 2's flown marginals, from rho's diagonals, on the parity
        # grid, a narrow band (D + 1 = 25 of 2048), a wide one (682 of
        # 2048), a grid at the source's required extent, where column 0 lies
        # inside the band (its raw factor product reaches 1.2e-4 there;
        # rho's tables leave it out, as the sampled source does) and the
        # band is 0.58 n wide, and a grid whose count is clipped at n.  All
        # but the clipped grid end on a partial chunk of diagonals (8 rows a
        # chunk at n = 2048, 32 at n = 512)
        L2 = 300.0
        edge = product_rows(0.3, 1.0, TIGHT_GRID, 0, TIGHT_GRID.n)[:, 0]
        assert np.max(edge) > 1e-4
        for a, omega, grid, count, partial in [
                (PARITY_A, PARITY_OMEGA, PARITY_GRID, 38, True),
                (0.04, 1.0, go.GridSpec(n=2048, extent=20.0), 25, True),
                (1.37, 1.0, go.GridSpec(n=2048, extent=20.0), 682, True),
                (0.3, 1.0, TIGHT_GRID, 295, True),
                (*CLIPPED, 256, False)]:
            assert go._density_count(a, omega, grid) == count
            assert (count % go._chunk_rows(grid.n, count) > 0) is partial
            state = ref.build_grid_state(a, omega, grid)
            beam = ref.marginal_intensity(
                ref.evolve_spectral(state, 0.0, L1 + L2, params702), 2)
            # one pass holds both particles' slit-plane marginals
            at_slit = ref.evolve_spectral(state, L1, L1, params702)
            del state
            slit_want = [ref.marginal_intensity(at_slit, particle)
                         for particle in (1, 2)]
            del at_slit
            dy = grid.dy
            source = go.source_pass(a, omega, grid, params702, L1,
                                    beam_L=L1 + L2)
            assert max_rel(source.beam / (np.sum(source.beam) * dy),
                           beam) <= 1e-12
            slit_plane = source.slit_plane / (np.sum(source.slit_plane) * dy)
            for want in slit_want:
                assert max_rel(slit_plane, want) <= 1e-12
            # flight is unitary: the flown norm is the source norm
            assert float(np.sum(source.slit_plane)) * dy == \
                pytest.approx(source.norm, rel=1e-12)

    @pytest.mark.parametrize("a, omega, grid", [
        (PARITY_A, PARITY_OMEGA, PARITY_GRID),
        (0.3, 1.0, TIGHT_GRID),
        CLIPPED], ids=["parity", "tight", "clipped"])
    def test_table_diagonals_match_direct_rho(self, params702, monkeypatch,
                                              a, omega, grid):
        # the diagonals of rho a pass flies, built from the walk's diagonals
        # 0 and 1 by rho(j, l) = E(j - l) H(j + l), equal psi^T psi of the
        # reference's sampled source, up to its norm, on every diagonal a
        # pass keeps, all n of them on the clipped grid.  Diagonal 0 is the
        # walk's source-plane sum bit for bit.
        n, count = grid.n, go._density_count(a, omega, grid)
        assert (count == n) is (grid is CLIPPED[2])
        chunks = []
        diagonal_chunk = go._diagonal_chunk

        def spy(*args):
            chunk = diagonal_chunk(*args)
            chunks.append(chunk.copy())
            return chunk

        monkeypatch.setattr(go, "_diagonal_chunk", spy)
        go.source_pass(a, omega, grid, params702, 300.0)
        diagonals = np.concatenate(chunks)
        assert diagonals.shape == (count, n)
        # the pass weighs each diagonal d > 0 by 2, for d and -d
        diagonals[1:] /= 2.0
        at_source = go.source_pass(a, omega, grid, params702, 0.0).slit_plane
        assert np.array_equal(diagonals[0] * grid.dy, at_source)
        psi = ref.build_grid_state(a, omega, grid).psi.real
        rho = psi.T @ psi
        want = np.zeros_like(diagonals)
        for d in range(count):
            want[d, :n - d] = np.diagonal(rho, d)
        assert max_rel(diagonals / np.sum(diagonals[0]),
                       want / np.trace(rho)) <= 1e-14

    @pytest.mark.parametrize("a, omega, grid", [
        (0.04, 10.0, go.GridSpec(n=4096, extent=40.0)),  # strekalov.json
        (SQRT_A2, 10.0, go.GridSpec(n=2048, extent=40.0)),  # kim_shih.json
        (0.3, 1.0, TIGHT_GRID)],
        ids=["strekalov", "kim_shih", "tight"])
    def test_omitted_diagonals_within_bound(self, a, omega, grid):
        # the diagonals d > D a pass leaves out of rho move a
        # flown intensity by at most 2 sum_{d > D} |r_d|_1, which the module
        # docstring bounds by 2 e^(pi^2/64) (1 + (D + 1) / (200 ln 2)) 2^-100
        # of the trace.  The source is nonnegative, so that L1 mass is the
        # sum of psi(i, j) psi(i, l) over l - j > D, each row's summed
        # against its own suffix sums: no cancellation.  rho is that of the
        # raw factor product, not cut at the source floor.
        count = go._density_count(a, omega, grid)
        omitted = trace = 0.0
        for _, _, band in go._source_blocks(raw_tables(a, omega, grid)):
            trace += float(np.sum(band * band))
            # suffix[:, j] = sum of band[:, j:]
            suffix = np.cumsum(band[:, ::-1], axis=1)[:, ::-1]
            omitted += float(np.sum(band[:, :-count] * suffix[:, count:]))
        bound = (2.0 * math.exp(math.pi ** 2 / 64.0)
                 * (1.0 + count / (200.0 * math.log(2.0))) * 2.0 ** -100)
        assert 0.0 < 2.0 * omitted <= bound * trace

    @pytest.mark.parametrize("a, omega, grid", [
        (PARITY_A, PARITY_OMEGA, PARITY_GRID),
        (0.3, 1.0, TIGHT_GRID),
        CLIPPED,
        (0.04, 10.0, go.GridSpec(n=4096, extent=40.0))],  # strekalov.json
        ids=["parity", "tight", "clipped", "strekalov"])
    def test_source_floor_within_bound(self, params702, monkeypatch,
                                       a, omega, grid):
        # a pass over the source cut at DENSITY_FLOOR against a pass over the
        # raw factor product.  The module docstring bounds
        # the cut part delta of the source by |delta|_F <= beta |psi|_F, with
        # beta^2 = 2 e^(pi^2/16) (1 + (R + 1) / (400 ln 2)) DENSITY_FLOOR^2,
        # and so the norm's move by beta^2 of it, each projection's by
        # 2 beta |mode|_2, and so each row's times the root of its weight,
        # the projection flown over L1 by a unitary flight, and each flown
        # intensity's L1 move by (2 beta + beta^2) of the norm.  The two
        # passes multiply blocks of different widths, so each check also
        # allows 2^-52 of the compared value for rounding; a floor of 2^-40
        # moves the projections by ~1e-13 of their norm.  The clipped grid
        # keeps every sample (R = n - 1).
        n, eps = grid.n, 2.0 ** -52
        floored = go.source_tables(a, omega, grid)
        raw = raw_tables(a, omega, grid)
        reach = floored.reach
        assert np.count_nonzero(floored.u_factor) == 2 * reach + 1
        # R is the largest |d| whose raw u factor is at least the floor
        assert raw.u_factor[n - 1 + reach] >= go.DENSITY_FLOOR
        assert (reach == n - 1) == (grid is CLIPPED[2])
        assert reach == n - 1 or raw.u_factor[n + reach] < go.DENSITY_FLOOR
        beta = go.DENSITY_FLOOR * math.sqrt(
            2.0 * math.exp(math.pi ** 2 / 16.0)
            * (1.0 + (reach + 1) / (400.0 * math.log(2.0))))
        L1 = 300.0
        slits = [go.Aperture(kind="gaussian", epsilon=epsilon)
                 for epsilon in (0.1, 0.5)]
        passes = []
        for tables in (floored, raw):
            monkeypatch.setattr(go, "source_tables",
                                lambda *args, tables=tables: tables)
            passes.append(go.source_pass(a, omega, grid, params702, L1,
                                         slits, beam_L=L1 + 300.0))
        got, want = passes
        assert abs(want.norm - got.norm) <= (beta ** 2 + eps) * got.norm
        for k, slit in enumerate(slits):
            flown = got.amplitude[k] * math.sqrt(got.weight[k])
            reference = want.amplitude[k] * math.sqrt(want.weight[k])
            mode = slit.sample(grid.y, grid.dy)
            assert np.linalg.norm(flown - reference) \
                <= (2.0 * beta * np.linalg.norm(mode)
                    + eps * np.linalg.norm(reference))
        for intensity, reference in ((got.slit_plane, want.slit_plane),
                                     (got.beam, want.beam)):
            assert np.sum(np.abs(intensity - reference)) * grid.dy \
                <= (2.0 * beta + beta ** 2 + eps) * got.norm

    @pytest.mark.parametrize("a, omega, grid", [
        (0.3, 1.0, TIGHT_GRID),
        (0.04, 1.0, go.GridSpec(n=2048, extent=20.0))], ids=["rows", "density"])
    def test_beam_at_slit_plane_flown_once(self, params702, monkeypatch,
                                           a, omega, grid):
        # a beam at the slit-plane distance (L2 = 0) is the slit-plane
        # intensity: one flight kernel for the one distance, on a wide band
        # and a narrow one
        L1 = 300.0
        alone = go.source_pass(a, omega, grid, params702, L1)
        phases = []
        kernel_windows = go._kernel_windows

        def spy(n, dy, L, params, count):
            phases.append(L)
            return kernel_windows(n, dy, L, params, count)

        monkeypatch.setattr(go, "_kernel_windows", spy)
        source = go.source_pass(a, omega, grid, params702, L1, beam_L=L1)
        assert phases == [L1]
        assert np.array_equal(source.beam, source.slit_plane)
        assert np.array_equal(source.slit_plane, alone.slit_plane)
        assert source.norm == alone.norm

    @pytest.mark.parametrize("a, omega, grid", [
        (0.3, 1.0, TIGHT_GRID),
        (0.04, 1.0, go.GridSpec(n=2048, extent=20.0))], ids=["tight", "narrow"])
    def test_pass_transforms_no_source_row(self, params702, monkeypatch,
                                           a, omega, grid):
        # particle 2's flights come from rho's diagonals, so no pass hands a
        # source row to rfft or irfft: with no flight, with a beam at the
        # slit plane and with two distinct flights
        bands, calls = [], []
        source_rows = go.source_rows

        def record(*args, **kwargs):
            cols, band = source_rows(*args, **kwargs)
            bands.append(band)
            return cols, band

        def spy(name):
            transform = getattr(np.fft, name)

            def counted(x, *args, **kwargs):
                out = kwargs.get("out")
                if any(np.may_share_memory(array, band) for band in bands
                       for array in (x, out) if array is not None):
                    calls.append(name)
                return transform(x, *args, **kwargs)
            return counted

        monkeypatch.setattr(go, "source_rows", record)
        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, spy(name))
        for L1, beam_L in ((0.0, 0.0), (300.0, None), (300.0, 300.0),
                           (300.0, 600.0)):
            go.source_pass(a, omega, grid, params702, L1, beam_L=beam_L)
        assert len(bands) == 4 * grid.n // go.SOURCE_BLOCK_ROWS
        assert calls == []

    def test_source_plane_intensity_without_flight(self, params702):
        # L1 = 0 and beam_L = 0 read the source-plane column sums, whose
        # total is the norm
        dy = PARITY_GRID.dy
        source = go.source_pass(PARITY_A, PARITY_OMEGA, PARITY_GRID, params702,
                                0.0, beam_L=0.0)
        want = ref.marginal_intensity(
            ref.build_grid_state(PARITY_A, PARITY_OMEGA, PARITY_GRID), 2)
        assert max_rel(source.slit_plane / source.norm, want) <= 1e-12
        assert np.array_equal(source.beam, source.slit_plane)
        assert source.norm == pytest.approx(
            float(np.sum(source.slit_plane)) * dy, rel=1e-15, abs=0)

    def test_strekalov_sweep_pass_holds_no_row_wide_block(self, params702):
        # the 5-slit pass of the strekalov sweep holds band-wide block
        # arrays, then one chunk of rho's diagonals with its transform
        # buffers: its peak stays under three blocks of 64 full-width rows
        a, omega, grid = 0.04, 10.0, go.GridSpec(n=4096, extent=40.0)
        slits = [go.Aperture(kind="gaussian", epsilon=w / 2.0)
                 for w in np.linspace(0.2, 1.0, 5)]
        limit = 3 * go.SOURCE_BLOCK_ROWS * grid.n * 8
        tracemalloc.start()
        try:
            go.source_pass(a, omega, grid, params702, 600.0, slits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert limit == 6_291_456
        assert peak < limit

    @pytest.mark.parametrize("n, count", [(1024, 32), (2048, 63), (4096, 125),
                                          (8192, 250)])
    def test_flights_hold_one_small_chunk(self, params702, monkeypatch, n,
                                          count):
        # a chunk is ``_chunk_rows`` diagonals, 16, 8 and then 4: the flights
        # hold its three buffers (one real row and two half-spectra a
        # diagonal), each of two flights' kernel as two rows of n + D
        # values, the table of E (D + 1 values), and eight one-axis arrays
        # (the spectra, the results and transients), 8 bytes a value,
        # whatever D.  The walk's diagonals 0 and 1 are the caller's.
        a, omega, grid = SQRT_A2, 10.0, go.GridSpec(n=n, extent=40.0)
        assert go._density_count(a, omega, grid) == count
        rows, d_max = go._chunk_rows(n, count), count - 1
        budget = 8 * (rows * (n + 2 * 2 * (n // 2 + 1))
                      + 2 * 2 * (n + d_max) + (d_max + 1) + 8 * n)
        diagonals = walk_diagonals(monkeypatch, params702, a, omega, grid)
        # a first call imports numpy.fft, which numpy loads lazily and
        # tracemalloc would count
        go._density_flights(a, omega, grid, diagonals, [500.0, 1000.0],
                            params702)
        tracemalloc.start()
        try:
            go._density_flights(a, omega, grid, diagonals, [500.0, 1000.0],
                                params702)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < budget

    def test_pass_without_flight_allocates_no_flight_buffers(self, params702):
        # with every flight 0 the pass holds the block, the next one being
        # generated and the squares, and no diagonals of rho
        block_bytes = go.SOURCE_BLOCK_ROWS * PARITY_GRID.n * 8
        tracemalloc.start()
        try:
            go.source_pass(PARITY_A, PARITY_OMEGA, PARITY_GRID, params702, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * block_bytes

    def test_wrapped_slit_plane_refused_on_both_routes(self, params702):
        # over 20 m the source spreads far beyond +-16 mm and wraps around
        state = ref.build_grid_state(PARITY_A, PARITY_OMEGA, PARITY_GRID)
        with pytest.raises(ResolutionError, match="boundary"):
            ref.evolve_spectral(state, 20000.0, 20000.0, params702)
        slit = go.Aperture(kind="gaussian", epsilon=0.1)
        with pytest.raises(ResolutionError, match="boundary"):
            go.source_pass(PARITY_A, PARITY_OMEGA, PARITY_GRID, params702, 20000.0,
                           [slit])

    def test_many_modes_match_sliced_passes(self, params702):
        # one pass over 130 slits gives each slit's conditional of one pass
        # per 64-slit slice, to within rounding of each row's peak
        slits = [go.Aperture(kind="gaussian", epsilon=eps)
                 for eps in np.linspace(0.08, 0.5, 130)]
        whole = go.source_pass(PARITY_A, PARITY_OMEGA, PARITY_GRID, params702,
                               300.0, slits).amplitude
        assert whole.shape == (130, PARITY_GRID.n)
        sliced = np.concatenate([
            go.source_pass(PARITY_A, PARITY_OMEGA, PARITY_GRID, params702,
                           300.0, slits[start:start + 64]).amplitude
            for start in range(0, 130, 64)])
        peaks = np.max(np.abs(sliced), axis=1)
        assert np.all(np.max(np.abs(whole - sliced), axis=1) <= 1e-15 * peaks)

    @pytest.mark.parametrize("call", [
        *[pytest.param(lambda params, L=L: go.source_pass(
            PARITY_A, PARITY_OMEGA, PARITY_GRID, params, L), id=f"L1{id}")
          for L, id in ((-300.0, ""), (math.nan, "-nan"))],
        *[pytest.param(lambda params, L=L: go.source_pass(
            PARITY_A, PARITY_OMEGA, PARITY_GRID, params, 300.0, beam_L=L),
            id=f"beam_L{id}")
          for L, id in ((-300.0, ""), (math.nan, "-nan"))],
        *[pytest.param(lambda params, L=L: go.source_pass(
            PARITY_A, PARITY_OMEGA, PARITY_GRID, params, 300.0, [DOUBLE_SLIT],
            d1=L), id=f"d1{id}")
          for L, id in ((-50.0, ""), (math.nan, "-nan"))],
        *[pytest.param(lambda params, L=L: go.ghost_double_slit(
            PARITY_A, PARITY_OMEGA, PARITY_GRID, DOUBLE_SLIT, 300.0, 50.0, L,
            params), id=f"ghost-L2{id}")
          for L, id in ((-300.0, ""), (math.nan, "-nan"))]])
    def test_negative_distance_refused(self, params702, call):
        # a negative or NaN distance is refused, not read as no flight
        with pytest.raises(DomainError,
                           match=r"^propagation distances must be >= 0$"):
            call(params702)

    def test_build_guards_apply(self, params702):
        with pytest.raises(ResolutionError, match="step"):
            go.source_pass(0.01, 1.0, go.GridSpec(n=256, extent=8.0), params702, 0.0)

    def test_coarse_step_refusal_names_n(self):
        # a = 0.01 mm needs dy <= 0.00555 mm: over +-40 mm that is n = 16384
        # (dy 0.00488 mm), where 8192 gives 0.00977 mm
        for n in (2048, 8192):
            with pytest.raises(ResolutionError,
                               match=r"too coarse.*\(n >= 16384 on this extent\)"):
                go._check_source(0.01, 4.0, go.GridSpec(n=n, extent=40.0))
        go._check_source(0.01, 4.0, go.GridSpec(n=16384, extent=40.0))


# Gaussian slits of 0.5 and 1 mm around a point on axis, whose conditional is
# narrow enough to wrap over 8 m on the parity grid
ISOLATION_APERTURES = [go.Aperture(kind="gaussian", epsilon=0.5),
                       go.Aperture(kind="point"),
                       go.Aperture(kind="gaussian", epsilon=1.0)]


class TestConditionals:
    def test_wrapped_row_isolated(self, params702):
        # over L2 = 8 m only the point's conditional reaches the boundary of
        # +-16 mm: its row alone keeps the tail check's error, and the other
        # rows are those of one-mode passes, bit for bit
        L1, L2 = 300.0, 8000.0

        def stage(apertures):
            return go.source_pass(PARITY_A, PARITY_OMEGA, PARITY_GRID,
                                  params702, L1, apertures)

        apertures = ISOLATION_APERTURES
        point = stage(apertures[1:2])
        cond = stage(apertures).fly(L2)
        assert list(cond.failures) == [1]
        with pytest.raises(ResolutionError, match="boundary") as wrapped:
            go.propagate_amplitude(point.amplitude[0], PARITY_GRID.dy, L2,
                                   params702)
        with pytest.raises(ResolutionError) as got:
            cond.widths(1)
        assert str(got.value) == str(wrapped.value)
        for k in (0, 2):
            one = stage(apertures[k:k + 1]).fly(L2)
            assert not one.failures
            assert np.array_equal(cond.amplitude[k], one.amplitude[0])
            assert cond.weight[k] == one.weight[0]
            assert cond.widths(k) == one.widths(0)

    def test_unresolved_row_isolated(self, params702):
        # epsilon 0.05 mm needs dy <= 0.0393 mm, where the parity grid's step
        # is 0.0625 mm: that slit's row alone fails, left 0.0, and the other
        # rows are those of a pass without it, bit for bit
        def stage(apertures):
            return go.source_pass(PARITY_A, PARITY_OMEGA, PARITY_GRID,
                                  params702, 300.0, apertures)

        resolved = [ISOLATION_APERTURES[0], ISOLATION_APERTURES[2]]
        cond = stage([resolved[0], go.Aperture(kind="gaussian", epsilon=0.05),
                      resolved[1]])
        alone = stage(resolved)
        assert list(cond.failures) == [1]
        with pytest.raises(ResolutionError,
                           match=r"unresolved.*\(n >= 1024 on this extent\)"):
            cond.widths(1)
        assert not np.any(cond.amplitude[1]) and cond.weight[1] == 0.0
        for k, j in ((0, 0), (2, 1)):
            assert np.array_equal(cond.amplitude[k], alone.amplitude[j])
            assert cond.weight[k] == alone.weight[j]

    def test_degenerate_row_left_unnormalized(self, params702):
        # a row with no overlap has weight 0: the normalization step leaves
        # it the degenerate error, does not divide it by its zero norm, and
        # warns of nothing
        cond = go.source_pass(PARITY_A, PARITY_OMEGA, PARITY_GRID, params702,
                              300.0, ISOLATION_APERTURES)
        cond.amplitude[1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cond.failures = {}
            cond.weight = go._normalize(cond.amplitude, PARITY_GRID.dy, 300.0,
                                        params702, cond.failures)
            cond.fly(300.0)
        assert list(cond.failures) == [1]
        assert cond.weight[1] == 0.0
        assert not np.any(cond.amplitude[1])
        with pytest.raises(DomainError, match="degenerate"):
            cond.widths(1)
        for k in (0, 2):
            assert np.sum(np.abs(cond.amplitude[k]) ** 2) * PARITY_GRID.dy \
                == pytest.approx(1.0, abs=1e-12)


# frozen from the first run of test_rect_aperture_regression (n=2048,
# extent=12, a^2=0.043, omega=2, hard slit 0.16 mm)
REGRESSION_RECT_W = 0.21630349979112098


class TestWidths:
    def test_pure_gaussian(self):
        grid = go.GridSpec(n=1024, extent=6.0)
        intensity = np.exp(-2.0 * grid.y ** 2)
        w = go.intensity_widths(grid.y, intensity, grid.dy)
        assert w.rms == pytest.approx(0.5, rel=1e-4)
        assert w.fwhm == pytest.approx(1.17741, rel=1e-3)
        assert w.gaussian_equiv_W == pytest.approx(1.0, rel=1e-4)

    def test_empty_profile(self):
        grid = go.GridSpec(n=256, extent=2.0)
        with pytest.raises(DomainError):
            go.intensity_widths(grid.y, np.zeros(grid.n), grid.dy)


class TestApertureValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            go.Aperture(kind="gaussian", epsilon=0.0)
        with pytest.raises(DomainError):
            go.Aperture(kind="rect", full_width=-1.0)
        with pytest.raises(DomainError):
            go.Aperture(kind="double_slit", slit_width=0.2, separation=0.1)
        with pytest.raises(DomainError):
            go.Aperture(kind="pinhole")

    def test_profiles_normalized(self):
        grid = go.GridSpec(n=512, extent=4.0)
        for ap in (go.Aperture(kind="gaussian", epsilon=0.3),
                   go.Aperture(kind="rect", full_width=0.4),
                   go.Aperture(kind="double_slit", slit_width=0.1, separation=0.5),
                   go.Aperture(kind="point")):
            phi = ap.sample(grid.y, grid.dy)
            assert float(np.sum(np.abs(phi) ** 2) * grid.dy) == \
                pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("epsilon, need", [(0.02, 8192), (0.015, 8192),
                                               (0.01, 16384)])
    def test_unresolved_gaussian_refused(self, params702, epsilon, need):
        # popper_freespace's grid, dy = 0.0195 mm, resolves epsilon >= 4 dy / pi
        # = 0.0249 mm; a narrower slit is refused with the n it needs, by the
        # ghost pattern's mask as by the aperture itself
        grid = go.GridSpec(n=4096, extent=40.0)
        slit = go.Aperture(kind="gaussian", epsilon=epsilon)
        with pytest.raises(ResolutionError, match=f"n >= {need} "):
            slit.sample(grid.y, grid.dy)
        with pytest.raises(ResolutionError, match="unresolved"):
            go.ghost_double_slit(0.04, 10.0, grid, slit, 600.0, 50.0, 0.0,
                                 params702)

    def test_points_for_step_compares_steps_exactly(self):
        # n doubles until GridSpec's own step meets the limit: a limit equal
        # to that step is met, one a hair below it is not
        grid = go.GridSpec(n=4096, extent=40.0)
        assert go.points_for_step(grid.extent, grid.dy) == 4096
        assert go.points_for_step(grid.extent,
                                  math.nextafter(grid.dy, 0.0)) == 8192
        assert go.points_for_step(grid.extent, grid.dy / 3.0, 2048) == 16384
        assert go.points_for_step(grid.extent, grid.dy / 3.0, 2048, 8192) == 8192

    def test_resolution_rule_edge(self):
        grid = go.GridSpec(n=4096, extent=40.0)
        edge = 4.0 * grid.dy / math.pi
        go.Aperture(kind="gaussian", epsilon=edge * (1 + 1e-12)).sample(
            grid.y, grid.dy)
        with pytest.raises(ResolutionError):
            go.Aperture(kind="gaussian", epsilon=edge * (1 - 1e-12)).sample(
                grid.y, grid.dy)
        # the one-step point sampler and hard slits are not held to the rule
        for aperture in (go.Aperture(kind="point"),
                         go.Aperture(kind="rect", full_width=2.0 * grid.dy)):
            aperture.sample(grid.y, grid.dy)


class TestNonFiniteInput:
    @pytest.mark.parametrize("call", [
        *[pytest.param(lambda params, x=x: go.GridSpec(n=512, extent=x),
                       id=f"extent-{x}") for x in (math.nan, math.inf)],
        pytest.param(lambda params: go.Aperture(kind="gaussian",
                                                epsilon=math.nan),
                     id="epsilon-nan"),
        pytest.param(lambda params: go.Aperture(kind="rect",
                                                full_width=math.nan),
                     id="full_width-nan"),
        pytest.param(lambda params: go.Aperture(
            kind="double_slit", slit_width=math.nan, separation=0.4),
            id="slit_width-nan"),
        pytest.param(lambda params: go.Aperture(
            kind="double_slit", slit_width=0.1, separation=math.nan),
            id="separation-nan"),
        *[pytest.param(lambda params, x=x: go.source_pass(
            x, PARITY_OMEGA, PARITY_GRID, params, 300.0), id=f"a-{x}")
          for x in (math.nan, math.inf, 0.0)],
        *[pytest.param(lambda params, x=x: go.source_pass(
            PARITY_A, x, PARITY_GRID, params, 300.0), id=f"omega-{x}")
          for x in (math.nan, math.inf, 0.0)]])
    def test_refused(self, params702, call):
        # a NaN, infinite or zero size is refused, not carried into a
        # traceback or a NaN result: the source is checked before the memory
        # model, which divides by a and omega
        with pytest.raises(DomainError):
            call(params702)


GHOST_GRID = go.GridSpec(n=2048, extent=10.0)
DOUBLE_SLIT = go.Aperture(kind="double_slit", slit_width=0.1, separation=0.4)
# a 1 mm slit: 103 samples on GHOST_GRID, each a point mode of the guard
WIDE_RECT = go.Aperture(kind="rect", full_width=1.0)
# (a, omega, slit, d1) with L1 = L2 = 200 mm: criterion 9's entangled and
# separable layouts, and a single Gaussian slit whose point detector sits far
# enough behind it to sample its whole transmitted mode
GHOST_LAYOUTS = {
    "entangled": (0.04, 2.0, DOUBLE_SLIT, 50.0),
    "separable": (2.0, 1.0, DOUBLE_SLIT, 50.0),
    "envelope": (0.04, 2.0, go.Aperture(kind="gaussian", epsilon=0.1), 400.0),
}


@pytest.fixture(scope="module")
def ghost_patterns(params702):
    """Each layout's ghost pattern, on the pass."""
    return {name: go.ghost_double_slit(a, omega, GHOST_GRID, slit, 200.0, d1,
                                       200.0, params702)
            for name, (a, omega, slit, d1) in GHOST_LAYOUTS.items()}


class TestGhostDoubleSlit:
    @pytest.mark.parametrize("name", list(GHOST_LAYOUTS))
    def test_matches_reference(self, ghost_patterns, params702, name):
        a, omega, slit, d1 = GHOST_LAYOUTS[name]
        state = ref.evolve_spectral(ref.build_grid_state(a, omega, GHOST_GRID),
                                    200.0, 200.0, params702)
        want = ref.ghost_double_slit(state, slit, d1=d1, L2=200.0,
                                     params=params702)
        got = ghost_patterns[name]
        assert max_rel(got.intensity, want.intensity) <= 1e-12
        assert got.weight == pytest.approx(want.weight, rel=1e-12, abs=0)
        assert got.envelope_fwhm == pytest.approx(want.envelope_fwhm, rel=1e-12,
                                                  abs=0)
        assert got.visibility == pytest.approx(want.visibility, rel=1e-12,
                                               abs=1e-15)
        np.testing.assert_equal(got.fringe_spacing, want.fringe_spacing)

    def test_fringe_spacing(self, ghost_patterns, params702):
        # Young's formula over the through-source distance 2*L1 + L2
        expected = params702.wavelength_mm * 600.0 / 0.4
        assert ghost_patterns["entangled"].fringe_spacing == pytest.approx(
            expected, rel=0.05)

    def test_visibility_high_when_entangled(self, ghost_patterns):
        assert ghost_patterns["entangled"].visibility > 0.5

    def test_no_fringes_for_separable_state(self, ghost_patterns):
        assert ghost_patterns["separable"].visibility < 0.05

    def test_single_slit_envelope(self, ghost_patterns, params702):
        # ghost single slit: envelope within 10% of the closed-form width
        # for the same eps, a over 2*L1 + L2
        eps = 0.1
        s2 = eps * eps + 0.04 ** 2
        lam_d = params702.rescaled_wavelength_mm * 600.0
        expected = gc.fwhm_from_width(math.sqrt(s2 + lam_d ** 2 / s2))
        assert ghost_patterns["envelope"].envelope_fwhm == pytest.approx(
            expected, rel=0.10)

    def test_envelope_layout_not_refused(self, ghost_patterns, params702):
        # the point mode flown back d1 = 400 mm spreads over the whole grid,
        # far past the tail limit, while the state it conditions stays inside:
        # a guard on back-flown modes would refuse this valid layout
        point = go.Aperture(kind="point").sample(GHOST_GRID.y, GHOST_GRID.dy)
        back = np.abs(go.fly(point, GHOST_GRID.dy, 400.0, params702)) ** 2
        band = int(round(go.TAIL_BAND_FRACTION * GHOST_GRID.n))
        tail = (np.sum(back[:band]) + np.sum(back[-band:])) / np.sum(back)
        assert tail > 1e4 * go.TAIL_PROB_LIMIT
        assert ghost_patterns["envelope"].weight > 0.0

    def test_d1_guard_profile_matches_reference(self, params702):
        # the guard's profile is particle 1's intensity behind the mask,
        # flown d1: the n x n state's particle-1 marginal.  It takes one point
        # mode per mask sample at least DENSITY_FLOOR of the peak, after the
        # detector mode, in the one pass: 133, 20 and 103 of them here.
        entangled = GHOST_LAYOUTS["entangled"][:2]
        for a, omega, grid, slit, L1, d1, points in [
                (PARITY_A, PARITY_OMEGA, PARITY_GRID,
                 go.Aperture(kind="gaussian", epsilon=0.5), 300.0, 100.0, 133),
                (*entangled, GHOST_GRID, DOUBLE_SLIT, 200.0, 50.0, 20),
                (*entangled, GHOST_GRID, WIDE_RECT, 200.0, 50.0, 103)]:
            mask = slit.sample(grid.y, grid.dy)
            kept = np.abs(mask) >= go.DENSITY_FLOOR * np.abs(mask).max()
            assert np.count_nonzero(kept) == points
            got = go.source_pass(a, omega, grid, params702, L1, [slit],
                                 d1=d1).guard
            state = ref.evolve_spectral(ref.build_grid_state(a, omega, grid),
                                        L1, L1, params702)
            masked = ref.GridState(psi=state.psi * mask[:, None], y=state.y,
                                   dy=state.dy)
            want = ref.marginal_intensity(
                ref.evolve_spectral(masked, d1, 0.0, params702), 1)
            assert max_rel(got / (np.sum(got) * grid.dy), want) <= 1e-12

    @pytest.mark.parametrize("name, slit", [
        ("entangled", DOUBLE_SLIT), ("separable", DOUBLE_SLIT),
        ("entangled", WIDE_RECT)], ids=["entangled", "separable", "rect"])
    def test_guard_rides_on_the_pass(self, params702, oracle_spies, name,
                                     slit):
        # the d1 guard's point modes follow the detector mode in its pass:
        # criterion 9's 20 and the 1 mm slit's 103 each make one pass over
        # the source
        a, omega, _, d1 = GHOST_LAYOUTS[name]
        go.ghost_double_slit(a, omega, GHOST_GRID, slit, 200.0, d1, 200.0,
                             params702)
        assert oracle_spies == {
            **NO_REFERENCE_CALLS, "source_pass": 1,
            "source_rows": GHOST_GRID.n // go.SOURCE_BLOCK_ROWS}

    @pytest.mark.parametrize("name", ["entangled", "separable"])
    def test_criterion_9_peak_memory_within_model(self, params702, name):
        # criterion 9's guard holds its 20 point modes a few times over, no
        # full-width source block
        a, omega, slit, d1 = GHOST_LAYOUTS[name]
        model = go.peak_bytes(a, omega, GHOST_GRID, 1, 20)
        peak = traced_peak(lambda: go.ghost_double_slit(
            a, omega, GHOST_GRID, slit, 200.0, d1, 200.0, params702))
        assert model / 2 <= peak <= model

    @pytest.mark.parametrize("width, points", [(1.0, 103), (5.0, 511)])
    def test_wide_mask_peak_memory_within_model(self, params702, width,
                                                points):
        # the guard's pass holds the detector mode and |S| point modes: its
        # peak stays within the model of a pass over them
        a, omega, _, d1 = GHOST_LAYOUTS["entangled"]
        slit = go.Aperture(kind="rect", full_width=width)
        mask = slit.sample(GHOST_GRID.y, GHOST_GRID.dy)
        assert np.count_nonzero(mask) == points
        model = go.peak_bytes(a, omega, GHOST_GRID, 1, points)
        peak = traced_peak(lambda: go.ghost_double_slit(
            a, omega, GHOST_GRID, slit, 200.0, d1, 200.0, params702))
        assert model / 2 <= peak <= model

    def test_d1_pass_holds_its_row_alone(self, params702):
        # the pass returns the d1 leg's detector row on its own, not as a
        # view into the buffer of the 5 mm slit's |S| = 511 point modes: what
        # the returned pass holds is a few n-rows
        a, omega, _, d1 = GHOST_LAYOUTS["entangled"]
        slit = go.Aperture(kind="rect", full_width=5.0)
        # a first call imports numpy.fft, which numpy loads lazily and
        # tracemalloc would count
        go.source_pass(a, omega, GHOST_GRID, params702, 200.0, [DOUBLE_SLIT],
                       d1=d1)
        tracemalloc.start()
        try:
            source = go.source_pass(a, omega, GHOST_GRID, params702, 200.0,
                                    [slit], d1=d1)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert source.amplitude.shape == (1, GHOST_GRID.n)
        assert held < 8 * GHOST_GRID.n * 16

    def test_wide_mask_holds_its_modes_twice(self, params702):
        # the 5 mm slit's |S| = 511 point modes ride with the detector mode,
        # flown in place and overwritten by their projections, and the d1
        # leg flies its point kernels in place and conjugates them in place:
        # the guard holds two (|S| + 1) x n complex arrays, its |S| x |S|
        # Gram and under 64 one-axis real arrays besides
        a, omega, _, d1 = GHOST_LAYOUTS["entangled"]
        slit = go.Aperture(kind="rect", full_width=5.0)
        n, points = GHOST_GRID.n, 511
        assert np.count_nonzero(slit.sample(GHOST_GRID.y, GHOST_GRID.dy)) \
            == points
        bound = 2 * (points + 1) * n * 16 + points * points * 16 + 64 * n * 8
        # a first call imports numpy.fft, which numpy loads lazily and
        # tracemalloc would count
        go.ghost_double_slit(a, omega, GHOST_GRID, DOUBLE_SLIT, 200.0, d1,
                             200.0, params702)
        tracemalloc.start()
        try:
            go.ghost_double_slit(a, omega, GHOST_GRID, slit, 200.0, d1, 200.0,
                                 params702)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bound == 38_780_944
        assert peak < bound

    @pytest.mark.parametrize("apertures", [[], [DOUBLE_SLIT, WIDE_RECT]],
                             ids=["none", "two"])
    def test_d1_leg_takes_one_aperture(self, params702, apertures):
        # a d1 leg lies behind exactly one mask
        with pytest.raises(DomainError, match="one aperture, got"):
            go.source_pass(PARITY_A, PARITY_OMEGA, PARITY_GRID, params702,
                           300.0, apertures, d1=50.0)

    def test_d1_leg_aliasing_guard(self, params702):
        # behind a 0.05 mm slit particle 1 spreads to W ~ 22 mm over
        # d1 = 5 m, far beyond the +-4 mm domain
        slit = go.Aperture(kind="gaussian", epsilon=0.05)
        with pytest.raises(ResolutionError, match="boundary"):
            go.ghost_double_slit(0.3, 0.5, go.GridSpec(n=512, extent=4.0), slit,
                                 0.0, 5000.0, 0.0, params702)


def slits_case(a, omega, grid, epsilons, L1, beam_L, id):
    """A peak-memory case: one pass over Gaussian slits of ``epsilons`` at
    L1, the slits built inside the call."""
    def call(params):
        slits = [go.Aperture(kind="gaussian", epsilon=eps) for eps in epsilons]
        go.source_pass(a, omega, grid, params, L1, slits, beam_L)
    return pytest.param(a, omega, grid, len(epsilons), 0, call, id=id)


def ghost_case(slit, points, id):
    """A peak-memory case: the ghost's pass over the detector mode and the
    |S| = ``points`` point modes of ``slit``, and its d1 guard."""
    a, omega, _, d1 = GHOST_LAYOUTS["entangled"]

    def call(params):
        go.ghost_double_slit(a, omega, GHOST_GRID, slit, 200.0, d1, 200.0,
                             params)
    return pytest.param(a, omega, GHOST_GRID, 1, points, call, id=id)


class TestMemoryCap:
    def test_in_process_pass_refused(self, params702, monkeypatch):
        # the pass checks its own modelled peak, whoever calls it
        need = go.peak_bytes(PARITY_A, PARITY_OMEGA, PARITY_GRID, 3)

        def call():
            return go.source_pass(PARITY_A, PARITY_OMEGA, PARITY_GRID,
                                  params702, 300.0, ISOLATION_APERTURES)

        monkeypatch.setenv(go.MAX_GRID_ENV, str(need - 1))
        with pytest.raises(ConfigError, match=(
                f"^oracle pass on n = 512 over 3 modes needs {need} bytes, "
                f"over the {go.MAX_GRID_ENV} cap of {need - 1}$")):
            call()
        monkeypatch.setenv(go.MAX_GRID_ENV, str(need))
        assert not call().failures
        monkeypatch.setenv(go.MAX_GRID_ENV, "lots")
        with pytest.raises(ConfigError, match=f"^{go.MAX_GRID_ENV} must be"):
            call()

    def test_ghost_counts_its_points(self, params702, monkeypatch):
        # the 5 mm slit's pass holds its detector mode and |S| = 511 point
        # modes: a cap above the model of the one mode but below the model
        # with the points refuses it, naming them
        a, omega, _, d1 = GHOST_LAYOUTS["entangled"]
        slit = go.Aperture(kind="rect", full_width=5.0)
        one = go.peak_bytes(a, omega, GHOST_GRID, 1)
        need = go.peak_bytes(a, omega, GHOST_GRID, 1, 511)
        cap = (one + need) // 2
        assert one < cap < need
        monkeypatch.setenv(go.MAX_GRID_ENV, str(cap))
        with pytest.raises(ConfigError, match=(
                f"^oracle pass on n = 2048 over 1 mode and 511 points needs "
                f"{need} bytes, over the {go.MAX_GRID_ENV} cap of {cap}$")):
            go.ghost_double_slit(a, omega, GHOST_GRID, slit, 200.0, d1, 200.0,
                                 params702)
        # a grid past the cap is refused before its mask is sampled
        with pytest.raises(ConfigError,
                           match=f"^oracle pass on n = {2 ** 40} over 1 mode "):
            go.ghost_double_slit(a, omega, go.GridSpec(n=2 ** 40, extent=10.0),
                                 slit, 200.0, d1, 200.0, params702)


class TestPeakBytes:
    @pytest.mark.parametrize("a, omega, grid, modes, points, call", [
        # one Gaussian slit flown 500 mm and a beam flown 1000 mm over
        # +-40 mm: D + 1 = 32 .. 1000
        *[slits_case(SQRT_A2, 10.0, go.GridSpec(n=n, extent=40.0), [0.2],
                     500.0, 1000.0, id=f"slit-{n}")
          for n in (1024, 2048, 4096, 8192, 16384, 32768)],
        # strekalov.json's sweep pass over its slits' half-widths
        *[slits_case(0.04, 10.0, go.GridSpec(n=4096, extent=40.0),
                     np.linspace(0.1, 0.5, steps), 600.0, None,
                     id=f"strekalov-{steps}")
          for steps in (5, 65, 256, 512)],
        # every diagonal of rho kept, D + 1 = n = 512, and a wide band,
        # D + 1 = 621 of 1024
        slits_case(1.0, 0.3, go.GridSpec(n=512, extent=2.5), [0.3], 5.0,
                   10.0, id="clipped-1"),
        slits_case(1.0, 0.3, go.GridSpec(n=512, extent=2.5),
                   np.linspace(0.1, 0.5, 64), 5.0, 10.0, id="clipped-64"),
        slits_case(1.0, 0.3, go.GridSpec(n=1024, extent=5.0),
                   np.linspace(0.1, 0.5, 256), 5.0, 10.0, id="wide-256"),
        ghost_case(DOUBLE_SLIT, 20, id="ghost-20"),
        ghost_case(WIDE_RECT, 103, id="ghost-103"),
        ghost_case(go.Aperture(kind="rect", full_width=5.0), 511,
                   id="ghost-511"),
    ])
    def test_traced_peak_within_model(self, params702, a, omega, grid, modes,
                                      points, call):
        # the model counts what each stage of the pass allocates: it bounds
        # the traced peak, and the peak takes at least half of it
        model = go.peak_bytes(a, omega, grid, modes, points)
        peak = traced_peak(lambda: call(params702))
        assert model / 2 <= peak <= model


class TestDeterminism:
    def test_identical_runs_identical_bits(self, params702):
        grid = go.GridSpec(n=512, extent=8.0)
        slit = go.Aperture(kind="gaussian", epsilon=0.2)

        def run():
            return go.source_pass(0.3, 1.0, grid, params702, 300.0,
                                  [slit]).fly(300.0).amplitude

        a, b = run(), run()
        assert np.array_equal(a, b)
