"""Scenario parsing, reference layout runs, sweeps, and the width inversion."""

import dataclasses
import decimal
import importlib.resources
import json
import math
import tracemalloc

import numpy as np
import pytest

import poppersim.experiments as ex
import poppersim.gaussian_core as gc
import poppersim.grid_oracle as go
from poppersim.errors import ConfigError, DomainError
from poppersim.gaussian_core import PhysParams

from conftest import BIG_OMEGA, NO_REFERENCE_CALLS, traced_peak


def scenario_doc(**overrides):
    doc = {
        "name": "unit",
        "lambda_nm": 702.0,
        "a_mm": 0.2,
        "omega_mm": 2.0,
        "slit": {"kind": "gaussian", "width_mm": 0.1},
        "L1_mm": 100.0,
        "L2_mm": 200.0,
    }
    doc.update(overrides)
    return doc


class TestScenarioParsing:
    def test_round_trip_fields(self):
        scenario = ex.Scenario.from_dict(scenario_doc())
        assert scenario.a == pytest.approx(0.2)
        assert scenario.params.wavelength_mm == pytest.approx(702e-6)
        assert scenario.slit.epsilon == pytest.approx(0.1)
        assert scenario.effective_distance == pytest.approx(400.0)

    def test_a2_alternative(self):
        scenario = ex.Scenario.from_dict(scenario_doc(a2_mm2=0.043))
        del scenario  # parsed with a2; check the value on a fresh parse
        doc = scenario_doc()
        doc.pop("a_mm")
        doc["a2_mm2"] = 0.043
        scenario = ex.Scenario.from_dict(doc)
        assert scenario.a == pytest.approx(math.sqrt(0.043))

    def test_missing_field(self):
        doc = scenario_doc()
        doc.pop("omega_mm")
        with pytest.raises(ConfigError, match="omega_mm"):
            ex.Scenario.from_dict(doc)

    def test_lens_and_oracle_blocks(self):
        doc = scenario_doc(lens={"f_mm": 500.0, "b1_mm": 500.0},
                           oracle={"n": 512, "extent_mm": 20.0})
        scenario = ex.Scenario.from_dict(doc)
        assert scenario.lens.image_distance == pytest.approx(500.0)
        assert scenario.oracle.n == 512

    def test_bundled_fixtures_load(self):
        root = importlib.resources.files("poppersim.scenarios")
        for name in ("kim_shih.json", "strekalov.json", "popper_freespace.json"):
            doc = json.loads(root.joinpath(name).read_text())
            scenario = ex.Scenario.from_dict(doc)
            assert scenario.slit is not None

    @pytest.mark.parametrize("field, value", [
        ("a", math.nan), ("a", math.inf), ("omega", math.nan),
        ("omega", math.inf), ("L1", math.nan), ("L2", math.nan)])
    def test_non_finite_field_refused(self, field, value):
        # a Scenario built in code is refused as one parsed from JSON is
        scenario = ex.Scenario.from_dict(scenario_doc())
        with pytest.raises(ConfigError):
            dataclasses.replace(scenario, **{field: value})


@pytest.fixture(scope="module")
def kim_shih_scenario():
    root = importlib.resources.files("poppersim.scenarios")
    return ex.Scenario.from_dict(
        json.loads(root.joinpath("kim_shih.json").read_text()))


class TestKimShih:
    def test_analytic_reference_numbers(self, kim_shih_scenario):
        report = ex.run_kim_shih(kim_shih_scenario)
        assert report.coincidence_fwhm_mm.analytic == pytest.approx(0.657, rel=0.01)
        assert report.real_slit_fwhm_mm.analytic == pytest.approx(2.0, rel=0.02)
        assert report.ghost_image_width_mm.analytic == pytest.approx(0.217, rel=0.005)

    def test_oracle_deltas_small(self, kim_shih_scenario):
        report = ex.run_kim_shih(kim_shih_scenario, use_oracle=True)
        for measured in (report.coincidence_fwhm_mm, report.real_slit_fwhm_mm,
                         report.ghost_image_width_mm):
            assert abs(measured.delta_rel) < 0.02
        assert 0.0 < report.coincidence_weight < 1.0

    def test_oracle_makes_one_pass(self, kim_shih_scenario, oracle_spies):
        ex.run_kim_shih(kim_shih_scenario, use_oracle=True)
        assert oracle_spies == {
            **NO_REFERENCE_CALLS, "source_pass": 1,
            "source_rows": kim_shih_scenario.oracle.n // go.SOURCE_BLOCK_ROWS}

    def test_perfect_correlation_limit(self, kim_shih_scenario):
        base = kim_shih_scenario
        tiny_a = ex.Scenario(name=base.name, params=base.params, a=1e-9,
                             omega=base.omega, slit=base.slit, lens=base.lens,
                             L1=base.L1, L2=base.L2)
        report = ex.run_kim_shih(tiny_a)
        assert report.coincidence_fwhm_mm.analytic == pytest.approx(
            report.real_slit_fwhm_mm.analytic, rel=1e-6)

    def test_wide_open_aperture_recovers_beam(self, kim_shih_scenario):
        # removing the conditioning altogether, the all-counts marginal is
        # the beam; the oracle states this directly (to 5e-14 measured)
        s = kim_shih_scenario
        grid = go.GridSpec(n=1024, extent=s.oracle.extent)
        total = s.L1 + s.L2
        source = go.source_pass(s.a, s.omega, grid, s.params, 0.0, beam_L=total)
        w = go.intensity_widths(source.y, source.beam, source.dy)
        beam = gc.beam_width(gc.make_epr_state(s.a, s.omega),
                             gc.PropagationLeg(total), s.params)
        assert w.gaussian_equiv_W == pytest.approx(beam, rel=1e-12)

    def test_requires_lens_and_matching_l1(self, kim_shih_scenario):
        base = kim_shih_scenario
        no_lens = ex.Scenario(name=base.name, params=base.params, a=base.a,
                              omega=base.omega, slit=base.slit, lens=None,
                              L1=base.L1, L2=base.L2)
        with pytest.raises(ConfigError, match="lens"):
            ex.run_kim_shih(no_lens)
        wrong_l1 = ex.Scenario(name=base.name, params=base.params, a=base.a,
                               omega=base.omega, slit=base.slit, lens=base.lens,
                               L1=base.L1 + 100.0, L2=base.L2)
        with pytest.raises(ConfigError, match="image"):
            ex.run_kim_shih(wrong_l1)


class TestPopperFreespace:
    def test_split_invariance_large_omega(self):
        def run(L1, L2):
            scenario = ex.Scenario.from_dict(scenario_doc(
                a_mm=0.04, omega_mm=BIG_OMEGA, L1_mm=L1, L2_mm=L2))
            return ex.run_popper_freespace(scenario)

        fwhm_a = run(900.0, 0.0).coincidence_fwhm_mm.analytic
        fwhm_b = run(450.0, 900.0).coincidence_fwhm_mm.analytic
        assert abs(fwhm_a / fwhm_b - 1.0) < 1e-8

    def test_virtual_distance_diagnostic(self):
        scenario = ex.Scenario.from_dict(scenario_doc(
            a_mm=0.04, omega_mm=BIG_OMEGA, L1_mm=600.0, L2_mm=600.0))
        report = ex.run_popper_freespace(scenario)
        assert report.virtual_distance_mm == pytest.approx(1800.0, rel=1e-6)

    def test_oracle_agreement(self):
        scenario = ex.Scenario.from_dict(scenario_doc(
            a_mm=0.2, omega_mm=2.0, L1_mm=300.0, L2_mm=300.0,
            oracle={"n": 1024, "extent_mm": 16.0}))
        report = ex.run_popper_freespace(scenario, use_oracle=True)
        assert abs(report.coincidence_fwhm_mm.delta_rel) < 0.01
        assert report.coincidence_fwhm_mm.analytic < report.beam_fwhm_mm.analytic

    def test_beam_at_slit_plane_flown_once(self, monkeypatch):
        # with L2 = 0 the beam lies at the slit plane: rho's diagonals fly
        # 600 mm once, and the beam FWHM is the one two flights give
        flights, walked = [], []
        density_flights = go._density_flights

        def spy(a, omega, grid, diagonals, distances, params):
            flights.append(list(distances))
            walked.append(diagonals)
            return density_flights(a, omega, grid, diagonals, distances,
                                   params)

        monkeypatch.setattr(go, "_density_flights", spy)
        scenario = dataclasses.replace(
            fixture_scenario("popper_freespace.json"), L2=0.0)
        report = ex.run_popper_freespace(scenario, use_oracle=True)
        assert flights == [[600.0]]
        grid = ex.oracle_grid(scenario)
        _, beam = density_flights(scenario.a, scenario.omega, grid, walked[0],
                                  [600.0, 600.0], scenario.params)
        width = go.intensity_widths(grid.y, beam * grid.dy, grid.dy)
        assert report.beam_fwhm_mm.oracle == \
            gc.FWHM_FACTOR * width.gaussian_equiv_W

    def test_rejects_lens(self):
        scenario = ex.Scenario.from_dict(scenario_doc(
            lens={"f_mm": 500.0, "b1_mm": 500.0}))
        with pytest.raises(ConfigError, match="lens"):
            ex.run_popper_freespace(scenario)


@pytest.fixture(scope="module")
def strekalov_scenario():
    root = importlib.resources.files("poppersim.scenarios")
    return ex.Scenario.from_dict(
        json.loads(root.joinpath("strekalov.json").read_text()))


class TestStrekalovSweep:
    def test_reference_widths(self, strekalov_scenario):
        points = ex.run_strekalov_sweep(strekalov_scenario, [0.2, 1.0])
        by_width = {p.slit_full_width_mm: p.fwhm_analytic_mm for p in points}
        assert by_width[0.2] == pytest.approx(4.399, rel=1e-3)
        assert by_width[1.0] == pytest.approx(1.114, rel=1e-3)

    def test_strictly_decreasing(self, strekalov_scenario):
        points = ex.run_strekalov_sweep(strekalov_scenario, np.linspace(0.1, 1.0, 10))
        fwhms = [p.fwhm_analytic_mm for p in points]
        assert all(b < a for a, b in zip(fwhms, fwhms[1:]))

    def test_wide_correlation_limit(self):
        # huge a at fixed slit: the far-field term is suppressed and the
        # width is just the focused virtual slit
        scenario = ex.Scenario.from_dict(scenario_doc(a_mm=50.0, omega_mm=100.0,
                                                      L1_mm=600.0, L2_mm=600.0))
        (point,) = ex.run_strekalov_sweep(scenario, [0.2])
        expected = gc.fwhm_from_width(math.sqrt(0.1 ** 2 + 50.0 ** 2))
        assert point.fwhm_analytic_mm == pytest.approx(expected, rel=1e-4)

    def test_rejects_zero_width(self, strekalov_scenario):
        with pytest.raises(DomainError):
            ex.run_strekalov_sweep(strekalov_scenario, [0.2, 0.0])

    def test_oracle_error_isolated(self, strekalov_scenario):
        # a grid too coarse for the source makes every oracle point fail;
        # the failures must land in the rows, not abort the sweep
        sc = strekalov_scenario
        bad = ex.Scenario(name=sc.name, params=sc.params,
                          a=sc.a, omega=sc.omega, slit=sc.slit,
                          lens=None, L1=sc.L1, L2=sc.L2,
                          oracle=go.GridSpec(n=1024, extent=31.0))
        points = ex.run_strekalov_sweep(bad, [0.4, 0.8], use_oracle=True)
        assert len(points) == 2
        for p in points:
            assert p.error is not None
            assert p.fwhm_oracle_mm is None
            assert p.fwhm_analytic_mm > 0

    @pytest.mark.parametrize("L1", [300.0, 0.0])
    def test_runners_make_one_pass(self, oracle_spies, L1):
        # no runner touches the n x n reference route; a 5-point sweep and a
        # free-space run each generate the source once, block by block
        scenario = ex.Scenario.from_dict(scenario_doc(
            L1_mm=L1, L2_mm=300.0, oracle={"n": 512, "extent_mm": 16.0}))
        points = ex.run_strekalov_sweep(scenario, [0.2, 0.4, 0.6, 0.8, 1.0],
                                        use_oracle=True)
        blocks = -(-512 // go.SOURCE_BLOCK_ROWS)
        assert oracle_spies == {**NO_REFERENCE_CALLS, "source_pass": 1,
                                "source_rows": blocks}
        for p in points:
            assert p.error is None
            assert p.fwhm_oracle_mm == pytest.approx(p.fwhm_analytic_mm, rel=0.05)
        ex.run_popper_freespace(scenario, use_oracle=True)
        assert oracle_spies == {**NO_REFERENCE_CALLS, "source_pass": 2,
                                "source_rows": 2 * blocks}

    def test_sweep_makes_one_pass(self, monkeypatch, oracle_spies):
        # a 130-point sweep, more than two 64-slit slices, walks the source
        # once and flies particle 2's marginals once; its widths are those
        # of one pass per 64-slit slice
        flights = []
        density_flights = go._density_flights

        def spy(*args, **kwargs):
            flights.append(args)
            return density_flights(*args, **kwargs)

        monkeypatch.setattr(go, "_density_flights", spy)
        scenario = ex.Scenario.from_dict(scenario_doc(
            L1_mm=300.0, L2_mm=300.0, oracle={"n": 512, "extent_mm": 16.0}))
        widths = list(np.linspace(0.2, 1.0, 130))
        whole = ex.run_strekalov_sweep(scenario, widths, use_oracle=True)
        assert oracle_spies == {**NO_REFERENCE_CALLS, "source_pass": 1,
                                "source_rows": 512 // go.SOURCE_BLOCK_ROWS}
        assert len(flights) == 1
        sliced = [point for start in range(0, len(widths), 64)
                  for point in ex.run_strekalov_sweep(
                      scenario, widths[start:start + 64], use_oracle=True)]
        assert oracle_spies["source_pass"] == 1 + 3
        for one, many in zip(sliced, whole):
            assert many.error is None
            assert many.fwhm_oracle_mm == pytest.approx(one.fwhm_oracle_mm,
                                                        rel=1e-12)

    def test_sweep_builds_fixed_phase_tables(self, monkeypatch):
        # every conditional of a sweep flies over L1 and L2 in one batched
        # stage, so a 130-point sweep builds as many flight-phase tables as a
        # 5-point one: the pass's mode flight and particle 2's flight, then
        # one for each of the stage's two flights
        tables = []
        flight_phase = go._flight_phase

        def spy(*args, **kwargs):
            tables.append(args)
            return flight_phase(*args, **kwargs)

        monkeypatch.setattr(go, "_flight_phase", spy)
        scenario = ex.Scenario.from_dict(scenario_doc(
            L1_mm=300.0, L2_mm=300.0, oracle={"n": 512, "extent_mm": 16.0}))
        counts = []
        for steps in (5, 130):
            tables.clear()
            points = ex.run_strekalov_sweep(
                scenario, list(np.linspace(0.2, 1.0, steps)), use_oracle=True)
            assert all(p.error is None for p in points)
            counts.append(len(tables))
        assert counts == [4, 4]

    @pytest.mark.parametrize("steps, a, omega, grid, count", [
        # D + 1 diagonals of rho: 366 of 1024, 253 and 2659 of 8192, and all
        # 1024 of 1024, the count clipped at n
        pytest.param(5, 1.0, 2.0, go.GridSpec(n=1024, extent=16.0), 366,
                     id="5"),
        pytest.param(65, 1.0, 2.0, go.GridSpec(n=1024, extent=16.0), 366,
                     id="65"),
        pytest.param(65, 0.463, 2.0, go.GridSpec(n=8192, extent=88.0), 253,
                     id="65-density-8192"),
        pytest.param(5, 5.0, 10.0, go.GridSpec(n=8192, extent=88.0), 2659,
                     id="5-density-8192-widest"),
        pytest.param(65, 2.0, 0.6, go.GridSpec(n=1024, extent=5.0), 1024,
                     id="65-clipped"),
        pytest.param(256, 1.0, 2.0, go.GridSpec(n=1024, extent=16.0), 366,
                     id="256"),
        pytest.param(256, 0.04, 10.0, go.GridSpec(n=4096, extent=40.0), 25,
                     id="256-strekalov-4096")])
    def test_sweep_peak_memory_within_model(self, steps, a, omega, grid,
                                            count):
        # one pass holds no n x n array; a sweep of any number of slits
        # stays within the model for its count at every band width
        scenario = ex.Scenario.from_dict(scenario_doc(
            a_mm=a, omega_mm=omega, L1_mm=300.0, L2_mm=300.0,
            oracle={"n": grid.n, "extent_mm": grid.extent}))
        assert go._density_count(a, omega, grid) == count

        def sweep():
            return ex.run_strekalov_sweep(
                scenario, np.linspace(0.2, 1.0, steps), use_oracle=True)

        assert all(p.error is None for p in sweep())
        peak = traced_peak(sweep)
        assert peak < grid.n * grid.n * 16
        model = go.peak_bytes(a, omega, grid, steps)
        assert model / 2 <= peak <= model

    def test_sweep_holds_its_modes_twice(self):
        # the pass flies strekalov.json's 256 slit modes in place and writes
        # their projections over them: the sweep holds two K x n complex
        # arrays, the modes and their real and imaginary products, and under
        # 64 one-axis real arrays besides
        scenario = fixture_scenario("strekalov.json")
        n, steps = ex.oracle_grid(scenario).n, 256
        assert n == 4096
        bound = 2 * steps * n * 16 + 64 * n * 8
        # a first pass imports numpy.fft, which numpy loads lazily and
        # tracemalloc would count
        ex.run_strekalov_sweep(scenario, [0.5], use_oracle=True)
        tracemalloc.start()
        try:
            points = ex.run_strekalov_sweep(scenario, np.linspace(0.2, 1.0, steps),
                                            use_oracle=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(p.error is None for p in points)
        assert bound == 35_651_584
        assert peak < bound


def fixture_scenario(name, oracle_block=True):
    doc = json.loads(importlib.resources.files("poppersim.scenarios")
                     .joinpath(name).read_text())
    if not oracle_block:
        del doc["oracle"]
    return ex.Scenario.from_dict(doc)


class TestMarginalRoute:
    """How many diagonals of rho, D + 1, particle 2's flown marginals take
    on each grid."""

    @pytest.mark.parametrize("name, oracle_block, n, count", [
        ("strekalov.json", True, 4096, 25),
        ("popper_freespace.json", True, 4096, 25),
        ("kim_shih.json", True, 2048, 63),
        ("strekalov.json", False, 8192, 41),
        ("kim_shih.json", False, 2048, 63),
    ], ids=["strekalov", "popper_freespace", "kim_shih", "strekalov-auto",
            "kim_shih-auto"])
    def test_fixture_routes(self, name, oracle_block, n, count):
        scenario = fixture_scenario(name, oracle_block)
        grid = ex.oracle_grid(scenario)
        assert grid.n == n
        assert go._density_count(scenario.a, scenario.omega, grid) == count

    @pytest.mark.parametrize("a", [0.01, 0.04, math.sqrt(0.043), 1.0, 50.0])
    @pytest.mark.parametrize("omega", [0.1, 1.0, 10.0, 1e6])
    def test_step_rule_keeps_n1024_on_rows(self, a, omega):
        # D + 1 depends on the step only through dy / max_step:
        # E(d) = exp(-d^2 dy^2 (1/(2 a^2) + 1/(8 omega^2))) and max_step^2 =
        # pi^2 / (64 (1/(2 a^2) + 1/(8 omega^2))), so at dy = max_step / f
        # D + 1 = floor(21.2 f) + 1 for every (a, omega), below n = 1024 at
        # every step the rule allows down to a 32nd of the coarsest.
        step = go.max_step(a, omega)
        counts = []
        for f in (1, 2, 16, 32):
            grid = go.GridSpec(n=1024, extent=512 * step / f)
            assert grid.dy == pytest.approx(step / f, rel=1e-15)
            counts.append(go._density_count(a, omega, grid))
        assert counts == [22, 43, 340, 679]


class TestFitSigmaFromWidth:
    def test_kim_shih_inversion(self, params702):
        fit = ex.fit_sigma_from_width(0.657, 0.065, 500.0, params702)
        assert fit.s == pytest.approx(0.217, rel=0.005)
        assert fit.a2 == pytest.approx(0.043, rel=0.03)
        assert fit.branch_info["s_near_mm"] < fit.branch_info["s_far_mm"]
        product = fit.branch_info["s_near_mm"] * fit.branch_info["s_far_mm"]
        assert product == pytest.approx(fit.branch_info["root_product_mm2"],
                                        rel=1e-9)

    def test_slit_only_inversion(self, params702):
        # roles swapped: treat the whole scale as the slit (a = 0) and
        # recover the width that reproduces a 2.0 mm pattern
        fit = ex.fit_sigma_from_width(2.0, 0.0, 500.0, params702)
        assert fit.s == pytest.approx(0.0658, rel=2e-3)

    def test_round_trip_identity(self, params702):
        lam = params702.rescaled_wavelength_mm
        for eps in (0.02, 0.1, 0.5):
            for a in (0.05, 0.2, 0.5):
                for L2 in (100.0, 700.0, 2000.0):
                    s2 = eps * eps + a * a
                    if s2 * s2 >= lam * L2 * lam * L2:
                        continue  # true s on the far branch; covered below
                    W = math.sqrt(s2 + (lam * L2) ** 2 / s2)
                    fit = ex.fit_sigma_from_width(gc.fwhm_from_width(W), eps,
                                                  L2, params702)
                    assert fit.a2 == pytest.approx(a * a, rel=1e-6)
                    assert fit.s == pytest.approx(math.sqrt(s2), rel=1e-6)

    def test_far_branch_surfaced(self, params702):
        # when the true scale exceeds sqrt(Lambda*L2) the matching root is
        # the far one, always present in branch_info
        lam = params702.rescaled_wavelength_mm
        s2 = 0.5 ** 2
        L2 = 100.0
        assert s2 > lam * L2
        W = math.sqrt(s2 + (lam * L2) ** 2 / s2)
        fit = ex.fit_sigma_from_width(gc.fwhm_from_width(W), 0.0, L2, params702)
        assert fit.branch_info["s_far_mm"] == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize("L2", [1e-3, 1e-6])
    def test_near_root_at_short_distance(self, params702, L2):
        # the near root solved to 40 digits: sqrt((W^2 - sqrt(disc)) / 2) in
        # floats was off by 1.9e-5 at L2 = 1e-3 mm and 0.0 at 1e-6 mm
        W = 1.0 / gc.FWHM_FACTOR
        fit = ex.fit_sigma_from_width(1.0, 0.0, L2, params702)
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            w2 = decimal.Decimal(W) ** 2
            lam_d = (decimal.Decimal(params702.rescaled_wavelength_mm)
                     * decimal.Decimal(L2))
            near = ((w2 - (w2 * w2 - 4 * lam_d * lam_d).sqrt()) / 2).sqrt()
        assert fit.s == pytest.approx(float(near), rel=1e-14, abs=0)
        assert fit.a2 == pytest.approx(float(near) ** 2, rel=1e-14, abs=0)

    def test_zero_distance_refused(self, params702):
        # at L2 = 0 the width is s itself: no near-field branch to return
        with pytest.raises(DomainError, match="L2 must be > 0"):
            ex.fit_sigma_from_width(1.0, 0.0, 0.0, params702)

    def test_unreachable_width(self, params702):
        with pytest.raises(DomainError, match="unreachable"):
            ex.fit_sigma_from_width(1e-4, 0.0, 500.0, params702)

    def test_slit_wider_than_localization(self, params702):
        with pytest.raises(DomainError, match="wider"):
            ex.fit_sigma_from_width(0.657, 0.3, 500.0, params702)


class TestDefaultGrid:
    def test_covers_scenario(self):
        scenario = ex.Scenario.from_dict(scenario_doc())
        grid = ex.default_grid(scenario, n=512)
        assert grid.extent >= go.required_extent(scenario.a, scenario.omega)
        # must be usable immediately
        go.source_pass(scenario.a, scenario.omega, grid, scenario.params, 0.0)

    def test_n_resolves_narrow_gaussian_slit(self):
        # a 0.01 mm Gaussian slit needs dy <= pi * 0.01 / 4 = 0.00785 mm, which
        # the source alone (n = 2048, dy 0.0162 mm) does not ask for
        scenario = ex.Scenario.from_dict(scenario_doc(
            omega_mm=4.0, slit={"kind": "gaussian", "width_mm": 0.01},
            L1_mm=500.0, L2_mm=500.0))
        grid = ex.default_grid(scenario)
        assert grid.n == 8192
        assert go.max_step(scenario.a, scenario.omega) > 2.0 * grid.extent / 2048
        assert grid.dy <= go.gaussian_max_step(0.01)
        go.Aperture(kind="gaussian", epsilon=0.01).check_resolved(grid.n, grid.dy)

    def test_sweep_grid_sized_for_sweep_slits(self):
        # a sweep conditions only on its own slits: a 0.02 mm one (epsilon
        # 0.01 mm) asks for n = 8192 and a wider far field, and a sweep of
        # wide slits on a narrow-slit scenario needs only the source's n
        doc = scenario_doc(a_mm=0.04, omega_mm=1.0, L1_mm=500.0, L2_mm=500.0,
                           slit={"kind": "gaussian", "width_mm": 0.5})
        scenario = ex.Scenario.from_dict(doc)
        own = ex.oracle_grid(scenario)
        assert own == ex.oracle_grid(scenario, [0.2, 1.0])
        assert own.n == 2048
        narrow = ex.oracle_grid(scenario, [0.02, 1.0])
        assert narrow == ex.default_grid(scenario, epsilons=[0.01, 0.5])
        assert narrow.n == 8192 and narrow.extent > 1.4 * own.extent
        doc["slit"]["width_mm"] = 0.01
        scenario = ex.Scenario.from_dict(doc)
        assert ex.oracle_grid(scenario).n == 8192
        assert ex.oracle_grid(scenario, [0.6, 1.0]).n == 2048
        # an oracle block is the grid whatever the slits
        block = go.GridSpec(n=1024, extent=16.0)
        assert ex.oracle_grid(dataclasses.replace(scenario, oracle=block),
                              [0.02, 1.0]) is block

    @pytest.mark.parametrize("name, n", [
        ("kim_shih.json", 2048),
        ("popper_freespace.json", 8192),
        ("strekalov.json", 8192),
    ])
    def test_n_meets_step_rule(self, name, n):
        doc = json.loads(importlib.resources.files("poppersim.scenarios")
                         .joinpath(name).read_text())
        del doc["oracle"]
        scenario = ex.Scenario.from_dict(doc)
        grid = ex.default_grid(scenario)
        assert grid.n == n
        assert grid.dy <= go.max_step(scenario.a, scenario.omega)
