"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line directly to the
terminal (bypassing capture) so a full run reads as a checklist.  All grid
work is deterministic; the only randomness is the seeded parameter sampler
of criterion 7.
"""

import importlib.resources
import json
import math

import numpy as np
import pytest

import poppersim.experiments as ex
import poppersim.gaussian_core as gc
import poppersim.grid_oracle as go
from poppersim import spin_model as sm
from poppersim.gaussian_core import PhysParams, PropagationLeg, SlitSpec

PARAMS = PhysParams(wavelength_mm=702e-6)
BIG_OMEGA = 1e6


def announce(capsys, number, label, ok):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    assert ok, f"criterion {number}: {label}"


def load_scenario(name):
    root = importlib.resources.files("poppersim.scenarios")
    return ex.Scenario.from_dict(json.loads(root.joinpath(name).read_text()))


def conditional_on_pass(a, omega, grid, L1, epsilon, beam_L=None):
    """One oracle pass over a free-space layout on ``grid``, conditioned on
    a Gaussian slit of ``epsilon`` at L1, with its conditional amplitude at
    the slit plane as its one row."""
    scenario = ex.Scenario(name="layout", params=PARAMS, a=a, omega=omega,
                           slit=None, lens=None, L1=L1, L2=0.0, oracle=grid)
    return ex.oracle_pass(scenario, L1,
                          [go.Aperture(kind="gaussian", epsilon=epsilon)],
                          beam_L)


@pytest.fixture(scope="module")
def kim_shih_report():
    return ex.run_kim_shih(load_scenario("kim_shih.json"), use_oracle=True)


def test_criterion_1_virtual_slit_width(kim_shih_report, capsys):
    analytic = kim_shih_report.coincidence_fwhm_mm.analytic
    oracle = kim_shih_report.coincidence_fwhm_mm.oracle
    ok = abs(analytic / 0.657 - 1.0) < 0.01 and abs(oracle / 0.657 - 1.0) < 0.02
    announce(capsys, 1,
             f"coincidence FWHM 0.657 mm (analytic {analytic:.4f}, "
             f"oracle {oracle:.4f})", ok)


def test_criterion_2_real_slit_width(kim_shih_report, capsys):
    analytic = kim_shih_report.real_slit_fwhm_mm.analytic
    oracle = kim_shih_report.real_slit_fwhm_mm.oracle
    ok = abs(analytic / 2.0 - 1.0) < 0.02 and abs(oracle / 2.0 - 1.0) < 0.02
    announce(capsys, 2,
             f"real-slit FWHM 2.0 mm (analytic {analytic:.4f}, "
             f"oracle {oracle:.4f})", ok)


def test_criterion_3_ghost_image_width(kim_shih_report, capsys):
    analytic = kim_shih_report.ghost_image_width_mm.analytic
    oracle = kim_shih_report.ghost_image_width_mm.oracle
    ok = abs(analytic / 0.217 - 1.0) < 0.005 and \
        abs(oracle / 0.217 - 1.0) < 0.005
    announce(capsys, 3,
             f"ghost image width 0.217 mm (analytic {analytic:.4f}, "
             f"oracle {oracle:.4f})", ok)


def test_criterion_4_width_inversion(capsys):
    fit = ex.fit_sigma_from_width(0.657, 0.065, 500.0, PARAMS)
    ok = abs(fit.a2 / 0.043 - 1.0) < 0.03
    # forward/fit round trip over the stated lattice, positive-discriminant
    # cells only; identity is asked of whichever branch holds the true root
    lam = PARAMS.rescaled_wavelength_mm
    worst = 0.0
    for eps in (0.02, 0.1, 0.26, 0.5):
        for a in (0.0, 0.05, 0.2, 0.5):
            for L2 in (100.0, 500.0, 1000.0, 2000.0):
                s2 = eps * eps + a * a
                if s2 == 0.0:
                    continue
                W = math.sqrt(s2 + (lam * L2) ** 2 / s2)
                rt = ex.fit_sigma_from_width(gc.fwhm_from_width(W), 0.0, L2,
                                             PARAMS)
                s = math.sqrt(s2)
                err = min(abs(rt.branch_info["s_near_mm"] / s - 1.0),
                          abs(rt.branch_info["s_far_mm"] / s - 1.0))
                worst = max(worst, err)
                if s < math.sqrt(lam * L2):
                    worst = max(worst, abs(rt.s / s - 1.0))
    ok = ok and worst < 1e-6
    announce(capsys, 4,
             f"a^2 fit {fit.a2:.5f} mm^2 (target 0.043); round-trip worst "
             f"relative error {worst:.2e}", ok)


def test_criterion_5_spin_exact(capsys):
    state = sm.make_popper_spin_state(math.sqrt(0.05), math.sqrt(0.9))
    marginal = np.array(sm.marginal_probabilities(state, "B", "z"))
    conditional = np.array(sm.marginal_probabilities(
        sm.condition_on(state, "A", "x", 0).post_state, "B", "z"))
    ok = np.max(np.abs(marginal - [0.05, 0.90, 0.05])) < 1e-12 and \
        np.max(np.abs(conditional - [0.5, 0.0, 0.5])) < 1e-12
    announce(capsys, 5,
             "spin marginal (0.05, 0.90, 0.05) and conditional (0.5, 0, 0.5) "
             "exact to 1e-12", ok)


def test_criterion_6_split_invariance(capsys):
    slit = SlitSpec(kind="gaussian", epsilon=0.1)

    def analytic_fwhm(a, omega, L1, L2):
        state = gc.make_epr_state(a, omega)
        g = gc.condition_on_gaussian_slit(state, slit, PropagationLeg(L1),
                                          PARAMS)
        g = gc.propagate_conditional(g, PropagationLeg(L2), PARAMS)
        return gc.fwhm_from_width(gc.intensity_width(g))

    dev_an = abs(analytic_fwhm(0.04, BIG_OMEGA, 900.0, 0.0) /
                 analytic_fwhm(0.04, BIG_OMEGA, 450.0, 900.0) - 1.0)

    def oracle_fwhm(L1, L2):
        grid = go.GridSpec(n=2048, extent=48.0)
        source = conditional_on_pass(0.1, 15.0, grid, L1, 0.1)
        return source.fly(L2).widths(0).fwhm

    dev_or = abs(oracle_fwhm(900.0, 0.0) / oracle_fwhm(450.0, 900.0) - 1.0)
    ok = dev_an < 1e-8 and dev_or < 0.005
    announce(capsys, 6,
             f"split invariance of 2*L1+L2 = 1800 mm (analytic dev "
             f"{dev_an:.1e}, oracle dev {dev_or:.2%})", ok)


def test_criterion_7_no_extra_spread(capsys):
    rng = np.random.default_rng(20260825)
    samples = 100
    violations = 0
    for _ in range(samples):
        eps = rng.uniform(0.05, 0.3)
        a = rng.uniform(0.1, 0.4)
        omega = rng.uniform(1.0, 4.0)
        L1 = rng.uniform(50.0, 500.0)
        L2 = rng.uniform(0.0, 800.0)
        source = gc.make_epr_state(a, omega)
        rms = max(gc.position_uncertainty(source),
                  gc.beam_width(source, PropagationLeg(L1 + L2), PARAMS) / 2.0)
        grid = go.GridSpec(n=1024,
                           extent=max(8.0 * rms, go.required_extent(a, omega)))
        source = conditional_on_pass(a, omega, grid, L1, eps,
                                     beam_L=L1 + L2)
        coincidence = source.fly(L2).widths(0).fwhm
        beam = go.intensity_widths(source.y, source.beam, source.dy).fwhm
        if coincidence > beam:
            violations += 1
    ok = violations == 0
    announce(capsys, 7,
             f"coincidence FWHM <= beam FWHM on {samples} sampled layouts "
             f"({violations} violations)", ok)


def test_criterion_8_strekalov_divergence(capsys):
    scenario = load_scenario("strekalov.json")
    points = ex.run_strekalov_sweep(scenario, [0.2, 0.4, 0.6, 0.8, 1.0],
                                    use_oracle=True)
    assert all(p.error is None for p in points)
    by_width = {p.slit_full_width_mm: p for p in points}
    ratio = by_width[0.2].fwhm_oracle_mm / by_width[1.0].fwhm_oracle_mm
    fwhms = [p.fwhm_oracle_mm for p in points]
    decreasing = all(b < a for a, b in zip(fwhms, fwhms[1:]))
    max_delta = max(abs(p.fwhm_oracle_mm / p.fwhm_analytic_mm - 1.0)
                    for p in points)
    ok = ratio > 3.0 and decreasing and max_delta < 0.05
    announce(capsys, 8,
             f"narrowing the slit 1.0 -> 0.2 mm widens the pattern by "
             f"{ratio:.2f}x (strictly decreasing: {decreasing}, worst "
             f"analytic/oracle delta {max_delta:.2%})", ok)


def test_criterion_9_ghost_fringes(capsys):
    grid = go.GridSpec(n=2048, extent=10.0)
    slit = go.Aperture(kind="double_slit", slit_width=0.1, separation=0.4)

    def pattern(a, omega):
        return go.ghost_double_slit(a, omega, grid, slit, 200.0, 50.0, 200.0,
                                    PARAMS)

    entangled = pattern(0.04, 2.0)
    separable = pattern(2.0, 1.0)
    expected = PARAMS.wavelength_mm * 600.0 / 0.4
    spacing_err = abs(entangled.fringe_spacing / expected - 1.0)
    ok = spacing_err < 0.05 and separable.visibility < 0.05
    announce(capsys, 9,
             f"ghost fringe spacing within {spacing_err:.2%} of the Young "
             f"formula; separable-state visibility {separable.visibility:.3f}",
             ok)


def test_criterion_10_oracle_fidelity(capsys):
    # (a) Gaussian conditional width vs closed form, finite omega + flight
    def conditional_width(n):
        grid = go.GridSpec(n=n, extent=12.0)
        source = conditional_on_pass(math.sqrt(0.043), 2.0, grid, 500.0,
                                     0.065)
        return source.widths(0).gaussian_equiv_W

    gamma = gc.condition_on_gaussian_slit(
        gc.make_epr_state(math.sqrt(0.043), 2.0),
        SlitSpec(kind="gaussian", epsilon=0.065), PropagationLeg(500.0), PARAMS)
    closed = gc.intensity_width(gamma)
    w_2048 = conditional_width(2048)
    width_err = abs(w_2048 / closed - 1.0)

    # (b) norm drift through the longest bundled flight: the source norm
    # against its norm flown over L1, both from one pass
    scenario = load_scenario("popper_freespace.json")
    source = ex.oracle_pass(scenario, scenario.L1)
    drift = abs(float(np.sum(source.slit_plane)) * source.dy / source.norm - 1.0)

    # (c) grid doubling stability
    doubling = abs(conditional_width(1024) / w_2048 - 1.0)

    ok = width_err < 1e-3 and drift < 1e-8 and doubling < 5e-4
    announce(capsys, 10,
             f"oracle fidelity (width vs closed form {width_err:.1e}, norm "
             f"drift {drift:.1e}, grid doubling {doubling:.1e})", ok)
