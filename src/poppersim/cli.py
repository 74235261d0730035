"""Command-line interface: scenario runs, slit-width sweeps, width fitting,
the discrete two-spin analogue, and oracle self-checks.

All reports are JSON with a convention block and unit-suffixed field names;
sweeps can additionally be written as CSV.  Numeric output is fixed to nine
significant digits so identical inputs give byte-identical reports.

Only the commands that run the grid oracle (``run --oracle`` and
``oracle-check``), plus ``sweep`` and ``spin``, import numpy; the analytic
``run``, ``fit``, ``--help`` and every refusal of the command line leave it
unloaded, so they start in about half the time.

Exit codes: 0 success, 2 configuration / input error (including an input so
large that a computation overflows or a result is not finite), 3 numerical
resolution error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys

from . import __version__
from . import experiments as ex
from . import gaussian_core as gc
from .errors import ConfigError, DomainError, ResolutionError
# MAX_GRID_ENV is the oracle's memory-cap variable, read by grid_oracle;
# perfbench keeps it out of its children's environment by this name
from .grid import MAX_GRID_ENV, GridSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOLUTION = 3

CONVENTION_BLOCK = {
    "units": "lengths in mm, transverse momenta in rad/mm, hbar = 1",
    "rescaled_wavelength": "Lambda = wavelength / pi; free flight over L adds i*Lambda*L "
                           "to the complex squared width Gamma",
    "width": "intensity exp(-2 y^2 / W^2); FWHM = sqrt(2 ln 2) * W",
    "far_field": "W^2 = s^2 + Lambda^2 D^2 / s^2 for a focused width s over distance D "
                 "(coefficient validated against the grid oracle)",
}

# the width fields of a report, in output order
WIDTH_FIELDS = ("beam_fwhm_mm", "coincidence_fwhm_mm", "real_slit_fwhm_mm",
                "ghost_image_width_mm")

# float options by argparse destination, under the name given on the command line
FLOAT_OPTIONS = {"start": "--from", "stop": "--to", "fwhm": "--fwhm",
                 "epsilon": "--epsilon", "L2": "--L2", "lambda_nm": "--lambda-nm",
                 "alpha": "--alpha", "beta": "--beta"}

SPIN_PRESETS = {
    # alpha, beta with 2 alpha^2 + beta^2 = 1
    "popper": (math.sqrt(0.05), math.sqrt(0.9)),
}


def _overflow_raises(numpy_runs: bool = True):
    """The context a command computes in: a numpy overflow raises, instead of
    warning and going on with inf.  A command that runs no numpy passes
    ``numpy_runs`` false and gets a null context, so numpy stays unloaded."""
    if not numpy_runs:
        return contextlib.nullcontext()
    import numpy as np
    return np.errstate(over="raise")


def _round_sig(value, path: str):
    """Recursively fix floats to nine significant digits for stable output,
    refusing a NaN or infinite one, found at ``path``: an input so large
    that the result overflowed."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"{path} is {value}: an input is out of range")
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {k: _round_sig(v, f"{path}.{k}") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_sig(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return value


def _measured_dict(m: ex.Measured) -> dict:
    doc = {}
    if m.analytic is not None:
        doc["analytic_mm"] = m.analytic
    if m.oracle is not None:
        doc["oracle_mm"] = m.oracle
    if m.delta_rel is not None:
        doc["delta_rel"] = m.delta_rel
    return doc


def _report_dict(report: ex.WidthReport) -> dict:
    doc = {"provenance": report.provenance}
    for key in WIDTH_FIELDS:
        measured = getattr(report, key)
        if measured is not None:
            doc[key] = _measured_dict(measured)
    if report.virtual_distance_mm is not None:
        doc["virtual_distance_mm"] = report.virtual_distance_mm
    if report.coincidence_weight is not None:
        doc["coincidence_weight"] = report.coincidence_weight
    return doc


def _document(scenario_echo, results) -> dict:
    """The report of a command, rounded; every output is written from it or
    from the numbers it holds, so a non-finite number is refused before any
    write."""
    return {
        "tool": {"name": "poppersim", "version": __version__},
        "convention": CONVENTION_BLOCK,
        "scenario": _round_sig(scenario_echo, "scenario"),
        "results": _round_sig(results, "results"),
    }


def _write(path: str | None, text: str):
    """Write ``text`` to the file ``path``, or to stdout when there is none."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}")


def _emit(doc: dict, out_path: str | None):
    _write(out_path, json.dumps(doc, indent=2) + "\n")


def _check_finite_options(args):
    """Refuse a NaN or infinite float option, as a scenario field is refused."""
    for dest, option in FLOAT_OPTIONS.items():
        value = getattr(args, dest, None)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"option {option} must be a finite number, got {value}")


def _load_scenario(args, slit_full_widths=None) -> ex.Scenario:
    """The command's scenario file with ``--grid-n`` applied over the extent
    of its oracle grid; a sweep passes its slits, which size a grid the file
    does not give.  The oracle's pass checks its own memory cap."""
    scenario = ex.Scenario.from_json(args.scenario)
    if args.grid_n is not None:
        scenario = dataclasses.replace(scenario, oracle=GridSpec(
            n=args.grid_n,
            extent=ex.oracle_grid(scenario, slit_full_widths).extent))
    return scenario


def _scenario_echo(scenario: ex.Scenario) -> dict:
    echo = {
        "name": scenario.name,
        "lambda_nm": scenario.params.wavelength_mm * 1e6,
        "a_mm": scenario.a,
        "omega_mm": scenario.omega,
        "L1_mm": scenario.L1,
        "L2_mm": scenario.L2,
    }
    if scenario.slit is not None:
        s = {"kind": scenario.slit.kind}
        if scenario.slit.kind == "gaussian":
            s["width_mm"] = scenario.slit.epsilon
        else:
            s["width_mm"] = scenario.slit.full_width
            s["convention"] = scenario.slit.convention
        s["gaussian_epsilon_mm"] = scenario.slit.gaussian_epsilon(scenario.params)
        echo["slit"] = s
    if scenario.lens is not None:
        echo["lens"] = {"f_mm": scenario.lens.f, "b1_mm": scenario.lens.b1,
                        "image_distance_mm": scenario.lens.image_distance}
    if scenario.oracle is not None:
        echo["oracle"] = {"n": scenario.oracle.n, "extent_mm": scenario.oracle.extent}
    return echo


def cmd_run(args) -> int:
    scenario = _load_scenario(args)
    runner = ex.run_kim_shih if scenario.lens is not None else ex.run_popper_freespace
    # only the oracle arm computes with numpy
    with _overflow_raises(args.oracle):
        report = runner(scenario, use_oracle=args.oracle)
        doc = _document(_scenario_echo(scenario), _report_dict(report))
        if args.csv:
            rows = ["metric,analytic,oracle,delta_rel"]
            fmt = lambda v: "" if v is None else f"{v:.9g}"
            for key in WIDTH_FIELDS:
                measured = getattr(report, key)
                if measured is not None:
                    rows.append(f"{key},{fmt(measured.analytic)},"
                                f"{fmt(measured.oracle)},{fmt(measured.delta_rel)}")
            _write(args.csv, "\n".join(rows) + "\n")
        _emit(doc, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    import numpy as np
    if not args.start < args.stop:
        raise ConfigError(f"sweep bounds must satisfy from < to, "
                          f"got {args.start} >= {args.stop}")
    if args.steps < 2:
        raise ConfigError(f"sweep needs at least 2 steps, got {args.steps}")
    with _overflow_raises():
        try:
            widths = np.linspace(args.start, args.stop, args.steps)
        except MemoryError:
            raise ConfigError(f"sweep of {args.steps} steps does not fit in memory")
        scenario = _load_scenario(args, widths)
        points = ex.run_strekalov_sweep(scenario, widths, use_oracle=args.oracle)
        rows = []
        header = "slit_full_width_mm,fwhm_analytic_mm"
        if args.oracle:
            header += ",fwhm_oracle_mm"
        rows.append(header)
        for p in points:
            row = f"{p.slit_full_width_mm:.9g},{p.fwhm_analytic_mm:.9g}"
            if args.oracle:
                row += f",{'' if p.fwhm_oracle_mm is None else format(p.fwhm_oracle_mm, '.9g')}"
            rows.append(row)
        results = {
            "points": [{
                "slit_full_width_mm": p.slit_full_width_mm,
                "fwhm_analytic_mm": p.fwhm_analytic_mm,
                **({"fwhm_oracle_mm": p.fwhm_oracle_mm} if p.fwhm_oracle_mm is not None else {}),
                **({"error": p.error} if p.error else {}),
            } for p in points],
        }
        doc = _document(_scenario_echo(scenario), results)
        if args.out:
            _emit(doc, args.out)
        _write(args.csv, "\n".join(rows) + "\n")
        flagged = [p for p in points if p.error]
        if flagged:
            sys.stderr.write(f"{len(flagged)} sweep point(s) flagged; see report\n")
        return EXIT_OK


def cmd_fit(args) -> int:
    params = gc.PhysParams(wavelength_mm=args.lambda_nm * 1e-6)
    fit = ex.fit_sigma_from_width(args.fwhm, args.epsilon, args.L2, params)
    doc = _document(
        {"fwhm_observed_mm": args.fwhm, "epsilon_mm": args.epsilon,
         "L2_mm": args.L2, "lambda_nm": args.lambda_nm},
        {"a2_mm2": fit.a2, "s_mm": fit.s, "branch_info": dict(fit.branch_info)},
    )
    _emit(doc, args.out)
    return EXIT_OK


def cmd_spin(args) -> int:
    from . import spin_model as sm
    if args.preset:
        alpha, beta = SPIN_PRESETS[args.preset]
    else:
        if args.alpha is None or args.beta is None:
            raise ConfigError("spin needs --alpha and --beta, or --preset")
        alpha, beta = args.alpha, args.beta
    with _overflow_raises():
        state = sm.make_popper_spin_state(alpha, beta)
        conditionals = {}
        for value in sm.EIGENVALUES:
            label = f"{value:+d}" if value else "0"
            try:
                out = sm.condition_on(state, "A", "x", value)
            except DomainError:
                conditionals[label] = {"probability": 0.0, "partner_z_distribution": None}
                continue
            conditionals[label] = {
                "probability": out.probability,
                "partner_z_distribution": list(
                    sm.marginal_probabilities(out.post_state, "B", "z")),
            }
        results = {
            "basis_order": "+1, 0, -1",
            "marginal_B_z": list(sm.marginal_probabilities(state, "B", "z")),
            "marginal_A_x": list(sm.marginal_probabilities(state, "A", "x")),
            "conditional_on_A_x": conditionals,
        }
        doc = _document({"alpha": alpha, "beta": beta}, results)
        _emit(doc, args.out)
        return EXIT_OK


def cmd_oracle_check(args) -> int:
    import numpy as np

    from . import grid_oracle as go
    with _overflow_raises():
        scenario = _load_scenario(args)
        if scenario.slit is None:
            raise ConfigError("oracle-check needs a scenario with a slit")
        grid = ex.oracle_grid(scenario)
        params = scenario.params
        eps = scenario.slit.gaussian_epsilon(params)
        source = ex.oracle_pass(scenario, scenario.L1,
                                [go.Aperture(kind="gaussian", epsilon=eps)])
        # the source norm against its norm flown over L1, both from the one pass
        drift = abs(float(np.sum(source.slit_plane)) * source.dy / source.norm - 1.0)
        w_cond = source.widths(0)
        gamma = gc.condition_on_gaussian_slit(
            gc.make_epr_state(scenario.a, scenario.omega),
            gc.SlitSpec(kind="gaussian", epsilon=eps),
            gc.PropagationLeg(scenario.L1), params)
        w_an = gc.intensity_width(gamma)
        results = {
            "norm_drift": drift,
            "conditional_width_mm": {"analytic_mm": w_an,
                                     "oracle_mm": w_cond.gaussian_equiv_W,
                                     "delta_rel": w_cond.gaussian_equiv_W / w_an - 1.0},
            "grid": {"n": grid.n, "extent_mm": grid.extent, "dy_mm": grid.dy},
        }
        _emit(_document(_scenario_echo(scenario), results), args.out)
        ok = drift < 1e-8 and abs(results["conditional_width_mm"]["delta_rel"]) < 1e-3
        if not ok:
            raise ResolutionError("oracle self-check failed; see report deltas")
        return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poppersim",
        description="Correlated-pair wave optics: coincidence widths, ghost "
                    "diffraction sweeps, width fitting, and a spin-1 analogue.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", help="write the JSON report here "
                        "instead of stdout")

    oracle_opt = argparse.ArgumentParser(add_help=False)
    oracle_opt.add_argument("--oracle", action="store_true",
                            help="also run the brute-force grid oracle")

    grid_opts = argparse.ArgumentParser(add_help=False)
    grid_opts.add_argument("--grid-n", type=int, default=None, metavar="N",
                           help="override the oracle grid size (power of two)")

    p_run = sub.add_parser("run", parents=[common, oracle_opt, grid_opts],
                           help="run one scenario and report widths")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--csv", metavar="PATH", help="also write metrics as CSV")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[common, oracle_opt, grid_opts],
                             help="sweep the slit width and tabulate pattern widths")
    p_sweep.add_argument("scenario", help="scenario JSON file")
    p_sweep.add_argument("--from", dest="start", type=float, required=True,
                         metavar="MM", help="first slit full width (mm)")
    p_sweep.add_argument("--to", dest="stop", type=float, required=True,
                         metavar="MM", help="last slit full width (mm)")
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--csv", metavar="PATH",
                         help="write the curve as CSV (default: stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fit = sub.add_parser("fit", parents=[common],
                           help="infer the source-correlation scale from a width")
    p_fit.add_argument("--fwhm", type=float, required=True, metavar="MM",
                       help="observed coincidence FWHM (mm)")
    p_fit.add_argument("--epsilon", type=float, default=0.0, metavar="MM",
                       help="Gaussian slit width (mm); 0 fits the total scale s")
    p_fit.add_argument("--L2", type=float, required=True, metavar="MM",
                       help="image-plane-to-detector distance (mm)")
    p_fit.add_argument("--lambda-nm", type=float, default=702.0)
    p_fit.set_defaults(func=cmd_fit)

    p_spin = sub.add_parser("spin", parents=[common],
                            help="discrete two-spin analogue distributions")
    p_spin.add_argument("--alpha", type=float, default=None)
    p_spin.add_argument("--beta", type=float, default=None)
    p_spin.add_argument("--preset", choices=sorted(SPIN_PRESETS),
                        help="named (alpha, beta) pair")
    p_spin.set_defaults(func=cmd_spin)

    p_check = sub.add_parser("oracle-check", parents=[common, grid_opts],
                             help="grid-oracle self-check against closed forms")
    p_check.add_argument("scenario", help="scenario JSON file")
    p_check.set_defaults(func=cmd_oracle_check, oracle=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_finite_options(args)
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except (OverflowError, FloatingPointError) as exc:
        sys.stderr.write(f"error: an input is out of range: {exc}\n")
        return EXIT_CONFIG
    except ResolutionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RESOLUTION


if __name__ == "__main__":
    sys.exit(main())
