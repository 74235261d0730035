"""Command-line interface: exit codes, report structure, determinism, and
the oracle memory cap."""

import json
import math
import shutil
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from poppersim import cli
from poppersim import experiments as ex
from poppersim import grid_oracle as go


def fixture_path(name):
    return str(files("poppersim.scenarios").joinpath(name))


def fixture_doc(name):
    return json.loads(files("poppersim.scenarios").joinpath(name).read_text())


def blockless_fixture(tmp_path, name, **edit):
    """Path to a copy of a bundled fixture without its ``oracle`` block."""
    doc = fixture_doc(name)
    del doc["oracle"]
    doc.update(edit)
    path = tmp_path / f"blockless_{name}"
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_refused_in_one_line(code, out, err):
    """Exit 2, nothing on stdout, and one short line on stderr."""
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 160  # an echoed value is cut short


@pytest.fixture()
def small_scenario(tmp_path):
    """Coarse-correlation layout that resolves on a fast 1024^2 grid."""
    doc = {
        "name": "small",
        "lambda_nm": 702.0,
        "a_mm": 0.2,
        "omega_mm": 2.0,
        "slit": {"kind": "gaussian", "width_mm": 0.1},
        "L1_mm": 300.0,
        "L2_mm": 300.0,
        "oracle": {"n": 1024, "extent_mm": 16.0},
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestRun:
    def test_kim_shih_reference(self, capsys):
        code, out, _ = run_cli(["run", fixture_path("kim_shih.json")], capsys)
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        fwhm = doc["results"]["coincidence_fwhm_mm"]["analytic_mm"]
        assert fwhm == pytest.approx(0.657, rel=0.01)
        assert doc["convention"]["units"].startswith("lengths in mm")
        assert doc["tool"]["name"] == "poppersim"

    def test_freespace_with_oracle(self, capsys, small_scenario):
        code, out, _ = run_cli(["run", small_scenario, "--oracle"], capsys)
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        block = doc["results"]["coincidence_fwhm_mm"]
        assert "oracle_mm" in block and "delta_rel" in block
        assert abs(block["delta_rel"]) < 0.01

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_missing_scenario(self, tmp_path, capsys, kind):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
        path, message = {"missing": ("missing.json", "not found"),
                         "directory": (str(tmp_path), "cannot read"),
                         "not-utf8": (str(latin1), "not UTF-8")}[kind]
        code, _, err = run_cli(["run", path], capsys)
        assert code == cli.EXIT_CONFIG
        assert message in err and err.count("\n") == 1

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x",\n  "lambda_nm": }\n')
        code, _, err = run_cli(["run", str(bad)], capsys)
        assert code == cli.EXIT_CONFIG
        assert "line 2" in err and "column" in err

    def test_out_and_csv_files(self, tmp_path, capsys):
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "metrics.csv"
        code, stdout, _ = run_cli(
            ["run", fixture_path("kim_shih.json"), "--out", str(out_json),
             "--csv", str(out_csv)], capsys)
        assert code == cli.EXIT_OK
        assert stdout == ""
        doc = json.loads(out_json.read_text())
        assert "coincidence_fwhm_mm" in doc["results"]
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "metric,analytic,oracle,delta_rel"
        assert any(line.startswith("coincidence_fwhm_mm,") for line in lines)

    @pytest.mark.parametrize("argv", [
        ["run", fixture_path("kim_shih.json"), "--out", "{dir}/report.json"],
        ["run", fixture_path("kim_shih.json"), "--csv", "{dir}/metrics.csv"],
        ["sweep", fixture_path("strekalov.json"), "--from", "0.2", "--to", "1.0",
         "--steps", "2", "--csv", "{dir}/sweep.csv"],
        ["sweep", fixture_path("strekalov.json"), "--from", "0.2", "--to", "1.0",
         "--steps", "2", "--out", "{dir}/sweep.json"],
    ], ids=["run-out", "run-csv", "sweep-csv", "sweep-out"])
    def test_unwritable_output(self, tmp_path, capsys, argv):
        missing_dir = str(tmp_path / "no" / "such" / "dir")
        code, out, err = run_cli([a.format(dir=missing_dir) for a in argv], capsys)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    def test_grid_n_override(self, tmp_path, capsys, small_scenario):
        code, out, _ = run_cli(["run", small_scenario, "--oracle", "--grid-n", "512"],
                               capsys)
        assert code == cli.EXIT_OK
        assert json.loads(out)["scenario"]["oracle"] == {"n": 512, "extent_mm": 16.0}
        # without an oracle block the extent comes from the auto-sized grid
        doc = json.loads(Path(small_scenario).read_text())
        del doc["oracle"]
        path = tmp_path / "no_block.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["run", str(path), "--grid-n", "512"], capsys)
        assert code == cli.EXIT_OK
        default = ex.default_grid(ex.Scenario.from_dict(doc))
        assert json.loads(out)["scenario"]["oracle"] == pytest.approx(
            {"n": 512, "extent_mm": default.extent}, rel=1e-8)

    def test_step_beyond_largest_grid(self, tmp_path, capsys):
        # a = 0.01 mm needs dy <= 0.0056 mm; the 8192-point auto grid gives 0.028 mm
        path = blockless_fixture(tmp_path, "popper_freespace.json", a_mm=0.01)
        code, _, err = run_cli(["run", path, "--oracle"], capsys)
        assert code == cli.EXIT_RESOLUTION
        assert "too coarse" in err

    def test_coarse_step_names_n(self, tmp_path, capsys):
        # a = 0.01 mm needs dy <= 0.00555 mm; the block's 2048 points over
        # +-40 mm give 0.0391 mm
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps({
            "a_mm": 0.01, "omega_mm": 4, "L1_mm": 500, "L2_mm": 500,
            "slit": {"kind": "gaussian", "width_mm": 0.25}, "lambda_nm": 702,
            "oracle": {"n": 2048, "extent_mm": 40}}))
        code, out, err = run_cli(["run", str(path), "--oracle"], capsys)
        assert code == cli.EXIT_RESOLUTION and out == ""
        assert "too coarse" in err and "(n >= 16384 on this extent)" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(["run", fixture_path("kim_shih.json")], capsys)
        _, second, _ = run_cli(["run", fixture_path("kim_shih.json")], capsys)
        assert first == second


class TestSweep:
    def test_two_steps_two_rows(self, capsys):
        code, out, _ = run_cli(
            ["sweep", fixture_path("strekalov.json"), "--from", "0.2",
             "--to", "1.0", "--steps", "2"], capsys)
        assert code == cli.EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "slit_full_width_mm,fwhm_analytic_mm"
        assert len(lines) == 3

    def test_monotone_decreasing(self, capsys):
        code, out, _ = run_cli(
            ["sweep", fixture_path("strekalov.json"), "--from", "0.1",
             "--to", "1.0", "--steps", "10"], capsys)
        assert code == cli.EXIT_OK
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        fwhms = [float(r[1]) for r in rows]
        widths = [float(r[0]) for r in rows]
        assert widths == sorted(widths)
        assert all(b < a for a, b in zip(fwhms, fwhms[1:]))

    def test_invalid_bounds(self, capsys):
        code, _, err = run_cli(
            ["sweep", fixture_path("strekalov.json"), "--from", "1.0",
             "--to", "0.2", "--steps", "5"], capsys)
        assert code == cli.EXIT_CONFIG
        assert "bounds" in err

    @pytest.mark.parametrize("bounds, option", [
        (["--from", "nan", "--to", "1.0"], "--from"),
        (["--from", "0.2", "--to", "inf"], "--to"),
        (["--from=-inf", "--to", "1.0"], "--from")])
    def test_non_finite_bound(self, capsys, bounds, option):
        code, out, err = run_cli(
            ["sweep", fixture_path("strekalov.json"), *bounds, "--steps", "5"],
            capsys)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert err.startswith(f"error: option {option} must be a finite number")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]],
                             ids=["analytic", "oracle"])
    def test_huge_bound_exits_2_with_one_line(self, tmp_path, capsys, oracle):
        # a 1e200 mm slit's analytic width overflows to inf
        out_path, csv_path = tmp_path / "sweep.json", tmp_path / "sweep.csv"
        assert_refused_in_one_line(*run_cli(
            ["sweep", fixture_path("strekalov.json"), "--from", "1",
             "--to", "1e200", "--steps", "2", *oracle, "--out", str(out_path),
             "--csv", str(csv_path)], capsys))
        assert not out_path.exists() and not csv_path.exists()

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]],
                             ids=["analytic", "oracle"])
    def test_lens_scenario_refused(self, tmp_path, capsys, oracle):
        # both arms of a sweep are free-space widths over 2 L1 + L2; on the
        # lens layout they read 1.867 mm at a 0.1 mm slit, where the lens
        # layout's own closed form gives 0.666 mm
        doc = fixture_doc("kim_shih.json")
        doc["slit"] = {"kind": "gaussian", "width_mm": 0.0658}
        path = tmp_path / "lens.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            ["sweep", str(path), "--from", "0.1", "--to", "0.3", "--steps", "3",
             *oracle], capsys)
        assert_refused_in_one_line(code, out, err)
        assert "lens" in err

    def test_steps_beyond_memory(self, capsys, monkeypatch):
        # the width list of 10^12 steps would need 8 TB; linspace's refusal
        # is stood in for, so nothing that size is ever allocated
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        # sweep imports numpy when it runs and looks linspace up on it
        monkeypatch.setattr(np, "linspace", refuse)
        code, out, err = run_cli(
            ["sweep", fixture_path("strekalov.json"), "--from", "0.2",
             "--to", "1.0", "--steps", "1000000000000"], capsys)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert err == ("error: sweep of 1000000000000 steps does not fit "
                       "in memory\n")

    def test_oracle_column(self, capsys, small_scenario):
        code, out, _ = run_cli(
            ["sweep", small_scenario, "--from", "0.4", "--to", "0.8",
             "--steps", "2", "--oracle"], capsys)
        assert code == cli.EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "slit_full_width_mm,fwhm_analytic_mm,fwhm_oracle_mm"
        for line in lines[1:]:
            analytic, oracle = map(float, line.split(",")[1:])
            assert oracle == pytest.approx(analytic, rel=0.05)

    def test_wrapped_point_flagged(self, tmp_path, capsys):
        # over L2 = 12 m the 0.05 mm point's pattern (analytic FWHM 68 mm)
        # wraps around the +-40 mm grid; it must be flagged, not reported
        doc = fixture_doc("strekalov.json")
        doc.update(L1_mm=100.0, L2_mm=12000.0)
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        code, out, err = run_cli(
            ["sweep", str(path), "--from", "0.05", "--to", "1.0",
             "--steps", "3", "--oracle", "--out", str(report)], capsys)
        assert code == cli.EXIT_OK
        assert "1 sweep point(s) flagged" in err
        narrow, *rest = json.loads(report.read_text())["results"]["points"]
        assert narrow["slit_full_width_mm"] == pytest.approx(0.05)
        assert "boundary" in narrow["error"]
        assert "fwhm_oracle_mm" not in narrow
        assert out.splitlines()[1].endswith(",")
        for point in rest:
            assert "error" not in point
            assert point["fwhm_oracle_mm"] == pytest.approx(
                point["fwhm_analytic_mm"], rel=0.01)


def sweep_scenario(tmp_path, **edit):
    """A block-less layout whose 0.25 mm Gaussian slit alone asks for n = 2048
    (dy 0.0162 mm)."""
    doc = {"a_mm": 0.2, "omega_mm": 4, "L1_mm": 500, "L2_mm": 500,
           "slit": {"kind": "gaussian", "width_mm": 0.25}, "lambda_nm": 702}
    doc.update(edit)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestBlocklessSweep:
    """Without an oracle block a sweep's grid is sized for the sweep's slits,
    the only slits its oracle conditions on, not for the scenario's own."""

    def test_narrow_point_runs(self, tmp_path, capsys):
        # the 0.02 mm point (epsilon 0.01 mm) needs dy <= 0.00785 mm, n = 8192;
        # the grid's extent comes from default_grid, partly from beam_width,
        # so the frozen width moves with the beam law
        code, out, err = run_cli(
            ["sweep", sweep_scenario(tmp_path), "--from", "0.02", "--to", "0.5",
             "--steps", "2", "--oracle"], capsys)
        assert code == cli.EXIT_OK and err == ""
        narrow, wide = [line.split(",") for line in out.splitlines()[1:]]
        assert float(narrow[2]) == pytest.approx(1.96532505, rel=1e-8)
        assert float(wide[2]) == pytest.approx(float(wide[1]), rel=0.01)

    def test_cap_counts_sweep_grid(self, tmp_path, capsys, monkeypatch):
        path = sweep_scenario(tmp_path)
        argv = ["sweep", path, "--from", "0.02", "--to", "0.5", "--steps", "2",
                "--oracle"]
        monkeypatch.setenv(go.MAX_GRID_ENV, str(
            pass_bytes(path, 2, widths=[0.02, 0.5]) - 1))
        code, _, err = run_cli(argv, capsys)
        assert code == cli.EXIT_CONFIG and "n = 8192 over 2 modes" in err
        # a wide sweep of a narrow-slit scenario needs only n = 2048
        path = sweep_scenario(tmp_path, slit={"kind": "gaussian", "width_mm": 0.01})
        monkeypatch.setenv(go.MAX_GRID_ENV, str(
            pass_bytes(path, 2, n=2048, widths=[0.6, 1.0])))
        code, _, err = run_cli(
            ["sweep", path, "--from", "0.6", "--to", "1.0", "--steps", "2",
             "--oracle"], capsys)
        assert code == cli.EXIT_OK and err == ""

    def test_grid_n_keeps_sweep_extent(self, tmp_path, capsys):
        # the 0.02 mm slit's far field sets this sweep's extent: 32.5 mm,
        # where the scenario's 0.5 mm slit gives 22.7 mm
        path = sweep_scenario(tmp_path, a_mm=0.04, omega_mm=1,
                              slit={"kind": "gaussian", "width_mm": 0.5})
        report = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["sweep", path, "--from", "0.02", "--to", "1.0", "--steps", "2",
             "--grid-n", "4096", "--out", str(report)], capsys)
        assert code == cli.EXIT_OK
        scenario = ex.Scenario.from_json(path)
        extent = ex.oracle_grid(scenario, [0.02, 1.0]).extent
        assert extent > 1.4 * ex.oracle_grid(scenario).extent
        assert json.loads(report.read_text())["scenario"]["oracle"] == \
            pytest.approx({"n": 4096, "extent_mm": extent}, rel=1e-8)


class TestScenarioValidation:
    @pytest.mark.parametrize("edit", [
        {"L2_mm": "500"},
        {"L2_mm": None},
        {"L2_mm": True},
        {"L2_mm": math.nan},
        {"L2_mm": math.inf},
        {"L2_mm": 10 ** 400},
        {"omega_mm": -math.inf},
        {"a2_mm2": -0.04},
        {"slit": "narrow"},
        {"slit": {"kind": "rectangular", "convention": "half-width"}},
        {"slit": {"kind": "rectangular", "width_mm": math.nan}},
        {"slit": {"kind": "rect", "width_mm": 0.2}},
        {"lens": [500.0, 500.0]},
        {"oracle": {"n": 2048.5, "extent_mm": 40.0}},
        {"oracle": {"n": 1e300, "extent_mm": 40.0}},
        # finite, but large enough that the widths overflow
        {"omega_mm": 1e300},
        {"a_mm": 1e300},
        {"L2_mm": 1e300},
    ], ids=lambda edit: repr(edit)[:60])
    def test_bad_field_exits_2_with_one_line(self, tmp_path, capsys, edit):
        doc = fixture_doc("kim_shih.json")
        doc.update(edit)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity as JSON literals
        assert_refused_in_one_line(*run_cli(["run", str(path)], capsys))

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]],
                             ids=["analytic", "oracle"])
    @pytest.mark.parametrize("edit", [
        {"L1_mm": 1e300},
        {"lambda_nm": 1e300},
        {"slit": {"kind": "gaussian", "width_mm": 1e200}},
    ], ids=repr)
    def test_huge_free_space_field_exits_2_with_one_line(
            self, tmp_path, capsys, edit, oracle):
        # the free-space runner overflows, or reports null widths, on these
        doc = fixture_doc("popper_freespace.json")
        doc.update(edit)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        out_path, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
        assert_refused_in_one_line(*run_cli(
            ["run", str(path), *oracle, "--out", str(out_path),
             "--csv", str(csv_path)], capsys))
        assert not out_path.exists() and not csv_path.exists()

    def test_non_object_document(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, _, err = run_cli(["run", str(path)], capsys)
        assert code == cli.EXIT_CONFIG
        assert "JSON object" in err


class TestFit:
    def test_kim_shih_inversion(self, capsys):
        code, out, _ = run_cli(
            ["fit", "--fwhm", "0.657", "--epsilon", "0.065", "--L2", "500"],
            capsys)
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        assert doc["results"]["a2_mm2"] == pytest.approx(0.043, rel=0.03)
        assert doc["results"]["branch_info"]["s_far_mm"] > \
            doc["results"]["s_mm"]

    @pytest.mark.parametrize("option, value", [
        ("--fwhm", "nan"), ("--fwhm", "inf"), ("--epsilon", "nan"),
        ("--L2", "inf"), ("--lambda-nm", "nan")])
    def test_non_finite_option(self, capsys, option, value):
        argv = {"--fwhm": "0.657", "--epsilon": "0.065", "--L2": "500"}
        argv[option] = value
        code, out, err = run_cli(
            ["fit", *[word for pair in argv.items() for word in pair]], capsys)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert err == (f"error: option {option} must be a finite number, "
                       f"got {float(value)}\n")

    def test_huge_width_exits_2_with_one_line(self, capsys):
        # the square of a 1e200 mm width overflows in Python
        assert_refused_in_one_line(*run_cli(
            ["fit", "--fwhm", "1e200", "--L2", "500"], capsys))
        # the fourth power of a 1e150 mm width overflows to inf without
        # raising, and the report walk refuses the far root it gives
        code, out, err = run_cli(["fit", "--fwhm", "1e150", "--L2", "500"],
                                 capsys)
        assert_refused_in_one_line(code, out, err)
        assert err == ("error: results.branch_info.s_far_mm is inf: an input "
                       "is out of range\n")

    def test_short_distance_keeps_the_near_root(self, capsys):
        # the roots' product Lambda*L2 gives the near root where the
        # difference W^2 - sqrt(disc) cancelled to 0.0
        code, out, _ = run_cli(
            ["fit", "--fwhm", "1", "--L2", "1e-6"], capsys)
        assert code == cli.EXIT_OK
        info = json.loads(out)["results"]["branch_info"]
        assert info["s_near_mm"] == pytest.approx(2.63096438e-10, rel=1e-8)
        assert info["s_near_mm"] * info["s_far_mm"] == pytest.approx(
            info["root_product_mm2"], rel=1e-8)

    def test_zero_distance_exits_2_with_one_line(self, capsys):
        assert_refused_in_one_line(*run_cli(
            ["fit", "--fwhm", "1", "--L2", "0"], capsys))

    def test_unreachable_width(self, capsys):
        code, _, err = run_cli(
            ["fit", "--fwhm", "0.0001", "--L2", "500"], capsys)
        assert code == cli.EXIT_CONFIG
        assert "unreachable" in err


class TestSpin:
    def test_preset(self, capsys):
        code, out, _ = run_cli(["spin", "--preset", "popper"], capsys)
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        results = doc["results"]
        assert results["marginal_B_z"] == pytest.approx([0.05, 0.9, 0.05],
                                                        abs=1e-9)
        assert results["conditional_on_A_x"]["0"]["partner_z_distribution"] == \
            pytest.approx([0.5, 0.0, 0.5], abs=1e-9)

    def test_product_state(self, capsys):
        code, out, _ = run_cli(["spin", "--alpha", "0", "--beta", "1"], capsys)
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        assert doc["results"]["marginal_B_z"] == pytest.approx([0.0, 1.0, 0.0],
                                                               abs=1e-12)

    def test_symmetric_state(self, capsys):
        alpha = str(math.sqrt(0.5))
        code, out, _ = run_cli(["spin", "--alpha", alpha, "--beta", "0"], capsys)
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        assert doc["results"]["marginal_B_z"] == pytest.approx([0.5, 0.0, 0.5],
                                                               abs=1e-9)

    @pytest.mark.parametrize("alpha, beta, option", [
        ("nan", "1", "--alpha"), ("0", "inf", "--beta")])
    def test_non_finite_option(self, capsys, alpha, beta, option):
        code, out, err = run_cli(["spin", "--alpha", alpha, "--beta", beta],
                                 capsys)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert err.startswith(f"error: option {option} must be a finite number")
        assert err.count("\n") == 1

    def test_bad_normalization(self, capsys):
        code, _, err = run_cli(["spin", "--alpha", "0.9", "--beta", "0.9"],
                               capsys)
        assert code == cli.EXIT_CONFIG
        assert "normalization" in err


class TestOracleCheck:
    def test_passes_on_fixture(self, capsys, small_scenario):
        code, out, _ = run_cli(["oracle-check", small_scenario], capsys)
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        assert doc["results"]["norm_drift"] < 1e-8
        assert abs(doc["results"]["conditional_width_mm"]["delta_rel"]) < 1e-3

    @pytest.mark.parametrize("name", ["kim_shih.json", "popper_freespace.json",
                                      "strekalov.json"])
    def test_passes_on_bundled_fixtures(self, capsys, name):
        code, out, _ = run_cli(["oracle-check", fixture_path(name)], capsys)
        assert code == cli.EXIT_OK
        assert json.loads(out)["results"]["norm_drift"] < 1e-12


class TestUnresolvedAperture:
    """popper_freespace's grid (dy = 0.0195 mm) resolves a Gaussian slit only
    down to epsilon = 4 dy / pi = 0.0249 mm; below it the coincidence width
    was off by up to 1.9e-2 with exit 0."""

    @pytest.mark.parametrize("argv", [["run", "--oracle"], ["oracle-check"]],
                             ids=["run", "oracle-check"])
    @pytest.mark.parametrize("epsilon, need", [(0.02, 8192), (0.015, 8192),
                                               (0.01, 16384)])
    def test_exits_3_naming_n(self, tmp_path, capsys, argv, epsilon, need):
        doc = fixture_doc("popper_freespace.json")
        doc["slit"]["width_mm"] = epsilon
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli([argv[0], str(path), *argv[1:]], capsys)
        assert code == cli.EXIT_RESOLUTION
        assert out == "" and "unresolved" in err and f"n >= {need} " in err

    def test_sweep_flags_only_unresolved_points(self, tmp_path, capsys,
                                                small_scenario):
        # dy = 0.03125 mm resolves epsilon >= 0.0398 mm: the 0.05 mm point
        # (epsilon 0.025 mm) is flagged and the 0.6 mm point still runs
        report = tmp_path / "report.json"
        code, out, err = run_cli(
            ["sweep", small_scenario, "--from", "0.05", "--to", "0.6",
             "--steps", "2", "--oracle", "--out", str(report)], capsys)
        assert code == cli.EXIT_OK
        assert "1 sweep point(s) flagged" in err
        narrow, wide = json.loads(report.read_text())["results"]["points"]
        assert "unresolved" in narrow["error"] and "fwhm_oracle_mm" not in narrow
        assert "error" not in wide
        assert wide["fwhm_oracle_mm"] == pytest.approx(wide["fwhm_analytic_mm"],
                                                       rel=0.05)
        assert out.splitlines()[1].endswith(",")

    def test_source_need_reported_before_the_slit(self, tmp_path, capsys):
        # a = 0.01 mm needs n >= 16384 on +-40 mm, and a Gaussian slit of
        # epsilon 0.02 mm (the sweep's 0.04 mm point) a finer step than the
        # 2048-point grid's too: the run and each sweep point report the
        # source's need
        doc = {"a_mm": 0.01, "omega_mm": 4, "L1_mm": 500, "L2_mm": 500,
               "slit": {"kind": "gaussian", "width_mm": 0.02},
               "lambda_nm": 702, "oracle": {"n": 2048, "extent_mm": 40}}
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["run", str(path), "--oracle"], capsys)
        assert code == cli.EXIT_RESOLUTION and out == ""
        assert "too coarse" in err and "n >= 16384 " in err
        report = tmp_path / "report.json"
        code, _, err = run_cli(
            ["sweep", str(path), "--from", "0.04", "--to", "1.0", "--steps", "2",
             "--oracle", "--out", str(report)], capsys)
        assert code == cli.EXIT_OK and "2 sweep point(s) flagged" in err
        for point in json.loads(report.read_text())["results"]["points"]:
            assert "too coarse" in point["error"]
            assert "n >= 16384 " in point["error"]


class TestWrappedSlitPlane:
    """Over L1 = 20 m the source wraps around the +-16 mm grid before the slit."""

    @pytest.mark.parametrize("argv", [["run", "--oracle"], ["oracle-check"]],
                             ids=["run", "oracle-check"])
    def test_exits_3(self, tmp_path, capsys, small_scenario, argv):
        doc = json.loads(Path(small_scenario).read_text())
        doc.update(L1_mm=20000.0, L2_mm=100.0)
        path = tmp_path / "wrap.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli([argv[0], str(path), *argv[1:]], capsys)
        assert code == cli.EXIT_RESOLUTION
        assert out == "" and "boundary" in err


def pass_bytes(path, modes=1, n=None, widths=None):
    """The modelled peak memory, ``grid_oracle.peak_bytes``, of a pass over
    ``modes`` slits on the oracle grid of the scenario at ``path`` (a
    sweep's over ``widths``), or on a grid of ``n`` points over its extent."""
    scenario = ex.Scenario.from_json(path)
    grid = ex.oracle_grid(scenario, widths)
    if n is not None:
        grid = go.GridSpec(n=n, extent=grid.extent)
    return go.peak_bytes(scenario.a, scenario.omega, grid, modes)


class TestGridCap:
    @pytest.mark.parametrize("command, modes, n, short", [
        # the budget of a 512-point grid refuses the 1024-point one
        pytest.param(["run", "--oracle"], 1, 512, 0, id="run"),
        pytest.param(["sweep", "--from", "0.4", "--to", "0.8", "--steps", "2",
                      "--oracle"], 2, 512, 0, id="sweep"),
        pytest.param(["oracle-check"], 1, 512, 0, id="oracle-check"),
        # one byte short of the model
        pytest.param(["run", "--oracle"], 1, 1024, 1, id="run-below-peak"),
    ])
    def test_cap_refuses_large_grid(self, capsys, monkeypatch, small_scenario,
                                    command, modes, n, short):
        monkeypatch.setenv(go.MAX_GRID_ENV, str(
            pass_bytes(small_scenario, modes, n) - short))
        code, _, err = run_cli([command[0], small_scenario, *command[1:]], capsys)
        assert code == cli.EXIT_CONFIG
        assert "cap" in err

    def test_cap_counts_sweep_steps(self, capsys, monkeypatch, small_scenario):
        # a 300-step sweep is one pass over 300 slits: a cap that admits a
        # pass over 64 on its grid refuses it in one line
        monkeypatch.setenv(go.MAX_GRID_ENV, str(
            (pass_bytes(small_scenario, 64) + pass_bytes(small_scenario, 300))
            // 2))
        code, out, err = run_cli(["sweep", small_scenario, "--from", "0.2",
                                  "--to", "1.0", "--steps", "300", "--oracle"],
                                 capsys)
        assert_refused_in_one_line(code, out, err)
        assert "n = 1024 over 300 modes" in err and "cap" in err

    def test_cap_ignored_without_oracle(self, capsys, monkeypatch, small_scenario):
        monkeypatch.setenv(go.MAX_GRID_ENV, str(512 * 512 * 16))
        code, _, _ = run_cli(["run", small_scenario], capsys)
        assert code == cli.EXIT_OK

    def test_cap_allows_small_grid(self, capsys, monkeypatch, small_scenario):
        monkeypatch.setenv(go.MAX_GRID_ENV, str(pass_bytes(small_scenario)))
        code, _, _ = run_cli(["run", small_scenario, "--oracle"], capsys)
        assert code == cli.EXIT_OK

    def test_cap_counts_auto_sized_grid(self, tmp_path, capsys, monkeypatch):
        path = blockless_fixture(tmp_path, "popper_freespace.json")
        monkeypatch.setenv(go.MAX_GRID_ENV, str(pass_bytes(path) - 1))
        code, _, err = run_cli(["run", path, "--oracle"], capsys)
        assert code == cli.EXIT_CONFIG
        assert "n = 8192 over 1 mode " in err and "1963432" in err

    @pytest.mark.parametrize("command", [
        ["run", "scenario", "--oracle"],
        ["oracle-check", "scenario"],
        ["run", fixture_path("strekalov.json"), "--oracle", "--grid-n",
         str(2 ** 60)],
    ], ids=["run", "oracle-check", "grid-n"])
    def test_physical_memory_caps_grid_without_variable(
            self, tmp_path, capsys, monkeypatch, command):
        # unset, the cap is the machine's physical memory: a 2**60-point
        # grid, from the scenario or from --grid-n, exits 2 with one line
        monkeypatch.delenv(go.MAX_GRID_ENV, raising=False)
        doc = fixture_doc("strekalov.json")
        doc["oracle"] = {"n": 2 ** 60, "extent_mm": 40.0}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if arg == "scenario" else arg for arg in command]
        code, out, err = run_cli(argv, capsys)
        assert code == cli.EXIT_CONFIG and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"n = {2 ** 60} over 1 mode " in err
        assert "physical memory cap" in err

    def test_bad_cap_value(self, capsys, monkeypatch):
        monkeypatch.setenv(go.MAX_GRID_ENV, "lots")
        code, _, err = run_cli(
            ["run", fixture_path("popper_freespace.json"), "--oracle"], capsys)
        assert code == cli.EXIT_CONFIG
        assert go.MAX_GRID_ENV in err


FIXTURES = ("kim_shih.json", "popper_freespace.json", "strekalov.json")

# loads the scenarios of the JSON list in argv[1], then runs the cli.main
# argv in argv[2] unless it is null; its last line is the exit code and
# whether numpy was loaded
FRESH_PROBE = """\
import json, sys
from poppersim import cli, experiments as ex
for path in json.loads(sys.argv[1]):
    ex.Scenario.from_json(path)
argv, code = json.loads(sys.argv[2]), None
if argv is not None:
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, "numpy" in sys.modules]))
"""


def fresh_probe(scenarios=(), argv=None):
    """(exit code, numpy loaded) of ``FRESH_PROBE`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_PROBE, json.dumps(list(scenarios)),
         json.dumps(argv)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    return code, loaded


class TestNumpyUnloaded:
    """Importing the CLI, loading a scenario and every command that runs no
    numpy leave numpy unloaded; each case runs in a fresh interpreter."""

    @pytest.mark.parametrize("scenarios, argv, code", [
        ((), None, None),
        ([fixture_path(name) for name in FIXTURES], None, None),
        *[((), ["run", fixture_path(name)], cli.EXIT_OK) for name in FIXTURES],
        ((), ["fit", "--fwhm", "0.657", "--epsilon", "0.065", "--L2", "500"],
         cli.EXIT_OK),
        ((), ["--help"], 0),
        ((), ["run", "no-such-scenario.json"], cli.EXIT_CONFIG),
    ], ids=["import", "from-json", *[f"run-{name}" for name in FIXTURES],
            "fit", "help", "refusal"])
    def test_numpy_not_loaded(self, scenarios, argv, code):
        assert fresh_probe(scenarios, argv) == (code, False)

    def test_oracle_run_loads_numpy(self):
        # the probe sees numpy when a command does load it
        argv = ["run", fixture_path("kim_shih.json"), "--oracle"]
        assert fresh_probe(argv=argv) == (cli.EXIT_OK, True)


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "poppersim", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip()

    @pytest.mark.skipif(shutil.which("poppersim") is None,
                        reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(["poppersim", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
