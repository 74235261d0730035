"""The benchmark's workloads, the operation each one repeats, and the checks
that every operation's output must pass.

All three are closed loops with one client: the next operation starts when
the last one ends.  The expected values come from formulas written out here
and from published Kim-Shih figures, never from the program under test.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import poppersim.cli as cli
import poppersim.experiments as ex

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SCENARIOS = REPO / "src" / "poppersim" / "scenarios"

FIXTURES = ("kim_shih", "popper_freespace", "strekalov")
SWEEP_WIDTHS_MM = (0.2, 0.4, 0.6, 0.8, 1.0)
SWEEP_ARGS = ("--from", "0.2", "--to", "1.0", "--steps", "5")
LAYOUT_GRID_N = 1024
# acceptance criterion 7's sampling ranges: (low, high) per layout field
LAYOUT_RANGES = {"slit_mm": (0.05, 0.3), "a_mm": (0.1, 0.4),
                 "omega_mm": (1.0, 4.0), "L1_mm": (50.0, 500.0),
                 "L2_mm": (0.0, 800.0)}
LAMBDA_NM = 702.0

# Kim & Shih, Found. Phys. 29, 1849 (1999): published width and tolerance
KIM_SHIH_PUBLISHED = {"coincidence_fwhm_mm": (0.657, 0.02),
                      "real_slit_fwhm_mm": (2.0, 0.02),
                      "ghost_image_width_mm": (0.217, 0.005)}
FWHM_PER_W = math.sqrt(2.0 * math.log(2.0))

CHILD_ENV = {k: v for k, v in os.environ.items() if k != cli.MAX_GRID_ENV}
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)


@dataclasses.dataclass
class OpResult:
    wall_s: float
    cpu_s: float
    rss_mb: float | None = None  # per-op peak of the child processes
    error: str | None = None     # the operation did not complete
    wrong: str | None = None     # it completed with an output that fails a check
    span_files: list = dataclasses.field(default_factory=list)


# --- closed forms, written out from their published definitions ------------

def rescaled_wavelength_mm(lambda_nm: float) -> float:
    return lambda_nm * 1e-6 / math.pi


def far_field_fwhm(eps: float, a: float, distance: float, lam: float) -> float:
    """W^2 = s^2 + (Lambda*D)^2 / s^2 with s^2 = eps^2 + a^2, as a FWHM."""
    s2 = eps * eps + a * a
    return FWHM_PER_W * math.sqrt(s2 + (lam * distance) ** 2 / s2)


def conditional_fwhm(eps, a, omega, L1, L2, lam) -> float:
    """Coincidence FWHM behind a Gaussian slit at L1, detected L2 further on.

    Gamma = (z + a^2/(1 + a^2/(4 w^2))) / (1 + z/(w^2 + a^2/4)) + i*Lambda*L1
    with z = eps^2 + i*Lambda*L1; free flight adds i*Lambda*L2, and the
    intensity width is W = |Gamma| / sqrt(Re Gamma).
    """
    a2, om2 = a * a, omega * omega
    z = eps * eps + 1j * lam * L1
    gamma = (z + a2 / (1.0 + a2 / (4.0 * om2))) / (1.0 + z / (om2 + a2 / 4.0)) \
        + 1j * lam * (L1 + L2)
    return FWHM_PER_W * abs(gamma) / math.sqrt(gamma.real)


def beam_fwhm(a, omega, L, lam) -> float:
    """All-counts beam: W^2 = w^2 + (Lambda L)^2/w^2 + a^2/4 + (Lambda L)^2/a^2."""
    lam_l = lam * L
    return FWHM_PER_W * math.sqrt(omega ** 2 + lam_l ** 2 / omega ** 2
                                  + a * a / 4.0 + lam_l ** 2 / (a * a))


# --- child processes ---------------------------------------------------------

def scenario_arg(name: str) -> str:
    """A bundled fixture's path as the CLI gets it, relative to the checkout."""
    return str((SCENARIOS / f"{name}.json").relative_to(REPO))


@dataclasses.dataclass
class Child:
    code: int
    stdout: bytes
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(argv, out_dir: Path) -> Child:
    """Run one process to its end; CPU and peak RSS come from its wait4 rusage."""
    with tempfile.TemporaryFile(dir=out_dir) as out, \
            tempfile.TemporaryFile(dir=out_dir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=CHILD_ENV,
                                cwd=REPO)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(code=proc.returncode, stdout=out.read(),
                     stderr=err.read().decode(errors="replace"), wall_s=wall,
                     cpu_s=usage.ru_utime + usage.ru_stime,
                     rss_mb=usage.ru_maxrss * 1024 / 1e6)


class CliWorkload:
    """One op runs a fresh ``poppersim`` process per command, in turn."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.first_output: dict[int, bytes] = {}

    def commands(self) -> list[tuple[str, ...]]:
        raise NotImplementedError

    def check(self, index: int, child: Child) -> str | None:
        raise NotImplementedError

    def run_op(self, op_id: int, traced: bool) -> OpResult:
        result = OpResult(wall_s=0.0, cpu_s=0.0, rss_mb=0.0)
        for i, command in enumerate(self.commands()):
            if traced:
                spans = self.out_dir / f"spans-{os.getpid()}-{op_id}-{i}.json"
                argv = [sys.executable, str(BENCH / "traced_cli.py"),
                        str(spans), str(op_id), "--", *command]
                result.span_files.append(spans)
            else:
                argv = [sys.executable, "-m", "poppersim", *command]
            child = run_child(argv, self.out_dir)
            result.wall_s += child.wall_s
            result.cpu_s += child.cpu_s
            result.rss_mb = max(result.rss_mb, child.rss_mb)
            if child.code != 0:
                result.error = (f"{' '.join(command[:2])}: exit {child.code}: "
                                f"{child.stderr.strip()[-300:]}")
                continue
            # reports are promised byte-identical from run to run
            first = self.first_output.setdefault(i, child.stdout)
            problem = "output differs from the first op" \
                if child.stdout != first else None
            try:
                problem = self.check(i, child) or problem
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
            if problem and not result.wrong:
                result.wrong = f"{' '.join(command[:2])}: {problem}"
        return result


class FixtureRuns(CliWorkload):
    """``poppersim run <fixture> --oracle`` on each bundled fixture."""

    def commands(self):
        return [("run", scenario_arg(name), "--oracle") for name in FIXTURES]

    def input_files(self):
        return [SCENARIOS / f"{name}.json" for name in FIXTURES]

    def check(self, index, child):
        name = FIXTURES[index]
        results = json.loads(child.stdout)["results"]
        for key, measured in results.items():
            if isinstance(measured, dict) and "delta_rel" in measured \
                    and not abs(measured["delta_rel"]) <= 1e-2:
                return f"{key} delta_rel {measured['delta_rel']} > 1e-2"
        coinc, beam = results["coincidence_fwhm_mm"], results["beam_fwhm_mm"]
        for arm in ("analytic_mm", "oracle_mm"):
            if not coinc[arm] < beam[arm]:
                return f"coincidence {coinc[arm]} >= beam {beam[arm]} ({arm})"
        if name == "kim_shih":
            for key, (published, tol) in KIM_SHIH_PUBLISHED.items():
                for arm in ("analytic_mm", "oracle_mm"):
                    value = results[key][arm]
                    if not abs(value / published - 1.0) <= tol:
                        return f"{key} {arm} {value} vs published {published}"
        return None


class StrekalovSweep(CliWorkload):
    """The 5-point ghost-diffraction sweep ``poppersim sweep ... --oracle``."""

    def __init__(self, out_dir):
        super().__init__(out_dir)
        with open(SCENARIOS / "strekalov.json") as fh:
            self.doc = json.load(fh)

    def commands(self):
        return [("sweep", scenario_arg("strekalov"), *SWEEP_ARGS, "--oracle")]

    def input_files(self):
        return [SCENARIOS / "strekalov.json"]

    def check(self, index, child):
        if "flagged" in child.stderr:
            return child.stderr.strip()
        rows = list(csv.DictReader(io.StringIO(child.stdout.decode())))
        widths = [float(r["slit_full_width_mm"]) for r in rows]
        if widths != list(SWEEP_WIDTHS_MM):
            return f"slit widths {widths}"
        if any(not r["fwhm_oracle_mm"] for r in rows):
            return "a sweep point has no oracle width"
        oracle = [float(r["fwhm_oracle_mm"]) for r in rows]
        doc = self.doc
        lam = rescaled_wavelength_mm(doc["lambda_nm"])
        distance = 2.0 * doc["L1_mm"] + doc["L2_mm"]
        for w, fwhm in zip(widths, oracle):
            law = far_field_fwhm(w / 2.0, doc["a_mm"], distance, lam)
            if not abs(fwhm / law - 1.0) <= 0.05:
                return f"slit {w} mm: oracle {fwhm} vs far-field law {law}"
        if not all(b < a for a, b in zip(oracle, oracle[1:])):
            return f"widths do not strictly decrease: {oracle}"
        if not oracle[0] / oracle[-1] > 3.0:
            return f"width ratio 0.2/1.0 mm is {oracle[0] / oracle[-1]}"
        return None


class LayoutScan:
    """One seeded random free-space layout per op, run in this process."""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.rng = np.random.default_rng(seed)

    def next_layout(self) -> dict:
        draw = {k: float(self.rng.uniform(lo, hi))
                for k, (lo, hi) in LAYOUT_RANGES.items()}
        return {"name": "layout_scan", "lambda_nm": LAMBDA_NM,
                "a_mm": draw["a_mm"], "omega_mm": draw["omega_mm"],
                "slit": {"kind": "gaussian", "width_mm": draw["slit_mm"]},
                "L1_mm": draw["L1_mm"], "L2_mm": draw["L2_mm"]}

    def input_files(self, count: int = 64):
        """The first ``count`` layouts of this seed, as one JSON file."""
        ahead = LayoutScan(self.seed, self.out_dir)
        path = self.out_dir / f"layouts-{self.seed}.json"
        with open(path, "w") as fh:
            json.dump([ahead.next_layout() for _ in range(count)], fh)
        return [path]

    def run_op(self, doc: dict) -> OpResult:
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            scenario = ex.Scenario.from_dict(doc)
            grid = ex.default_grid(scenario, n=LAYOUT_GRID_N)
            scenario = dataclasses.replace(scenario, oracle=grid)
            report = ex.run_popper_freespace(scenario, use_oracle=True)
        except Exception as exc:  # noqa: BLE001 - the op fails, the loop goes on
            report, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        wall = time.perf_counter() - start
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
        result = OpResult(wall_s=wall, cpu_s=cpu, error=error)
        if report is not None:
            result.wrong = self.check(doc, report)
        return result

    @staticmethod
    def check(doc, report) -> str | None:
        lam = rescaled_wavelength_mm(doc["lambda_nm"])
        a, omega = doc["a_mm"], doc["omega_mm"]
        L1, L2 = doc["L1_mm"], doc["L2_mm"]
        coinc = report.coincidence_fwhm_mm.oracle
        beam = report.beam_fwhm_mm.oracle
        weight = report.coincidence_weight
        expected = conditional_fwhm(doc["slit"]["width_mm"], a, omega, L1, L2, lam)
        if not abs(coinc / expected - 1.0) <= 1e-2:
            return f"coincidence {coinc} vs closed form {expected}"
        expected = beam_fwhm(a, omega, L1 + L2, lam)
        if not abs(beam / expected - 1.0) <= 0.05:
            return f"beam {beam} vs closed form {expected}"
        if not coinc <= beam:
            return f"coincidence {coinc} > beam {beam}"
        if not 0.0 < weight <= 1.0:
            return f"coincidence weight {weight} outside (0, 1]"
        return None


def make(name: str, seed: int, out_dir: Path):
    if name == "fixture_runs":
        return FixtureRuns(out_dir)
    if name == "strekalov_sweep":
        return StrekalovSweep(out_dir)
    if name == "layout_scan":
        return LayoutScan(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")
