"""Mutation check of the oracle's guards and gates.

    python tests/mutants.py

run from anywhere, with numpy, pytest and hypothesis importable.  Each
mutant below is one edit that loosens a guard, biases a number, names the
wrong grid or changes a report's layout, and the tier-1 suite must fail
under every one of them.  For
each mutant the working tree is copied to a temporary directory, the
mutant's old text, which must occur exactly once in its file, is replaced
by its new text, and tier-1 runs on the copy with -x.  A mutant is killed
if a test fails and survives if tier-1 passes.  One line is printed per
mutant, naming the first failing test and, where that is not
it, the test the mutant is recorded against.  The exit status is 1 if any
mutant survives, its old text is not found once or pytest fails to run,
else 0.

Not collected by pytest: each mutant costs up to one full tier-1 run.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
ORACLE = "src/poppersim/grid_oracle.py"
GRID = "src/poppersim/grid.py"
CLI = "src/poppersim/cli.py"
SPIN = "src/poppersim/spin_model.py"
TAIL_SUM = ("tail = np.sum(rows[:, :band], axis=1) + "
            "np.sum(rows[:, -band:], axis=1)")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    killer: str  # the tier-1 test this mutant is recorded against


MUTANTS = [
    Mutant("tail-left-band-only", ORACLE, TAIL_SUM,
           "tail = np.sum(rows[:, :band], axis=1)",
           "tests/test_grid_oracle.py::TestEvolveSpectral::"
           "test_one_sided_tail_refused[right]"),
    Mutant("tail-right-band-only", ORACLE, TAIL_SUM,
           "tail = np.sum(rows[:, -band:], axis=1)",
           "tests/test_grid_oracle.py::TestEvolveSpectral::"
           "test_one_sided_tail_refused[left]"),
    Mutant("tail-limit-1e-3", ORACLE, "TAIL_PROB_LIMIT = 1e-6",
           "TAIL_PROB_LIMIT = 1e-3",
           "tests/test_grid_oracle.py::TestEvolveSpectral::"
           "test_one_sided_tail_refused[right]"),
    Mutant("tail-band-0.005", ORACLE, "TAIL_BAND_FRACTION = 0.05",
           "TAIL_BAND_FRACTION = 0.005",
           "tests/test_grid_oracle.py::TestEvolveSpectral::"
           "test_one_sided_tail_refused[right]"),
    Mutant("check-width-gate-1.0", CLI, "abs(width.delta_rel) < 1e-3",
           "abs(width.delta_rel) < 1.0",
           "tests/test_cli.py::TestOracleCheck::"
           "test_gate_exceeded_exits_3_with_one_line[width]"),
    Mutant("check-drift-gate-1.0", CLI, "ok = drift < 1e-8",
           "ok = drift < 1.0",
           "tests/test_cli.py::TestOracleCheck::"
           "test_gate_exceeded_exits_3_with_one_line[norm-drift]"),
    Mutant("degenerate-weight-floor-1e-300", ORACLE,
           "np.flatnonzero(weight < 1e-12)",
           "np.flatnonzero(weight < 1e-300)",
           "tests/test_grid_oracle.py::TestConditionals::"
           "test_degenerate_row_left_unnormalized"),
    Mutant("flight-phase-0.04%", ORACLE,
           "np.multiply(-0.25j * params.rescaled_wavelength_mm * L, k, "
           "out=phase)",
           "np.multiply(-0.25j * 1.0004 * params.rescaled_wavelength_mm * L, "
           "k, out=phase)",
           "tests/test_acceptance.py::test_criterion_10_oracle_fidelity"),
    Mutant("fwhm-bias-1%", ORACLE, "fwhm=float(y_hi - y_lo)",
           "fwhm=float(1.01 * (y_hi - y_lo))",
           "tests/test_acceptance.py::test_criterion_10_oracle_fidelity"),
    Mutant("source-step-doubled", GRID,
           "return math.pi / (4.0 * math.sqrt(",
           "return 2.0 * math.pi / (4.0 * math.sqrt(",
           "tests/test_cli.py::TestRun::test_coarse_step_names_n"),
    Mutant("slit-step-doubled", GRID, "return math.pi * epsilon / 4.0",
           "return math.pi * epsilon / 2.0",
           "tests/test_cli.py::TestRun::"
           "test_coarse_step_names_n_the_slit_also_needs"),
    Mutant("extent-4-sigma", GRID, "return 6.0 * 0.5 * math.sqrt(",
           "return 4.0 * 0.5 * math.sqrt(",
           "tests/test_grid_oracle.py::TestSourcePass::"
           "test_marginals_match_reference[300.0]"),
    Mutant("density-floor-2^-50", ORACLE, "DENSITY_FLOOR = 2.0 ** -100",
           "DENSITY_FLOOR = 2.0 ** -50",
           "tests/test_cli.py::TestGridCap::test_cap_counts_auto_sized_grid"),
    Mutant("step-refusal-names-source-n-alone", ORACLE,
           "need = points_for_step(grid.extent, finest, grid.n)",
           "need = points_for_step(grid.extent, step, grid.n)",
           "tests/test_cli.py::TestRun::"
           "test_coarse_step_names_n_the_slit_also_needs"),
    Mutant("writer-admits-non-finite", CLI,
           "        if not math.isfinite(value):\n"
           "            raise ConfigError(f\"{path} is {value}: an input is "
           "out of range\")\n", "",
           "tests/test_cli.py::TestFit::test_huge_width_exits_2_with_one_line"),
    Mutant("writer-sorts-keys", CLI, "json.dumps(doc, indent=2)",
           "json.dumps(doc, indent=2, sort_keys=True)",
           "tests/test_cli.py::TestRun::test_freespace_with_oracle"),
    Mutant("writer-drops-none-from-dicts", CLI,
           'return {k: _render(v, f"{path}.{k}") for k, v in value.items()}',
           'return {k: _render(v, f"{path}.{k}") for k, v in value.items() '
           'if v is not None}',
           "tests/test_cli.py::TestSpin::test_product_state"),
    Mutant("spin-marginal-without-floor", SPIN,
           "p if p > PROBABILITY_FLOOR else 0.0", "p",
           "tests/test_cli.py::TestSpin::test_product_state"),
]


def run_mutant(mutant: Mutant) -> tuple[str, str]:
    """(outcome, detail) of tier-1 on a mutated copy of the tree: outcome
    'killed' with the first failing test, 'survived', 'stale' when the old
    text does not occur exactly once, or 'error' when pytest fails to run."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        path = tree / mutant.file
        text = path.read_text()
        count = text.count(mutant.old)
        if count != 1:
            return "stale", f"old text occurs {count} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
             "-p", "no:cacheprovider", "--continue-on-collection-errors"],
            cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return "survived", ""
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    if found is None:
        # no test failed: pytest itself could not run
        return "error", f"pytest exit {proc.returncode}: {proc.stderr.strip()}"
    return "killed", found.group(1)


def main() -> int:
    start = time.monotonic()
    bad = 0
    for mutant in MUTANTS:
        outcome, detail = run_mutant(mutant)
        if outcome != "killed":
            bad += 1
        elif detail != mutant.killer:
            detail += f" (recorded against {mutant.killer})"
        print(f"{outcome:8} {mutant.name}: {detail}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed in "
          f"{time.monotonic() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
