"""Digests of poppersim's held reports: the one list of commands whose
bytes a change must keep, each with the exit code it must end with.

    python scripts/report_digests.py [SRC]

run from anywhere, with numpy importable.  SRC (default ``src`` under the
repository root) is the directory that holds the ``poppersim`` package.
Each command of the fixed list below runs as ``python -m poppersim`` with
``PYTHONPATH=SRC``, in a fresh temporary directory that holds copies of the
bundled fixtures and of the layouts in ``LAYOUTS``.  One line is printed
per command: the sha256 of its exit code, stdout, stderr and every file it
wrote, then its exit code, then the command.  After the last line the
script exits 1 if any command's exit code is not the one the list expects,
and names each such command on stderr; else it exits 0.

CI runs it on one OpenBLAS thread and on two and compares the outputs
(``scripts/ci_checks.sh``): equal lines mean every held report is
byte-identical from process to process and independent of the thread
count.  A change that must keep the reports' bytes runs it on a copy of its
parent's ``src`` and on its own: equal lines mean it printed the same
bytes.  Oracle reports depend on the machine's FFT and BLAS builds, so the
digests compare runs on one machine; they are no record to keep.
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ("kim_shih.json", "popper_freespace.json", "strekalov.json")

# cli's exit codes, written out: the script runs other trees' packages and
# imports none of them
OK, CONFIG, RESOLUTION = 0, 2, 3

# a block-less layout whose band is wide: D + 1 = 0.43 n on its auto-sized
# n = 2048
WIDE_BAND = {
    "a_mm": 0.3, "omega_mm": 1, "L1_mm": 100, "L2_mm": 100,
    "slit": {"kind": "gaussian", "width_mm": 0.1}, "lambda_nm": 702}
# on this grid (D + 1 = 0.58 n) column 0, the grid's self-mirrored edge that
# the source samples as 0.0, lies inside the band
EDGE = {**WIDE_BAND, "oracle": {"n": 512, "extent_mm": 3.04}}

LAYOUTS = {
    # a = 0.01 mm needs n >= 16384 on +-40 mm and its 0.005 mm slit
    # n >= 32768: the source's step refusal (exit 3) names the n that holds
    # both
    "step_refusal.json": {
        "a_mm": 0.01, "omega_mm": 5, "L1_mm": 300, "L2_mm": 300,
        "slit": {"kind": "gaussian", "width_mm": 0.005}, "lambda_nm": 702,
        "oracle": {"n": 2048, "extent_mm": 40}},
    "wide_band.json": WIDE_BAND,
    "edge.json": EDGE,
    # every diagonal of rho is kept: D + 1 = n = 512, the count clipped at n
    "clipped.json": {
        "a_mm": 1.0, "omega_mm": 0.3, "L1_mm": 5, "L2_mm": 5,
        "slit": {"kind": "gaussian", "width_mm": 0.3}, "lambda_nm": 702,
        "oracle": {"n": 512, "extent_mm": 2.5}},
    # strekalov.json without its oracle block runs on n = 8192, the largest
    # grid here flown through rho: particle 2's marginals fly from its
    # diagonals (D + 1 = 41), folded from the diagonals 0 and 1 the source
    # walk sums, and the oracle check's norm-drift gate holds that
    # intensity to the norm the walk's diagonal 0 sums
    "strekalov_auto.json": {
        "name": "strekalov", "lambda_nm": 702.0, "a_mm": 0.04,
        "omega_mm": 10.0, "L1_mm": 600.0, "L2_mm": 600.0,
        "slit": {"kind": "rectangular", "width_mm": 0.2,
                 "convention": "half-width"}},
    # without an oracle block the grid is sized for a narrow Gaussian slit
    # too (n = 8192 here), so the run is not refused
    "narrow_slit.json": {
        "a_mm": 0.2, "omega_mm": 4, "L1_mm": 500, "L2_mm": 500,
        "slit": {"kind": "gaussian", "width_mm": 0.01}, "lambda_nm": 702},
    # a grid past the machine's physical memory exits 2
    "huge_grid.json": {**EDGE, "oracle": {"n": 2 ** 60, "extent_mm": 3.04}},
}

SWEEP = ["sweep", "strekalov.json", "--from", "0.2", "--to", "1.0", "--steps"]

# (argv, expected exit code)
COMMANDS = [
    # popper_freespace.json's beam delta_rel (~1e-8, 9 digits) shows any
    # regrouping of the flights' sums
    *[(argv, OK) for name in FIXTURES for argv in (
        ["run", name],
        ["run", name, "--oracle"],
        ["run", name, "--oracle", "--csv", "metrics.csv"],
        ["oracle-check", name])],
    # on n = 16384 D + 1 = 500, so the flights fold many chunks of rows;
    # the norm-drift gate holds the folded intensity to the norm the walk
    # sums
    (["oracle-check", "kim_shih.json", "--grid-n", "16384"], OK),
    *[(SWEEP + [steps, "--oracle"], OK)
      for steps in ("5", "130", "256", "1024")],
    (SWEEP + ["5"], OK),
    # the 0.001 mm slit is too narrow for the n = 4096 grid: a flagged point
    (["sweep", "strekalov.json", "--from", "0.001", "--to", "1.0",
      "--steps", "5", "--oracle", "--out", "report.json"], OK),
    (["fit", "--fwhm", "1.0", "--L2", "500"], OK),
    (["fit", "--fwhm", "1e150", "--L2", "500"], CONFIG),
    (["spin", "--preset", "popper"], OK),
    (["spin", "--alpha", "0", "--beta", "1"], OK),
    (["run", "step_refusal.json", "--oracle"], RESOLUTION),
    *[(argv, OK) for name in ("wide_band.json", "edge.json", "clipped.json",
                              "strekalov_auto.json")
      for argv in (["run", name, "--oracle"], ["oracle-check", name])],
    (["run", "narrow_slit.json", "--oracle"], OK),
    (["run", "huge_grid.json", "--oracle"], CONFIG),
]


def digest(src: Path, argv: list[str]) -> tuple[str, int]:
    """The sha256 of one command's exit code, stdout, stderr and written
    files, run on the package under ``src`` in a fresh directory, and the
    exit code."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
        work = Path(tmp)
        for name in FIXTURES:
            shutil.copy(src / "poppersim" / "scenarios" / name, work / name)
        for name, layout in LAYOUTS.items():
            (work / name).write_text(json.dumps(layout))
        inputs = set(os.listdir(work))
        proc = subprocess.run([sys.executable, "-m", "poppersim", *argv],
                              cwd=work, env=env, capture_output=True)
        parts = [f"exit {proc.returncode}".encode(), proc.stdout, proc.stderr]
        for name in sorted(set(os.listdir(work)) - inputs):
            parts += [name.encode(), (work / name).read_bytes()]
    sha = hashlib.sha256()
    for part in parts:
        # each part's length first, so no two lists of parts hash alike
        sha.update(f"{len(part)}:".encode())
        sha.update(part)
    return sha.hexdigest(), proc.returncode


def main(argv: list[str]) -> int:
    src = Path(argv[0] if argv else ROOT / "src").resolve()
    if not (src / "poppersim" / "__main__.py").is_file():
        sys.stderr.write(f"error: no poppersim package under {src}\n")
        return 2
    wrong = []
    for command, expected in COMMANDS:
        sha, code = digest(src, command)
        line = f"poppersim {shlex.join(command)}"
        print(f"{sha}  exit {code}  {line}", flush=True)
        if code != expected:
            wrong.append(f"error: {line} exited {code}, expected {expected}")
    for message in wrong:
        sys.stderr.write(message + "\n")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
