"""Digests of poppersim's reports, to compare two source trees byte for byte.

    python scripts/report_digests.py [SRC]

run from anywhere, with numpy importable.  SRC (default ``src`` under the
repository root) is the directory that holds the ``poppersim`` package.
Each command of the fixed list below runs as ``python -m poppersim`` with
``PYTHONPATH=SRC``, in a fresh temporary directory that holds copies of the
bundled fixtures and of the step-refusal layout.  One line is printed per
command: the sha256 of its exit code, stdout, stderr and every file it
wrote, then the command.  Run it on a copy of a parent commit's ``src`` and
on a change's: equal lines mean the change printed the same bytes.

Oracle reports depend on the machine's FFT and BLAS builds, so the digests
compare two trees on one machine; they are no record to keep.  Not run by
CI, which compares reports from process to process instead.
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

# a = 0.01 mm needs n >= 16384 on +-40 mm and its 0.005 mm slit n >= 32768:
# the source's step refusal (exit 3) names the n that holds both
STEP_REFUSAL = {
    "a_mm": 0.01, "omega_mm": 5, "L1_mm": 300, "L2_mm": 300,
    "slit": {"kind": "gaussian", "width_mm": 0.005}, "lambda_nm": 702,
    "oracle": {"n": 2048, "extent_mm": 40}}

SWEEP = ["sweep", "strekalov.json", "--from", "0.2", "--to", "1.0", "--steps"]

COMMANDS = [
    *[argv for name in FIXTURES for argv in (
        ["run", name],
        ["run", name, "--oracle"],
        ["run", name, "--oracle", "--csv", "metrics.csv"],
        ["oracle-check", name])],
    ["oracle-check", "kim_shih.json", "--grid-n", "16384"],
    *[SWEEP + [steps, "--oracle"] for steps in ("5", "130", "256", "1024")],
    SWEEP + ["5"],
    # the 0.001 mm slit is too narrow for the n = 4096 grid: a flagged point
    ["sweep", "strekalov.json", "--from", "0.001", "--to", "1.0",
     "--steps", "5", "--oracle", "--out", "report.json"],
    ["fit", "--fwhm", "1.0", "--L2", "500"],
    ["fit", "--fwhm", "1e150", "--L2", "500"],
    ["spin", "--preset", "popper"],
    ["spin", "--alpha", "0", "--beta", "1"],
    ["run", "step_refusal.json", "--oracle"],
]


def digest(src: Path, argv: list[str]) -> str:
    """The sha256 of one command's exit code, stdout, stderr and written
    files, run on the package under ``src`` in a fresh directory."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
        work = Path(tmp)
        for name in FIXTURES:
            shutil.copy(src / "poppersim" / "scenarios" / name, work / name)
        (work / "step_refusal.json").write_text(json.dumps(STEP_REFUSAL))
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
    return sha.hexdigest()


def main(argv: list[str]) -> int:
    src = Path(argv[0] if argv else ROOT / "src").resolve()
    if not (src / "poppersim" / "__main__.py").is_file():
        sys.stderr.write(f"error: no poppersim package under {src}\n")
        return 2
    for command in COMMANDS:
        print(f"{digest(src, command)}  poppersim {shlex.join(command)}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
