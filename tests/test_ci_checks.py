"""The check suite's tooling: the committed script of the checks pytest
cannot make parses, and CI runs nothing but the install, the tier-1 tests
and that script, so a local run of the two is CI's run."""

import re
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ci_checks.sh"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_script_parses():
    proc = subprocess.run(["bash", "-n", str(SCRIPT)], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_workflow_runs_only_install_tier1_and_script():
    # read as text: CI installs no YAML parser.  A block step (`run: |`)
    # reads as "|" and fails the comparison
    runs = re.findall(r"^\s*(?:- )?run:\s*(.*)$", WORKFLOW.read_text(),
                      re.MULTILINE)
    assert runs == [
        "pip install -e '.[test]'",
        "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q "
        "--continue-on-collection-errors --durations=10",
        "bash scripts/ci_checks.sh",
    ]
