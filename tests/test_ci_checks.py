"""The check suite's tooling: the committed script of the checks pytest
cannot make parses, CI runs nothing but the install, the tier-1 tests and
that script, so a local run of the two is CI's run, and every entry of the
held list that script compares is a command that can run."""

import importlib.util
import re
import shlex
import subprocess
from pathlib import Path

import pytest

from poppersim import cli
from poppersim import experiments as ex

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ci_checks.sh"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _load_digests():
    spec = importlib.util.spec_from_file_location(
        "report_digests", ROOT / "scripts" / "report_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DIGESTS = _load_digests()


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


# a mistyped held command would exit 2 with argparse's usage in both of CI's
# runs, hash alike and pass the comparison without checking anything
@pytest.mark.parametrize("argv, code", DIGESTS.COMMANDS,
                         ids=[shlex.join(argv) for argv, _ in DIGESTS.COMMANDS])
def test_held_command_parses(argv, code):
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"poppersim {shlex.join(argv)} does not parse")
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_RESOLUTION)


@pytest.mark.parametrize("name", sorted(DIGESTS.LAYOUTS))
def test_held_layout_loads(name):
    ex.Scenario.from_dict(DIGESTS.LAYOUTS[name])
