"""The scripts in scripts/: each runs on small arguments, and a failed check
exits non-zero, also under python -O."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import colorpart

SRC = Path(colorpart.__file__).parents[1]
SCRIPTS = SRC.parent / "scripts"


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script, args, expected_line", [
    ("count_table.py", ["--k-max", "4", "--r-max", "2"], "egf/recurrence agreement: ok"),
    # det y0^2 - y1^2 vanishes at the four points (+-1, +-1)
    ("gram_report.py", ["--r", "2", "--k", "1", "--scan", "1"],
     "non-semisimple integer points (|x_i| <= 1): 4"),
    ("bijection_demo.py", [], None),
])
def test_script_runs_on_small_arguments(script, args, expected_line):
    proc = run_python(str(SCRIPTS / script), *args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines
    if expected_line is not None:
        assert expected_line in lines


def test_count_table_exits_non_zero_on_a_failed_check_under_python_O():
    # a wrong Stirling number makes the first cross-check fail
    script = "\n".join([
        "import runpy, sys",
        "import colorpart.diagrams as D",
        "D.stirling2 = lambda k, j: 0",
        "sys.argv = ['count_table.py', '--k-max', '2', '--r-max', '1']",
        "runpy.run_path(%r, run_name='__main__')" % str(SCRIPTS / "count_table.py"),
    ])
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 1
    assert "disagrees with the Stirling sum" in proc.stderr
