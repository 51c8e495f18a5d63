"""Each script in demos/ runs to its closing line.

A demo runs in a fresh interpreter, as README says to run it, with the
repository's src on PYTHONPATH and a temporary directory as its working
directory (and for its temporary files).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CLOSING = {  # demo -> the start of its closing block
    "demo_certificate.py": "residual vanishes structurally; certificate =",
    "demo_efficiency_dichotomy.py": "  convexity terms ",
    "demo_equilibrium_vs_planner.py": "equilibrium steering reaches |alpha*| =",
    "demo_lambda_sweep.py": "plot series written:",
}


def test_every_demo_is_listed():
    assert sorted(CLOSING) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", sorted(CLOSING))
def test_demo_runs(tmp_path, demo):
    path = [str(ROOT / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), TMPDIR=str(tmp_path))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert any(line.startswith(CLOSING[demo]) for line in done.stdout.splitlines()[-3:])
