"""mfglab imports scipy.optimize only at the first planner descent.

Only the descent's L-BFGS-B needs it, and importing it costs more than
importing the rest of scipy that mfglab uses.  Each test runs in a fresh
interpreter with the repository's src on PYTHONPATH, since this process
has long imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

LIBRARY = """
import sys

import mfglab as M
from mfglab import harness

cfg = {"grid": {"n": 16, "nt": 8}, "coupling": {"label": "convolution", "lambda": 1.0}}
harness.validate_config(cfg)
problem, params, eps = harness.build_problem(cfg)
sol = M.solve_mfg(problem, params)
M.solve_planner_system(problem, params)
M.certificate(M.equilibrium(sol, problem), eps)
print("scipy.optimize" in sys.modules)
M.solve_planner_descent(problem, params, init=sol.alpha_star)
print("scipy.optimize" in sys.modules)
"""

CLI = """
import sys

from mfglab import cli

code = cli.main(sys.argv[1:])
print(code, "scipy.optimize" in sys.modules)
"""


def fresh(code: str, *args: str) -> str:
    path = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_library_loads_scipy_optimize_at_the_first_descent():
    assert fresh(LIBRARY).split() == ["False", "True"]


@pytest.mark.parametrize("command,cfg,code", [
    ("solve-mfg", {"grid": {"n": 16, "nt": 8},
                   "coupling": {"label": "convolution", "lambda": 1.0}}, "0"),
    ("report", {"grid": {"n": 2, "nt": 8}}, "2"),  # grid.n: need >= 4
], ids=["solve_mfg", "report_config_error"])
def test_cli_without_a_descent_never_loads_scipy_optimize(tmp_path, command, cfg, code):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = fresh(CLI, command, "--config", str(path), "--out", str(tmp_path / "o.csv"))
    assert out.split() == [code, "False"]
