"""Scaling of the gap in the coupling strength, end to end via the harness.

The gap is bounded below by (a constant times) the fourth/second powers
of residual norms and above by their first power; for a coupling linear
in a strength multiplier lambda the norms scale linearly, so the measured
log-log slope of gap vs lambda must land inside the sandwich [1, 4].  On
a potential coupling the kinetic mechanism gives almost exactly 2.

This script drives the same machinery as the command line: a sweep config,
incremental CSV rows, a log-log fit, and plain-text plot series.
"""

import tempfile
from pathlib import Path

from mfglab.harness import emit_plotdata, fit_scaling, read_rows, run

config = {
    "schema": 1,
    "grid": {"n": 64, "nt": 128},
    "coupling": {"label": "potential", "lambda": 1.0},
    "terminal": {"label": "zero"},
    "m0": {"kind": "cosine", "amplitude": 0.8},
    "solver": {"tol_fixed_point": 1e-9, "max_iters": 200},
    "seed": 0,
    "sweep": {"parameter": "coupling.lambda", "values": [0.125, 0.25, 0.5, 1.0]},
}

# the sweep rows and plot series live only while the demo runs
with tempfile.TemporaryDirectory(prefix="mfglab_sweep_") as tmp:
    workdir = Path(tmp)
    rows_path = workdir / "sweep.csv"
    print(f"running the sweep (4 points, rows appended to {rows_path}) ...")
    rows = run(config, rows_path)

    print(f"\n{'lambda':>8} {'cost_mfg':>12} {'gap':>12} {'certificate':>12} {'ub_norm':>10}")
    for r in rows:
        print(f"{r['coupling_lambda']:8.3f} {r['cost_mfg']:12.4e} "
              f"{r['gap']:12.4e} {r['certificate']:12.4e} {r['ub_norm']:10.4e}")

    fit = fit_scaling(read_rows(rows_path), "coupling_lambda", "gap", tolerance=1e-9)
    print(f"\nlog-log fit of gap vs lambda over {fit.n_used} points:")
    print(f"  slope = {fit.slope:.4f}   (bound sandwich requires [1, 4])")
    print(f"  r^2   = {fit.r2:.6f}")

    files = emit_plotdata(rows, [("coupling_lambda", "gap"),
                                 ("coupling_lambda", "ub_norm")], workdir / "plots")
    print("\nplot series written:")
    for f in files:
        print(f"  {f}")
