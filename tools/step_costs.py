"""Print the cost per time step of the time loops, one path factorization and the coupling terms.

    python3 tools/step_costs.py                    # n in {64, 128, 256, 512, 1024}, nt=256
    python3 tools/step_costs.py --src OLD/src      # the same table for another checkout
    python3 tools/step_costs.py --label potential  # coupling terms of another catalog coupling

Each column is the best of ``--repeats`` calls divided by nt, in µs per
time step: ``fp_sweep`` is ``stepping.fp_forward_sweep``, ``hjb_sweep``
is ``stepping.hjb_backward_sweep`` (no source term), ``adjoint`` is
``planner.ControlObjective.gradient``, one adjoint sweep on path terms
formed outside the timed call, ``descent_eval`` is one
``ControlObjective.evaluate``, the unit the descent repeats (forward
sweep, path terms, cost and adjoint sweep), and ``factor`` is one
``PeriodicTridiagLU`` of the nt forward step matrices.  The sweeps
include their own band building and factorization, so
``fp_sweep - factor`` is the forward loop itself.
``fields`` is the equilibrium's coupling fields of the nt + 1 levels
(``Coupling.eval(m, exact=True)``: the exact stacked eval, each level's kernel
products bit for bit its own, one cache-sized row block of the kernel
at a time for every level, several blocks from n = 256 on), divided by
nt + 1.  ``path_terms`` is ``Coupling._path_terms`` (closed-form
residual fields, the kernel products of all levels through the
kernel's factor) and ``descent_terms`` the descent's terms
(``Coupling._path_terms`` with ``exact``: the exact stacked products,
then the closed-form residual fields, or for the convolution the
contraction of ``delta(m)`` block by block, every level per block),
both on the nt levels 0..nt-1 (``ControlObjective._dense_terms`` in a
checkout that has it); these three are µs per level.  They,
``adjoint`` and ``descent_eval`` take the ``--label`` coupling (default
convolution).  ``cert_step`` is
``efficiency._phi_stack``, the certificate's pricing of its H_SAMPLES
perturbation sizes as one stack per time step (one forward step and one
coupling eval through the kernel's factor), on the running perturbation
of the same path, in µs per step.  n = 1024 is the benchmark's wide
grid.  BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402  (BLAS threads are pinned before numpy loads)
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
COLUMNS = ("fp_sweep", "hjb_sweep", "adjoint", "descent_eval", "factor", "fields",
           "path_terms", "descent_terms", "cert_step")


def _best(fn, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def step_costs(n: int, nt: int, repeats: int, label: str = "convolution") -> dict:
    """{column: µs per time step} at one grid size (see the module docstring)."""
    from mfglab import Grid, coupling_from_label, density_cosine, quadratic_hamiltonian
    from mfglab.efficiency import (
        H_SAMPLES,
        _phi_stack,
        build_perturbation_running,
        default_epsilon,
        equilibrium,
    )
    from mfglab.grids import DensityPath, ScalarPath
    from mfglab.mfg import MFGSolution
    from mfglab.model import Problem, coupling_zero
    from mfglab.planner import ControlObjective
    from mfglab.stepping import (
        PeriodicTridiagLU,
        fp_forward_sweep,
        hjb_backward_sweep,
        upwind_bands,
    )

    grid = Grid(n=n, nt=nt)
    rng = np.random.default_rng(0)
    x, t = grid.xs(), grid.times()[:, None]
    a = np.sin(2.0 * np.pi * (x - t)) + 0.1 * rng.standard_normal((nt + 1, n))
    problem = Problem(hamiltonian=quadratic_hamiltonian(),
                      coupling=coupling_from_label(grid, label, lam=1.0),
                      terminal=coupling_zero(grid), m0=density_cosine(grid, 0.5), grid=grid)
    m = fp_forward_sweep(grid, problem.m0, a)
    fields = np.cos(2.0 * np.pi * (x + t))
    obj = ControlObjective(problem)
    terms = obj._path_terms(m)
    dense_terms = getattr(obj, "_dense_terms", None)  # the descent's terms in older checkouts
    bands = upwind_bands(grid, a[:nt])[3:]
    # the path and its drift as an equilibrium record: _phi_stack reads only m and alpha
    sol = MFGSolution(u=ScalarPath(np.zeros_like(m), grid), m=DensityPath(m, grid),
                      alpha_star=ScalarPath(a, grid), iterations=0, fp_residual=0.0,
                      hjb_residual=0.0, fpk_residual=0.0, converged=True)
    pert = build_perturbation_running(equilibrium(sol, problem), default_epsilon(grid))
    hs = np.geomspace(1e-4 * pert.tau, pert.tau, H_SAMPLES)
    calls = {
        "fp_sweep": lambda: fp_forward_sweep(grid, problem.m0, a),
        "hjb_sweep": lambda: hjb_backward_sweep(grid, problem.hamiltonian, fields, fields[-1]),
        "adjoint": lambda: obj.gradient(a, m, terms),
        "descent_eval": lambda: obj.evaluate(a),
        "factor": lambda: PeriodicTridiagLU(*bands),
        "fields": lambda: problem.coupling.eval(m, exact=True),
        "path_terms": lambda: problem.coupling._path_terms(m[:nt]),
        "descent_terms": (lambda: dense_terms(problem.coupling, m[:nt])) if dense_terms else
                         (lambda: problem.coupling._path_terms(m[:nt], exact=True)),
        "cert_step": lambda: _phi_stack(sol, pert, hs, problem),
    }
    levels = {"fields": nt + 1}
    return {name: 1e6 * _best(fn, repeats) / levels.get(name, nt) for name, fn in calls.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the mfglab package to time (default: ./src)")
    ap.add_argument("--n", type=int, nargs="+", default=[64, 128, 256, 512, 1024])
    ap.add_argument("--nt", type=int, default=256)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--label", default="convolution",
                    choices=("convolution", "efficient", "potential", "xfree"),
                    help="catalog coupling of adjoint, descent_eval, fields, path_terms "
                         "and descent_terms (default: convolution)")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    print(f"µs per time step, nt={args.nt}, best of {args.repeats}, 1 BLAS thread, "
          f"{args.label} coupling")
    print(f"{'n':>5}" + "".join(f"{c:>14}" for c in COLUMNS))
    for n in args.n:
        costs = step_costs(n, args.nt, args.repeats, args.label)
        print(f"{n:>5}" + "".join(f"{costs[c]:>14.2f}" for c in COLUMNS), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
