"""Print the cost per time step of the time loops, one path factorization and the coupling terms.

    python3 tools/step_costs.py                    # n in {64, 128, 256, 512, 1024}, nt=256
    python3 tools/step_costs.py --label potential  # coupling terms of another catalog coupling

Each column is the best of ``--repeats`` calls divided by nt, in µs per
time step: ``fp_sweep`` is ``stepping.fp_forward_sweep``, ``hjb_sweep``
is ``stepping.hjb_backward_sweep`` (no source term), ``adjoint`` is
``planner.ControlObjective.gradient``, whose bands, solve loop and
drift sensitivity are ``stepping.adjoint_sweep``, on path terms formed
outside the timed call, ``descent_eval`` is one
``ControlObjective.evaluate``, the unit the descent repeats (forward
sweep, path terms, cost and adjoint sweep), and ``factor`` is one
``stepping.factor_rows`` of the nt forward step matrices, which is what
every sweep pays.  The sweeps include their own band building and
factorization, so ``fp_sweep - factor`` is the band building plus the
forward loop.
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
both on the nt levels 0..nt-1; these three are µs per level.  They,
``adjoint`` and ``descent_eval`` take the ``--label`` coupling (default
convolution).  ``cert_step`` is
``efficiency._bracket_phi``, the certificate's pricing of one
perturbation variant: a stack of every H_STRIDE-th of its H_SAMPLES
perturbation sizes, then a stack of the 3 to 6 unpriced sizes around
the best (each step of a stack is one forward step and one coupling eval
through the kernel's factor), on the running perturbation of the same
path, in µs per time step of both stacks together.  n = 1024 is the
benchmark's wide grid.  BLAS runs on one thread.

The tool times the checkout it lives in.  To compare two checkouts, run
each checkout's own ``tools/step_costs.py``, each in a fresh process,
alternating which checkout runs first, for at least two rounds: run back
to back, the first process has read its columns 30-75% slower whichever
tree it timed, so one round mixes the order into the difference.
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
    from mfglab import efficiency
    from mfglab.efficiency import build_perturbation_running, default_epsilon, equilibrium
    from mfglab.grids import DensityPath, ScalarPath
    from mfglab.mfg import MFGSolution
    from mfglab.model import Problem, coupling_zero
    from mfglab.planner import ControlObjective
    from mfglab.stepping import factor_rows, fp_forward_sweep, hjb_backward_sweep, upwind_bands

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
    bands = upwind_bands(grid, a[:nt])[3:]
    # the path and its drift as an equilibrium record: the stacks read only m and alpha
    sol = MFGSolution(u=ScalarPath(np.zeros_like(m), grid), m=DensityPath(m, grid),
                      alpha_star=ScalarPath(a, grid), iterations=0, fp_residual=0.0,
                      hjb_residual=0.0, fpk_residual=0.0, converged=True)
    pert = build_perturbation_running(equilibrium(sol, problem), default_epsilon(grid))
    calls = {
        "fp_sweep": lambda: fp_forward_sweep(grid, problem.m0, a),
        "hjb_sweep": lambda: hjb_backward_sweep(grid, problem.hamiltonian, fields, fields[-1]),
        "adjoint": lambda: obj.gradient(a, m, terms),
        "descent_eval": lambda: obj.evaluate(a),
        "factor": lambda: factor_rows(*bands),
        "fields": lambda: problem.coupling.eval(m, exact=True),
        "path_terms": lambda: problem.coupling._path_terms(m[:nt]),
        "descent_terms": lambda: problem.coupling._path_terms(m[:nt], exact=True),
        "cert_step": lambda: efficiency._bracket_phi(sol, pert, problem),
    }
    levels = {"fields": nt + 1}
    return {name: 1e6 * _best(fn, repeats) / levels.get(name, nt) for name, fn in calls.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=[64, 128, 256, 512, 1024])
    ap.add_argument("--nt", type=int, default=256)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--label", default="convolution",
                    choices=("convolution", "efficient", "potential", "xfree"),
                    help="catalog coupling of adjoint, descent_eval, fields, path_terms "
                         "and descent_terms (default: convolution)")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    print(f"µs per time step, nt={args.nt}, best of {args.repeats}, 1 BLAS thread, "
          f"{args.label} coupling")
    print(f"{'n':>5}" + "".join(f"{c:>14}" for c in COLUMNS))
    for n in args.n:
        costs = step_costs(n, args.nt, args.repeats, args.label)
        print(f"{n:>5}" + "".join(f"{costs[c]:>14.2f}" for c in COLUMNS), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
