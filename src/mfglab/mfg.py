"""Equilibrium solver: damped forward-backward fixed point.

Given the population flow m, the backward equation returns the value
function u of a representative agent; the optimal feedback drives the
forward equation for the next flow.  The loop iterates

    m_next = FP(HJB(m)),    m <- m + delta * (m_next - m),

until the best-response defect sup_t ||m_next(t) - m(t)||_L1 drops below
tolerance.  Non-convergence is reported through a flag, not an exception:
uniqueness is only guaranteed for monotone couplings, and for nonconvex
ones the fixed point may select any equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import DensityPath, Grid, ScalarPath, VectorPath, shift_next, shift_prev
from .model import Problem
from .stepping import fp_forward_sweep, fp_residual, hjb_backward_sweep, hjb_residual


@dataclass(frozen=True)
class SolverParams:
    """Fixed-point controls shared by the equilibrium and planner solvers.

    damping is either a fixed factor in (0, 1], the string "averaging"
    (fictitious-play schedule 2/(k+2)) or "auto": plain iteration that
    falls back to averaging as soon as the defect stops decreasing.
    linear_tol is reserved for iterative linear backends; the periodic
    tridiagonal solves used here are direct.
    """

    damping: float | str = "auto"
    max_iters: int = 200
    tol_fixed_point: float = 1e-8
    linear_tol: float = 1e-12

    def __post_init__(self):
        if isinstance(self.damping, str):
            if self.damping not in ("auto", "averaging"):
                raise ValueError(f"unknown damping schedule {self.damping!r}")
        elif not 0.0 < float(self.damping) <= 1.0:
            raise ValueError(f"fixed damping must lie in (0, 1], got {self.damping}")
        if self.tol_fixed_point <= 0.0:
            raise ValueError("tol_fixed_point must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class MFGSolution:
    """Equilibrium pair (u, m) with feedback and solver diagnostics.

    fp_residual is the final best-response defect sup_t L1; hjb_residual
    and fpk_residual are the sup-norm defects of the discrete equations
    evaluated on the returned pair.
    """

    u: ScalarPath
    m: DensityPath
    alpha_star: VectorPath
    iterations: int
    fp_residual: float
    hjb_residual: float
    fpk_residual: float
    converged: bool


def feedback_drift(problem: Problem, u: np.ndarray) -> np.ndarray:
    """Optimal feedback -dp_h0(x, Du) on every time level."""
    grid = problem.grid
    du = (shift_next(u) - shift_prev(u)) / (2.0 * grid.dx)
    return -problem.hamiltonian.dp_h0(grid.xs()[None, :], du)


def _coupling_fields(problem: Problem, m: np.ndarray) -> np.ndarray:
    return np.stack([problem.coupling.eval(m[k]) for k in range(problem.grid.nt + 1)])


def _check_1d(grid: Grid):
    if grid.d != 1:
        raise ValueError("the forward-backward solvers are implemented for d=1")


def solve_hjb_backward(m: DensityPath, problem: Problem,
                       params: SolverParams | None = None) -> ScalarPath:
    """Backward equation given the population flow m (terminal from m(T))."""
    _check_1d(problem.grid)
    fields = _coupling_fields(problem, m.values)
    terminal = problem.terminal.eval(m.values[-1])
    u = hjb_backward_sweep(problem.grid, problem.hamiltonian, fields, terminal)
    return ScalarPath(u, problem.grid)


def solve_fp_forward(u: ScalarPath, problem: Problem,
                     params: SolverParams | None = None) -> DensityPath:
    """Forward equation from m0 under the feedback drift of u."""
    _check_1d(problem.grid)
    drift = feedback_drift(problem, u.values)
    m = fp_forward_sweep(problem.grid, problem.m0, drift)
    return DensityPath(m, problem.grid)


def _sup_l1(a: np.ndarray, b: np.ndarray, dx: float) -> float:
    return float(np.abs(a - b).sum(axis=1).max() * dx)


def solve_mfg(problem: Problem, params: SolverParams | None = None,
              init_m: DensityPath | None = None) -> MFGSolution:
    """Damped fixed point on the population flow.

    The iteration starts from the drift-free heat flow unless a warm
    start is given.  The returned density is exactly the forward solve
    under the returned feedback (one extra sweep at acceptance), so the
    discrete forward residual of the output pair is at round-off level
    and the terminal slice of u is rebuilt from the returned m(T).
    """
    params = params or SolverParams()
    _check_1d(problem.grid)
    grid = problem.grid
    nt = grid.nt

    if init_m is not None:
        m_bar = init_m.values.copy()
    else:
        m_bar = fp_forward_sweep(grid, problem.m0, np.zeros((nt + 1, grid.n)))

    best = None
    averaging = params.damping == "averaging"
    avg_count = 0
    prev_defect = np.inf
    converged = False
    iterations = 0

    for it in range(1, params.max_iters + 1):
        iterations = it
        fields = _coupling_fields(problem, m_bar)
        terminal = problem.terminal.eval(m_bar[nt])
        u = hjb_backward_sweep(grid, problem.hamiltonian, fields, terminal)
        drift = feedback_drift(problem, u)
        m_new = fp_forward_sweep(grid, problem.m0, drift)
        defect = _sup_l1(m_new, m_bar, grid.dx)

        if best is None or defect < best[0]:
            best = (defect, u, m_new)
        if defect < params.tol_fixed_point:
            converged = True
            break

        if params.damping == "auto" and not averaging and defect > prev_defect:
            averaging = True  # plain iteration is not contracting here
        prev_defect = defect
        if averaging:
            avg_count += 1
            delta = 2.0 / (avg_count + 2.0)
        else:
            delta = 1.0 if isinstance(params.damping, str) else float(params.damping)
        m_bar = m_bar + delta * (m_new - m_bar)

    if not converged:
        _, u, m_new = best
    defect = best[0] if not converged else defect

    # terminal condition holds exactly for the returned density
    u = u.copy()
    u[nt] = problem.terminal.eval(m_new[nt])
    drift = feedback_drift(problem, u)

    fields = _coupling_fields(problem, m_new)
    res_hjb = hjb_residual(grid, problem.hamiltonian, u, fields)
    res_fpk = fp_residual(grid, m_new, drift)

    return MFGSolution(
        u=ScalarPath(u, grid),
        m=DensityPath(m_new, grid),
        alpha_star=VectorPath(drift[:, :, None], grid),
        iterations=iterations,
        fp_residual=float(defect),
        hjb_residual=res_hjb,
        fpk_residual=res_fpk,
        converged=converged,
    )
