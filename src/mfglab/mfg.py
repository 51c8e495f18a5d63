"""Equilibrium solver: damped forward-backward fixed point.

Given the population flow m, the backward equation returns the value
function u of a representative agent; the optimal feedback drives the
forward equation for the next flow.  The loop iterates

    m_next = FP(HJB(m)),    m <- m + delta * (m_next - m),

until the best-response defect sup_t ||m_next(t) - m(t)||_L1 drops below
tolerance.  Non-convergence is reported through a flag, not an exception:
uniqueness is only guaranteed for monotone couplings, and for nonconvex
ones the fixed point may select any equilibrium.

``fixed_point`` is the one damped loop of the package.  The planner's
optimality system runs it too: it differs from the equilibrium system
only in the data of the backward equation (an extra source and another
terminal condition), which each caller supplies as a function of m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import DensityPath, ScalarPath, gradient
from .model import Problem
from .stepping import fp_forward_sweep, fp_residual, hjb_backward_sweep, hjb_residual


@dataclass(frozen=True)
class SolverParams:
    """Fixed-point controls shared by the equilibrium and planner solvers.

    damping is either a fixed factor in (0, 1], the string "averaging"
    (fictitious-play schedule 2/(k+2)) or "auto": plain iteration that
    falls back to averaging as soon as the defect stops decreasing.
    """

    damping: float | str = "auto"
    max_iters: int = 200
    tol_fixed_point: float = 1e-8

    def __post_init__(self):
        if isinstance(self.damping, str):
            if self.damping not in ("auto", "averaging"):
                raise ValueError(f"damping: unknown schedule {self.damping!r}")
        elif not 0.0 < float(self.damping) <= 1.0:
            raise ValueError(f"damping: need a factor in (0, 1], got {self.damping}")
        if not self.tol_fixed_point > 0.0:
            raise ValueError(f"tol_fixed_point: need > 0, got {self.tol_fixed_point}")
        if not self.max_iters >= 1:
            raise ValueError(f"max_iters: need >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class MFGSolution:
    """Forward-backward pair (u, m) with feedback and solver diagnostics.

    solve_mfg returns the equilibrium; fixed_point returns this record
    for whichever backward data it ran.

    fp_residual is the final best-response defect sup_t L1; hjb_residual
    and fpk_residual are the sup-norm defects of the discrete equations
    evaluated on the returned pair.
    """

    u: ScalarPath
    m: DensityPath
    alpha_star: ScalarPath
    iterations: int
    fp_residual: float
    hjb_residual: float
    fpk_residual: float
    converged: bool


def feedback_drift(problem: Problem, u: np.ndarray) -> np.ndarray:
    """Optimal feedback -dp_h0(x, Du) on every time level."""
    grid = problem.grid
    return -problem.hamiltonian.dp_h0(grid.xs()[None, :], gradient(u, grid))


def _equilibrium_data(problem: Problem, m: np.ndarray):
    """Backward data of the equilibrium system along the flow m (see fixed_point)."""
    # the exact stacked eval: each slice bit for bit its own eval; a gemm over the stack
    # would sum in another order and move the iteration counts that the benchmark's
    # reference rows pin exactly
    return problem.coupling.eval(m, exact=True), problem.terminal.eval(m[-1]), None


def _heat_flow(problem: Problem) -> np.ndarray:
    grid = problem.grid
    return fp_forward_sweep(grid, problem.m0, np.zeros((grid.nt + 1, grid.n)))


def _sup_l1(a: np.ndarray, b: np.ndarray, dx: float) -> float:
    return float(np.abs(a - b).sum(axis=1).max() * dx)


def fixed_point(problem: Problem, params: SolverParams, backward_data,
                m_bar: np.ndarray) -> MFGSolution:
    """Damped best-response iteration on the population flow, from m_bar.

    backward_data(m) returns (coupling fields, terminal field, source or
    None) of the backward equation along the flow m.  Without
    convergence the iterate of smallest defect is returned.  The returned
    density is exactly the forward solve under the returned feedback, the
    terminal slice of u is rebuilt from the returned m(T), and the
    residuals are those of the returned pair.
    """
    grid, ham = problem.grid, problem.hamiltonian
    best = None
    averaging = params.damping == "averaging"
    avg_count = 0
    prev_defect = np.inf
    converged = False

    for iterations in range(1, params.max_iters + 1):
        u = hjb_backward_sweep(grid, ham, *backward_data(m_bar))
        m_new = fp_forward_sweep(grid, problem.m0, feedback_drift(problem, u))
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

    # on convergence the last iterate is also the best one
    defect, u, m_new = best
    fields, terminal, source = backward_data(m_new)
    u[-1] = terminal
    drift = feedback_drift(problem, u)

    return MFGSolution(
        u=ScalarPath(u, grid),
        m=DensityPath(m_new, grid),
        alpha_star=ScalarPath(drift, grid),
        iterations=iterations,
        fp_residual=float(defect),
        hjb_residual=hjb_residual(grid, ham, u, fields, source),
        fpk_residual=fp_residual(grid, m_new, drift),
        converged=converged,
    )


def solve_mfg(problem: Problem, params: SolverParams | None = None,
              init_m: DensityPath | None = None) -> MFGSolution:
    """Equilibrium by the damped fixed point.

    The iteration starts from the drift-free heat flow unless a warm
    start is given.
    """
    m_bar = _heat_flow(problem) if init_m is None else init_m.values
    return fixed_point(problem, params or SolverParams(),
                       lambda m: _equilibrium_data(problem, m), m_bar)
