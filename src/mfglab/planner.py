"""Global planner optimum, computed two independent ways.

The system route solves the optimality conditions of the planning
problem: the same forward-backward structure as the equilibrium system,
except the backward equation carries the source

    S(t, x) = int dF/dm(y, m(t), x) m(t, y) dy

and the terminal condition is the derivative of m -> int G dm.  The
descent route never looks at optimality conditions: it runs exact
adjoint gradient descent on the discrete control objective (the
discretize-then-optimize gradient of the very quadrature reported as
cost), warm-started at the equilibrium feedback so its first objective
value is the equilibrium social cost.  The two values cross-validate
each other; for nonconvex couplings the system route is only a critical
point, so the descent value is the one used for gaps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .grids import DensityPath, ScalarPath, VectorPath, shift_next, shift_prev
from .mfg import SolverParams, _sup_l1, feedback_drift, solve_mfg
from .model import Problem, delta_ghat, residual_field, weighted_average
from .stepping import (
    fp_forward_sweep,
    fp_residual,
    hjb_backward_sweep,
    hjb_residual,
    solve_periodic_tridiag,
    upwind_bands,
)


@dataclass(frozen=True)
class PlannerSolution:
    """Planner optimum with the realized flux and diagnostics.

    For method="system", w_hat = -m_hat * dp_h0(x, Du_hat) exactly (the
    representation formula of the optimality system) and u_hat solves the
    sourced backward equation.  For method="descent", control holds the
    optimized drift, w_hat = m_hat * control is the realized flux, and
    u_hat is the discrete adjoint rescaled to value-function units (a
    diagnostic, not a PDE solution).
    """

    u_hat: ScalarPath
    m_hat: DensityPath
    w_hat: VectorPath
    cost: float
    method: str
    iterations: int
    fp_residual: float
    hjb_residual: float
    fpk_residual: float
    converged: bool
    control: VectorPath | None = None
    objective_history: tuple[float, ...] = ()
    grad_norm: float = float("nan")
    stagnated: bool = False


def planner_cost(m, alpha, problem: Problem) -> float:
    """Time-space quadrature of the running cost plus the terminal term.

    The running integrand [l0(x, alpha) + F(x, m)] m is integrated with
    the left-endpoint rule over the nt steps (weight dt on levels
    0..nt-1).  This matches how a control slice enters the dynamics --
    slice k drives exactly the step k -> k+1 -- so the discrete objective
    does not reward inflating or zeroing the boundary slices, which a
    trapezoidal weighting does at first order in dt.  Accepts paths or
    plain arrays.
    """
    grid = problem.grid
    mv = m.values if isinstance(m, ScalarPath) else np.asarray(m, dtype=float)
    av = alpha.values if isinstance(alpha, VectorPath) else np.asarray(alpha, dtype=float)
    if av.ndim == 3:
        av = av[..., 0]
    expect = (grid.nt + 1, grid.n)
    if mv.shape != expect or av.shape != expect:
        raise ValueError(f"paths must have shape {expect}, got {mv.shape} and {av.shape}")
    x = grid.xs()
    running = 0.0
    for k in range(grid.nt):
        running += grid.dt * running_cost(problem, x, mv[k], av[k])
    return running + terminal_cost(problem, mv[-1])


def running_cost(problem: Problem, x: np.ndarray, m_k: np.ndarray,
                 a_k: np.ndarray) -> float:
    """Space integral of [l0(x, a_k) + F(x, m_k)] m_k: one slice of the running cost."""
    kinetic = float(problem.hamiltonian.l0(x, a_k) @ m_k) * problem.grid.dx
    return kinetic + weighted_average(problem.coupling, m_k)


def terminal_cost(problem: Problem, m_T: np.ndarray) -> float:
    """Space integral of G(x, m_T) m_T."""
    return float(problem.terminal.eval(m_T) @ m_T) * problem.grid.dx


# ---------------------------------------------------------------------------
# route one: the optimality system
# ---------------------------------------------------------------------------

def solve_planner_system(problem: Problem,
                         params: SolverParams | None = None) -> PlannerSolution:
    """Fixed point on the sourced forward-backward optimality system."""
    params = params or SolverParams()
    grid = problem.grid
    if grid.d != 1:
        raise ValueError("the planner solvers are implemented for d=1")
    nt = grid.nt

    m_bar = fp_forward_sweep(grid, problem.m0, np.zeros((nt + 1, grid.n)))
    best = None
    averaging = params.damping == "averaging"
    avg_count = 0
    prev_defect = np.inf
    converged = False
    iterations = 0

    for it in range(1, params.max_iters + 1):
        iterations = it
        fields = np.stack([problem.coupling.eval(m_bar[k]) for k in range(nt + 1)])
        source = np.stack([residual_field(problem.coupling, m_bar[k])
                           for k in range(nt + 1)])
        terminal = delta_ghat(problem.terminal, m_bar[nt])
        u = hjb_backward_sweep(grid, problem.hamiltonian, fields, terminal, source)
        drift = feedback_drift(problem, u)
        m_new = fp_forward_sweep(grid, problem.m0, drift)
        defect = _sup_l1(m_new, m_bar, grid.dx)

        if best is None or defect < best[0]:
            best = (defect, u, m_new)
        if defect < params.tol_fixed_point:
            converged = True
            break
        if params.damping == "auto" and not averaging and defect > prev_defect:
            averaging = True
        prev_defect = defect
        if averaging:
            avg_count += 1
            delta = 2.0 / (avg_count + 2.0)
        else:
            delta = 1.0 if isinstance(params.damping, str) else float(params.damping)
        m_bar = m_bar + delta * (m_new - m_bar)

    if not converged:
        defect, u, m_new = best
    u = u.copy()
    u[nt] = delta_ghat(problem.terminal, m_new[nt])
    drift = feedback_drift(problem, u)

    fields = np.stack([problem.coupling.eval(m_new[k]) for k in range(nt + 1)])
    source = np.stack([residual_field(problem.coupling, m_new[k]) for k in range(nt + 1)])
    res_hjb = hjb_residual(grid, problem.hamiltonian, u, fields, source)
    res_fpk = fp_residual(grid, m_new, drift)

    return PlannerSolution(
        u_hat=ScalarPath(u, grid),
        m_hat=DensityPath(m_new, grid),
        w_hat=VectorPath((m_new * drift)[:, :, None], grid),
        cost=planner_cost(m_new, drift, problem),
        method="system",
        iterations=iterations,
        fp_residual=float(defect),
        hjb_residual=res_hjb,
        fpk_residual=res_fpk,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# route two: exact-gradient descent on the discrete control objective
# ---------------------------------------------------------------------------

class ControlObjective:
    """Discrete objective J(a) = planner_cost(m(a), a) and its exact gradient.

    m(a) is the upwind forward solve driven by the control a (levels
    0..nt-1 drive the dynamics; level nt only enters the trapezoid tail of
    the cost).  The gradient is the discretize-then-optimize adjoint of
    exactly this computation, so descent stationarity is measured against
    the discrete objective, independent of truncation error.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        self.grid = problem.grid
        g = self.grid
        self.x = g.xs()
        # left-endpoint running-cost weights; the terminal level pays nothing
        self.w = np.full(g.nt + 1, g.dt)
        self.w[g.nt] = 0.0

    def forward(self, a: np.ndarray) -> np.ndarray:
        return fp_forward_sweep(self.grid, self.problem.m0, a)

    def objective(self, a: np.ndarray, m: np.ndarray | None = None) -> float:
        if m is None:
            m = self.forward(a)
        return planner_cost(m, a, self.problem)

    def _running_cost_grad_m(self, m_k: np.ndarray, a_k: np.ndarray) -> np.ndarray:
        # d/dm_i of sum_j [l0 + F] m_j dx, up to an additive constant that
        # cancels in the control gradient (divergence-form dynamics)
        p = self.problem
        return self.grid.dx * (p.hamiltonian.l0(self.x, a_k) + p.coupling.eval(m_k)
                               + residual_field(p.coupling, m_k))

    def _terminal_grad_m(self, m_T: np.ndarray) -> np.ndarray:
        p = self.problem
        return self.grid.dx * (p.terminal.eval(m_T) + residual_field(p.terminal, m_T))

    def gradient(self, a: np.ndarray, m: np.ndarray | None = None) -> np.ndarray:
        if m is None:
            m = self.forward(a)
        return self.adjoint(a, m)[0]

    def adjoint(self, a: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One backward adjoint sweep: the gradient and the multipliers.

        Returns (grad, lam_path).  lam_path[k] multiplies the step that
        produces level k; level 0, which no step produces, copies level 1.
        """
        g = self.grid
        n, nt, dx, dt = g.n, g.nt, g.dx, g.dt
        ham = self.problem.hamiltonian
        grad = np.empty((nt + 1, n))
        grad[nt] = self.w[nt] * ham.da_l0(self.x, a[nt]) * m[nt] * dx
        lam_path = np.empty((nt + 1, n))

        lam = np.zeros(n)
        for k in range(nt - 1, -1, -1):
            rhs = self.w[k + 1] * self._running_cost_grad_m(m[k + 1], a[k + 1]) + lam
            if k + 1 == nt:
                rhs = rhs + self._terminal_grad_m(m[nt])
            bf, _, _, lower, diag, upper = upwind_bands(g, a[k])
            # transpose of the step matrix: swap and shift the bands
            lam = solve_periodic_tridiag(shift_prev(upper), diag, shift_next(lower), rhs)
            lam_path[k + 1] = lam
            # control sensitivity through the upwind face flux
            dl = (lam - shift_prev(lam)) / dx
            m_next = m[k + 1]
            m_left = shift_prev(m_next)
            h_face = np.where(bf > 0.0, m_left,
                              np.where(bf < 0.0, m_next, 0.5 * (m_left + m_next)))
            t_face = dl * h_face
            grad[k] = (self.w[k] * ham.da_l0(self.x, a[k]) * m[k] * dx
                       + 0.5 * dt * (t_face + shift_next(t_face)))
        lam_path[0] = lam_path[1]
        return grad, lam_path


def solve_planner_descent(problem: Problem, params: SolverParams | None = None,
                          init=None, max_iters: int = 500,
                          gtol: float = 1e-12) -> PlannerSolution:
    """Minimize the discrete control objective with L-BFGS and exact gradients.

    The start control is the equilibrium feedback (computed on the fly if
    not supplied), so the first objective value equals the equilibrium
    social cost and every accepted step certifies cost <= equilibrium cost
    constructively.  Line-search breakdown at machine precision is
    reported as stagnation, not an error.
    """
    grid = problem.grid
    if grid.d != 1:
        raise ValueError("the planner solvers are implemented for d=1")
    if init is None:
        init = solve_mfg(problem, params).alpha_star
    a0 = init.values if isinstance(init, VectorPath) else np.asarray(init, dtype=float)
    if a0.ndim == 3:
        a0 = a0[..., 0]
    shape = (grid.nt + 1, grid.n)
    if a0.shape != shape:
        raise ValueError(f"initial control has shape {a0.shape}, expected {shape}")

    obj = ControlObjective(problem)
    history = []
    # (m, f) of the latest evaluation and of the latest accepted iterate,
    # keyed on the exact bytes of x: the callback and the final result
    # reuse them instead of sweeping again
    latest: dict = {}
    accepted: dict = {}

    def fun(vec):
        a = vec.reshape(shape)
        m = obj.forward(a)
        f = obj.objective(a, m)
        latest.clear()
        latest[vec.tobytes()] = (m, f)
        if not history:
            history.append(f)  # the first evaluation is at a0
        return f, obj.gradient(a, m).ravel()

    def recall(vec):
        key = vec.tobytes()
        for seen in (latest, accepted):
            if key in seen:
                return seen[key]
        a = vec.reshape(shape)
        m = obj.forward(a)
        return m, obj.objective(a, m)

    def cb(vec):
        hit = recall(vec)
        accepted.clear()
        accepted[vec.tobytes()] = hit
        history.append(hit[1])

    res = minimize(fun, a0.ravel(), jac=True, method="L-BFGS-B", callback=cb,
                   options={"maxiter": max_iters, "maxcor": 20,
                            "ftol": 1e-18, "gtol": gtol})
    a_opt = res.x.reshape(shape)
    m_opt, cost = recall(res.x)
    grad_norm = float(np.abs(res.jac).max())
    stagnated = res.status == 2

    # discrete adjoint in value-function units, for inspection only
    lam_path = obj.adjoint(a_opt, m_opt)[1]

    return PlannerSolution(
        u_hat=ScalarPath(lam_path / grid.dx, grid),
        m_hat=DensityPath(m_opt, grid),
        w_hat=VectorPath((m_opt * a_opt)[:, :, None], grid),
        cost=cost,
        method="descent",
        iterations=int(res.nit),
        fp_residual=0.0,
        hjb_residual=float("nan"),
        fpk_residual=fp_residual(grid, m_opt, a_opt),
        converged=bool(res.success) or stagnated,
        control=VectorPath(a_opt[:, :, None], grid),
        objective_history=tuple(history),
        grad_norm=grad_norm,
        stagnated=stagnated,
    )
