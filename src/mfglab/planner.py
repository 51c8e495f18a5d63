"""Global planner optimum, computed two independent ways.

The system route solves the optimality conditions of the planning
problem: the same forward-backward structure as the equilibrium system,
except the backward equation carries the source

    S(t, x) = int dF/dm(y, m(t), x) m(t, y) dy

and the terminal condition is the derivative of m -> int G dm, so it
runs the equilibrium's damped loop (mfg.fixed_point) on that backward
data.  It takes the fields and the source of a whole flow from
Coupling._path_terms, in closed form, its kernel products through the
catalog kernels' factors (model.kernel_products), and with no n x n
matrix.  The descent route runs L-BFGS with exact adjoint gradients on
the discrete control objective (the discretize-then-optimize gradient of
the very quadrature reported as cost), warm-started at the equilibrium
feedback so its first objective value is the equilibrium social cost.
Each evaluation (ControlObjective.evaluate) is one forward sweep, one
set of path terms and one stepping.adjoint_sweep, which owns the upwind
scheme's derivative, and the point L-BFGS returns keeps its evaluation's
path, cost and multipliers.  Its stop is at round-off level, so its
iteration counts follow the rounding of its terms.  They come from one
exact stacked call (Coupling._path_terms with exact): the fields of all
levels, each bit for bit its own eval's one product per slice, and the
residual fields of the adjoint source in closed form on those products,
O(n) per level, but the convolution's, a dense contraction
(model._dense_residual); F(m[0]) is a 1-D eval.  The potential's stack
takes the factor even there: its F cancels in the source and the
objective, so its rounding cannot steer the descent.  The two values
cross-validate each other; for nonconvex couplings the system route is
only a critical point, so the descent value is the one used for gaps.
scipy.optimize is imported at the first descent, not with the module, so
code that never runs one does not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .grids import DensityPath, ScalarPath
from .mfg import MFGSolution, SolverParams, _heat_flow, fixed_point, solve_mfg
from .model import Problem, delta_ghat, row_dot
from .stepping import adjoint_sweep, fp_forward_sweep, fp_residual

DESCENT_MAX_ITERS = 500  # L-BFGS iteration cap of solve_planner_descent
DESCENT_GTOL = 1e-12     # L-BFGS projected-gradient tolerance
COST_ROWS = 32           # levels per slice_costs call: keeps its temporaries (32, n)


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported at the first descent, so that
    importing mfglab does not load scipy.optimize, which nothing else uses."""
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


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
    w_hat: ScalarPath
    cost: float
    method: str
    iterations: int
    fp_residual: float
    hjb_residual: float
    fpk_residual: float
    converged: bool
    control: ScalarPath | None = None
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
    av = alpha.values if isinstance(alpha, ScalarPath) else np.asarray(alpha, dtype=float)
    expect = (grid.nt + 1, grid.n)
    if mv.shape != expect or av.shape != expect:
        raise ValueError(f"paths must have shape {expect}, got {mv.shape} and {av.shape}")
    fields = problem.coupling.eval(mv[:grid.nt], exact=True)
    return _path_cost(problem, mv, av, fields, problem.terminal.eval(mv[-1]))


def _path_cost(problem: Problem, m: np.ndarray, alpha: np.ndarray, fields,
               g_field: np.ndarray) -> float:
    """planner_cost given the coupling fields of levels 0..nt-1 and G(., m(T))."""
    grid = problem.grid
    running = 0.0
    for k in range(0, grid.nt, COST_ROWS):
        rows = slice(k, min(k + COST_ROWS, grid.nt))
        for cost in slice_costs(problem, m[rows], alpha[rows], np.asarray(fields[rows])).tolist():
            running += grid.dt * cost
    return running + float(g_field @ m[-1]) * grid.dx


def slice_costs(problem: Problem, m: np.ndarray, a: np.ndarray, f: np.ndarray):
    """Space integral of [l0(x, a) + f] m for every row of the (..., n) stacks,
    f the coupling field of m; each row bit for bit as if taken alone."""
    dx = problem.grid.dx
    kinetic = row_dot(problem.hamiltonian.l0(problem.grid.xs(), a), m) * dx
    return kinetic + row_dot(f, m) * dx


# ---------------------------------------------------------------------------
# route one: the optimality system
# ---------------------------------------------------------------------------

def solve_planner_system(problem: Problem,
                         params: SolverParams | None = None) -> PlannerSolution:
    """Fixed point on the sourced forward-backward optimality system."""
    def backward_data(m):
        fields, source = problem.coupling._path_terms(m)
        return fields, delta_ghat(problem.terminal, m[-1]), source

    sol = fixed_point(problem, params or SolverParams(), backward_data, _heat_flow(problem))
    return PlannerSolution(
        u_hat=sol.u,
        m_hat=sol.m,
        w_hat=ScalarPath(sol.m.values * sol.alpha_star.values, problem.grid),
        cost=planner_cost(sol.m, sol.alpha_star, problem),
        method="system",
        iterations=sol.iterations,
        fp_residual=sol.fp_residual,
        hjb_residual=sol.hjb_residual,
        fpk_residual=sol.fpk_residual,
        converged=sol.converged,
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

    def evaluate(self, a: np.ndarray, m: np.ndarray | None = None
                 ) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
        """(m, J, grad, lam_path) at a: one forward sweep m (unless given),
        its path terms formed once, the cost J on them and one adjoint sweep."""
        m = fp_forward_sweep(self.grid, self.problem.m0, a) if m is None else m
        f_0, fields, _, g_field, _ = terms = self._path_terms(m)
        cost = _path_cost(self.problem, m, a, (f_0, *fields), g_field)
        return (m, cost, *self.gradient(a, m, terms))

    def _path_terms(self, m: np.ndarray) -> tuple:
        """(f_0, fields, residuals, g_field, g_residual) of the path m.

        f_0 is F(., m[0]); fields and residuals hold F and the residual
        field of levels 1..nt-1 (level 0 drives no adjoint step and level
        nt has running weight 0); g_field and g_residual are G's at m[nt].
        Each comes from one exact stacked call (Coupling._path_terms with
        exact), so every field but the potential's is bit for bit its
        level's eval.
        """
        p, nt = self.problem, self.grid.nt
        fields, residuals = p.coupling._path_terms(m[1:nt], exact=True)
        (g_field,), (g_residual,) = p.terminal._path_terms(m[nt:], exact=True)
        return p.coupling.eval(m[0]), fields, residuals, g_field, g_residual

    def gradient(self, a: np.ndarray, m: np.ndarray,
                 terms: tuple) -> tuple[np.ndarray, np.ndarray]:
        """One backward adjoint sweep: the gradient and the multipliers.

        terms are _path_terms(m).  The adjoint's sources and the kinetic term
        are formed here, the drift's term in stepping.adjoint_sweep.  Returns
        (grad, lam_path), lam_path[k] the multiplier of the step that produces level k.
        """
        n, nt, dx = self.grid.n, self.grid.nt, self.grid.dx
        _, fields, residuals, g_field, g_residual = terms
        # weighted running-cost gradient of level k + 1, the source of step k:
        # d/dm_i of sum_j [l0 + F] m_j dx, up to an additive constant that
        # cancels in the control gradient (the dynamics conserve mass);
        # level nt has running weight 0: its step sees the terminal gradient only
        rhs = np.empty((nt, n))
        np.multiply(self.w[1:nt, None], dx * (self.problem.hamiltonian.l0(self.x, a[1:nt])
                                              + fields + residuals), out=rhs[:nt - 1])
        np.multiply(dx, g_field + g_residual, out=rhs[nt - 1])
        sensitivity, lam_path = adjoint_sweep(self.grid, a, m, rhs)
        grad = self.w[:, None] * self.problem.hamiltonian.da_l0(self.x, a) * m * dx
        grad[:nt] += sensitivity
        return grad, lam_path


def solve_planner_descent(problem: Problem, params: SolverParams | None = None,
                          init=None) -> PlannerSolution:
    """Minimize the discrete control objective with L-BFGS and exact gradients.

    The start control is the equilibrium feedback (computed on the fly if
    not supplied), so the first objective value equals the equilibrium
    social cost and every accepted step certifies cost <= equilibrium cost
    constructively; from an MFGSolution init, whose m is the forward sweep
    under its alpha_star, the first evaluation takes that m; an init on
    another grid is a ShapeMismatchError.  Line-search breakdown at machine
    precision is reported as stagnation, not an error.
    """
    grid = problem.grid
    init = solve_mfg(problem, params) if init is None else init
    m_a0, init = (init.m.values, init.alpha_star) if isinstance(init, MFGSolution) else (None, init)
    if isinstance(init, ScalarPath) and init.grid != grid:
        raise ShapeMismatchError("init lives on a different grid")
    a0 = init.values if isinstance(init, ScalarPath) else np.asarray(init, dtype=float)
    shape = (grid.nt + 1, grid.n)
    if a0.shape != shape:
        raise ValueError(f"initial control has shape {a0.shape}, expected {shape}")

    obj = ControlObjective(problem)
    history = []
    # (x, m, f, lam_path) of the latest evaluation and of the latest accepted
    # iterate: L-BFGS-B hands its callback the point it evaluated last and
    # returns one of the two (after a line-search failure, the accepted one)
    latest = accepted = None

    def fun(vec):
        nonlocal latest, accepted
        m, f, grad, lam_path = obj.evaluate(vec.reshape(shape), m_a0 if accepted is None else None)
        latest = (vec.copy(), m, f, lam_path)
        if accepted is None:  # the first evaluation is at a0
            accepted = latest
            history.append(f)
        return f, grad.ravel()

    def cb(_):
        nonlocal accepted
        accepted = latest
        history.append(latest[2])

    res = minimize(fun, a0.ravel(), jac=True, method="L-BFGS-B", callback=cb,
                   options={"maxiter": DESCENT_MAX_ITERS, "maxcor": 20,
                            "ftol": 1e-18, "gtol": DESCENT_GTOL})
    for x, m_opt, cost, lam_path in (latest, accepted):
        if np.array_equal(x, res.x):
            break
    else:
        raise RuntimeError("L-BFGS-B returned a point that is neither its latest "
                           "evaluation nor its latest accepted iterate")
    a_opt = res.x.reshape(shape)
    grad_norm = float(np.abs(res.jac).max())
    stagnated = res.status == 2

    return PlannerSolution(
        # the discrete adjoint in value-function units, for inspection only
        u_hat=ScalarPath(lam_path / grid.dx, grid),
        m_hat=DensityPath(m_opt, grid),
        w_hat=ScalarPath(m_opt * a_opt, grid),
        cost=cost,
        method="descent",
        iterations=int(res.nit),
        fp_residual=0.0,
        hjb_residual=float("nan"),
        fpk_residual=fp_residual(grid, m_opt, a_opt),
        converged=bool(res.success) or stagnated,
        control=ScalarPath(a_opt, grid),
        objective_history=tuple(history),
        grad_norm=grad_norm,
        stagnated=stagnated,
    )
