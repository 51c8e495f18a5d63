"""Social costs, inefficiency gap, residuals, bounds and certificates.

The central quantities along an equilibrium (u, m):

* the efficiency residual fields int dF/dm(x, m, y) m(dx) and its
  terminal analogue -- both vanish identically iff efficient equilibria
  exist from every start;
* squared-residual integrals: the lower-bound integrands restricted to
  the window [t0+eps, T-eps], and their full-interval square root, which
  is the upper-bound norm;
* the perturbation certificate: feasible perturbed controls built from
  the residuals, whose cost phi(h) can never undercut the planner
  optimum, so max_h (cost(u,m) - phi(h)) is a constant-free lower bound
  on the gap;
* the duality diagnostic comparing the Hamiltonian convexity terms
  against the coupling terms along equilibrium and planner solutions.

The unknown regularity constants of the quantitative bounds are not
estimated; everything here is either an exact discrete inequality or a
structural zero/nonzero dichotomy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import MassConservationError
from .grids import ScalarPath, gradient, reconstruct_flux_1d
from .mfg import MFGSolution, SolverParams, solve_mfg
from .model import Problem, delta_ghat, residual_field, row_dot
from .planner import (
    PlannerSolution,
    planner_cost,
    slice_costs,
    solve_planner_descent,
    solve_planner_system,
)
from .stepping import check_mass_drift, fp_forward_sweep, fp_step

H_SAMPLES = 32  # log-spaced perturbation sizes the certificate tries per variant


def social_cost(sol: MFGSolution, problem: Problem) -> float:
    """Averaged cost of the population playing the equilibrium feedback."""
    return planner_cost(sol.m, sol.alpha_star, problem)


# ---------------------------------------------------------------------------
# lower/upper bound integrands
# ---------------------------------------------------------------------------

def _window_levels(grid, eps: float) -> np.ndarray:
    """Indices of the time levels inside [t0+eps, T-eps]."""
    t = grid.times()
    return np.flatnonzero((t >= grid.t0 + eps - 1e-12) & (t <= grid.T - eps + 1e-12))


def check_epsilon(grid, eps: float) -> None:
    """ValueError unless 0 < eps < (T-t0)/2 and the window [t0+eps, T-eps] of
    the bounds and the certificate holds a time level of the grid."""
    horizon = grid.T - grid.t0
    if not 0.0 < eps < 0.5 * horizon:
        raise ValueError(f"epsilon: need 0 < epsilon < (T-t0)/2 = {horizon / 2}, got {eps}")
    if not _window_levels(grid, eps).size:
        raise ValueError(f"epsilon: no time level of the grid lies in "
                         f"[t0+epsilon, T-epsilon] for epsilon={eps}")


def _window_weights(grid, eps: float) -> np.ndarray:
    """Trapezoidal weights supported on time levels inside [t0+eps, T-eps]."""
    idx = _window_levels(grid, eps)
    w = np.zeros(grid.nt + 1)
    w[idx] = grid.dt
    w[idx[0]] = w[idx[-1]] = 0.5 * grid.dt
    return w


@dataclass(frozen=True)
class Equilibrium:
    """An equilibrium with the data of its bounds and certificate: the residual
    fields of F on every level of m (r_path) and of G at m(T) (r_g), and its social cost."""

    sol: MFGSolution
    problem: Problem
    r_path: np.ndarray
    r_g: np.ndarray
    cost: float


def equilibrium(sol: MFGSolution, problem: Problem) -> Equilibrium:
    """The Equilibrium of sol: its residual fields in closed form (Coupling._path_terms)."""
    m = sol.m.values
    return Equilibrium(sol, problem, problem.coupling._path_terms(m)[1],
                       residual_field(problem.terminal, m[-1]), social_cost(sol, problem))


def lb_integrands(eq: Equilibrium, eps: float) -> tuple[float, float]:
    """Squared-residual integrals entering the gap lower bound.

    lb_F integrates ||residual_field(F, m(t))||_L2^2 over [t0+eps, T-eps];
    lb_G is the squared L2 norm of the terminal residual.  eps = 0 gives
    the full-interval quantity used by ub_norm; any other eps must pass
    check_epsilon.
    """
    grid = eq.problem.grid
    if eps != 0.0:
        check_epsilon(grid, eps)
    w = _window_weights(grid, eps)
    lb_f = 0.0
    for k in np.flatnonzero(w):
        lb_f += float(w[k]) * float(eq.r_path[k] @ eq.r_path[k]) * grid.dx
    lb_g = float(eq.r_g @ eq.r_g) * grid.dx
    return lb_f, lb_g


def ub_norm(eq: Equilibrium) -> float:
    """Square root of the full-interval residual integral plus the terminal one.

    This is the quantity whose size controls the gap from above for convex
    averaged couplings; it vanishes exactly for the efficient structure and
    scales linearly in the coupling strength.
    """
    lb_f, lb_g = lb_integrands(eq, 0.0)
    return float(np.sqrt(lb_f + lb_g))


# ---------------------------------------------------------------------------
# perturbation certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Perturbation:
    """Mass-neutral density perturbation with its compensating flux.

    mu has zero-mean slices and vanishes at t0; beta closes the discrete
    continuity equation; tau is the largest h keeping m + h mu >= m/2
    pointwise, realizing the admissible range 1/(2 C ||mu||) of the
    certificate construction.
    """

    mu: ScalarPath
    beta: ScalarPath
    gamma: np.ndarray
    tau: float


def _ramp_running(grid, eps: float) -> np.ndarray:
    t0, T = grid.t0, grid.T
    t = grid.times()
    g = np.ones_like(t)
    g = np.where(t <= t0 + 0.5 * eps, 0.0, g)
    rise = (t > t0 + 0.5 * eps) & (t < t0 + eps)
    g = np.where(rise, 2.0 * (t - t0 - 0.5 * eps) / eps, g)
    fall = t >= T - eps
    g = np.where(fall, (T - t) / eps, g)
    return g


def _ramp_terminal(grid, eps: float) -> np.ndarray:
    t = grid.times()
    g = np.where(t >= grid.T - eps, (t - (grid.T - eps)) / eps, 0.0)
    return g


def _build_perturbation(m: np.ndarray, grid, direction: np.ndarray,
                        gamma: np.ndarray) -> Perturbation:
    """Assemble (mu, beta, tau) from the residual direction field.

    direction[k] is the residual field paired with slice k; mu is
    -gamma(t) m_slice * direction, where m_slice is m(t) for the running
    variant and m(T) for the terminal one (already folded into direction
    by the callers).
    """
    mu = -gamma[:, None] * direction
    # positivity margin: m + h mu >= m/2 <=> h * (-mu/m) <= 1/2 where mu < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        shrink = np.where(m > 0.0, -mu / m, np.inf)
    worst = float(np.nanmax(np.where(np.isfinite(shrink), shrink, 0.0)))
    tau = np.inf if worst <= 0.0 else 0.5 / worst
    mu_path = ScalarPath(mu, grid)
    beta = reconstruct_flux_1d(mu_path, grid)
    return Perturbation(mu=mu_path, beta=beta, gamma=gamma, tau=tau)


def build_perturbation_running(eq: Equilibrium, eps: float) -> Perturbation:
    """Perturbation along the running-cost residual with the four-piece ramp."""
    grid = eq.problem.grid
    check_epsilon(grid, eps)
    gamma = _ramp_running(grid, eps)
    m = eq.sol.m.values
    active = gamma > 0.0
    if m[active].min() <= 0.0:
        k = int(np.flatnonzero(active)[np.argmin(m[active].min(axis=1))])
        raise MassConservationError(
            f"density vanishes on slice {k}; the perturbation needs m > 0 "
            "wherever the ramp is active"
        )
    return _build_perturbation(m, grid, m * eq.r_path, gamma)


def build_perturbation_terminal(eq: Equilibrium, eps: float) -> Perturbation:
    """Perturbation along the terminal residual, supported on [T-eps, T]."""
    grid = eq.problem.grid
    check_epsilon(grid, eps)
    gamma = _ramp_terminal(grid, eps)
    m = eq.sol.m.values
    if m[-1].min() <= 0.0:
        raise MassConservationError("terminal density vanishes somewhere")
    direction = np.tile(m[-1] * eq.r_g, (grid.nt + 1, 1))
    return _build_perturbation(m, grid, direction, gamma)


def phi_eval(sol: MFGSolution, pert: Perturbation, h: float,
             problem: Problem) -> float:
    """Cost of the perturbed feasible pair at perturbation size h.

    The perturbation defines the control alpha_h = (m alpha* + h beta) /
    (m + h mu); the density is re-solved under the discrete dynamics, so
    the value is the exact discrete control objective at alpha_h.  That
    makes phi(h) a true member of the planner's feasible set for every h
    (phi(h) >= discrete optimum), which is the inequality the certificate
    rests on; at h = 0 it reproduces the equilibrium pair and cost
    exactly.
    """
    if not 0.0 <= h <= pert.tau:
        raise ValueError(f"h={h} outside the admissible range [0, {pert.tau}]")
    grid = problem.grid
    alpha = sol.alpha_star.values
    if h == 0.0:
        alpha_h = alpha
    else:
        m = sol.m.values
        mu = pert.mu.values
        beta = pert.beta.values
        alpha_h = (m * alpha + h * beta) / (m + h * mu)
    m_resolved = fp_forward_sweep(grid, problem.m0, alpha_h)
    return planner_cost(m_resolved, alpha_h, problem)


def _phi_stack(sol: MFGSolution, pert: Perturbation, hs: np.ndarray,
               problem: Problem) -> np.ndarray:
    """phi(h) for every h > 0 in hs, each within 1e-12 (1 + |phi|) of phi_eval's.

    All h advance together through fp_step as one (len(hs), n) stack; each
    step prices it with one coupling eval (its kernel products through the
    kernel's factor, O(len(hs) n) rather than phi_eval's dense one-slice
    products, model.kernel_products) and slice_costs.
    Only the current slices are held, never the (len(hs), nt+1, n) paths.
    """
    grid = problem.grid
    m, alpha = sol.m.values, sol.alpha_star.values
    mu, beta = pert.mu.values, pert.beta.values
    h = hs[:, None]
    target = problem.m0.sum() * grid.dx
    m_h = np.tile(problem.m0, (len(hs), 1))
    running = np.zeros(len(hs))
    for k in range(grid.nt):
        a_h = (m[k] * alpha[k] + h * beta[k]) / (m[k] + h * mu[k])
        running += grid.dt * slice_costs(problem, m_h, a_h, problem.coupling.eval(m_h))
        m_h = fp_step(grid, m_h, a_h)
        check_mass_drift(grid, m_h, target, k + 1)
    return running + row_dot(problem.terminal.eval(m_h), m_h) * grid.dx


def certificate(eq: Equilibrium, eps: float) -> float:
    """Constant-free lower bound on the inefficiency gap.

    Builds both perturbation variants, samples H_SAMPLES values of h
    log-spaced over [1e-4 tau, tau] and returns
    max(0, max_h (cost(u,m) - phi(h))).  Valid
    because every phi(h) is the cost of a feasible pair, hence at least
    the planner optimum.  The samples of a variant are evaluated together
    (see _phi_stack), within round-off of phi_eval one h at a time.  A
    difference of cost-sized numbers, the result agrees with the per-h
    maximum on the cost scale: within 1e-12 (1 + |cost(u,m)|).
    """
    best = 0.0
    for build in (build_perturbation_running, build_perturbation_terminal):
        pert = build(eq, eps)
        if float(np.abs(pert.mu.values).max()) == 0.0:
            continue  # residual vanishes; this variant certifies nothing
        tau = pert.tau if np.isfinite(pert.tau) else 1.0
        hs = np.geomspace(1e-4 * tau, tau, H_SAMPLES)
        for phi in _phi_stack(eq.sol, pert, hs, eq.problem):
            best = max(best, eq.cost - float(phi))
    return best


# ---------------------------------------------------------------------------
# duality diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualityReport:
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def duality_check(mfg: MFGSolution, plan: PlannerSolution,
                  problem: Problem) -> DualityReport:
    """Convexity terms vs. coupling terms along (u, m) and (u_hat, m_hat).

    lhs is the exact Bregman form of the Hamiltonian convexity terms,
    sum over time of int (m B(Du -> Du_hat) + m_hat B(Du_hat -> Du)); for
    the quadratic Hamiltonian this equals (1/2) int int (m + m_hat)
    |Du - Du_hat|^2, i.e. the convexity constant enters with its sharp
    value.  rhs collects the coupling and terminal terms

      - int int (F(x, m) - dFhat/dm(m_hat, x)) (m - m_hat)
      - int (G(x, m(T)) - dGhat/dm(m_hat(T), x)) (m(T) - m_hat(T)),

    and slack = rhs - lhs is nonnegative (up to discretization) whenever
    the averaged coupling functionals are convex.  Expects the planner
    solution from the system route (its u_hat is a value function).
    """
    grid = problem.grid
    ham = problem.hamiltonian
    x = grid.xs()
    w = _window_weights(grid, 0.0)
    m, mh = mfg.m.values, plan.m_hat.values
    du_path = gradient(mfg.u.values, grid)
    duh_path = gradient(plan.u_hat.values, grid)

    lhs = 0.0
    rhs = 0.0
    for k in range(grid.nt + 1):
        du, duh = du_path[k], duh_path[k]
        breg_m = ham.h0(x, duh) - ham.h0(x, du) - ham.dp_h0(x, du) * (duh - du)
        breg_mh = ham.h0(x, du) - ham.h0(x, duh) - ham.dp_h0(x, duh) * (du - duh)
        lhs += w[k] * float(m[k] @ breg_m + mh[k] @ breg_mh) * grid.dx
        f_term = problem.coupling.eval(m[k]) - delta_ghat(problem.coupling, mh[k])
        rhs -= w[k] * float(f_term @ (m[k] - mh[k])) * grid.dx
    g_term = problem.terminal.eval(m[-1]) - delta_ghat(problem.terminal, mh[-1])
    rhs -= float(g_term @ (m[-1] - mh[-1])) * grid.dx
    return DualityReport(lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# Holder diagnostic for x-free couplings
# ---------------------------------------------------------------------------

def holder_diagnostic(sol: MFGSolution, problem: Problem, eps: float) -> float:
    """sup over t1 != t2 in [t0+eps, T-eps] of |F(m(t2)) - F(m(t1))| / sqrt(dt).

    Only meaningful for x-free couplings, where this modulus controls the
    gap from below; raises for any other catalog label.  Returns nan when
    the window holds a single time level, so that no pair t1 != t2 exists
    (the default eps on a grid with nt=8 leaves only t = 1/2).
    """
    if problem.coupling.label != "xfree":
        raise ValueError(
            f"Holder diagnostic needs an x-free coupling, got {problem.coupling.label!r}"
        )
    grid = problem.grid
    idx = _window_levels(grid, eps)
    f = problem.coupling.eval(sol.m.values[idx], exact=True)[:, 0]
    tt = grid.times()[idx]
    df = np.abs(f[:, None] - f[None, :])
    dts = np.abs(tt[:, None] - tt[None, :])
    mask = dts > 0
    if not mask.any():
        return float("nan")
    return float(np.max(df[mask] / np.sqrt(dts[mask])))


# ---------------------------------------------------------------------------
# aggregated report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EfficiencyReport:
    """Flat record of costs, gap, residual norms and the certificate.  Its
    SCHEMA, the report columns of a result row, is its field names in order."""

    cost_mfg: float
    cost_planner: float          # descent value: constructive upper bound
    cost_planner_system: float   # optimality-system value, reported alongside
    gap: float
    lb_integrand_F: float
    lb_integrand_G: float
    ub_norm: float
    residual_F_sup: float
    residual_G_sup: float
    certificate: float
    epsilon: float
    holder: float
    mfg_converged: bool
    system_converged: bool
    descent_converged: bool
    mfg_iterations: int
    descent_iterations: int
    fp_residual: float
    hjb_residual: float
    fpk_residual: float
    planner_values_disagree: bool


EfficiencyReport.SCHEMA = tuple(f.name for f in fields(EfficiencyReport))


def default_epsilon(grid) -> float:
    """The ramp must resolve on the time grid (clamped below (T-t0)/2), and
    the window [t0+eps, T-eps] must hold a time level: eps is at most
    (nt // 2) dt, which moves it only on grids where 7/16 of the horizon
    leaves the window empty (nt = 5 or 7)."""
    horizon = grid.T - grid.t0
    return min(max(4.0 * grid.dt, horizon / 16.0), horizon * 7.0 / 16.0,
               (grid.nt // 2) * grid.dt)


def full_report(problem: Problem, params: SolverParams | None = None,
                eps: float | None = None) -> EfficiencyReport:
    """Solve everything and aggregate the efficiency quantities.

    The gap uses the descent value of the planner cost (a constructive
    upper bound on the discrete optimum, so the reported gap is a
    conservative estimate); the system value is recorded alongside and a
    disagreement beyond 1e-3 relative is flagged, which for nonconvex
    couplings signals that the optimality system found a non-minimal
    critical point.
    """
    params = params or SolverParams()
    eps = default_epsilon(problem.grid) if eps is None else eps

    mfg = solve_mfg(problem, params)
    descent = solve_planner_descent(problem, params, init=mfg.alpha_star)
    system = solve_planner_system(problem, params)

    # the equilibrium's residual fields, once, for the sups, bounds and certificate
    eq = equilibrium(mfg, problem)
    lb_f, lb_g = lb_integrands(eq, eps)
    hol = (holder_diagnostic(mfg, problem, eps)
           if problem.coupling.label == "xfree" else float("nan"))
    disagree = abs(system.cost - descent.cost) > 1e-3 * (1.0 + abs(descent.cost))

    return EfficiencyReport(
        cost_mfg=eq.cost,
        cost_planner=descent.cost,
        cost_planner_system=system.cost,
        gap=eq.cost - descent.cost,
        lb_integrand_F=lb_f,
        lb_integrand_G=lb_g,
        ub_norm=ub_norm(eq),
        residual_F_sup=float(np.abs(eq.r_path).max()),
        residual_G_sup=float(np.abs(eq.r_g).max()),
        certificate=certificate(eq, eps),
        epsilon=eps,
        holder=hol,
        mfg_converged=mfg.converged,
        system_converged=system.converged,
        descent_converged=descent.converged,
        mfg_iterations=mfg.iterations,
        descent_iterations=descent.iterations,
        fp_residual=mfg.fp_residual,
        hjb_residual=mfg.hjb_residual,
        fpk_residual=mfg.fpk_residual,
        planner_values_disagree=disagree,
    )
