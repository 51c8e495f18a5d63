"""Numerical laboratory for the efficiency of mean field game equilibria.

Computes equilibrium solutions of the forward-backward system on the
periodic torus, the corresponding global-planner optimum (by optimality
system and by exact-gradient descent), the social-cost inefficiency gap,
the structural residuals that characterize efficiency, and constant-free
perturbation certificates bounding the gap from below.
"""

from .efficiency import (
    DualityReport,
    EfficiencyReport,
    Perturbation,
    build_perturbation_running,
    build_perturbation_terminal,
    certificate,
    default_epsilon,
    duality_check,
    full_report,
    holder_diagnostic,
    lb_integrands,
    phi_eval,
    social_cost,
    ub_norm,
)
from .grids import (
    DensityPath,
    Grid,
    ScalarPath,
    continuity_residual_1d,
    gradient,
    integrate,
    laplacian,
    reconstruct_flux_1d,
    w1_distance_1d,
)
from .harness import FitResult, emit_plotdata, fit_scaling, read_rows, run
from .mfg import MFGSolution, SolverParams, solve_mfg
from .model import (
    Coupling,
    Hamiltonian,
    Problem,
    convention_defect,
    coupling_convolution,
    coupling_efficient,
    coupling_from_label,
    coupling_potential,
    coupling_spatial,
    coupling_xfree,
    coupling_zero,
    default_problem,
    delta_ghat,
    delta_m_fd_check,
    density_cosine,
    density_uniform,
    grid_delta,
    quadratic_hamiltonian,
    residual_field,
    weighted_average,
)
from .planner import (
    ControlObjective,
    PlannerSolution,
    planner_cost,
    solve_planner_descent,
    solve_planner_system,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
