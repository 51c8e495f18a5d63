"""Hamiltonians, coupling functions and their measure derivatives.

Couplings F(x, m) and terminal costs G(x, m) share one representation: a
label, a strength multiplier, a vectorized evaluation m -> field over grid
points, and the kernel of the linear functional derivative as a matrix

    delta(m)[i, j] = dF/dm(x_i, m, y_j),

normalized so that sum_j delta(m)[i, j] m_j dx = 0 for every i (the
zero-mean convention for derivatives of functions of a probability
measure).  The argument order is fixed once and for all: first index is
the base point of F, second the direction of differentiation.

The catalog covers the structurally distinct cases: a convolution
coupling (never efficient unless m-independent), the efficient-by-
construction coupling built from a quadratic functional, a potential
coupling (derivative of a functional, residual equals -F), and an x-free
coupling (moment functional).  Default kernels are smooth cosines with
closed-form integrals so that every oracle is explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MassConservationError
from .grids import Grid, check_density_slice

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hamiltonian:
    """Separated Hamiltonian data H(x,p,m) = h0(x,p) - F(x,m).

    h0, dp_h0 act on (x, p) arrays over grid points; l0 and da_l0 are the
    Legendre transform l0(x, a) = sup_p (a p - h0(x, p)) and its
    a-derivative, used by cost quadratures and the planner descent.
    """

    h0: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dp_h0: Callable[[np.ndarray, np.ndarray], np.ndarray]
    l0: Callable[[np.ndarray, np.ndarray], np.ndarray]
    da_l0: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str = "custom"

    def legendre_defect(self, x: np.ndarray, p: np.ndarray) -> float:
        """Max violation of l0(x, -dp_h0) + h0 - p dp_h0 = 0 on given samples."""
        dp = self.dp_h0(x, p)
        res = self.l0(x, -dp) + self.h0(x, p) - p * dp
        return float(np.abs(res).max())


def quadratic_hamiltonian() -> Hamiltonian:
    """h0 = |p|^2/2, dp_h0 = p, l0 = |a|^2/2 (uniform convexity constant 1)."""
    return Hamiltonian(
        h0=lambda x, p: 0.5 * p**2,
        dp_h0=lambda x, p: p,
        l0=lambda x, a: 0.5 * a**2,
        da_l0=lambda x, a: a,
        label="quadratic",
    )


HAMILTONIANS = {"quadratic": quadratic_hamiltonian}


# ---------------------------------------------------------------------------
# couplings / terminal costs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Coupling:
    """A function of (x, m) with its normalized measure derivative.

    Serves both as running coupling F and as terminal cost G.  eval(m)
    returns the field x -> F(x, m); delta(m) returns the full derivative
    matrix [base point, direction].
    """

    label: str
    strength: float
    _eval: Callable[[np.ndarray], np.ndarray]
    _delta: Callable[[np.ndarray], np.ndarray]
    grid: Grid

    def eval(self, m: np.ndarray) -> np.ndarray:
        return self._eval(np.asarray(m, dtype=float))

    def delta(self, m: np.ndarray) -> np.ndarray:
        return self._delta(np.asarray(m, dtype=float))


TerminalCost = Coupling


def _kernel_matrix(grid: Grid, kernel: Callable) -> np.ndarray:
    x = grid.xs()
    return np.asarray(kernel(x[:, None], x[None, :]), dtype=float)


def coupling_zero(grid: Grid) -> Coupling:
    z_field = np.zeros(grid.n)
    z_mat = np.zeros((grid.n, grid.n))
    return Coupling("zero", 0.0, lambda m: z_field.copy(), lambda m: z_mat.copy(), grid)


def coupling_spatial(grid: Grid, f: Callable[[np.ndarray], np.ndarray],
                     lam: float = 1.0, label: str = "spatial") -> Coupling:
    """m-independent coupling F(x, m) = lam * f(x); derivative vanishes."""
    field = lam * np.asarray(f(grid.xs()), dtype=float)
    z_mat = np.zeros((grid.n, grid.n))
    return Coupling(label, lam, lambda m: field.copy(), lambda m: z_mat.copy(), grid)


def coupling_convolution(grid: Grid, kernel: Callable | None = None,
                         lam: float = 1.0) -> Coupling:
    """F(x, m) = lam * int phi(x, y) m(dy)."""
    phi = _kernel_matrix(grid, kernel or kernel_cos_diff)
    dx = grid.dx

    def ev(m):
        return lam * (phi @ m) * dx

    def de(m):
        a1 = (phi @ m) * dx
        return lam * (phi - a1[:, None])

    return Coupling("convolution", lam, ev, de, grid)


def coupling_efficient(grid: Grid, kernel: Callable | None = None,
                       lam: float = 1.0) -> Coupling:
    """Globally efficient coupling built from the quadratic functional
    lam * int int phi(z, y) m(dz) m(dy): F = functional + its derivative.

    Its derivative matrix satisfies sum_i delta[i, j] m_i dx = 0 for every
    direction j, which is the structure condition for a zero inefficiency
    gap from every start.
    """
    phi = _kernel_matrix(grid, kernel or kernel_cos_diff)
    dx = grid.dx

    def parts(m):
        a1 = (phi @ m) * dx        # int phi(x, y) m(dy)
        a2 = (phi.T @ m) * dx      # int phi(z, x) m(dz)
        q = float(m @ a1) * dx     # int int phi m m
        return a1, a2, q

    def ev(m):
        a1, a2, q = parts(m)
        return lam * (a1 + a2 - q)

    def de(m):
        a1, a2, q = parts(m)
        s = a1 + a2
        return lam * (phi + phi.T - s[None, :] - s[:, None] + 2.0 * q)

    return Coupling("efficient", lam, ev, de, grid)


def coupling_potential(grid: Grid, kernel: Callable | None = None,
                       lam: float = 1.0) -> Coupling:
    """F = derivative of (lam/2) int int k(x, y) m(dx) m(dy), k symmetric.

    By construction int F(x, m) m(dx) = 0 for every m, and the efficiency
    residual field equals -F(., m) identically.
    """
    k = _kernel_matrix(grid, kernel or kernel_cos_diff)
    k = 0.5 * (k + k.T)  # potential structure needs a symmetric kernel
    dx = grid.dx

    def ev(m):
        km = (k @ m) * dx
        q = float(m @ km) * dx
        return lam * (km - q)

    def de(m):
        km = (k @ m) * dx
        q = float(m @ km) * dx
        return lam * (k - 2.0 * km[None, :] - km[:, None] + 2.0 * q)

    return Coupling("potential", lam, ev, de, grid)


def coupling_xfree(grid: Grid, profile: Callable | None = None,
                   profile_prime: Callable | None = None,
                   weight: Callable | None = None,
                   lam: float = 1.0) -> Coupling:
    """x-independent coupling F(m) = lam * g(int c(z) m(dz))."""
    g = profile or (lambda s: 0.5 * s**2)
    gp = profile_prime or (lambda s: s)
    c = np.asarray((weight or (lambda z: np.cos(TWO_PI * z)))(grid.xs()), dtype=float)
    dx = grid.dx
    ones = np.ones(grid.n)

    def ev(m):
        s = float(c @ m) * dx
        return lam * g(s) * ones

    def de(m):
        s = float(c @ m) * dx
        row = lam * gp(s) * (c - s)
        return np.tile(row, (grid.n, 1))

    return Coupling("xfree", lam, ev, de, grid)


def kernel_cos_diff(x, y):
    return np.cos(TWO_PI * (x - y))


def kernel_cos_prod(x, y):
    return np.cos(TWO_PI * x) * np.cos(TWO_PI * y)


KERNELS = {"cos_diff": kernel_cos_diff, "cos_prod": kernel_cos_prod}

PROFILES = {
    "quadratic": (lambda s: 0.5 * s**2, lambda s: s),
    "linear": (lambda s: s, lambda s: 1.0),
}


def coupling_from_label(grid: Grid, label: str, lam: float = 1.0,
                        kernel: str = "cos_diff", profile: str = "quadratic",
                        weight: str = "cos") -> Coupling:
    """Catalog lookup used by the experiment harness and the demos."""
    if label == "zero":
        return coupling_zero(grid)
    if label == "convolution":
        return coupling_convolution(grid, KERNELS[kernel], lam)
    if label == "efficient":
        return coupling_efficient(grid, KERNELS[kernel], lam)
    if label == "potential":
        return coupling_potential(grid, KERNELS[kernel], lam)
    if label == "xfree":
        g, gp = PROFILES[profile]
        if weight != "cos":
            raise ValueError(f"unknown moment weight {weight!r}")
        return coupling_xfree(grid, g, gp, lam=lam)
    if label == "spatial_cos":
        return coupling_spatial(grid, lambda x: np.cos(TWO_PI * x), lam, "spatial_cos")
    raise ValueError(f"unknown coupling label {label!r}")


COUPLING_LABELS = ("zero", "convolution", "efficient", "potential", "xfree", "spatial_cos")


# ---------------------------------------------------------------------------
# measure-derivative checks and helpers
# ---------------------------------------------------------------------------

def convention_defect(coupling: Coupling, m: np.ndarray) -> float:
    """Max over base points of |int delta(x, m, .) dm| (should vanish)."""
    d = coupling.delta(m)
    return float(np.abs(d @ m * coupling.grid.dx).max())


def delta_m_fd_check(coupling: Coupling, m: np.ndarray, i: int, j: int,
                     s: float = 1e-7) -> float:
    """Finite-difference check of the measure derivative at one (x, y) pair.

    Compares delta(m)[i, j] minus its m-average (which re-applies the
    normalization convention) against the one-sided quotient
    (eval(x_i, (1-s) m + s delta_y) - eval(x_i, m)) / s, where delta_y is
    the grid delta of mass 1 (a single-cell spike of height 1/dx).
    Returns |lhs - rhs| / max(1, |lhs|, |rhs|), an error relative to the
    natural O(1) scale of the catalog couplings.
    """
    if not 0.0 < s <= 1e-3:
        raise ValueError(f"need 0 < s <= 1e-3, got {s}")
    grid = coupling.grid
    m = np.asarray(m, dtype=float)
    if m.min() <= 0.0:
        raise MassConservationError("degenerate density: FD check needs m > 0")
    row = coupling.delta(m)[i]
    lhs = row[j] - float(row @ m) * grid.dx
    m_pert = (1.0 - s) * m
    m_pert[j] += s / grid.dx
    rhs = (coupling.eval(m_pert)[i] - coupling.eval(m)[i]) / s
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def weighted_average(coupling: Coupling, m: np.ndarray) -> float:
    """int F(x, m) m(dx) -- the averaged coupling along m."""
    m = np.asarray(m, dtype=float)
    return float(coupling.eval(m) @ m) * coupling.grid.dx


def residual_field(coupling: Coupling, m: np.ndarray) -> np.ndarray:
    """The field y -> int dF/dm(x, m, y) m(dx) (quadrature over base points).

    Vanishes identically exactly when efficient equilibria exist from every
    start; it is both the efficiency residual and the source term of the
    planner optimality system.
    """
    m = np.asarray(m, dtype=float)
    return (m @ coupling.delta(m)) * coupling.grid.dx


def delta_ghat(terminal: TerminalCost, m: np.ndarray) -> np.ndarray:
    """Derivative field of m -> int G(x, m) m(dx) at m, evaluated on the grid.

    Equals int dG/dm(x, m, y) m(dx) + G(y, m) - int G dm, the terminal
    condition of the planner optimality system.
    """
    grid = terminal.grid
    m = np.asarray(m, dtype=float)
    g_field = terminal.eval(m)
    return residual_field(terminal, m) + g_field - float(g_field @ m) * grid.dx


# ---------------------------------------------------------------------------
# densities and problems
# ---------------------------------------------------------------------------

def density_uniform(grid: Grid) -> np.ndarray:
    return np.ones(grid.n)


def density_cosine(grid: Grid, amplitude: float = 0.5) -> np.ndarray:
    """1 + amplitude * cos(2 pi x); amplitude in (-1, 1) keeps it positive."""
    if not -1.0 < amplitude < 1.0:
        raise ValueError(f"amplitude {amplitude} does not keep the density positive")
    return 1.0 + amplitude * np.cos(TWO_PI * grid.xs())


def grid_delta(grid: Grid, j: int) -> np.ndarray:
    """Unit-mass single-cell spike at index j."""
    m = np.zeros(grid.n)
    m[j] = 1.0 / grid.dx
    return m


@dataclass(frozen=True)
class Problem:
    """Full model data: Hamiltonian, coupling F, terminal cost G, m0, grid."""

    hamiltonian: Hamiltonian
    coupling: Coupling
    terminal: TerminalCost
    m0: np.ndarray
    grid: Grid

    def __post_init__(self):
        object.__setattr__(self, "m0", check_density_slice(self.m0, self.grid))
        for c in (self.coupling, self.terminal):
            if c.grid != self.grid:
                raise ValueError(f"coupling {c.label!r} lives on a different grid")


def default_problem(grid: Grid, coupling: Coupling | None = None,
                    terminal: TerminalCost | None = None,
                    m0: np.ndarray | None = None) -> Problem:
    return Problem(
        hamiltonian=quadratic_hamiltonian(),
        coupling=coupling if coupling is not None else coupling_zero(grid),
        terminal=terminal if terminal is not None else coupling_zero(grid),
        m0=m0 if m0 is not None else density_cosine(grid, 0.5),
        grid=grid,
    )
