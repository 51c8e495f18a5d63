"""Hamiltonians, coupling functions and their measure derivatives.

Couplings F(x, m) and terminal costs G(x, m) share one representation: a
label, a vectorized evaluation m -> field over grid points, and the
kernel of the linear functional derivative as a matrix

    delta(m)[i, j] = dF/dm(x_i, m, y_j),

normalized so that sum_j delta(m)[i, j] m_j dx = 0 for every i (the
zero-mean convention for derivatives of functions of a probability
measure).  The argument order is fixed once and for all: first index is
the base point of F, second the direction of differentiation.

Each catalog coupling forms the kernel products of m once per call and
derives from them the field F(., m), the residual field (m @ delta(m))
dx in closed form (the convolution's exact one excepted, see below), and
for one slice the dense delta(m), one expression.  One rule prices every
product (kernel_products): an exact product of a (K, n) stack, each row
bit for bit its one-slice gemv, and any 1-D slice take the dense kernel;
every other stack takes the kernel's factor, phi = u u^T with u of rank
2 for cos_diff and 1 for cos_prod (KERNEL_FACTORS), in O(K n r) rather
than O(K n^2), within round-off of the dense product.  A callable kernel
outside the catalog has the factor pair (phi, identity): one dense gemm.
The equilibrium's fields, planner_cost and the planner descent take the
exact product, so they keep the rounding of one product per slice: the
iteration counts follow it, and the benchmark pins them.  The potential
alone takes the factor even then: its F drops out of the objective
(int F m = 0) and of the adjoint source ((1 - 2M) F = -F), so no count
follows its rounding.  The descent's residual fields are the closed
forms on those products, but the convolution's: every rounding of its
closed form (a second product, m @ phi) moved the pinned counts, so it
contracts delta(m) row block by row block (_dense_residual).  The
planner system, the residual helpers, the report and the certificate
take the factor (Coupling._path_terms), with no n x n matrix.

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
from scipy.linalg.blas import dgemv, dger

from .errors import MassConservationError
from .grids import Grid, _check_last_axis, check_density_slice

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


def quadratic_hamiltonian() -> Hamiltonian:
    """h0 = |p|^2/2, dp_h0 = p, l0 = |a|^2/2 (uniform convexity constant 1)."""
    return Hamiltonian(
        h0=lambda x, p: 0.5 * p**2,
        dp_h0=lambda x, p: p,
        l0=lambda x, a: 0.5 * a**2,
        da_l0=lambda x, a: a,
    )


HAMILTONIANS = {"quadratic": quadratic_hamiltonian}


# ---------------------------------------------------------------------------
# couplings / terminal costs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Coupling:
    """A function of (x, m) with its normalized measure derivative.

    Serves both as running coupling F and as terminal cost G.  A density
    slice or a (K, n) stack m costs one call of _slice(m, exact): it forms
    the kernel products of m once (kernel_products) and returns
    (F(., m), delta, residual).  residual() gives the residual field
    (m @ delta(m)) dx of every row in closed form from those products;
    the convolution's with exact is the dense contraction, bit for bit.
    For a 1-D m, delta() is the n x n matrix delta(m) [base point,
    direction], one expression on those products.  Both are None when the
    derivative vanishes.  eval(m) returns the field; for a stack the
    (K, n) fields, through the kernel's factor, each row within round-off
    of the row's own eval, or with exact (but the potential's) each row
    bit for bit eval(m[k]); a 1-D m takes the dense gemv either way.
    eval and _path_terms take m with the grid's last axis, delta(m) one
    slice, else ShapeMismatchError; delta(m) is the dense reference of
    the convention and finite-difference checks.  A Coupling holds no
    state between calls.
    """

    label: str
    _slice: Callable[..., tuple[np.ndarray, Callable | None, Callable | None]]
    grid: Grid

    def eval(self, m: np.ndarray, exact: bool = False) -> np.ndarray:
        return self._slice(_check_last_axis(m, self.grid), exact)[0]

    def delta(self, m: np.ndarray) -> np.ndarray:
        dense = self._slice(self.grid.check_field(m), False)[1]
        return np.zeros((self.grid.n, self.grid.n)) if dense is None else dense()

    def _path_terms(self, m: np.ndarray,
                    exact: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Fields and residual fields of every row of the (K, n) stack m.

        The kernel products of the whole stack at once, through the
        kernel's factor, and no n x n matrix: row k is eval(m[k]) and
        (m[k] @ delta(m[k])) dx up to round-off, and a vanishing
        derivative gives an exact zero residual.  With exact, each field
        but the potential's is bit for bit eval(m[k]), and the
        convolution's residual too.
        """
        m = _check_last_axis(m, self.grid)
        fields, _, residual = self._slice(m, exact)
        return fields, np.zeros_like(m) if residual is None else residual()


DENSE_BLOCK = 32768  # entries of one kernel row block (256 KiB of float64)


def dense_block_rows(n: int) -> int:
    """Row height b of the kernel blocks: the exact products, the dense residual, the build.

    A multiple of 4 whose (b, n) block holds about DENSE_BLOCK entries,
    so the block stays in cache; b = n, a single block, when n is not a
    multiple of 4 or the whole matrix is that small.
    """
    if n % 4 or n * n <= DENSE_BLOCK:
        return n
    return max(4, DENSE_BLOCK // n // 4 * 4)


def kernel_products(kernel: np.ndarray, m: np.ndarray, exact: bool = False,
                    factor: np.ndarray | None = None) -> np.ndarray:
    """kernel @ m[k] for every row k of the (..., n) stack m.

    With exact, each row is bit for bit the one-slice gemv: one batched
    gemv per dense_block_rows(n) row block of the kernel, so each block
    stays in cache for every row.  OpenBLAS's gemv takes each output in
    the same order in any 4-row-aligned block (TestExactStackedProduct).
    A transpose takes one block: its row blocks, column blocks of the
    matrix, run no faster than the whole.  A 1-D m takes the gemv itself.
    Any other stack takes the factor, kernel = factor @ factor.T, as
    (m @ factor) @ factor.T, each row within round-off of the gemv; with
    no factor, the pair (kernel, identity), it takes one gemm.  Only the
    convolution and the efficient coupling ask for exact (see the module).
    """
    if not exact:
        if factor is None or m.ndim == 1:
            return (kernel @ m.T).T
        return (m @ factor) @ factor.T
    n = kernel.shape[0]
    b = dense_block_rows(n) if kernel.flags.c_contiguous else n
    out = np.empty(m.shape)
    for r in range(0, n, b):
        np.matmul(kernel[r:r + b], m[..., None], out=out[..., r:r + b, None])
    return out


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for every row of the (..., n) stacks, each bit for bit a 1-D a @ b."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0][()]


def _kernel(grid: Grid, kernel: Callable | None) -> tuple[np.ndarray, np.ndarray | None]:
    """The kernel on the grid and its factor (KERNEL_FACTORS; None for a callable
    outside the catalog).  The matrix is built by dense_block_rows(n) row
    blocks, so that the kernel's temporaries are a block, not n x n."""
    kernel = kernel or kernel_cos_diff
    x = grid.xs()
    out = np.empty((grid.n, grid.n))
    b = dense_block_rows(grid.n)
    for r in range(0, grid.n, b):
        out[r:r + b] = kernel(x[r:r + b, None], x[None, :])
    factor = KERNEL_FACTORS.get(kernel)
    return out, None if factor is None else factor(x)


def _dense_residual(phi: np.ndarray, a1: np.ndarray, lam: float, m: np.ndarray,
                    dx: float) -> np.ndarray:
    """The convolution's (m[k] @ delta(m[k])) dx, bit for bit, for every row k of
    the (K, n) stack m, a1 its exact products times dx; no n x n matrix.

    Block by block, every level writes its rows of delta(m[k]) into one
    C-contiguous (b, n) workspace w, b = dense_block_rows(n), bit for bit
    lam * (phi - a1[k][:, None]): the kernel rows, then a dger on w.T
    (F-contiguous, so f2py writes in place) adding -1 * a1[k] x ones, whose
    products are exact: one rounding per entry, on any BLAS, with or without
    FMA; lam is skipped at 1 (x * 1.0 == x).  One dgemv with beta = 1 adds
    each block into the zeroed residual row; OpenBLAS's dgemv adds 4-row
    groups of W in turn, so the blocked sum is the single product bit for
    bit (TestBlockedContraction).
    """
    n = m.shape[-1]
    b = dense_block_rows(n)
    work, ones, residuals = np.empty((b, n)), np.ones(n), np.zeros_like(m)
    levels = list(zip(m, a1, residuals))
    for r in range(0, n, b):
        w = work[:min(b, n - r)]
        phi_r, w_t = phi[r:r + b], w.T
        for m_k, a1_k, y in levels:
            np.copyto(w, phi_r)
            dger(-1.0, ones, a1_k[r:r + b], 1, 1, w_t, 1, 1, 1)  # incx, incy, a, overwrite_x, _y, _a
            if lam != 1.0:
                w *= lam
            dgemv(1.0, w_t, m_k[r:r + b], 1.0, y, overwrite_y=1)  # in place: y is a row
    residuals *= dx
    return residuals


def coupling_zero(grid: Grid) -> Coupling:
    return Coupling("zero", lambda m, exact=False: (np.zeros(m.shape), None, None), grid)


def coupling_spatial(grid: Grid, f: Callable[[np.ndarray], np.ndarray],
                     lam: float = 1.0, label: str = "spatial") -> Coupling:
    """m-independent coupling F(x, m) = lam * f(x); derivative vanishes."""
    values = lam * np.asarray(f(grid.xs()), dtype=float)
    return Coupling(label,
                    lambda m, exact=False: (np.broadcast_to(values, m.shape).copy(), None, None),
                    grid)


def coupling_convolution(grid: Grid, kernel: Callable | None = None,
                         lam: float = 1.0) -> Coupling:
    """F(x, m) = lam * int phi(x, y) m(dy)."""
    phi, u = _kernel(grid, kernel)
    dx = grid.dx

    def terms(m, exact=False):
        pm = kernel_products(phi, m, exact, u)
        a1 = pm * dx  # int phi(x, y) m(dy)

        def residual():  # lam * (a2 - int int phi m m), a2 = int phi(z, .) m(dz)
            if exact:  # the descent's stop follows this rounding (_dense_residual)
                return _dense_residual(phi, a1, lam, m, dx)
            a2 = kernel_products(phi.T, m, factor=u) * dx
            return lam * (a2 - row_dot(a1, m)[..., None] * dx)

        return lam * pm * dx, lambda: lam * (phi - a1[:, None]), residual

    return Coupling("convolution", terms, grid)


def coupling_efficient(grid: Grid, kernel: Callable | None = None,
                       lam: float = 1.0) -> Coupling:
    """Globally efficient coupling built from the quadratic functional
    lam * int int phi(z, y) m(dz) m(dy): F = functional + its derivative.

    Its derivative matrix satisfies sum_i delta[i, j] m_i dx = 0 for every
    direction j, which is the structure condition for a zero inefficiency
    gap from every start.
    """
    phi, u = _kernel(grid, kernel)
    dx = grid.dx

    def terms(m, exact=False):
        a1 = kernel_products(phi, m, exact, u) * dx    # int phi(x, y) m(dy)
        a2 = kernel_products(phi.T, m, exact, u) * dx  # int phi(z, x) m(dz)
        q = row_dot(m, a1) * dx                        # int int phi m m
        s = a1 + a2

        def residual():  # lam (1 - M) (s - 2 q), M the mass of m
            mass = m.sum(axis=-1) * dx
            return (lam * (1.0 - mass))[..., None] * (s - 2.0 * q[..., None])

        return (lam * (s - q[..., None]),
                lambda: lam * (phi + phi.T - s[None, :] - s[:, None] + 2.0 * q), residual)

    return Coupling("efficient", terms, grid)


def coupling_potential(grid: Grid, kernel: Callable | None = None,
                       lam: float = 1.0) -> Coupling:
    """F = derivative of (lam/2) int int k(x, y) m(dx) m(dy), k symmetric.

    By construction int F(x, m) m(dx) = 0 for every m, and the efficiency
    residual field equals -F(., m) identically.
    """
    k, u = _kernel(grid, kernel)  # a catalog factor's u u^T is symmetric already
    # potential structure needs a symmetric kernel; on a symmetric k,
    # 0.5 * (k + k.T) is k bit for bit, so the catalog kernels skip the copies
    if not np.array_equal(k, k.T):
        k = 0.5 * (k + k.T)
    dx = grid.dx

    def terms(m, exact=False):
        km = kernel_products(k, m, factor=u) * dx  # even with exact: F leaves the objective
        q = row_dot(m, km) * dx
        field = lam * (km - q[..., None])

        def residual():  # (1 - 2 M) F, M the mass of m
            return (1.0 - 2.0 * m.sum(axis=-1) * dx)[..., None] * field

        return field, lambda: lam * (k - 2.0 * km[None, :] - km[:, None] + 2.0 * q), residual

    return Coupling("potential", terms, grid)


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

    def terms(m, exact=False):
        s = row_dot(c, m) * dx

        def residual():  # M lam g'(s) (c - s), M the mass of m
            mass = m.sum(axis=-1) * dx
            return (mass * lam * gp(s))[..., None] * (c - s[..., None])

        return (np.multiply.outer(lam * g(s), ones),
                lambda: np.tile(lam * gp(s) * (c - s), (grid.n, 1)), residual)

    return Coupling("xfree", terms, grid)


def kernel_cos_diff(x, y):
    return np.cos(TWO_PI * (x - y))


def kernel_cos_prod(x, y):
    return np.cos(TWO_PI * x) * np.cos(TWO_PI * y)


KERNELS = {"cos_diff": kernel_cos_diff, "cos_prod": kernel_cos_prod}

# kernel -> its factor u on the grid points x, kernel(x, y) = u(x) @ u(y)
KERNEL_FACTORS = {
    kernel_cos_diff: lambda x: np.stack([np.cos(TWO_PI * x), np.sin(TWO_PI * x)], axis=-1),
    kernel_cos_prod: lambda x: np.cos(TWO_PI * x)[:, None],
}

PROFILES = {
    "quadratic": (lambda s: 0.5 * s**2, lambda s: s),
    "linear": (lambda s: s, lambda s: 1.0),
}


def coupling_from_label(grid: Grid, label: str, lam: float = 1.0,
                        kernel: str = "cos_diff", profile: str = "quadratic") -> Coupling:
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


def residual_field(coupling: Coupling, m: np.ndarray) -> np.ndarray:
    """The field y -> int dF/dm(x, m, y) m(dx) (quadrature over base points).

    Vanishes identically exactly when efficient equilibria exist from every
    start; it is both the efficiency residual and the source term of the
    planner optimality system.  Computed in closed form from one kernel
    product (Coupling._path_terms), it equals (m @ delta(m)) dx up to
    round-off.
    """
    m = np.asarray(m, dtype=float)
    return coupling._path_terms(m[None])[1][0]


def delta_ghat(terminal: Coupling, m: np.ndarray) -> np.ndarray:
    """Derivative field of m -> int G(x, m) m(dx) at m, evaluated on the grid.

    Equals int dG/dm(x, m, y) m(dx) + G(y, m) - int G dm, the terminal
    condition of the planner optimality system.
    """
    m = np.asarray(m, dtype=float)
    (g_field,), (r,) = terminal._path_terms(m[None])
    return r + g_field - float(g_field @ m) * terminal.grid.dx


# ---------------------------------------------------------------------------
# densities and problems
# ---------------------------------------------------------------------------

def density_uniform(grid: Grid) -> np.ndarray:
    return np.ones(grid.n)


def density_cosine(grid: Grid, amplitude: float = 0.5) -> np.ndarray:
    """1 + amplitude * cos(2 pi x); amplitude in (-1, 1) keeps it positive."""
    if not -1.0 < amplitude < 1.0:
        raise ValueError(f"amplitude: {amplitude} does not keep the density positive")
    return 1.0 + amplitude * np.cos(TWO_PI * grid.xs())


@dataclass(frozen=True)
class Problem:
    """Full model data: Hamiltonian, coupling F, terminal cost G, m0, grid."""

    hamiltonian: Hamiltonian
    coupling: Coupling
    terminal: Coupling
    m0: np.ndarray
    grid: Grid

    def __post_init__(self):
        object.__setattr__(self, "m0", check_density_slice(self.m0, self.grid))
        for c in (self.coupling, self.terminal):
            if c.grid != self.grid:
                raise ValueError(f"coupling {c.label!r} lives on a different grid")


def default_problem(grid: Grid, coupling: Coupling | None = None,
                    terminal: Coupling | None = None,
                    m0: np.ndarray | None = None) -> Problem:
    return Problem(
        hamiltonian=quadratic_hamiltonian(),
        coupling=coupling if coupling is not None else coupling_zero(grid),
        terminal=terminal if terminal is not None else coupling_zero(grid),
        m0=m0 if m0 is not None else density_cosine(grid, 0.5),
        grid=grid,
    )
