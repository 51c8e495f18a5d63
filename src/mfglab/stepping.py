"""Shared d=1 time-stepping kernels for the forward-backward solvers.

Conventions, used consistently by the equilibrium solver, the planner
system solver and the planner descent dynamics:

* u lives on time levels 0..nt; the backward step computes u[k] from
  u[k+1] with implicit diffusion and the Hamiltonian evaluated explicitly
  at the central gradient of u[k+1]; the coupling field is taken at the
  density slice of level k.
* m lives on time levels 0..nt; step k -> k+1 uses the drift slice k,
  implicit diffusion and an implicit conservative upwind flux on faces
  (face j sits between cells j-1 and j).  The resulting matrix is an
  M-matrix for any drift, so positivity holds unconditionally; the
  update is re-expressed in face-flux form so mass is conserved to
  round-off regardless of the linear-solve residual.
* Periodic neighbours come from ``grids.shift_prev``/``shift_next``
  (slicing into a new array), never ``np.roll``.

Batches.  ``upwind_bands``, ``fp_step`` and ``solve_periodic_tridiag``
also take a (B, n) stack: B independent drifts, densities or systems,
one per row, advanced together (the certificate moves all its h-samples
this way).  Row b of a batched result is bitwise the result of the
single call on row b.  Everything outside the linear solve is
elementwise.  The solve reduces each periodic system by Sherman-Morrison
to an open tridiagonal one and hands all B of them to a single LAPACK
``dgtsv`` call as one block-diagonal system of order B*n, whose lower
band is zero at the first row of every block and whose upper band is
zero at the last row.  Gaussian elimination then never mixes blocks: at
a block boundary the subdiagonal entry is 0, so the pivot test
|d| >= |0| keeps the row order and the multiplier 0/d adds nothing to
the next block, and a row interchange inside a block can only bring in
the zeroed entry at its edge.  Elimination and back substitution thus do
in each block exactly the arithmetic of the single solve.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import LinearSolveError, MassConservationError, TimeStepDivergenceError
from .grids import Grid, shift_next, shift_prev

MASS_DRIFT_RAISE = 1e-10  # larger drift than this indicates a scheme bug


def solve_periodic_tridiag(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                           rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs for A periodic tridiagonal.

    Band convention is "rolled": lower[i] = A[i, i-1] with lower[0] the
    corner A[0, n-1], and upper[i] = A[i, i+1] with upper[n-1] = A[n-1, 0].
    Uses the Sherman-Morrison rank-one reduction to an open tridiagonal
    system with two right-hand sides, solved by LAPACK dgtsv.  With (n,)
    bands, rhs may be (n,) or (n, k); with (B, n) bands, rhs is (B, n) and
    row b solves system b (see the module docstring).  Raises ValueError
    for non-finite bands or right-hand side and LinearSolveError when the
    system is singular or the solution is not finite.
    """
    # right-hand sides as rows: (k, n) for (n,) bands, (1, B, n) for (B, n) ones
    cols = rhs[None] if rhs.ndim == diag.ndim else rhs.T
    k = cols.shape[0]
    beta0 = lower[..., 0]   # A[0, n-1]
    betan = upper[..., -1]  # A[n-1, 0]
    gamma = -diag[..., 0]

    # one buffer holds the open bands, the right-hand sides and the
    # Sherman-Morrison column u = (gamma, 0, ..., 0, betan) of every block;
    # the band entries that would couple two blocks stay zero
    work = np.zeros((4 + k,) + diag.shape)
    dl, d, du, b = work[0], work[1], work[2], work[3:]
    dl[..., :-1] = lower[..., 1:]
    d[...] = diag
    d[..., 0] -= gamma
    d[..., -1] -= beta0 * betan / gamma
    du[..., :-1] = upper[..., :-1]
    b[:k] = cols
    b[k, ..., 0] = gamma
    b[k, ..., -1] = betan
    if not np.isfinite(work).all():
        raise ValueError("periodic tridiagonal system has non-finite bands or right-hand side")

    size = diag.size
    *_, sol, info = dgtsv(dl.reshape(size)[:-1], d.reshape(size), du.reshape(size)[:-1],
                          b.reshape(k + 1, size).T, 1, 1, 1, 1)
    if info > 0:
        raise LinearSolveError(f"banded solve failed: singular matrix (pivot {info})")
    sol = sol.T.reshape(b.shape)
    # v = (1, 0, ..., 0, beta0/gamma) applied to every column, y and z alike
    v = sol[..., 0] + (beta0 / gamma) * sol[..., -1]
    x = sol[:k] - sol[k] * (v[:k] / (1.0 + v[k]))[..., None]
    if not np.isfinite(x).all():
        raise LinearSolveError("periodic tridiagonal solve produced non-finite values")
    return x[0] if rhs.ndim == diag.ndim else x.T


def time_weights(grid: Grid) -> np.ndarray:
    """Trapezoidal weights on the time levels 0..nt."""
    w = np.full(grid.nt + 1, grid.dt)
    w[0] = w[-1] = 0.5 * grid.dt
    return w


# ---------------------------------------------------------------------------
# backward Hamilton-Jacobi-Bellman sweep
# ---------------------------------------------------------------------------

def hjb_backward_sweep(grid: Grid, hamiltonian, coupling_fields: np.ndarray,
                       terminal_field: np.ndarray,
                       source_fields: np.ndarray | None = None) -> np.ndarray:
    """Integrate -du/dt - lap u + h0(x, Du) - F = S backward from u(T).

    coupling_fields[k] is F(., m_k); source_fields[k] (optional) the extra
    right-hand side of the planner system.  Returns u on all levels.
    """
    n, nt, dt, dx = grid.n, grid.nt, grid.dt, grid.dx
    x = grid.xs()
    r = dt / dx**2
    lower = np.full(n, -r)
    diag = np.full(n, 1.0 + 2.0 * r)
    upper = np.full(n, -r)

    u = np.empty((nt + 1, n))
    u[nt] = terminal_field
    for k in range(nt - 1, -1, -1):
        du = (shift_next(u[k + 1]) - shift_prev(u[k + 1])) / (2.0 * dx)
        with np.errstate(over="ignore", invalid="ignore"):
            ham = hamiltonian.h0(x, du) - coupling_fields[k]
            if source_fields is not None:
                ham = ham - source_fields[k]
            rhs = u[k + 1] - dt * ham
        if not np.isfinite(rhs).all():
            du_max = float(np.abs(du[np.isfinite(du)]).max()) if np.any(np.isfinite(du)) else np.inf
            suggested = 0.5 * dx / max(du_max, 1.0)
            raise TimeStepDivergenceError(
                f"non-finite values at level {k}; the explicit Hamiltonian term "
                f"needs a smaller step (try dt <= {suggested:.3e})",
                suggested_dt=min(suggested, 0.5 * dt),
            )
        u[k] = solve_periodic_tridiag(lower, diag, upper, rhs)
    return u


def hjb_residual(grid: Grid, hamiltonian, u: np.ndarray, coupling_fields: np.ndarray,
                 source_fields: np.ndarray | None = None) -> float:
    """Sup-norm defect of the discrete backward equation over all steps."""
    nt, dx = grid.nt, grid.dx
    now, later = u[:nt], u[1:]
    du = (shift_next(later) - shift_prev(later)) / (2.0 * dx)
    lap = (shift_next(now) - 2.0 * now + shift_prev(now)) / dx**2
    res = ((now - later) / grid.dt - lap
           + hamiltonian.h0(grid.xs(), du) - coupling_fields[:nt])
    if source_fields is not None:
        res = res - source_fields[:nt]
    return float(np.abs(res).max())


# ---------------------------------------------------------------------------
# forward Fokker-Planck sweep (implicit upwind transport + diffusion)
# ---------------------------------------------------------------------------

def upwind_bands(grid: Grid, a_cells: np.ndarray):
    """Face drift, its upwind split and the bands of the forward step matrix.

    Returns (bf, bp, bm, lower, diag, upper): bf averages the cell drift
    onto faces (face j sits between cells j-1 and j), bp and bm are its
    positive and negative parts, and lower/diag/upper are the bands, in
    the convention of solve_periodic_tridiag, of the implicit step
    matrix, an M-matrix for any drift.  a_cells may be one slice (n,) or
    a stack (..., n) of slices.
    """
    r = grid.dt / grid.dx**2
    c = grid.dt / grid.dx
    bf = 0.5 * (shift_prev(a_cells) + a_cells)
    bp = np.maximum(bf, 0.0)
    bm = np.minimum(bf, 0.0)
    lower = -r - c * bp
    upper = -r + c * shift_next(bm)
    diag = 1.0 + 2.0 * r + c * (shift_next(bp) - bm)
    return bf, bp, bm, lower, diag, upper


def fp_step(grid: Grid, m: np.ndarray, a_cells: np.ndarray) -> np.ndarray:
    """One implicit step of dm/dt - lap m + div(m a) = 0 with cell drift a.

    Solves the M-matrix system, then rebuilds the update from face fluxes
    so the new slice has exactly the old mass up to round-off.  m and
    a_cells are one slice (n,) or a (B, n) stack stepped row by row.
    """
    dx = grid.dx
    c = grid.dt / dx
    _, bp, bm, lower, diag, upper = upwind_bands(grid, a_cells)
    m_t = solve_periodic_tridiag(lower, diag, upper, m)
    # total outgoing face flux: diffusive gradient minus upwind advective flux
    m_left = shift_prev(m_t)
    theta = (m_t - m_left) / dx - (bp * m_left + bm * m_t)
    m_new = m + c * (shift_next(theta) - theta)
    if not np.isfinite(m_new).all():
        raise TimeStepDivergenceError("non-finite density during forward step",
                                      suggested_dt=0.5 * grid.dt)
    return m_new


def check_mass_drift(grid: Grid, m: np.ndarray, target: float, step: int) -> None:
    """Raise if a slice (n,), or any row of a (B, n) stack, lost its mass.

    A drift beyond MASS_DRIFT_RAISE is a scheme bug, not a data error.
    """
    mass = m.sum(axis=-1) * grid.dx
    drifted = abs(mass - target) > MASS_DRIFT_RAISE
    if drifted.any():
        bad = np.extract(drifted, mass)[0]
        raise MassConservationError(f"mass drifted to {bad:.15f} at step {step}")


def fp_forward_sweep(grid: Grid, m0: np.ndarray, a_path: np.ndarray) -> np.ndarray:
    """Integrate the density forward from m0 under the drift path a_path.

    a_path has nt+1 (or nt) slices; slice k drives step k -> k+1.  Raises
    if per-slice mass drifts by more than 1e-10 (a scheme bug, not a data
    error).
    """
    nt = grid.nt
    m = np.empty((nt + 1, grid.n))
    m[0] = m0
    target = m0.sum() * grid.dx
    for k in range(nt):
        m[k + 1] = fp_step(grid, m[k], a_path[k])
        check_mass_drift(grid, m[k + 1], target, k + 1)
    return m


def fp_residual(grid: Grid, m: np.ndarray, a_path: np.ndarray) -> float:
    """Sup-norm defect of the discrete forward equation over all steps."""
    nt, dx = grid.nt, grid.dx
    now, later = m[:nt], m[1:]
    _, bp, bm, *_ = upwind_bands(grid, a_path[:nt])
    w = bp * shift_prev(later) + bm * later
    lap = (shift_next(later) - 2.0 * later + shift_prev(later)) / dx**2
    res = (later - now) / grid.dt - lap + (shift_next(w) - w) / dx
    return float(np.abs(res).max())
