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
  (slicing into a new array) or from ghost-padded rows, never ``np.roll``.

Batches.  ``upwind_bands``, ``fp_step`` and ``solve_periodic_tridiag``
also take a (B, n) stack, one drift, density or system per row, advanced
together (the certificate moves its h-samples this way); row b of a
batched result is bitwise the single call on row b.  ``_reduce`` turns
the B periodic systems by Sherman-Morrison into one open block-diagonal
matrix of order B*n (zero bands between blocks), which
``solve_periodic_tridiag``, the one checked solve, eliminates by one
LAPACK ``dgtsv`` call on [rhs | u], and ``factor_rows`` factors once
by ``dgttrf`` into one row per block, each solved by ``dgttrs`` with
the same arithmetic.  Elimination never mixes blocks: at a block
boundary the subdiagonal entry is 0, so the pivot test |d| >= |0| keeps
the row order and the multiplier 0/d adds nothing to the next block,
and a row interchange inside a block can only bring in the zeroed entry
at its edge.  A solve of one block or of the stack thus does exactly the
arithmetic of eliminating that system afresh.

Time loops.  The three sweeps (forward, HJB, the planner's adjoint, which
builds its bands from the drift and returns the drift sensitivity through
the upwind face flux) factor every step matrix before their loop; a step
then solves its row in one form, ``_sherman_morrison(dgttrs(*factors,
rhs)[0], z, ratio, denom, out)`` on a row of ``factor_rows``, and updates
in place.  The checks run once per sweep; a failing sweep replays its
steps through the checked solve (the forward one through ``fp_step``)
and raises as a checked step does at the first failing one.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

from .errors import LinearSolveError, MassConservationError, TimeStepDivergenceError
from .grids import Grid, central_difference, gradient, laplacian, shift_next, shift_prev

MASS_DRIFT_RAISE = 1e-10  # larger drift than this indicates a scheme bug


def _reduce(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, nrhs: int):
    """Each block A = A' + u v^T, u = (gamma, 0.., betan), v = (1, 0.., ratio):
    the stacked open bands dl, d, du of A', the Fortran columns [0 | u] (nrhs
    zeros) and ratio (B,); gamma = -diag[0], or the scale of row 0 if that is 0."""
    beta0, betan = lower[..., 0], upper[..., -1]  # A[0, n-1], A[n-1, 0]
    d0, row0 = diag[..., 0], np.abs(beta0) + np.abs(upper[..., 0])
    gamma = -np.where(d0 != 0.0, d0, np.where(row0 != 0.0, row0, 1.0))
    work = np.zeros((4 + nrhs, diag.size))
    dl, d, du, *_, u = work.reshape((4 + nrhs,) + diag.shape)
    dl[..., :-1] = lower[..., 1:]
    d[...] = diag
    d[..., 0] -= gamma
    d[..., -1] -= beta0 * betan / gamma
    du[..., :-1] = upper[..., :-1]
    u[..., 0], u[..., -1] = gamma, betan
    if not np.isfinite(work).all():
        raise ValueError("periodic tridiagonal system has non-finite bands")
    return work[0], work[1], work[2], work[3:].T, np.reshape(beta0 / gamma, -1)


def _denominator(z: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """1 + v^T z of every block of z (B, n), checked nonzero and finite."""
    denom = 1.0 + (z[:, 0] + ratio * z[:, -1])
    if not (np.isfinite(z).all() and np.isfinite(denom).all() and denom.all()):
        raise LinearSolveError("periodic tridiagonal system is singular (rank-one update)")
    return denom


def _sherman_morrison(y, z, ratio, denom, out: np.ndarray) -> np.ndarray:
    """out = y - z ((y[0] + ratio y[-1]) / denom): the periodic solution from
    the open one, y, with the system running along axis 0 of y and z."""
    np.multiply(z, (y[0] + ratio * y[-1]) / denom, out)
    return np.subtract(y, out, out)


def factor_rows(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> list:
    """LU factors of a periodic tridiagonal matrix (n,) or stack (B, n), one row per block.

    Bands as in solve_periodic_tridiag; a row is its block's (dgttrs factors, z, ratio,
    denom).  Raises ValueError for non-finite bands, LinearSolveError for a singular system.
    """
    dl, d, du, u, ratio = _reduce(lower, diag, upper, 0)
    n = diag.shape[-1]
    # dgttrf writes the factors over dl, d and du
    *_, du2, ipiv, info = dgttrf(dl[:-1], d, du[:-1], 1, 1, 1)
    if info > 0:
        raise LinearSolveError(f"banded solve failed: singular matrix (pivot {info})")
    z = dgttrs(dl[:-1], d, du[:-1], du2, ipiv, u, overwrite_b=1)[0].reshape(-1, n)  # over u
    denom = _denominator(z, ratio)
    ipiv = ipiv - np.arange(d.size, dtype=ipiv.dtype) // n * n  # pivots within each block
    # block b of every band starts at entry b * n: one strided view per band
    views = (np.ndarray((d.size // n, n - cut), f.dtype, f, 0, (n * f.itemsize, f.itemsize))
             for f, cut in ((dl, 1), (d, 0), (du, 1), (du2, 2), (ipiv, 0)))
    return list(zip(zip(*views), z, ratio.tolist(), denom.tolist()))


def solve_periodic_tridiag(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                           rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs, A periodic tridiagonal, by one dgtsv call: the checked solve.

    Band convention is "rolled": lower[i] = A[i, i-1] with lower[0] the
    corner A[0, n-1], and upper[i] = A[i, i+1] with upper[n-1] = A[n-1, 0].
    rhs has the bands' shape, (n,) or (B, n), and row b of a stack solves
    system b.  Raises ValueError for non-finite bands or right-hand side
    and LinearSolveError when the system is singular or the solution is
    not finite.
    """
    dl, d, du, cols, ratio = _reduce(lower, diag, upper, 1)
    if rhs.shape != diag.shape:
        raise ValueError(f"right-hand side has shape {rhs.shape}, expected {diag.shape}")
    if not np.isfinite(rhs).all():
        raise ValueError("periodic tridiagonal system has non-finite right-hand side")
    cols[:, 0] = rhs.reshape(-1)
    *_, x, info = dgtsv(dl[:-1], d, du[:-1], cols, 1, 1, 1, 1)
    if info > 0:
        raise LinearSolveError(f"banded solve failed: singular matrix (pivot {info})")
    y, z = x.T.reshape(2, -1, diag.shape[-1])
    x = _sherman_morrison(y.T, z.T, ratio, _denominator(z, ratio), np.empty_like(y.T)).T
    if not np.isfinite(x).all():
        raise LinearSolveError("periodic tridiagonal solve produced non-finite values")
    return x.reshape(rhs.shape)


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
    bands = (np.full(n, -r), np.full(n, 1.0 + 2.0 * r), np.full(n, -r))
    (factors, z, ratio, denom), = factor_rows(*bands)

    padded = np.empty((nt + 1, n + 2))  # ghost-padded levels (grids.ghost_pad)
    padded[nt, 1:-1] = terminal_field
    rhs, ham, g = np.empty((nt, n)), np.empty(n), np.empty(n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(nt - 1, -1, -1):
            later = padded[k + 1]
            later[0], later[-1] = later[-2], later[1]
            np.subtract(hamiltonian.h0(x, central_difference(later, dx, g)), coupling_fields[k], ham)
            if source_fields is not None:
                ham -= source_fields[k]
            ham *= dt
            np.subtract(later[1:-1], ham, rhs[k])
            _sherman_morrison(dgttrs(*factors, rhs[k])[0], z, ratio, denom, padded[k, 1:-1])
        u = padded[:, 1:-1]
        if np.isfinite(rhs).all() and np.isfinite(u).all():
            return u
        for k in range(nt - 1, -1, -1):  # the first failing level raises
            if not np.isfinite(rhs[k]).all():
                du = gradient(u[k + 1], grid)
                du = np.abs(du[np.isfinite(du)])
                suggested = 0.5 * dx / max(float(du.max()) if du.size else np.inf, 1.0)
                raise TimeStepDivergenceError(
                    f"non-finite values at level {k}; the explicit Hamiltonian term "
                    f"needs a smaller step (try dt <= {suggested:.3e})",
                    suggested_dt=min(suggested, 0.5 * dt),
                )
            solve_periodic_tridiag(*bands, rhs[k])
    return u


def hjb_residual(grid: Grid, hamiltonian, u: np.ndarray, coupling_fields: np.ndarray,
                 source_fields: np.ndarray | None = None) -> float:
    """Sup-norm defect of the discrete backward equation over all steps."""
    nt = grid.nt
    now, later = u[:nt], u[1:]
    res = ((now - later) / grid.dt - laplacian(now, grid)
           + hamiltonian.h0(grid.xs(), gradient(later, grid)) - coupling_fields[:nt])
    if source_fields is not None:
        res = res - source_fields[:nt]
    return float(np.abs(res).max())


# ---------------------------------------------------------------------------
# forward Fokker-Planck sweep (implicit upwind transport + diffusion) and its adjoint
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
    _, bp, bm, lower, diag, upper = upwind_bands(grid, a_cells)
    m_t, update = _flux_update(grid, m.T.shape)
    m_t[...] = solve_periodic_tridiag(lower, diag, upper, m).T
    out = np.empty(m.shape)
    update(m.T, bp.T, bm.T, out.T)
    if not np.isfinite(out).all():
        raise TimeStepDivergenceError("non-finite density during forward step",
                                      suggested_dt=0.5 * grid.dt)
    return out


def _flux_update(grid: Grid, shape: tuple):
    """(m_t, update): update(m, bp, bm, out) sets out = m advanced by the face
    fluxes of the implicit solution the caller writes into m_t (see fp_step).
    The grid runs along axis 0 of shape: a slice (n,) or a transposed stack (n, B)."""
    # 0-d operands and positional outs: the cheapest ufunc calls on short rows
    dx, c = np.array(grid.dx), np.array(grid.dt / grid.dx)
    padded, theta, adv = np.empty((3, shape[0] + 1) + shape[1:])  # m_t behind a ghost; scratch
    m_left, m_t, flux, theta_next, adv = padded[:-1], padded[1:], theta[:-1], theta[1:], adv[:-1]

    def update(m, bp, bm, out):
        padded[0] = padded[-1]
        # total outgoing face flux: diffusive gradient minus upwind advective flux
        np.divide(np.subtract(m_t, m_left, flux), dx, flux)
        np.multiply(m_left, bp, adv)
        np.add(adv, np.multiply(bm, m_t, out), adv)
        np.subtract(flux, adv, flux)
        # out = m + c (shift_next(flux) - flux), with flux's ghost behind it
        theta[-1] = theta[0]
        np.multiply(np.subtract(theta_next, flux, out), c, out)
        np.add(out, m, out)

    return m_t, update


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

    a_path has nt+1 (or nt) slices; slice k drives step k -> k+1 as in
    fp_step, with all nt step matrices factored before the loop.  Raises
    if per-slice mass drifts by more than 1e-10 (a scheme bug, not a data
    error).
    """
    n, nt = grid.n, grid.nt
    _, bp, bm, lower, diag, upper = upwind_bands(grid, a_path[:nt])
    rows = factor_rows(lower, diag, upper)
    m = np.empty((nt + 1, n))
    m[0] = m0
    m_t, update = _flux_update(grid, (n,))
    target = m0.sum() * grid.dx
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for m_k, m_next, bp_k, bm_k, (factors, z, ratio, denom) in zip(m, m[1:], bp, bm, rows):
            _sherman_morrison(dgttrs(*factors, m_k)[0], z, ratio, denom, m_t)
            update(m_k, bp_k, bm_k, m_next)
        # a non-finite solution makes the density of its step non-finite
        if (np.isfinite(m).all()
                and (abs(m[1:].sum(axis=-1) * grid.dx - target) <= MASS_DRIFT_RAISE).all()):
            return m
        for k in range(nt):  # fp_step repeats step k bitwise, with its checks
            check_mass_drift(grid, fp_step(grid, m[k], a_path[k]), target, k + 1)
    return m


def adjoint_sweep(grid: Grid, a_path: np.ndarray, m: np.ndarray,
                  rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The planner's adjoint: the multipliers of the forward steps, swept backward.

    A_k are the step matrices of m, the forward sweep under a_path.  From k = nt - 1
    down, lam_path[k + 1] solves A_k^T lam = rhs[k] + lam_path[k + 2] (0 past level nt),
    the sum overwriting rhs[k]; level 0, which no step produces, copies level 1.  Returns
    (sensitivity, lam_path), sensitivity[k] (nt, n) the derivative in a_path[k] of
    lam_path[k + 1] . (m[k] - A_k m[k + 1]) at fixed m: the drift's part of the gradient.
    """
    n, nt, dx = grid.n, grid.nt, grid.dx
    bf, _, _, lower, diag, upper = upwind_bands(grid, a_path[:nt])
    # transpose of every step matrix: swap and shift the bands
    lower_t, upper_t = shift_prev(upper), shift_next(lower)
    rows = factor_rows(lower_t, diag, upper_t)
    lam_path = np.empty((nt + 1, n))
    lam = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, (factors, z, ratio, denom) in zip(range(nt - 1, -1, -1), reversed(rows)):
            rhs[k] += lam  # step k's source plus the multiplier of level k + 2
            lam = _sherman_morrison(dgttrs(*factors, rhs[k])[0], z, ratio, denom, lam_path[k + 1])
        if not (np.isfinite(rhs).all() and np.isfinite(lam_path[1:]).all()):
            for k in range(nt - 1, -1, -1):  # the first failing step raises
                solve_periodic_tridiag(lower_t[k], diag[k], upper_t[k], rhs[k])
    lam_path[0] = lam_path[1]
    del rows, factors, z, lower_t, upper_t  # freed before the face-flux temporaries
    dl = (lam_path[1:] - shift_prev(lam_path[1:])) / dx
    m_next = m[1:]
    m_left = shift_prev(m_next)
    h_face = np.where(bf > 0.0, m_left,
                      np.where(bf < 0.0, m_next, 0.5 * (m_left + m_next)))
    t_face = dl * h_face
    return 0.5 * grid.dt * (t_face + shift_next(t_face)), lam_path


def fp_residual(grid: Grid, m: np.ndarray, a_path: np.ndarray) -> float:
    """Sup-norm defect of the discrete forward equation over all steps."""
    nt, dx = grid.nt, grid.dx
    now, later = m[:nt], m[1:]
    _, bp, bm, *_ = upwind_bands(grid, a_path[:nt])
    w = bp * shift_prev(later) + bm * later
    res = (later - now) / grid.dt - laplacian(later, grid) + (shift_next(w) - w) / dx
    return float(np.abs(res).max())
