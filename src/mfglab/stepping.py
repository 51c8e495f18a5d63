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
also take a (B, n) stack, one drift, density or system per row,
advanced together (the certificate moves its h-samples this way); row b
of a batched result is bitwise the single call on row b.
``PeriodicTridiagLU`` reduces each periodic system by Sherman-Morrison
to an open tridiagonal one and factors all B of them by one LAPACK
``dgttrf`` call as a block-diagonal matrix of order B*n, whose bands are
zero where they would couple two blocks.  Elimination never mixes
blocks: at a block boundary the subdiagonal entry is 0, so the pivot
test |d| >= |0| keeps the row order and the multiplier 0/d adds nothing
to the next block, and a row interchange inside a block can only bring
in the zeroed entry at its edge.  A ``dgttrs`` solve of one block or of
the stack thus does exactly the arithmetic of eliminating that system
afresh.

Time loops.  The sweeps and the planner's adjoint factor every step
matrix before their loop; a step then only solves its row (``solve_row``)
and updates in place, into arrays allocated once per sweep.  The checks
run once per sweep, after the loop, and raise what a checked step
raises at the first failing one: type, message and suggested_dt.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import LinearSolveError, MassConservationError, TimeStepDivergenceError
from .grids import Grid, gradient, laplacian, shift_next, shift_prev

MASS_DRIFT_RAISE = 1e-10  # larger drift than this indicates a scheme bug


class PeriodicTridiagLU:
    """LU factors of a periodic tridiagonal matrix (n,) or stack (B, n).

    Bands as in solve_periodic_tridiag.  Construction does the
    Sherman-Morrison reduction, one dgttrf call and the solve of every
    rank-one column; it raises ValueError for non-finite bands and
    LinearSolveError for a singular system.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
        beta0 = lower[..., 0]   # A[0, n-1]
        betan = upper[..., -1]  # A[n-1, 0]
        gamma = -diag[..., 0]
        # the open bands and u = (gamma, 0, ..., 0, betan) of every block;
        # the band entries that would couple two blocks stay zero
        work = np.zeros((4,) + diag.shape)
        dl, d, du, u = work
        dl[..., :-1] = lower[..., 1:]
        d[...] = diag
        d[..., 0] -= gamma
        d[..., -1] -= beta0 * betan / gamma
        du[..., :-1] = upper[..., :-1]
        u[..., 0], u[..., -1] = gamma, betan
        if not np.isfinite(work).all():
            raise ValueError("periodic tridiagonal system has non-finite bands")
        self.shape, size, self.n = diag.shape, diag.size, diag.shape[-1]
        dl, d, du, u = work.reshape(4, size)
        # dgttrf writes the factors over dl, d and du
        *_, du2, ipiv, info = dgttrf(dl[:-1], d, du[:-1], 1, 1, 1)
        if info > 0:
            raise LinearSolveError(f"banded solve failed: singular matrix (pivot {info})")
        self._stack = (dl[:-1], d, du[:-1], du2, ipiv)
        self._z = z = dgttrs(*self._stack, u, overwrite_b=1)[0].reshape(-1, self.n)  # z overwrites u
        # v = (1, 0, ..., 0, beta0/gamma) applied to z
        self._ratio = np.reshape(beta0 / gamma, -1)
        self._denom = 1.0 + (z[:, 0] + self._ratio * z[:, -1])
        if not (np.isfinite(z).all() and np.isfinite(self._denom).all() and self._denom.all()):
            raise LinearSolveError("periodic tridiagonal system is singular (rank-one update)")

    @cached_property
    def _rows(self) -> list:
        """Each block's dgttrs factors, z, ratio and denom, sliced once."""
        (dl, d, du, du2, ipiv), n = self._stack, self.n
        ipiv = ipiv - np.arange(d.size, dtype=ipiv.dtype) // n * n  # pivots within each block
        return list(zip(*(sliding_window_view(f, n - cut)[::n]
                          for f, cut in ((dl, 1), (d, 0), (du, 1), (du2, 2), (ipiv, 0))),
                        self._z, self._ratio.tolist(), self._denom.tolist()))

    def solve_row(self, rhs: np.ndarray, row: int, out: np.ndarray) -> np.ndarray:
        """x for system ``row`` and rhs (n,), written into out (n,) unchecked:
        the time loops check once per sweep."""
        dl, d, du, du2, ipiv, z, ratio, denom = self._rows[row]
        return _sherman_morrison(dgttrs(dl, d, du, du2, ipiv, rhs)[0], z, ratio, denom, out)

    def solve(self, rhs: np.ndarray, row: int | None = None) -> np.ndarray:
        """solve_row, checked; without a row, x for every system, rhs of the
        bands' shape as in solve_periodic_tridiag."""
        shape = self.shape if row is None else (self.n,)
        if rhs.shape != shape:
            raise ValueError(f"right-hand side has shape {rhs.shape}, expected {shape}")
        if not np.isfinite(rhs).all():
            raise ValueError("periodic tridiagonal system has non-finite right-hand side")
        if row is not None:
            x = self.solve_row(rhs, row, np.empty(self.n))
        else:  # the system runs along axis 0 of y: (n, B)
            y = dgttrs(*self._stack, rhs.reshape(-1))[0].reshape(self._z.shape).T
            x = _sherman_morrison(y, self._z.T, self._ratio, self._denom, np.empty_like(y))
            x = x.T.reshape(rhs.shape)
        if not np.isfinite(x).all():
            raise LinearSolveError("periodic tridiagonal solve produced non-finite values")
        return x


def _sherman_morrison(y, z, ratio, denom, out: np.ndarray) -> np.ndarray:
    """out = y - z ((y[0] + ratio y[-1]) / denom): the periodic solution from
    the open one, y, with the system running along axis 0 of y and z."""
    np.multiply(z, (y[0] + ratio * y[-1]) / denom, out=out)
    return np.subtract(y, out, out=out)


def solve_periodic_tridiag(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                           rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs for A periodic tridiagonal: factor, then solve.

    Band convention is "rolled": lower[i] = A[i, i-1] with lower[0] the
    corner A[0, n-1], and upper[i] = A[i, i+1] with upper[n-1] = A[n-1, 0].
    rhs has the bands' shape, (n,) or (B, n), and row b of a stack solves
    system b.  Raises ValueError for non-finite bands or right-hand side
    and LinearSolveError when the system is singular or the solution is
    not finite.
    """
    return PeriodicTridiagLU(lower, diag, upper).solve(rhs)


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
    lu = PeriodicTridiagLU(np.full(n, -r), np.full(n, 1.0 + 2.0 * r), np.full(n, -r))

    u = np.empty((nt + 1, n))
    u[nt] = terminal_field
    rhs, ham = np.empty((nt, n)), np.empty(n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(nt - 1, -1, -1):
            np.subtract(hamiltonian.h0(x, gradient(u[k + 1], grid)), coupling_fields[k], out=ham)
            if source_fields is not None:
                ham -= source_fields[k]
            ham *= dt
            lu.solve_row(np.subtract(u[k + 1], ham, out=rhs[k]), 0, u[k])
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
            lu.solve(rhs[k], 0)
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
    _, bp, bm, lower, diag, upper = upwind_bands(grid, a_cells)
    m_t = solve_periodic_tridiag(lower, diag, upper, m)
    out, work = np.empty(m.shape), np.empty((2,) + m.shape)
    _flux_update(grid, m.T, m_t.T, bp.T, bm.T, out.T, work.swapaxes(1, -1))
    if not np.isfinite(out).all():
        raise TimeStepDivergenceError("non-finite density during forward step",
                                      suggested_dt=0.5 * grid.dt)
    return out


def _flux_update(grid: Grid, m: np.ndarray, m_t: np.ndarray, bp: np.ndarray,
                 bm: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """out = m advanced by the face fluxes of the implicit solution m_t (see
    fp_step).  The grid runs along axis 0 of every array, a slice (n,) or a
    transposed stack (n, B); work holds two scratch arrays like m."""
    dx = grid.dx
    m_left, theta = work
    # total outgoing face flux: diffusive gradient minus upwind advective flux
    m_left[1:], m_left[0] = m_t[:-1], m_t[-1]  # shift_prev(m_t)
    np.subtract(m_t, m_left, out=theta)
    theta /= dx
    m_left *= bp
    np.multiply(bm, m_t, out=out)
    m_left += out
    theta -= m_left
    # out = m + c (shift_next(theta) - theta)
    np.subtract(theta[1:], theta[:-1], out=out[:-1])
    out[-1] = theta[0] - theta[-1]
    out *= grid.dt / dx
    out += m


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
    lu = PeriodicTridiagLU(lower, diag, upper)
    m = np.empty((nt + 1, n))
    m[0] = m0
    m_t, work = np.empty(n), np.empty((2, n))  # see _flux_update
    target = m0.sum() * grid.dx
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(nt):
            lu.solve_row(m[k], k, m_t)
            _flux_update(grid, m[k], m_t, bp[k], bm[k], m[k + 1], work)
        # a non-finite solution makes the density of its step non-finite
        if (np.isfinite(m).all()
                and (abs(m[1:].sum(axis=-1) * grid.dx - target) <= MASS_DRIFT_RAISE).all()):
            return m
        for k in range(nt):  # fp_step repeats step k bitwise, with its checks
            check_mass_drift(grid, fp_step(grid, m[k], a_path[k]), target, k + 1)
    return m


def fp_residual(grid: Grid, m: np.ndarray, a_path: np.ndarray) -> float:
    """Sup-norm defect of the discrete forward equation over all steps."""
    nt, dx = grid.nt, grid.dx
    now, later = m[:nt], m[1:]
    _, bp, bm, *_ = upwind_bands(grid, a_path[:nt])
    w = bp * shift_prev(later) + bm * later
    res = (later - now) / grid.dt - laplacian(later, grid) + (shift_next(w) - w) / dx
    return float(np.abs(res).max())
