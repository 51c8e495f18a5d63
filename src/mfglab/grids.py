"""Periodic space-time grids, discrete operators and quadrature.

Space is the flat torus discretized with n points per axis (spacing
dx = 1/n, index n wraps to 0).  Time is the uniform grid
t_k = t0 + k*dt, k = 0..nt.  Spatial fields are arrays of shape (n,)
in d=1 and (n, n) in d=2; vector fields carry a trailing axis of
length d.  All differential operators use central periodic stencils;
the forward-backward solvers keep their own upwind fluxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MassConservationError, ShapeMismatchError

EPS_MASS = 1e-12         # tolerated undershoot of a density below zero
MASS_SLICE_TOL = 1e-10   # tolerated deviation of per-slice mass from 1


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [t0, T] x torus^d."""

    n: int
    nt: int
    t0: float = 0.0
    T: float = 1.0
    d: int = 1
    dx: float = field(init=False)
    dt: float = field(init=False)

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {self.d}")
        if self.n < 4:
            raise ValueError(f"need n >= 4, got {self.n}")
        if self.nt < 4:
            raise ValueError(f"need nt >= 4, got {self.nt}")
        if not self.T > self.t0:
            raise ValueError(f"need T > t0, got t0={self.t0}, T={self.T}")
        object.__setattr__(self, "dx", 1.0 / self.n)
        object.__setattr__(self, "dt", (self.T - self.t0) / self.nt)

    @property
    def spatial_shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def cell_volume(self) -> float:
        return self.dx**self.d

    def xs(self) -> np.ndarray:
        """Cell coordinates along one axis (same for every axis)."""
        return np.arange(self.n) * self.dx

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.nt + 1) * self.dt

    def check_field(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != self.spatial_shape:
            raise ShapeMismatchError(
                f"field shape {f.shape} does not match grid {self.spatial_shape}"
            )
        return f

    def check_vector_field(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != self.spatial_shape + (self.d,):
            raise ShapeMismatchError(
                f"vector field shape {v.shape}, expected {self.spatial_shape + (self.d,)}"
            )
        return v


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ScalarPath:
    """Real field on the space-time grid, indexed (time level, grid point)."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        expect = (self.grid.nt + 1,) + self.grid.spatial_shape
        if v.shape != expect:
            raise ShapeMismatchError(f"path shape {v.shape}, expected {expect}")
        if not np.all(np.isfinite(v)):
            raise ValueError("path contains non-finite entries")
        object.__setattr__(self, "values", _frozen(v))

    def slice(self, k: int) -> np.ndarray:
        return self.values[k]


@dataclass(frozen=True)
class VectorPath:
    """Vector field on the space-time grid, indexed (time level, grid point, axis)."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        expect = (self.grid.nt + 1,) + self.grid.spatial_shape + (self.grid.d,)
        if v.shape != expect:
            raise ShapeMismatchError(f"vector path shape {v.shape}, expected {expect}")
        if not np.all(np.isfinite(v)):
            raise ValueError("vector path contains non-finite entries")
        object.__setattr__(self, "values", _frozen(v))

    def slice(self, k: int) -> np.ndarray:
        return self.values[k]


class DensityPath(ScalarPath):
    """ScalarPath that is a probability density at every time level.

    Violations are reported (raised), never silently renormalized.
    """

    def __post_init__(self):
        super().__post_init__()
        v = self.values
        if v.min() < -EPS_MASS:
            k, = np.unravel_index([v.argmin()], v.shape)[0][:1]
            raise MassConservationError(
                f"density has negative entries (min {v.min():.3e} at slice {int(k)})"
            )
        masses = v.reshape(v.shape[0], -1).sum(axis=1) * self.grid.cell_volume
        err = np.abs(masses - 1.0)
        if err.max() > MASS_SLICE_TOL:
            k = int(err.argmax())
            raise MassConservationError(
                f"slice {k} has mass {masses[k]:.15f} (error {err.max():.3e})"
            )


def check_density_slice(m: np.ndarray, grid: Grid, tol: float = MASS_SLICE_TOL) -> np.ndarray:
    """Validate a single density slice (nonnegativity and unit mass)."""
    m = grid.check_field(m)
    if m.min() < -EPS_MASS:
        raise MassConservationError(f"density slice has min {m.min():.3e}")
    mass = m.sum() * grid.cell_volume
    if abs(mass - 1.0) > tol:
        raise MassConservationError(f"density slice has mass {mass:.15f}")
    return m


# ---------------------------------------------------------------------------
# periodic shifts along the last axis (plain slicing: np.roll's generic axis
# handling costs several times more on the short rows of the time loops)
# ---------------------------------------------------------------------------

def shift_prev(f: np.ndarray) -> np.ndarray:
    """out[..., i] = f[..., i-1], wrapping periodically (np.roll(f, 1, axis=-1))."""
    out = np.empty_like(f)
    out[..., 1:] = f[..., :-1]
    out[..., 0] = f[..., -1]
    return out


def shift_next(f: np.ndarray) -> np.ndarray:
    """out[..., i] = f[..., i+1], wrapping periodically (np.roll(f, -1, axis=-1))."""
    out = np.empty_like(f)
    out[..., :-1] = f[..., 1:]
    out[..., -1] = f[..., 0]
    return out


# ---------------------------------------------------------------------------
# differential operators (central, periodic; exact on constants)
# ---------------------------------------------------------------------------

def gradient(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Central periodic gradient, one component per axis."""
    f = grid.check_field(f)
    out = np.empty(f.shape + (grid.d,))
    for ax in range(grid.d):
        out[..., ax] = (np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax)) / (2 * grid.dx)
    return out


def laplacian(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Standard (2d+1)-point periodic Laplacian."""
    f = grid.check_field(f)
    out = np.zeros_like(f)
    for ax in range(grid.d):
        out += np.roll(f, -1, axis=ax) - 2.0 * f + np.roll(f, 1, axis=ax)
    return out / grid.dx**2


def divergence(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Central periodic divergence of a vector field."""
    v = grid.check_vector_field(v)
    out = np.zeros(grid.spatial_shape)
    for ax in range(grid.d):
        comp = v[..., ax]
        out += (np.roll(comp, -1, axis=ax) - np.roll(comp, 1, axis=ax)) / (2 * grid.dx)
    return out


def integrate(f: np.ndarray, grid: Grid) -> float:
    """Torus quadrature sum(f) * dx^d (trapezoid = rectangle on a periodic grid)."""
    f = grid.check_field(f)
    return float(f.sum() * grid.cell_volume)


# ---------------------------------------------------------------------------
# flux reconstruction for the perturbation certificate (d = 1)
# ---------------------------------------------------------------------------

def reconstruct_flux_1d(mu: ScalarPath, grid: Grid, mean_tol: float = 1e-9) -> VectorPath:
    """Build beta with d/dt mu - lap mu + d/dx beta = 0 in the discrete sense.

    The time derivative is the forward difference (mu[k+1]-mu[k])/dt and the
    spatial divergence is the forward difference (beta[i+1]-beta[i])/dx, so
    beta is the (negative) cumulative sum of the residual d/dt mu - lap mu
    along x.  The sum closes periodically because every mu slice has zero
    mean; beta is gauge-fixed to zero spatial mean.  The last time level
    copies the one before it (no step leaves T).
    """
    if grid.d != 1:
        raise ValueError("flux reconstruction is implemented for d=1 only")
    if mu.grid is not grid and mu.grid != grid:
        raise ShapeMismatchError("mu lives on a different grid")
    v = mu.values
    means = v.sum(axis=1) * grid.dx
    if np.abs(means).max() > mean_tol:
        k = int(np.abs(means).argmax())
        raise ValueError(
            f"mu slice {k} has nonzero mean {means[k]:.3e} (tol {mean_tol:.1e})"
        )
    beta = np.zeros((grid.nt + 1, grid.n, 1))
    for k in range(grid.nt):
        lap = (shift_next(v[k]) - 2.0 * v[k] + shift_prev(v[k])) / grid.dx**2
        r = (v[k + 1] - v[k]) / grid.dt - lap
        r = r - r.mean()  # kill round-off so the periodic wrap is exact
        b = -grid.dx * np.concatenate(([0.0], np.cumsum(r[:-1])))
        beta[k, :, 0] = b - b.mean()
    beta[grid.nt] = beta[grid.nt - 1]
    return VectorPath(beta, grid)


def continuity_residual_1d(mu: ScalarPath, beta: VectorPath, grid: Grid) -> float:
    """Sup-norm residual of d/dt mu - lap mu + d/dx beta over all steps.

    Uses the same discrete operators as reconstruct_flux_1d (forward
    differences in time and for the flux divergence).
    """
    v, b = mu.values, beta.values[..., 0]
    worst = 0.0
    for k in range(grid.nt):
        lap = (shift_next(v[k]) - 2.0 * v[k] + shift_prev(v[k])) / grid.dx**2
        div = (shift_next(b[k]) - b[k]) / grid.dx
        res = (v[k + 1] - v[k]) / grid.dt - lap + div
        worst = max(worst, float(np.abs(res).max()))
    return worst


# ---------------------------------------------------------------------------
# circular 1-Wasserstein distance (d = 1)
# ---------------------------------------------------------------------------

def w1_distance_1d(m1: np.ndarray, m2: np.ndarray, grid: Grid) -> float:
    """Monge-Kantorovich distance between two density slices on the circle.

    Classical reduction: with D the cumulative difference of the densities,
    the circular W1 distance is min_c int |D - c| dx, attained at the median
    of D.
    """
    if grid.d != 1:
        raise ValueError("w1_distance_1d needs d=1")
    m1 = grid.check_field(m1)
    m2 = grid.check_field(m2)
    mass1, mass2 = m1.sum() * grid.dx, m2.sum() * grid.dx
    if abs(mass1 - mass2) > 1e-8:
        raise MassConservationError(
            f"mass mismatch: {mass1:.12f} vs {mass2:.12f}"
        )
    cdf_diff = np.cumsum(m1 - m2) * grid.dx
    c = np.median(cdf_diff)
    return float(np.abs(cdf_diff - c).sum() * grid.dx)
