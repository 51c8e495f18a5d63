"""Periodic space-time grids and discrete operators.

Space is the circle discretized with n points (spacing dx = 1/n,
index n wraps to 0).  Time is the uniform grid t_k = t0 + k*dt,
k = 0..nt.  Spatial fields (densities, values, drifts, fluxes) are
arrays of shape (n,) and paths are arrays of shape (nt+1, n).
``gradient`` and ``laplacian`` are the only central stencils in the
package: they act along the last axis, so they take a slice, a path or
any stack of slices.  ``gradient`` takes ``central_difference`` of
ghost-padded rows (``ghost_pad``), which the backward sweep keeps.  The
forward solver keeps its own upwind fluxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MassConservationError, ShapeMismatchError

EPS_MASS = 1e-12         # tolerated undershoot of a density below zero
MASS_SLICE_TOL = 1e-10   # tolerated deviation of per-slice mass from 1
FLUX_MEAN_TOL = 1e-9     # largest slice mean reconstruct_flux_1d accepts


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [t0, T] x circle."""

    n: int
    nt: int
    t0: float = 0.0
    T: float = 1.0
    dx: float = field(init=False)
    dt: float = field(init=False)

    def __post_init__(self):
        for name in ("n", "nt"):
            if not getattr(self, name) >= 4:
                raise ValueError(f"{name}: need >= 4, got {getattr(self, name)}")
        if not self.T > self.t0:
            raise ValueError(f"T: need T > t0, got t0={self.t0}, T={self.T}")
        object.__setattr__(self, "dx", 1.0 / self.n)
        object.__setattr__(self, "dt", (self.T - self.t0) / self.nt)

    def xs(self) -> np.ndarray:
        """Cell coordinates."""
        return np.arange(self.n) * self.dx

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.nt + 1) * self.dt

    def check_field(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != (self.n,):
            raise ShapeMismatchError(f"field shape {f.shape} does not match grid ({self.n},)")
        return f


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
        expect = (self.grid.nt + 1, self.grid.n)
        if v.shape != expect:
            raise ShapeMismatchError(f"path shape {v.shape}, expected {expect}")
        if not np.all(np.isfinite(v)):
            raise ValueError("path contains non-finite entries")
        object.__setattr__(self, "values", _frozen(v))


class DensityPath(ScalarPath):
    """ScalarPath that is a probability density at every time level.

    Violations are reported (raised), never silently renormalized.
    """

    def __post_init__(self):
        super().__post_init__()
        v = self.values
        if v.min() < -EPS_MASS:
            k = v.argmin() // v.shape[1]
            raise MassConservationError(
                f"density has negative entries (min {v.min():.3e} at slice {k})"
            )
        masses = v.sum(axis=1) * self.grid.dx
        err = np.abs(masses - 1.0)
        if err.max() > MASS_SLICE_TOL:
            k = int(err.argmax())
            raise MassConservationError(
                f"slice {k} has mass {masses[k]:.15f} (error {err.max():.3e})"
            )


def check_density_slice(m: np.ndarray, grid: Grid) -> np.ndarray:
    """Validate a single density slice (nonnegativity and unit mass)."""
    m = grid.check_field(m)
    if not m.min() >= -EPS_MASS:  # also catches nan entries
        raise MassConservationError(f"density slice has min {m.min():.3e}")
    mass = m.sum() * grid.dx
    if abs(mass - 1.0) > MASS_SLICE_TOL:
        raise MassConservationError(f"density slice has mass {mass:.15f}")
    return m


# ---------------------------------------------------------------------------
# periodic neighbours along the last axis (plain slicing: np.roll costs several
# times more on short rows) and central periodic stencils (exact on constants)
# ---------------------------------------------------------------------------

def ghost_pad(f: np.ndarray) -> np.ndarray:
    """f (..., n) between periodic ghost cells: out (..., n + 2)."""
    out = np.empty(f.shape[:-1] + (f.shape[-1] + 2,), f.dtype)
    out[..., 1:-1] = f
    out[..., 0], out[..., -1] = f[..., -1], f[..., 0]
    return out


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


def _check_last_axis(f: np.ndarray, grid: Grid) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != (grid.n,):
        raise ShapeMismatchError(
            f"last axis of shape {f.shape} does not match grid ({grid.n},)")
    return f


def central_difference(p: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """Central first difference of ghost-padded rows p (..., n + 2), into out (..., n)."""
    out = np.subtract(p[..., 2:], p[..., :-2], out=out)
    return np.divide(out, 2.0 * dx, out=out)


def gradient(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Central periodic first difference of a slice, a path or a stack of slices."""
    return central_difference(ghost_pad(_check_last_axis(f, grid)), grid.dx)


def laplacian(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Three-point periodic Laplacian of a slice, a path or a stack of slices."""
    f = _check_last_axis(f, grid)
    return (shift_next(f) - 2.0 * f + shift_prev(f)) / grid.dx**2


# ---------------------------------------------------------------------------
# flux reconstruction for the perturbation certificate
# ---------------------------------------------------------------------------

def reconstruct_flux_1d(mu: ScalarPath, grid: Grid) -> ScalarPath:
    """Build beta with d/dt mu - lap mu + d/dx beta = 0 in the discrete sense.

    The time derivative is the forward difference (mu[k+1]-mu[k])/dt and the
    flux derivative d/dx beta is the forward difference (beta[i+1]-beta[i])/dx, so
    beta is the (negative) cumulative sum of the residual d/dt mu - lap mu
    along x.  The sum closes periodically because every mu slice has zero
    mean; beta is gauge-fixed to zero spatial mean.  The last time level
    copies the one before it (no step leaves T).  Raises ValueError when
    a slice mean exceeds FLUX_MEAN_TOL.
    """
    if mu.grid is not grid and mu.grid != grid:
        raise ShapeMismatchError("mu lives on a different grid")
    v = mu.values
    means = v.sum(axis=1) * grid.dx
    if np.abs(means).max() > FLUX_MEAN_TOL:
        k = int(np.abs(means).argmax())
        raise ValueError(
            f"mu slice {k} has nonzero mean {means[k]:.3e} (tol {FLUX_MEAN_TOL:.1e})"
        )
    r = (v[1:] - v[:-1]) / grid.dt - laplacian(v[:-1], grid)
    r = r - r.mean(axis=1, keepdims=True)  # kill round-off so the periodic wrap is exact
    b = np.zeros((grid.nt, grid.n))
    np.cumsum(r[:, :-1], axis=1, out=b[:, 1:])
    b *= -grid.dx
    beta = np.empty((grid.nt + 1, grid.n))
    beta[:-1] = b - b.mean(axis=1, keepdims=True)
    beta[grid.nt] = beta[grid.nt - 1]
    return ScalarPath(beta, grid)


def continuity_residual_1d(mu: ScalarPath, beta: ScalarPath, grid: Grid) -> float:
    """Sup-norm residual of d/dt mu - lap mu + d/dx beta over all steps.

    Uses the same discrete operators as reconstruct_flux_1d (forward
    differences in time and for d/dx beta).
    """
    v, b = mu.values, beta.values[:-1]
    div = (shift_next(b) - b) / grid.dx
    res = (v[1:] - v[:-1]) / grid.dt - laplacian(v[:-1], grid) + div
    return float(np.abs(res).max())

