import numpy as np
import pytest

from mfglab import Grid, SolverParams, coupling_from_label, density_cosine, quadratic_hamiltonian
from mfglab.model import Problem, coupling_zero


@pytest.fixture
def grid32():
    return Grid(n=32, nt=16)


@pytest.fixture
def grid64():
    return Grid(n=64, nt=64)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def make_problem(grid: Grid, label: str = "zero", lam: float = 1.0,
                 amplitude: float = 0.5, terminal=None) -> Problem:
    return Problem(
        hamiltonian=quadratic_hamiltonian(),
        coupling=coupling_from_label(grid, label, lam=lam),
        terminal=terminal if terminal is not None else coupling_zero(grid),
        m0=density_cosine(grid, amplitude),
        grid=grid,
    )


def random_density(grid: Grid, rng: np.random.Generator, roughness: float = 0.5) -> np.ndarray:
    """Smooth positive density with exactly unit discrete mass."""
    x = grid.xs()
    m = np.ones(grid.n)
    for k in (1, 2, 3):
        m += roughness / k * (rng.uniform(-1, 1) * np.cos(2 * np.pi * k * x)
                              + rng.uniform(-1, 1) * np.sin(2 * np.pi * k * x))
    m = np.clip(m, 0.05, None)
    return m / (m.sum() * grid.dx)


# the labels whose descent residuals take the closed form of Coupling._path_terms
CLOSED_FORM_LABELS = ("efficient", "potential", "xfree")


def assert_descent_residuals(label: str, got: np.ndarray, dense: np.ndarray) -> None:
    """The descent's residuals against the dense (m @ delta(m)) dx: within 1e-12
    of its scale for a closed-form label, bit for bit for every other label."""
    if label in CLOSED_FORM_LABELS:
        assert np.all(np.abs(got - dense) <= 1e-12 * (1.0 + np.abs(dense).max()))
    else:
        assert np.array_equal(got, dense)


# the labels whose stacked kernel products take the catalog factor even with
# exact (model.coupling_potential), so a stack matches its slices within round-off
FACTOR_PRICED_LABELS = ("potential",)


def assert_matches_slices(label: str, got, expect) -> None:
    """A stacked result against its one-slice reference: bit for bit for an
    exact-priced label; for a factor-priced label within 1e-13 of the field's
    scale 1 + max |expect|, or within 1e-12 (1 + |expect|) for a scalar cost."""
    if label not in FACTOR_PRICED_LABELS:
        assert np.array_equal(got, expect)
    elif np.ndim(expect) == 0:
        assert abs(got - expect) <= 1e-12 * (1.0 + abs(expect))
    else:
        assert np.shape(got) == np.shape(expect)
        assert np.all(np.abs(got - expect) <= 1e-13 * (1.0 + np.abs(expect).max()))


@pytest.fixture
def fast_params():
    return SolverParams(max_iters=100, tol_fixed_point=1e-9)
