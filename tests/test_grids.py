import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgtsv, dgttrs

from mfglab import (
    DensityPath,
    Grid,
    ScalarPath,
    continuity_residual_1d,
    gradient,
    laplacian,
    reconstruct_flux_1d,
)
from mfglab import stepping
from mfglab.errors import (
    LinearSolveError,
    MassConservationError,
    ShapeMismatchError,
    TimeStepDivergenceError,
)
from mfglab.grids import check_density_slice, shift_next, shift_prev
from mfglab.model import quadratic_hamiltonian
from mfglab.planner import ControlObjective
from mfglab.stepping import (
    check_mass_drift,
    factor_rows,
    fp_forward_sweep,
    fp_step,
    hjb_backward_sweep,
    solve_periodic_tridiag,
    upwind_bands,
)

from conftest import make_problem, random_density

TWO_PI = 2.0 * np.pi


class TestGrid:
    def test_spacing(self):
        g = Grid(n=128, nt=256, t0=0.25, T=1.25)
        assert g.dx * g.n == pytest.approx(1.0, abs=1e-15)
        assert g.dt == pytest.approx(1.0 / 256)
        assert g.times()[0] == 0.25 and g.times()[-1] == pytest.approx(1.25)

    @pytest.mark.parametrize("kw", [dict(n=3, nt=16), dict(n=8, nt=2),
                                    dict(n=8, nt=8, t0=1.0, T=0.5)])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            Grid(**kw)


class TestOperators:
    def test_annihilate_constants(self, grid32):
        c = np.full(32, 3.7)
        assert np.all(gradient(c, grid32) == 0.0)
        assert np.all(laplacian(c, grid32) == 0.0)

    def test_gradient_impulse_stencil(self):
        g = Grid(n=8, nt=4)
        f = np.zeros(8)
        f[3] = 1.0
        gr = gradient(f, g)
        expect = np.zeros(8)
        expect[2] = 1.0 / (2 * g.dx)
        expect[4] = -1.0 / (2 * g.dx)
        np.testing.assert_array_equal(gr, expect)

    def test_laplacian_impulse_stencil(self):
        g = Grid(n=8, nt=4)
        f = np.zeros(8)
        f[5] = 1.0
        lap = laplacian(f, g)
        expect = np.zeros(8)
        expect[4] = expect[6] = 1.0 / g.dx**2
        expect[5] = -2.0 / g.dx**2
        np.testing.assert_array_equal(lap, expect)

    def test_gradient_sine_second_order(self):
        # leading central-difference error for sin is (2 pi)^3 dx^2 / 6
        errs = {}
        for n in (64, 128):
            g = Grid(n=n, nt=4)
            x = g.xs()
            gr = gradient(np.sin(TWO_PI * x), g)
            errs[n] = np.abs(gr - TWO_PI * np.cos(TWO_PI * x)).max()
            assert errs[n] <= 1.05 * TWO_PI**3 / 6 * g.dx**2
        assert 3.7 <= errs[64] / errs[128] <= 4.3

    def test_laplacian_sine_second_order(self):
        errs = {}
        for n in (64, 128):
            g = Grid(n=n, nt=4)
            x = g.xs()
            lap = laplacian(np.sin(TWO_PI * x), g)
            errs[n] = np.abs(lap + TWO_PI**2 * np.sin(TWO_PI * x)).max()
            assert errs[n] <= 1.05 * TWO_PI**4 / 12 * g.dx**2
        assert 3.7 <= errs[64] / errs[128] <= 4.3

    def test_path_rows_match_slices(self, grid32, rng):
        # the stencils act along the last axis: a path is its slices stacked
        path = rng.standard_normal((5, 32))
        for op in (gradient, laplacian):
            out = op(path, grid32)
            for k in range(5):
                assert np.array_equal(out[k], op(path[k], grid32))

    def test_discrete_divergence_theorem(self, rng):
        g = Grid(n=64, nt=4)
        f = rng.standard_normal(64)
        assert abs(laplacian(f, g).sum() * g.dx) < 1e-9

    def test_shape_mismatch(self, grid32):
        with pytest.raises(ShapeMismatchError):
            gradient(np.ones(31), grid32)
        with pytest.raises(ShapeMismatchError):
            laplacian(np.ones((17, 31)), grid32)

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(-5, 5), b=st.floats(-5, 5), seed=st.integers(0, 2**31))
    def test_linearity(self, a, b, seed):
        g = Grid(n=32, nt=4)
        r = np.random.default_rng(seed)
        f1, f2 = r.standard_normal(32), r.standard_normal(32)
        lhs = laplacian(a * f1 + b * f2, g)
        rhs = a * laplacian(f1, g) + b * laplacian(f2, g)
        np.testing.assert_allclose(lhs, rhs, atol=1e-7)
        lhs = gradient(a * f1 + b * f2, g)
        rhs = a * gradient(f1, g) + b * gradient(f2, g)
        np.testing.assert_allclose(lhs, rhs, atol=1e-7)


class TestPaths:
    def test_shape_validation(self, grid32):
        with pytest.raises(ShapeMismatchError):
            ScalarPath(np.zeros((5, 32)), grid32)
        with pytest.raises(ValueError):
            ScalarPath(np.full((17, 32), np.nan), grid32)

    def test_immutable(self, grid32):
        p = ScalarPath(np.zeros((17, 32)), grid32)
        with pytest.raises(ValueError):
            p.values[0, 0] = 1.0

    def test_density_validation(self, grid32):
        good = np.ones((17, 32))
        DensityPath(good, grid32)
        bad = good.copy()
        bad[3, 5] = -1e-6
        bad[3, 6] += 1e-6
        with pytest.raises(MassConservationError):
            DensityPath(bad, grid32)
        off_mass = good * 1.001
        with pytest.raises(MassConservationError):
            DensityPath(off_mass, grid32)

    def test_density_slice_check(self, grid32):
        with pytest.raises(MassConservationError):
            check_density_slice(np.ones(32) * 0.5, grid32)


def _per_slice_flux(v, grid):
    """reconstruct_flux_1d and continuity_residual_1d, one time slice at a time."""
    beta = np.zeros((grid.nt + 1, grid.n))
    for k in range(grid.nt):
        r = (v[k + 1] - v[k]) / grid.dt - laplacian(v[k], grid)
        r = r - r.mean()
        b = -grid.dx * np.concatenate(([0.0], np.cumsum(r[:-1])))
        beta[k] = b - b.mean()
    beta[grid.nt] = beta[grid.nt - 1]
    worst = 0.0
    for k in range(grid.nt):
        div = (shift_next(beta[k]) - beta[k]) / grid.dx
        res = (v[k + 1] - v[k]) / grid.dt - laplacian(v[k], grid) + div
        worst = max(worst, float(np.abs(res).max()))
    return beta, worst


class TestFluxReconstruction:
    @pytest.mark.parametrize("n,nt", [(16, 8), (128, 64)])
    def test_whole_path_equals_per_slice_formula(self, n, nt):
        # repr of every entry, so that a -0.0 for a 0.0 is caught too
        g = Grid(n=n, nt=nt)
        r = np.random.default_rng(n)
        rough = r.standard_normal((nt + 1, n))
        smooth = np.exp(-3.0 * g.times()[:, None]) * np.sin(TWO_PI * g.xs())[None, :]
        for v in (rough - rough.mean(axis=1, keepdims=True), smooth, np.zeros((nt + 1, n))):
            mu = ScalarPath(v, g)
            beta = reconstruct_flux_1d(mu, g)
            ref_beta, ref_res = _per_slice_flux(v, g)
            assert list(map(repr, beta.values.ravel().tolist())) == \
                list(map(repr, ref_beta.ravel().tolist()))
            assert repr(continuity_residual_1d(mu, beta, g)) == repr(ref_res)

    def test_zero(self, grid32):
        mu = ScalarPath(np.zeros((17, 32)), grid32)
        beta = reconstruct_flux_1d(mu, grid32)
        assert np.all(beta.values == 0.0)

    def test_separable_mode(self):
        g = Grid(n=128, nt=64)
        t = g.times()[:, None]
        mu_vals = np.exp(-3.0 * t) * np.sin(TWO_PI * g.xs())[None, :]
        mu = ScalarPath(mu_vals, g)
        beta = reconstruct_flux_1d(mu, g)
        scale = np.abs(mu_vals).max() * (1.0 / g.dt + 1.0 / g.dx**2)
        assert continuity_residual_1d(mu, beta, g) <= 1e-8 * scale

    def test_time_constant_matches_backward_difference(self):
        # with d/dt mu = 0 the flux must be the discrete antiderivative of
        # lap mu, i.e. the backward difference of mu up to the gauge constant
        g = Grid(n=64, nt=8)
        prof = np.sin(TWO_PI * g.xs()) + 0.3 * np.cos(2 * TWO_PI * g.xs())
        mu_vals = np.tile(prof, (9, 1))
        mu = ScalarPath(mu_vals, g)
        beta = reconstruct_flux_1d(mu, g)
        assert continuity_residual_1d(mu, beta, g) < 1e-10
        dmu = (prof - np.roll(prof, 1)) / g.dx
        diff = beta.values[0] - dmu
        assert np.ptp(diff) < 1e-10

    def test_nonzero_mean_rejected(self, grid32):
        mu = ScalarPath(np.ones((17, 32)) * 1e-3, grid32)
        with pytest.raises(ValueError, match="nonzero mean"):
            reconstruct_flux_1d(mu, grid32)

    def test_mu_on_another_grid_rejected(self, grid32):
        mu = ScalarPath(np.zeros((17, 32)), grid32)
        with pytest.raises(ShapeMismatchError, match="different grid"):
            reconstruct_flux_1d(mu, Grid(n=32, nt=16, T=2.0))


class TestPeriodicTridiag:
    def test_against_dense(self, rng):
        n = 50
        for _ in range(10):
            lower = rng.uniform(-1, 1, n)
            upper = rng.uniform(-1, 1, n)
            diag = rng.uniform(4, 6, n)  # diagonally dominant
            a = np.diag(diag)
            for i in range(n):
                a[i, (i - 1) % n] += lower[i]
                a[i, (i + 1) % n] += upper[i]
            rhs = rng.standard_normal(n)
            x = solve_periodic_tridiag(lower, diag, upper, rhs)
            np.testing.assert_allclose(a @ x, rhs, atol=1e-10)

    def test_rhs_of_another_shape_rejected(self, rng):
        # one right-hand side per system: (n, 3) on (n,) bands is no stack
        n = 32
        with pytest.raises(ValueError):
            solve_periodic_tridiag(np.full(n, -1.0), np.full(n, 4.0), np.full(n, -1.0),
                                   rng.standard_normal((n, 3)))

    def test_rhs_of_the_stack_size_but_another_shape_rejected(self, rng):
        # (n, 3) on (3, n) bands has the stack's size: it would solve scrambled systems
        n = 32
        lower, diag, upper = np.full((3, n), -1.0), np.full((3, n), 4.0), np.full((3, n), -1.0)
        rhs = rng.standard_normal((3, n))
        with pytest.raises(ValueError, match=r"shape \(32, 3\), expected \(3, 32\)"):
            solve_periodic_tridiag(lower, diag, upper, rhs.T.copy())
        for wrong in (rhs.reshape(-1), rhs[1]):  # the flat stack, one system's rhs
            with pytest.raises(ValueError, match=r"expected \(3, 32\)"):
                solve_periodic_tridiag(lower, diag, upper, wrong)

    @staticmethod
    def row_solve(rows, b, rhs, out=None):
        """System b of a factorization, solved in the time loops' row form."""
        factors, z, ratio, denom = rows[b]
        out = np.empty(rhs.size) if out is None else out
        return stepping._sherman_morrison(dgttrs(*factors, rhs)[0], z, ratio, denom, out)

    @staticmethod
    def dense(lower, diag, upper):
        n = diag.shape[0]
        a = np.diag(diag)
        for i in range(n):
            a[i, (i - 1) % n] += lower[i]
            a[i, (i + 1) % n] += upper[i]
        return a

    @pytest.mark.parametrize("dominant", [True, False])
    def test_stack_equals_single_solves(self, rng, dominant):
        # non-dominant bands make LAPACK swap rows inside a block
        n, batch = 24, 7
        lower = rng.uniform(-1, 1, (batch, n)) * (1.0 if dominant else 3.0)
        upper = rng.uniform(-1, 1, (batch, n)) * (1.0 if dominant else 3.0)
        diag = rng.uniform(4, 6, (batch, n)) if dominant else rng.uniform(-1, 1, (batch, n))
        rhs = rng.standard_normal((batch, n))
        x = solve_periodic_tridiag(lower, diag, upper, rhs)
        assert x.shape == (batch, n)
        for b in range(batch):
            single = solve_periodic_tridiag(lower[b], diag[b], upper[b], rhs[b])
            assert np.array_equal(x[b], single)
            a = self.dense(lower[b], diag[b], upper[b])
            np.testing.assert_allclose(a @ x[b], rhs[b], atol=1e-9 * np.abs(a).max() * np.abs(x[b]).max())

    @staticmethod
    def dgtsv_solve(lower, diag, upper, rhs):
        # reference: Sherman-Morrison reduction and one dgtsv elimination
        # with the rank-one column as a second right-hand side
        gamma, beta0, betan = -diag[0], lower[0], upper[-1]
        d = diag.copy()
        d[0] -= gamma
        d[-1] -= beta0 * betan / gamma
        b = np.zeros((rhs.size, 2))
        b[:, 0], b[0, 1], b[-1, 1] = rhs, gamma, betan
        y, z = dgtsv(lower[1:], d, upper[:-1], b)[3].T
        v = y[0] + (beta0 / gamma) * y[-1], z[0] + (beta0 / gamma) * z[-1]
        return y - z * (v[0] / (1.0 + v[1]))

    @pytest.mark.parametrize("dominant", [True, False])
    def test_factored_rows_equal_dgtsv(self, rng, dominant):
        # one factorization of the stack, then one system at a time, is
        # bitwise a fresh elimination of that system
        n, batch = 24, 7
        lower = rng.uniform(-1, 1, (batch, n)) * (1.0 if dominant else 3.0)
        upper = rng.uniform(-1, 1, (batch, n)) * (1.0 if dominant else 3.0)
        diag = rng.uniform(4, 6, (batch, n)) if dominant else rng.uniform(-1, 1, (batch, n))
        rhs = rng.standard_normal((batch, n))
        rows = factor_rows(lower, diag, upper)
        assert len(rows) == batch
        for b in reversed(range(batch)):
            single = solve_periodic_tridiag(lower[b], diag[b], upper[b], rhs[b])
            out = np.empty(n)
            assert self.row_solve(rows, b, rhs[b], out) is out
            assert np.array_equal(out, single)
            assert np.array_equal(single, self.dgtsv_solve(lower[b], diag[b], upper[b], rhs[b]))
            rows_b = factor_rows(lower[b], diag[b], upper[b])
            assert len(rows_b) == 1
            assert np.array_equal(self.row_solve(rows_b, 0, rhs[b]), single)

    def test_factor_singular_raises_without_warning(self):
        # the kernel detects 1 + v'z = 0 itself; no floating-point warning
        n = 16
        bands = np.full((3, 3, n), -1.0)
        bands[1] = 4.0
        bands[1, 1] = 2.0  # the middle system is the periodic Laplacian
        with pytest.raises(LinearSolveError):
            factor_rows(*bands)
        with pytest.raises(LinearSolveError):
            factor_rows(*bands[:, 1])

    def test_factor_zero_pivot_raises(self):
        # finite open bands whose second pivot is exactly 0: no elimination in
        # the first column, and a zero subdiagonal below the zero diagonal
        n = 6
        lower, diag, upper = np.full(n, -1.0), np.full(n, 4.0), np.full(n, -1.0)
        lower[1] = lower[2] = diag[1] = 0.0
        with pytest.raises(LinearSolveError, match=r"singular matrix \(pivot 2\)"):
            factor_rows(lower, diag, upper)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_factor_non_finite_rejected(self, bad):
        bands = np.full((3, 3, 16), -1.0)
        bands[1] = 4.0
        factor_rows(*bands)
        rhs = np.ones((3, 16))
        rhs[1, 3] = bad
        with pytest.raises(ValueError, match="non-finite right-hand side"):
            solve_periodic_tridiag(*bands, rhs)
        bands[2, 1, 5] = bad
        with pytest.raises(ValueError):
            factor_rows(*bands)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", range(4))
    @pytest.mark.parametrize("batch", [None, 3])
    def test_non_finite_input_rejected(self, which, bad, batch):
        n = 16
        shape = (n,) if batch is None else (batch, n)
        args = [np.full(shape, -1.0), np.full(shape, 4.0), np.full(shape, -1.0), np.ones(shape)]
        args[which][..., 5] = bad
        with pytest.raises(ValueError):
            solve_periodic_tridiag(*args)

    def test_singular_periodic_laplacian(self):
        # constants span the kernel; the rank-one update divides by zero
        n = 16
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(LinearSolveError):
            solve_periodic_tridiag(np.full(n, -1.0), np.full(n, 2.0), np.full(n, -1.0), np.ones(n))

    def test_zero_leading_diagonal_solves(self):
        # a nonsingular system (condition number 12.3) whose diag[0] is 0: the
        # reduction must not take gamma = -diag[0]
        n = 6
        lower, diag, upper = np.full(n, -1.0), np.full(n, 4.0), np.full(n, -1.0)
        diag[0] = 0.0
        a = self.dense(lower, diag, upper)
        assert np.linalg.cond(a) < 13.0
        rhs = np.arange(1.0, n + 1.0)
        expect = np.linalg.solve(a, rhs)
        x = solve_periodic_tridiag(lower, diag, upper, rhs)
        np.testing.assert_allclose(x, expect, rtol=0.0, atol=1e-13)
        assert np.array_equal(self.row_solve(factor_rows(lower, diag, upper), 0, rhs), x)

    @pytest.mark.parametrize("dominant", [True, False])
    @pytest.mark.parametrize("batch", [1, 32])
    @pytest.mark.parametrize("n", [16, 128, 1024])
    def test_one_call_solve_is_bitwise_its_stack_block(self, rng, n, batch, dominant):
        # one dgtsv call on [rhs | u] against the factored stack's rows;
        # non-dominant bands make LAPACK swap rows
        scale = 1.0 if dominant else 3.0
        lower = rng.uniform(-1, 1, (batch, n)) * scale
        upper = rng.uniform(-1, 1, (batch, n)) * scale
        diag = rng.uniform(4, 6, (batch, n)) if dominant else rng.uniform(-1, 1, (batch, n))
        rhs = rng.standard_normal((batch, n))
        x = solve_periodic_tridiag(lower, diag, upper, rhs)
        rows = factor_rows(lower, diag, upper)
        for b in range(batch):
            assert np.array_equal(self.row_solve(rows, b, rhs[b]), x[b])

    @staticmethod
    def faults():
        """(bands, rhs, error, message) of each input the solve refuses."""
        n = 6
        bands, rhs = np.full((3, n), -1.0), np.ones(n)
        bands[1] = 4.0
        nan_band, nan_rhs, pivot, laplacian = (bands.copy(), bands.copy(), bands.copy(),
                                               bands.copy())
        nan_band[2, 3] = np.nan
        pivot[0, 1] = pivot[0, 2] = pivot[1, 1] = 0.0  # the second pivot is exactly 0
        laplacian[1] = 2.0  # constants span the kernel
        bad_rhs = rhs.copy()
        bad_rhs[2] = np.inf
        return [(nan_band, rhs, ValueError, "periodic tridiagonal system has non-finite bands"),
                (nan_rhs, bad_rhs, ValueError,
                 "periodic tridiagonal system has non-finite right-hand side"),
                (pivot, rhs, LinearSolveError, "banded solve failed: singular matrix (pivot 2)"),
                (laplacian, rhs, LinearSolveError,
                 "periodic tridiagonal system is singular (rank-one update)")]

    @pytest.mark.parametrize("case", range(4))
    def test_one_call_solve_keeps_errors(self, case):
        bands, rhs, error, message = self.faults()[case]
        solves = [lambda: solve_periodic_tridiag(*bands, rhs)]
        if case != 1:  # the factorization takes no rhs: it refuses the band faults
            solves.append(lambda: factor_rows(*bands))
        for solve in solves:
            with pytest.raises(error) as got:
                solve()
            assert type(got.value) is error and str(got.value) == message


def test_shifts_match_roll(rng):
    f = rng.standard_normal((3, 10))
    for a in (f, f[0]):
        assert np.array_equal(shift_prev(a), np.roll(a, 1, axis=-1))
        assert np.array_equal(shift_next(a), np.roll(a, -1, axis=-1))


def forward_reference(g, m0, a):
    """The forward sweep one checked step at a time."""
    m = [m0]
    for k in range(g.nt):
        m.append(fp_step(g, m[k], a[k]))
        check_mass_drift(g, m[-1], m0.sum() * g.dx, k + 1)
    return np.array(m)


def hjb_reference(g, ham, fields, terminal, source=None):
    """The backward sweep one checked solve at a time."""
    r = g.dt / g.dx**2
    bands = (np.full(g.n, -r), np.full(g.n, 1.0 + 2.0 * r), np.full(g.n, -r))
    u = np.empty((g.nt + 1, g.n))
    u[-1] = terminal
    for k in range(g.nt - 1, -1, -1):
        du = gradient(u[k + 1], g)
        with np.errstate(over="ignore", invalid="ignore"):
            ham_k = ham.h0(g.xs(), du) - fields[k]
            if source is not None:
                ham_k = ham_k - source[k]
            rhs = u[k + 1] - g.dt * ham_k
        if not np.isfinite(rhs).all():
            du_max = (float(np.abs(du[np.isfinite(du)]).max())
                      if np.any(np.isfinite(du)) else np.inf)
            suggested = 0.5 * g.dx / max(du_max, 1.0)
            raise TimeStepDivergenceError(
                f"non-finite values at level {k}; the explicit Hamiltonian term "
                f"needs a smaller step (try dt <= {suggested:.3e})",
                suggested_dt=min(suggested, 0.5 * g.dt),
            )
        u[k] = solve_periodic_tridiag(*bands, rhs)
    return u


def adjoint_reference(obj, a, m):
    """ControlObjective.gradient with one checked transposed solve per step."""
    g = obj.grid
    n, nt, dx, dt = g.n, g.nt, g.dx, g.dt
    _, fields, residuals, g_field, g_residual = obj._path_terms(m)
    source = obj.w[1:nt, None] * (dx * (obj.problem.hamiltonian.l0(obj.x, a[1:nt])
                                        + fields + residuals))
    terminal = dx * (g_field + g_residual)
    bf, _, _, lower, diag, upper = upwind_bands(g, a[:nt])
    lower_t, upper_t = shift_prev(upper), shift_next(lower)
    lam_path = np.empty((nt + 1, n))
    lam = np.zeros(n)
    for k in range(nt - 1, -1, -1):
        rhs = lam + terminal if k + 1 == nt else source[k] + lam
        lam = lam_path[k + 1] = solve_periodic_tridiag(lower_t[k], diag[k], upper_t[k], rhs)
    lam_path[0] = lam_path[1]
    dl = (lam_path[1:] - shift_prev(lam_path[1:])) / dx
    m_next = m[1:]
    m_left = shift_prev(m_next)
    h_face = np.where(bf > 0.0, m_left, np.where(bf < 0.0, m_next, 0.5 * (m_left + m_next)))
    t_face = dl * h_face
    grad = obj.w[:, None] * obj.problem.hamiltonian.da_l0(obj.x, a) * m * dx
    grad[:nt] += 0.5 * dt * (t_face + shift_next(t_face))
    return grad, lam_path


def same_error(sweep, reference):
    """Both calls raise, with the same type, message and suggested_dt."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(Exception) as ref:
            reference()
    with pytest.raises(type(ref.value)) as got:
        sweep()
    assert type(got.value) is type(ref.value)
    assert str(got.value) == str(ref.value)
    assert getattr(got.value, "suggested_dt", None) == getattr(ref.value, "suggested_dt", None)
    return got.value


class TestSweeps:
    """The sweeps factor their step matrices once and check once per sweep;
    results and errors are those of stepping and solving one level at a time."""

    def test_forward_sweep_equals_step_loop(self, rng):
        g = Grid(n=24, nt=12)
        m0 = np.ones(g.n)
        for scale in (0.5, 20.0):  # mild and upwind-dominated drifts
            a = scale * rng.standard_normal((g.nt + 1, g.n))
            assert np.array_equal(fp_forward_sweep(g, m0, a), forward_reference(g, m0, a))

    def test_backward_sweep_equals_solve_loop(self, rng):
        g = Grid(n=24, nt=12)
        ham = quadratic_hamiltonian()
        fields = rng.standard_normal((g.nt + 1, g.n))
        source = rng.standard_normal((g.nt + 1, g.n))
        terminal = rng.standard_normal(g.n)
        assert np.array_equal(hjb_backward_sweep(g, ham, fields, terminal, source),
                              hjb_reference(g, ham, fields, terminal, source))

    @pytest.mark.parametrize("label", ["convolution", "efficient", "potential", "xfree"])
    def test_adjoint_equals_solve_loop(self, rng, label):
        g = Grid(n=24, nt=12)
        obj = ControlObjective(make_problem(g, label, lam=2.0))
        a = 2.0 * rng.standard_normal((g.nt + 1, g.n))
        m = fp_forward_sweep(g, obj.problem.m0, a)
        grad, lam_path = obj.gradient(a, m, obj._path_terms(m))
        ref_grad, ref_lam = adjoint_reference(obj, a, m)
        assert np.array_equal(grad, ref_grad)
        assert np.array_equal(lam_path, ref_lam)

    def test_forward_mass_drift_names_the_same_step(self, rng, monkeypatch):
        g = Grid(n=64, nt=12)
        m0 = random_density(g, rng)
        a = 20.0 * rng.standard_normal((g.nt + 1, g.n))
        drift = np.abs(forward_reference(g, m0, a).sum(axis=-1) * g.dx - m0.sum() * g.dx)
        first = int(np.argmax(drift > 0.0))
        assert first > 1  # round-off moves the mass first in a later step
        monkeypatch.setattr(stepping, "MASS_DRIFT_RAISE", 0.0)
        err = same_error(lambda: fp_forward_sweep(g, m0, a), lambda: forward_reference(g, m0, a))
        assert isinstance(err, MassConservationError)
        assert str(err).endswith(f"at step {first}")

    @pytest.mark.parametrize("n, nt, bad, error", [
        (24, 12, np.nan, ValueError),
        (24, 12, 1e308, LinearSolveError),  # the solve overflows
        (8, 100, 5e307, TimeStepDivergenceError),  # the face flux overflows
        (8, 100, 1e306, MassConservationError),  # round-off of a huge mass
    ])
    def test_forward_failing_step_raises_as_step_loop(self, n, nt, bad, error):
        g = Grid(n=n, nt=nt)
        m0 = np.ones(n)
        m0[3] = bad
        a = np.ones((nt + 1, n))
        err = same_error(lambda: fp_forward_sweep(g, m0, a), lambda: forward_reference(g, m0, a))
        assert type(err) is error

    def test_backward_divergence_same_level_and_suggestion(self):
        g = Grid(n=64, nt=16)  # dt far too large for the explicit |Du|^2 term
        ham = quadratic_hamiltonian()
        fields = np.zeros((g.nt + 1, g.n))
        terminal = 1e3 * np.cos(TWO_PI * g.xs())
        err = same_error(lambda: hjb_backward_sweep(g, ham, fields, terminal),
                         lambda: hjb_reference(g, ham, fields, terminal))
        assert isinstance(err, TimeStepDivergenceError) and err.suggested_dt < g.dt

    @pytest.mark.parametrize("n", [8, 16, 24, 64])
    def test_backward_solve_overflow_raises_as_solve_loop(self, n):
        # a flat terminal has Du = 0, so every rhs stays finite and the solve
        # itself overflows: the sweep's replay raises through the checked solve
        g = Grid(n=n, nt=12)
        ham = quadratic_hamiltonian()
        fields = np.zeros((g.nt + 1, g.n))
        terminal = np.full(g.n, 1e308)
        err = same_error(lambda: hjb_backward_sweep(g, ham, fields, terminal),
                         lambda: hjb_reference(g, ham, fields, terminal))
        assert type(err) is LinearSolveError
        assert str(err) == "periodic tridiagonal solve produced non-finite values"

    def test_adjoint_non_finite_source_raises_as_solve_loop(self, rng, monkeypatch):
        g = Grid(n=24, nt=12)
        obj = ControlObjective(make_problem(g, "convolution"))
        a = rng.standard_normal((g.nt + 1, g.n))
        m = fp_forward_sweep(g, obj.problem.m0, a)
        f_0, fields, residuals, g_field, g_residual = obj._path_terms(m)
        fields = fields.copy()
        fields[6, 3] = np.inf
        monkeypatch.setattr(obj, "_path_terms",
                            lambda m: (f_0, fields, residuals, g_field, g_residual))
        err = same_error(lambda: obj.gradient(a, m, obj._path_terms(m)),
                         lambda: adjoint_reference(obj, a, m))
        assert type(err) is ValueError
