import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfglab import (
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
from mfglab.errors import LinearSolveError, MassConservationError, ShapeMismatchError
from mfglab.grids import check_density_slice, shift_next, shift_prev
from mfglab.stepping import solve_periodic_tridiag

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


class TestIntegrate:
    def test_constant(self, grid32):
        assert integrate(np.ones(32), grid32) == pytest.approx(1.0, abs=1e-15)

    def test_sine_exact_zero(self):
        g = Grid(n=128, nt=4)
        assert abs(integrate(np.sin(TWO_PI * g.xs()), g)) < 1e-12

    def test_against_fsum_oracle(self, rng):
        g = Grid(n=128, nt=4)
        f = rng.standard_normal(128) * 100
        oracle = math.fsum(float(v) for v in f) * g.dx
        assert integrate(f, g) == pytest.approx(oracle, rel=1e-14)


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


class TestFluxReconstruction:
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


class TestW1:
    def test_identical(self, grid32):
        m = np.ones(32)
        assert w1_distance_1d(m, m, grid32) == 0.0

    def test_translated_deltas(self):
        g = Grid(n=16, nt=4)
        for shift in (1, 3, 7):
            m1 = np.zeros(16)
            m2 = np.zeros(16)
            m1[0] = 1.0 / g.dx
            m2[shift] = 1.0 / g.dx
            d = w1_distance_1d(m1, m2, g)
            assert abs(d - min(shift, 16 - shift) * g.dx) <= g.dx + 1e-12

    def test_mass_mismatch(self, grid32):
        with pytest.raises(MassConservationError):
            w1_distance_1d(np.ones(32), np.ones(32) * 1.01, grid32)

    def test_against_cut_enumeration(self, rng):
        # brute force: unroll the circle at every cut and take the best
        # line-transport value; the median construction must match it
        g = Grid(n=16, nt=4)
        for _ in range(20):
            m1 = rng.uniform(0.1, 2.0, 16)
            m2 = rng.uniform(0.1, 2.0, 16)
            m1 /= m1.sum() * g.dx
            m2 /= m2.sum() * g.dx
            cdf = np.cumsum(m1 - m2) * g.dx
            brute = min(float(np.abs(cdf - c).sum() * g.dx) for c in cdf)
            assert w1_distance_1d(m1, m2, g) == pytest.approx(brute, abs=1e-14)


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

    def test_batched_rhs(self, rng):
        n = 32
        lower = np.full(n, -1.0)
        upper = np.full(n, -1.0)
        diag = np.full(n, 4.0)
        rhs = rng.standard_normal((n, 3))
        x = solve_periodic_tridiag(lower, diag, upper, rhs)
        assert x.shape == (n, 3)
        for j in range(3):
            xj = solve_periodic_tridiag(lower, diag, upper, rhs[:, j])
            np.testing.assert_allclose(x[:, j], xj, atol=1e-13)

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


def test_shifts_match_roll(rng):
    f = rng.standard_normal((3, 10))
    for a in (f, f[0]):
        assert np.array_equal(shift_prev(a), np.roll(a, 1, axis=-1))
        assert np.array_equal(shift_next(a), np.roll(a, -1, axis=-1))
