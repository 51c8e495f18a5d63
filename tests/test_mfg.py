import numpy as np
import pytest

from mfglab import Grid, SolverParams, density_cosine, solve_mfg, solve_planner_system
from mfglab.errors import ShapeMismatchError, TimeStepDivergenceError
from mfglab.grids import DensityPath, ScalarPath
from mfglab.mfg import _equilibrium_data, feedback_drift
from mfglab.model import coupling_spatial
from mfglab.stepping import fp_forward_sweep, fp_residual, hjb_backward_sweep, hjb_residual

from conftest import make_problem

TWO_PI = 2.0 * np.pi


def uniform_path(grid):
    return DensityPath(np.ones((grid.nt + 1, grid.n)), grid)


def hjb_given_flow(m: DensityPath, problem) -> ScalarPath:
    """The equilibrium's backward equation given the flow m (terminal from m(T))."""
    u = hjb_backward_sweep(problem.grid, problem.hamiltonian,
                           *_equilibrium_data(problem, m.values))
    return ScalarPath(u, problem.grid)


class TestHJB:
    def test_zero_data_gives_zero(self, grid64):
        prob = make_problem(grid64, "zero", amplitude=0.0)
        u = hjb_given_flow(uniform_path(grid64), prob)
        assert np.abs(u.values).max() == 0.0

    @pytest.mark.parametrize("n,nt,tol_cont", [(64, 64, 1.2e-4), (128, 256, 3.5e-5)])
    def test_small_terminal_cost_heat_decay(self, n, nt, tol_cont):
        # linearized regime: u is the backward heat evolution of G up to an
        # O(eps^2) Hamiltonian correction; the implicit-Euler mode factor is
        # exactly 1/(1 + dt lam_1) per step
        g = Grid(n=n, nt=nt)
        eps = 1e-3
        term = coupling_spatial(g, lambda x: np.cos(TWO_PI * x), lam=eps)
        prob = make_problem(g, "zero", amplitude=0.0, terminal=term)
        u = hjb_given_flow(uniform_path(g), prob).values
        lam1 = (2 - 2 * np.cos(TWO_PI * g.dx)) / g.dx**2
        ks = np.arange(nt + 1)
        mode = eps * np.power(1 + g.dt * lam1, -(nt - ks))[:, None]
        discrete = mode * np.cos(TWO_PI * g.xs())[None, :]
        assert np.abs(u - discrete).max() <= 0.5 * eps**2
        continuum = (eps * np.exp(-TWO_PI**2 * (g.T - g.times()))[:, None]
                     * np.cos(TWO_PI * g.xs())[None, :])
        assert np.abs(u - continuum).max() <= tol_cont

    def test_continuum_error_refines(self):
        errs = []
        for n, nt in [(64, 64), (128, 256)]:
            g = Grid(n=n, nt=nt)
            eps = 1e-3
            term = coupling_spatial(g, lambda x: np.cos(TWO_PI * x), lam=eps)
            prob = make_problem(g, "zero", amplitude=0.0, terminal=term)
            u = hjb_given_flow(uniform_path(g), prob).values
            continuum = (eps * np.exp(-TWO_PI**2 * (g.T - g.times()))[:, None]
                         * np.cos(TWO_PI * g.xs())[None, :])
            errs.append(np.abs(u - continuum).max())
        assert errs[0] / errs[1] >= 2.5

    def test_maximum_principle_bound(self, grid64):
        g = grid64
        term = coupling_spatial(g, lambda x: np.sin(TWO_PI * x), lam=0.4)
        prob = make_problem(g, "potential", lam=1.0, amplitude=0.8, terminal=term)
        sol = solve_mfg(prob)
        f_sup = max(np.abs(prob.coupling.eval(sol.m.values[k])).max()
                    for k in range(g.nt + 1))
        g_sup = np.abs(prob.terminal.eval(sol.m.values[-1])).max()
        bound = g_sup + (g.T - g.t0) * f_sup  # h0(x, 0) = 0 for the quadratic model
        assert np.abs(sol.u.values).max() <= bound + 1e-8

    def test_divergence_reported_with_suggestion(self):
        g = Grid(n=64, nt=16)  # dt far too large for the explicit |Du|^2 term
        term = coupling_spatial(g, lambda x: np.cos(TWO_PI * x), lam=1e3)
        prob = make_problem(g, "zero", amplitude=0.0, terminal=term)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TimeStepDivergenceError) as exc:
                hjb_given_flow(uniform_path(g), prob)
        assert exc.value.suggested_dt is not None
        assert exc.value.suggested_dt < g.dt


class TestFP:
    def test_uniform_stationary(self, grid64):
        prob = make_problem(grid64, "zero", amplitude=0.0)
        u = ScalarPath(np.zeros((grid64.nt + 1, grid64.n)), grid64)
        m = fp_forward_sweep(grid64, prob.m0, feedback_drift(prob, u.values))
        assert np.abs(m - 1.0).max() < 1e-13

    def test_cosine_mode_decay_exact_discrete(self, grid64):
        g = grid64
        m0 = density_cosine(g, 0.5)
        m = fp_forward_sweep(g, m0, np.zeros((g.nt + 1, g.n)))
        lam1 = (2 - 2 * np.cos(TWO_PI * g.dx)) / g.dx**2
        factor = (1 + g.dt * lam1) ** (-g.nt)
        expect = 1.0 + 0.5 * factor * np.cos(TWO_PI * g.xs())
        assert np.abs(m[-1] - expect).max() < 1e-12

    def test_cosine_mode_decay_refines_to_heat_kernel(self):
        errs = []
        for n, nt in [(32, 32), (64, 128)]:
            g = Grid(n=n, nt=nt)
            m = fp_forward_sweep(g, density_cosine(g, 0.5), np.zeros((g.nt + 1, g.n)))
            expect = 1.0 + 0.5 * np.exp(-TWO_PI**2 * g.T) * np.cos(TWO_PI * g.xs())
            errs.append(np.abs(m[-1] - expect).max())
        assert errs[0] / errs[1] >= 2.5

    def test_constant_drift_matches_fourier_symbol(self, grid64):
        # independent oracle: the constant-coefficient step operator is
        # circulant, so its exact discrete action is a rational symbol in
        # Fourier space (upwind transport + implicit diffusion)
        g = grid64
        b = 0.8
        m0 = density_cosine(g, 0.5)
        m = fp_forward_sweep(g, m0, np.full((g.nt + 1, g.n), b))
        theta = TWO_PI * np.arange(g.n) / g.n
        lamk = (2 - 2 * np.cos(theta)) / g.dx**2
        sym = 1 + g.dt * (lamk + b * (1 - np.exp(-1j * theta)) / g.dx)
        oracle = np.real(np.fft.ifft(np.fft.fft(m0) / sym**g.nt))
        assert np.abs(m[-1] - oracle).max() < 1e-12

    def test_negative_drift_symbol(self, grid64):
        g = grid64
        b = -1.3
        m0 = density_cosine(g, 0.3)
        m = fp_forward_sweep(g, m0, np.full((g.nt + 1, g.n), b))
        theta = TWO_PI * np.arange(g.n) / g.n
        lamk = (2 - 2 * np.cos(theta)) / g.dx**2
        sym = 1 + g.dt * (lamk + b * (np.exp(1j * theta) - 1) / g.dx)
        oracle = np.real(np.fft.ifft(np.fft.fft(m0) / sym**g.nt))
        assert np.abs(m[-1] - oracle).max() < 1e-12

    def test_mass_and_positivity_under_strong_drift(self):
        g = Grid(n=64, nt=32)
        m0 = density_cosine(g, 0.9)
        drift = 5.0 * np.sin(TWO_PI * g.xs())[None, :] * np.ones((g.nt + 1, 1))
        m = fp_forward_sweep(g, m0, drift)
        assert np.abs(m.sum(axis=1) * g.dx - 1.0).max() <= 1e-12
        assert m.min() >= -1e-12

    def test_dense_solve_oracle(self, grid32, rng):
        # one implicit step checked against a dense linear solve built
        # independently from the same stencil definition
        g = grid32
        a = rng.standard_normal(g.n)
        m0 = density_cosine(g, 0.4)
        m1 = fp_forward_sweep(g, m0, a[None, :] * np.ones((g.nt + 1, 1)))[1]
        bf = 0.5 * (np.roll(a, 1) + a)
        bp, bm = np.maximum(bf, 0), np.minimum(bf, 0)
        mat = np.zeros((g.n, g.n))
        for i in range(g.n):
            mat[i, i] += 1 + 2 * g.dt / g.dx**2
            mat[i, (i - 1) % g.n] += -g.dt / g.dx**2
            mat[i, (i + 1) % g.n] += -g.dt / g.dx**2
            # outgoing face i+1, incoming face i
            mat[i, i] += g.dt / g.dx * (bp[(i + 1) % g.n] - bm[i])
            mat[i, (i + 1) % g.n] += g.dt / g.dx * bm[(i + 1) % g.n]
            mat[i, (i - 1) % g.n] += -g.dt / g.dx * bp[i]
        oracle = np.linalg.solve(mat, m0)
        np.testing.assert_allclose(m1, oracle, atol=1e-12)


class TestSolveMFG:
    def test_decoupled_converges_first_iteration(self, grid64):
        prob = make_problem(grid64, "zero", amplitude=0.5)
        sol = solve_mfg(prob)
        assert sol.converged and sol.iterations == 1
        assert np.abs(sol.u.values).max() == 0.0

    def test_potential_benchmark_regression(self):
        g = Grid(n=128, nt=256)
        prob = make_problem(g, "potential", lam=0.5)
        sol = solve_mfg(prob)
        assert sol.converged
        assert sol.fp_residual < 1e-8
        from mfglab import social_cost
        # refinement-stable value frozen from the build grid
        assert social_cost(sol, prob) == pytest.approx(4.420657879379465e-07, rel=1e-6)

    def test_conservation_suite(self, grid64):
        prob = make_problem(grid64, "convolution", lam=1.0)
        sol = solve_mfg(prob)
        m = sol.m.values
        assert np.abs(m.sum(axis=1) * grid64.dx - 1.0).max() <= 1e-12
        assert m.min() >= -1e-12

    def test_terminal_condition_exact(self, grid64):
        term = coupling_spatial(grid64, lambda x: np.cos(TWO_PI * x), lam=0.3)
        prob = make_problem(grid64, "potential", lam=0.5, terminal=term)
        sol = solve_mfg(prob)
        expect = prob.terminal.eval(sol.m.values[-1])
        assert np.array_equal(sol.u.values[-1], expect)

    def test_residuals_after_convergence(self, grid64, fast_params):
        prob = make_problem(grid64, "convolution", lam=1.0)
        sol = solve_mfg(prob, fast_params)
        assert sol.converged
        assert sol.hjb_residual <= 10 * fast_params.tol_fixed_point
        assert sol.fpk_residual <= 10 * fast_params.tol_fixed_point

    def test_feedback_definition(self, grid64):
        prob = make_problem(grid64, "potential", lam=0.5)
        sol = solve_mfg(prob)
        drift = feedback_drift(prob, sol.u.values)
        np.testing.assert_array_equal(sol.alpha_star.values, drift)

    def test_warm_start_idempotent(self, grid64):
        prob = make_problem(grid64, "convolution", lam=1.0)
        params = SolverParams(tol_fixed_point=1e-9)
        sol = solve_mfg(prob, params)
        again = solve_mfg(prob, params, init_m=sol.m)
        assert again.converged and again.iterations == 1
        assert np.abs(again.m.values - sol.m.values).sum(axis=1).max() * grid64.dx <= 1e-9

    def test_warm_start_on_another_grid_is_refused(self, grid64):
        prob = make_problem(grid64, "convolution", lam=1.0)
        for grid in (Grid(n=32, nt=grid64.nt), Grid(n=64, nt=2 * grid64.nt),
                     Grid(n=64, nt=grid64.nt, T=2.0)):
            with pytest.raises(ShapeMismatchError, match="different grid"):
                solve_mfg(prob, init_m=uniform_path(grid))

    def test_non_convergence_is_flagged_not_raised(self, grid64):
        # both solvers run the one fixed-point driver
        prob = make_problem(grid64, "convolution", lam=1.0)
        params = SolverParams(max_iters=1, tol_fixed_point=1e-14)
        for solve in (solve_mfg, solve_planner_system):
            sol = solve(prob, params)
            assert not sol.converged
            assert sol.iterations == 1
            assert np.isfinite(sol.fp_residual)

    def test_plugged_back_residuals(self, grid64, fast_params):
        prob = make_problem(grid64, "potential", lam=0.5)
        sol = solve_mfg(prob, fast_params)
        fields = np.stack([prob.coupling.eval(sol.m.values[k])
                           for k in range(grid64.nt + 1)])
        r_hjb = hjb_residual(grid64, prob.hamiltonian, sol.u.values, fields)
        r_fp = fp_residual(grid64, sol.m.values, sol.alpha_star.values)
        assert r_hjb <= 10 * fast_params.tol_fixed_point
        assert r_fp <= 10 * fast_params.tol_fixed_point

    def test_refinement_consistency_of_costs(self):
        from mfglab import social_cost
        costs = {}
        for n, nt in [(32, 64), (64, 256), (128, 1024)]:
            g = Grid(n=n, nt=nt)
            prob = make_problem(g, "potential", lam=0.5)
            costs[n] = social_cost(solve_mfg(prob), prob)
        d1 = abs(costs[32] - costs[64])
        d2 = abs(costs[64] - costs[128])
        assert 2.0 <= d1 / d2 <= 8.0  # second-order consistency under doubling
