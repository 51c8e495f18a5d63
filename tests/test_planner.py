import math

import numpy as np
import pytest

from mfglab import (
    Grid,
    SolverParams,
    coupling_from_label,
    density_uniform,
    planner_cost,
    social_cost,
    solve_mfg,
    solve_planner_descent,
    solve_planner_system,
)
from mfglab import model, planner
from mfglab.efficiency import _window_levels, holder_diagnostic
from mfglab.mfg import feedback_drift
from mfglab.model import (
    COUPLING_LABELS,
    KERNELS,
    coupling_spatial,
    dense_block_rows,
)
from mfglab.planner import ControlObjective

from conftest import assert_descent_residuals, assert_matches_slices, make_problem, random_density

TWO_PI = 2.0 * np.pi


class TestPlannerCost:
    def test_trivial_zero(self, grid32):
        prob = make_problem(grid32, "zero", amplitude=0.0)
        shape = (grid32.nt + 1, grid32.n)
        assert planner_cost(np.ones(shape), np.zeros(shape), prob) == 0.0

    def test_constant_control_unit_mass(self, grid32, rng):
        # running kinetic cost integrates to (T - t0) |a|^2 / 2 whatever m is
        prob = make_problem(grid32, "zero", amplitude=0.0)
        shape = (grid32.nt + 1, grid32.n)
        a = 0.73
        m = np.ones(shape)
        cost = planner_cost(m, np.full(shape, a), prob)
        assert cost == pytest.approx((grid32.T - grid32.t0) * a**2 / 2, rel=1e-13)

    def test_against_fsum_requadrature(self, rng):
        # independent extended-precision summation of the same integrand
        g = Grid(n=32, nt=16)
        prob = make_problem(g, "potential", lam=0.7)
        m = np.stack([np.ones(g.n) + 0.3 * np.cos(TWO_PI * g.xs() + k * 0.1)
                      for k in range(g.nt + 1)])
        m /= (m.sum(axis=1) * g.dx)[:, None]
        a = rng.standard_normal((g.nt + 1, g.n))
        x = g.xs()
        terms = []
        for k in range(g.nt):
            kin = math.fsum(float(v) for v in 0.5 * a[k] ** 2 * m[k]) * g.dx
            terms.append(g.dt * (kin + float(prob.coupling.eval(m[k]) @ m[k]) * g.dx))
        oracle = math.fsum(terms)
        assert planner_cost(m, a, prob) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("nt", (32, 40))  # one full block of COST_ROWS levels, a partial one
    @pytest.mark.parametrize("label", ("convolution", "efficient", "potential", "xfree"))
    def test_equals_per_slice_reference_loop(self, label, nt, rng):
        # the stacked slice costs of planner_cost and of the descent objective
        # keep the per-slice arithmetic bit for bit: cost_mfg, cost_planner
        # and the descent's stop all read them
        g = Grid(n=32, nt=nt)
        prob = make_problem(g, label, lam=0.7,
                            terminal=coupling_from_label(g, label, lam=0.5))
        a = 0.3 * rng.standard_normal((g.nt + 1, g.n))
        obj = ControlObjective(prob)
        m = obj.forward(a)
        x, dx = g.xs(), g.dx
        fields = np.stack([prob.coupling.eval(m[k]) for k in range(g.nt)])
        levels = [float(prob.hamiltonian.l0(x, a[k]) @ m[k]) * dx + float(fields[k] @ m[k]) * dx
                  for k in range(g.nt)]
        running = 0.0
        for cost in levels:
            running += g.dt * cost
        expect = running + float(prob.terminal.eval(m[-1]) @ m[-1]) * dx
        # the kernel's rows themselves, since one ulp of a level can round away in the sum
        assert planner.slice_costs(prob, m[:-1], a[:-1], fields).tolist() == levels
        assert planner_cost(m, a, prob) == expect
        assert obj.evaluate(a)[1] == expect

    def test_shape_check(self, grid32):
        prob = make_problem(grid32, "zero", amplitude=0.0)
        with pytest.raises(ValueError):
            planner_cost(np.ones((3, grid32.n)), np.zeros((3, grid32.n)), prob)


class TestBlockedContraction:
    """The descent's residuals, the convolution's contracted one delta(m) row block at a time.

    DENSE_BLOCK is lowered so that small grids run several blocks: n=64
    in 8-row blocks, n=100 in 32-row blocks with a 4-row tail, and n=66,
    not a multiple of 4, in one block.  The convolution's residual must
    equal the single product (m @ delta(m)) dx bit for bit, which rests on
    the BLAS dgemv adding 4-row groups in turn (see model._dense_residual);
    the closed-form labels' must agree with it within 1e-12.  Every level
    of a path must equal that level alone bit for bit, but the
    potential's, priced through its factor, within round-off
    (assert_matches_slices).
    """

    @pytest.mark.parametrize("n,entries,rows", [(64, 512, 8), (100, 3200, 32), (66, 512, 66)])
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("label", COUPLING_LABELS)
    def test_blocks_equal_the_single_product(self, monkeypatch, label, kernel, n, entries, rows):
        monkeypatch.setattr(model, "DENSE_BLOCK", entries)
        assert dense_block_rows(n) == rows
        g = Grid(n=n, nt=8)
        c = coupling_from_label(g, label, lam=0.7, kernel=kernel)
        r = np.random.default_rng(n)
        m = np.stack([random_density(g, r, roughness=1.0) * r.uniform(0.5, 1.5)
                      for _ in range(3)])
        fields, residuals = c._path_terms(m, exact=True)
        assert_matches_slices(label, fields, np.stack([c.eval(m_k) for m_k in m]))
        assert_descent_residuals(label, residuals,
                                 np.stack([(m_k @ c.delta(m_k)) * g.dx for m_k in m]))

    @pytest.mark.parametrize("lam", (1.0, 2.5))  # the skipped and the applied strength pass
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_convolution_blocks_at_any_strength(self, monkeypatch, kernel, lam):
        monkeypatch.setattr(model, "DENSE_BLOCK", 3200)  # n=100: 32-row blocks, a 4-row tail
        g = Grid(n=100, nt=8)
        c = coupling_from_label(g, "convolution", lam=lam, kernel=kernel)
        r = np.random.default_rng(7)
        m = np.stack([random_density(g, r, roughness=1.0) * r.uniform(0.5, 1.5)
                      for _ in range(3)])
        residuals = c._path_terms(m, exact=True)[1]
        assert np.array_equal(residuals, np.stack([(m_k @ c.delta(m_k)) * g.dx for m_k in m]))

    @pytest.mark.parametrize("n,entries", [(64, 512), (100, 3200)])  # 8-row blocks; a 4-row tail
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("label", COUPLING_LABELS)
    def test_levels_are_contracted_independently(self, monkeypatch, label, kernel, n, entries):
        # every level is written and contracted per block in turn, sharing one workspace:
        # no level may read another level's block or vector
        monkeypatch.setattr(model, "DENSE_BLOCK", entries)
        assert n % dense_block_rows(n) in (0, 4) and dense_block_rows(n) < n
        g = Grid(n=n, nt=8)
        c = coupling_from_label(g, label, lam=0.7, kernel=kernel)
        r = np.random.default_rng(n + 1)
        m = np.stack([random_density(g, r, roughness=1.0) * r.uniform(0.5, 1.5)
                      for _ in range(6)])
        fields, residuals = c._path_terms(m, exact=True)
        for k in range(len(m)):
            field_k, residual_k = c._path_terms(m[k:k + 1], exact=True)
            assert_matches_slices(label, fields[k], field_k[0])
            assert_matches_slices(label, residuals[k], residual_k[0])

    @pytest.mark.parametrize("n", (4, 16, 66, 100, 128, 181, 200, 256, 512, 1000, 1024, 1025,
                                   4096, 65536))
    def test_block_rows_are_n_or_a_multiple_of_4(self, n):
        b = dense_block_rows(n)
        assert b == n or (b % 4 == 0 and 4 <= b < n and n % 4 == 0)
        if n * n > model.DENSE_BLOCK and n % 4 == 0:
            assert b * n <= max(model.DENSE_BLOCK, 4 * n)

    def test_default_block_sizes(self):
        # desk scale keeps the single product; the wide grid streams 256 KiB blocks
        assert [dense_block_rows(n) for n in (128, 256, 512, 1024)] == [128, 128, 64, 32]


class TestExactStackedCallers:
    """The equilibrium's fields and planner_cost take the exact stacked eval,
    and the Holder diagnostic the x-free stacked eval, which forms no kernel
    product: each equal to its old per-slice loop bit for bit (the
    potential's within round-off: its stacks take the factor), with
    DENSE_BLOCK lowered so that the kernel products run several blocks
    (n=64 in 8-row blocks, n=100 in 32-row blocks with a 4-row tail)."""

    @pytest.mark.parametrize("n,entries", [(64, 512), (100, 3200)])
    @pytest.mark.parametrize("label", ("convolution", "efficient", "potential", "xfree"))
    def test_equal_their_per_slice_loops(self, monkeypatch, label, n, entries):
        monkeypatch.setattr(model, "DENSE_BLOCK", entries)
        g = Grid(n=n, nt=8)
        prob = make_problem(g, label, lam=0.7, terminal=coupling_from_label(g, label, lam=0.5))
        r = np.random.default_rng(n)
        a = 0.3 * r.standard_normal((g.nt + 1, g.n))
        m = ControlObjective(prob).forward(a)
        # the old loops, one eval per slice
        fields = np.stack([prob.coupling.eval(m[k]) for k in range(g.nt + 1)])
        assert_matches_slices(label, prob.coupling.eval(m, exact=True), fields)
        assert_matches_slices(label, planner_cost(m, a, prob), planner._path_cost(
            prob, m, a, [prob.coupling.eval(m[k]) for k in range(g.nt)], prob.terminal.eval(m[-1])))

    def test_holder_equals_its_per_slice_loop(self, monkeypatch):
        monkeypatch.setattr(model, "DENSE_BLOCK", 512)
        g = Grid(n=64, nt=16)
        prob = make_problem(g, "xfree", lam=0.7)
        sol = solve_mfg(prob)
        eps = 0.125
        idx = _window_levels(g, eps)
        f = np.array([prob.coupling.eval(sol.m.values[k])[0] for k in idx])  # the old loop
        tt = g.times()[idx]
        dts = np.abs(tt[:, None] - tt[None, :])
        mask = dts > 0
        expect = np.max(np.abs(f[:, None] - f[None, :])[mask] / np.sqrt(dts[mask]))
        assert holder_diagnostic(sol, prob, eps) == expect


class TestAdjointGradient:
    @pytest.mark.parametrize("label,term_lam", [("convolution", 0.0),
                                                ("potential", 0.0),
                                                ("xfree", 0.6)])
    def test_matches_finite_differences(self, label, term_lam, rng):
        g = Grid(n=16, nt=8, T=0.5)
        term = coupling_spatial(g, lambda x: np.sin(TWO_PI * x), lam=term_lam)
        prob = make_problem(g, label, lam=0.8, amplitude=0.3, terminal=term)
        obj = ControlObjective(prob)
        a = 0.5 + 0.3 * rng.standard_normal((g.nt + 1, g.n))  # stay off the upwind kink
        grad = obj.evaluate(a)[2]
        h = 1e-6
        for _ in range(25):
            k = int(rng.integers(0, g.nt + 1))
            i = int(rng.integers(0, g.n))
            ap, am = a.copy(), a.copy()
            ap[k, i] += h
            am[k, i] -= h
            fd = (obj.evaluate(ap)[1] - obj.evaluate(am)[1]) / (2 * h)
            assert grad[k, i] == pytest.approx(fd, rel=1e-5, abs=1e-12)

    def test_terminal_level_is_inert(self, rng):
        g = Grid(n=16, nt=8)
        prob = make_problem(g, "convolution", lam=0.5, amplitude=0.3)
        obj = ControlObjective(prob)
        a = rng.standard_normal((g.nt + 1, g.n))
        assert np.all(obj.evaluate(a)[2][g.nt] == 0.0)
        b = a.copy()
        b[g.nt] += 3.0
        assert obj.evaluate(a)[1] == obj.evaluate(b)[1]


class TestPlannerSystem:
    def test_decoupled_equals_mfg(self, grid64, fast_params):
        prob = make_problem(grid64, "zero", amplitude=0.5)
        mfg = solve_mfg(prob, fast_params)
        plan = solve_planner_system(prob, fast_params)
        np.testing.assert_array_equal(plan.u_hat.values, mfg.u.values)
        np.testing.assert_array_equal(plan.m_hat.values, mfg.m.values)

    def test_potential_source_cancels_coupling(self, grid64, fast_params):
        # the optimality source equals -F for a potential coupling, so the
        # planner value function is identically zero and the optimum is the
        # drift-free heat flow with zero cost
        prob = make_problem(grid64, "potential", lam=0.5)
        plan = solve_planner_system(prob, fast_params)
        assert np.abs(plan.u_hat.values).max() < 1e-12
        assert abs(plan.cost) < 1e-12

    def test_efficient_structure_matches_equilibrium(self, grid64, fast_params):
        prob = make_problem(grid64, "efficient", lam=1.0)
        mfg = solve_mfg(prob, fast_params)
        plan = solve_planner_system(prob, fast_params)
        du = feedback_drift(prob, mfg.u.values)
        duh = feedback_drift(prob, plan.u_hat.values)
        assert np.abs(du - duh).max() <= 1e-6

    def test_efficient_with_spatial_terminal_shifts_by_average(self, grid64, fast_params):
        # m-independent G satisfies the terminal structure condition; the
        # planner value differs from the equilibrium one by int G dm(T)
        term = coupling_spatial(grid64, lambda x: np.cos(TWO_PI * x), lam=0.4)
        prob = make_problem(grid64, "efficient", lam=1.0, terminal=term)
        mfg = solve_mfg(prob, fast_params)
        plan = solve_planner_system(prob, fast_params)
        c = float(prob.terminal.eval(mfg.m.values[-1]) @ mfg.m.values[-1]) * grid64.dx
        diff = mfg.u.values - plan.u_hat.values
        assert np.abs(diff - c).max() <= 1e-10

    def test_flux_consistency(self, grid64, fast_params):
        # w_hat + m_hat * dp_h0(x, Du_hat) = 0: the representation formula
        prob = make_problem(grid64, "convolution", lam=1.0)
        plan = solve_planner_system(prob, fast_params)
        u = plan.u_hat.values
        du = (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / (2 * grid64.dx)
        dp = prob.hamiltonian.dp_h0(grid64.xs()[None, :], du)
        defect = plan.w_hat.values + plan.m_hat.values * dp
        assert np.abs(defect).max() <= 1e-10

    def test_cost_field_matches_quadrature(self, grid64, fast_params):
        prob = make_problem(grid64, "convolution", lam=1.0)
        plan = solve_planner_system(prob, fast_params)
        drift = feedback_drift(prob, plan.u_hat.values)
        assert plan.cost == planner_cost(plan.m_hat.values, drift, prob)


class TestPlannerDescent:
    def test_decoupled_stays_at_zero(self, grid64, fast_params):
        prob = make_problem(grid64, "zero", amplitude=0.5)
        plan = solve_planner_descent(prob, fast_params)
        assert abs(plan.cost) < 1e-14
        assert np.abs(plan.control.values).max() < 1e-12

    def test_mutual_oracle_agreement(self, grid64, fast_params):
        for label, lam in [("potential", 0.5), ("convolution", 1.0)]:
            prob = make_problem(grid64, label, lam=lam)
            syst = solve_planner_system(prob, fast_params)
            desc = solve_planner_descent(prob, fast_params)
            scale = 1.0 + max(abs(syst.cost), abs(desc.cost))
            assert abs(syst.cost - desc.cost) <= 1e-3 * scale

    def test_monotone_objective_history(self, grid64, fast_params):
        prob = make_problem(grid64, "convolution", lam=1.0)
        plan = solve_planner_descent(prob, fast_params)
        hist = np.array(plan.objective_history)
        assert np.all(np.diff(hist) <= 1e-15 * (1 + np.abs(hist[:-1])))

    def test_never_exceeds_equilibrium_cost(self, grid64, fast_params):
        prob = make_problem(grid64, "xfree", lam=1.0)
        mfg = solve_mfg(prob, fast_params)
        plan = solve_planner_descent(prob, fast_params, init=mfg.alpha_star)
        assert plan.cost <= social_cost(mfg, prob) + 1e-15
        assert plan.objective_history[0] == pytest.approx(social_cost(mfg, prob), rel=1e-14)

    def test_cost_field_matches_quadrature(self, grid64, fast_params):
        prob = make_problem(grid64, "potential", lam=0.5)
        plan = solve_planner_descent(prob, fast_params)
        assert_matches_slices("potential", plan.cost,
                              planner_cost(plan.m_hat.values, plan.control.values, prob))

    @pytest.mark.parametrize("label", COUPLING_LABELS)
    def test_equilibrium_seed_equals_its_feedback(self, label, fast_params, monkeypatch):
        # init=mfg takes mfg.m as the path of the first evaluation, which is
        # bitwise the forward sweep under mfg.alpha_star: one sweep fewer
        prob = make_problem(Grid(n=32, nt=16), label, lam=1.0)
        mfg = solve_mfg(prob, fast_params)
        sweep, sweeps = planner.fp_forward_sweep, []

        def counting_sweep(*args):
            sweeps[-1] += 1
            return sweep(*args)

        monkeypatch.setattr(planner, "fp_forward_sweep", counting_sweep)
        plans = []
        for init in (mfg, mfg.alpha_star):
            sweeps.append(0)
            plans.append(solve_planner_descent(prob, fast_params, init=init))
        seeded, unseeded = plans
        assert sweeps[0] == sweeps[1] - 1
        assert seeded.cost == unseeded.cost and seeded.iterations == unseeded.iterations
        assert seeded.objective_history == unseeded.objective_history
        assert np.array_equal(seeded.control.values, unseeded.control.values)
        assert np.array_equal(seeded.u_hat.values, unseeded.u_hat.values)

    def test_bad_init_shape_rejected(self, grid64, fast_params):
        prob = make_problem(grid64, "zero", amplitude=0.0)
        with pytest.raises(ValueError):
            solve_planner_descent(prob, fast_params, init=np.zeros((3, grid64.n)))

    def test_a_returned_point_never_evaluated_raises(self, monkeypatch):
        grid = Grid(n=16, nt=8)
        prob = make_problem(grid, "convolution", lam=1.0)
        minimize = planner.minimize

        def shifted_minimize(*args, **kwargs):
            res = minimize(*args, **kwargs)
            res.x = res.x + 1.0
            return res

        monkeypatch.setattr(planner, "minimize", shifted_minimize)
        with pytest.raises(RuntimeError, match="neither its latest evaluation"):
            solve_planner_descent(prob, init=np.zeros((grid.nt + 1, grid.n)))

    # the second case ends in a line-search stagnation, where L-BFGS-B
    # returns the last accepted iterate rather than the last evaluated point;
    # each evaluation is one forward sweep and one adjoint sweep, inside
    # ControlObjective.gradient, and the result sweeps no more
    @pytest.mark.parametrize("n, nt, label, stagnates", [(64, 64, "convolution", False),
                                                         (16, 8, "efficient", True)])
    def test_one_forward_sweep_per_evaluation(self, n, nt, label, stagnates, fast_params,
                                              monkeypatch):
        grid = Grid(n=n, nt=nt)
        prob = make_problem(grid, label, lam=1.0)
        mfg = solve_mfg(prob, fast_params)
        a0 = mfg.alpha_star.values
        sweep, gradient, minimize, adjoint = (planner.fp_forward_sweep, ControlObjective.gradient,
                                              planner.minimize, planner.adjoint_sweep)
        counts = {"sweeps": 0, "gradients": 0, "adjoints": 0, "evals": 0}
        accepted = []

        def counting_sweep(*args):
            counts["sweeps"] += 1
            return sweep(*args)

        def counting_gradient(self, *args):
            counts["gradients"] += 1
            return gradient(self, *args)

        def counting_adjoint(*args):
            counts["adjoints"] += 1
            return adjoint(*args)

        def recording_minimize(fun, x0, callback=None, **kwargs):
            def counting_fun(vec):
                counts["evals"] += 1
                return fun(vec)

            def record(vec):
                accepted.append(vec.copy())
                callback(vec)
            return minimize(counting_fun, x0, callback=record, **kwargs)

        monkeypatch.setattr(planner, "fp_forward_sweep", counting_sweep)
        monkeypatch.setattr(ControlObjective, "gradient", counting_gradient)
        monkeypatch.setattr(planner, "adjoint_sweep", counting_adjoint)
        monkeypatch.setattr(planner, "minimize", recording_minimize)
        plan = solve_planner_descent(prob, fast_params, init=mfg.alpha_star)
        monkeypatch.undo()
        assert plan.stagnated == stagnates
        assert counts["sweeps"] == counts["gradients"] == counts["adjoints"] == counts["evals"] > 1

        # the values a fresh sweep and planner_cost give at every point
        def cost_at(a):
            a = a.reshape(a0.shape)
            return planner_cost(sweep(grid, prob.m0, a), a, prob)

        assert plan.objective_history == tuple(cost_at(a) for a in [a0] + accepted)
        a_opt = plan.control.values
        assert plan.cost == cost_at(a_opt)
        assert np.array_equal(plan.m_hat.values, sweep(grid, prob.m0, a_opt))
        # u_hat is the returned point's own adjoint sweep, in value-function units
        obj = ControlObjective(prob)
        m_hat = plan.m_hat.values
        lam_path = obj.gradient(a_opt, m_hat, obj._path_terms(m_hat))[1]
        assert np.array_equal(plan.u_hat.values, lam_path / grid.dx)


class TestFactorPricedPotential:
    """Why the potential's stacked products may take the catalog factor.

    By construction int F(x, m) m(dx) = 0, and with the mass conserved its
    residual field (1 - 2M) F is -F: the descent's adjoint source
    F + residual and F's term of the objective vanish to round-off.  So
    the rounding of F's products cannot steer the descent, and the
    iteration counts are the same with the factor and with exact products.
    """

    @pytest.mark.parametrize("n", (16, 32))
    def test_source_and_objective_term_vanish(self, n):
        prob = make_problem(Grid(n=n, nt=16), "potential", lam=1.0)
        m = solve_mfg(prob).m.values
        fields, residuals = prob.coupling._path_terms(m, exact=True)
        for m_k, f_k, r_k in zip(m, fields, residuals):
            scale = 1e-14 * np.abs(f_k).max()
            assert np.abs(f_k + r_k).max() <= scale
            assert abs(float(f_k @ m_k) * prob.grid.dx) <= scale

    @pytest.mark.parametrize("n", (16, 32))
    def test_counts_equal_with_exact_products(self, monkeypatch, n):
        prob = make_problem(Grid(n=n, nt=16), "potential", lam=1.0)
        counts, paths = [], []
        for force_exact in (False, True):
            if force_exact:
                products = model.kernel_products
                monkeypatch.setattr(model, "kernel_products",
                                    lambda k, m, exact=False, factor=None: products(k, m, True))
            mfg = solve_mfg(prob)
            counts.append((mfg.iterations, solve_planner_descent(prob, init=mfg).iterations))
            paths.append(mfg.m.values)
        assert not np.array_equal(*paths)  # the two pricings round differently
        assert counts[0] == counts[1]
