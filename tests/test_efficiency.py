import dataclasses

import numpy as np
import pytest

from mfglab import (
    Grid,
    build_perturbation_running,
    build_perturbation_terminal,
    certificate,
    default_epsilon,
    duality_check,
    equilibrium,
    full_report,
    holder_diagnostic,
    lb_integrands,
    phi_eval,
    residual_field,
    social_cost,
    solve_mfg,
    solve_planner_descent,
    solve_planner_system,
    ub_norm,
    planner_cost,
)
from mfglab import harness
from mfglab.efficiency import EfficiencyReport, _phi_stack, _ramp_running
from mfglab.errors import MassConservationError
from mfglab.grids import DensityPath, continuity_residual_1d
from mfglab.model import COUPLING_LABELS, Coupling, coupling_from_label, coupling_spatial

from conftest import CLOSED_FORM_LABELS, make_problem

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def bench64():
    """Converged solutions on the fast grid, shared across this module."""
    g = Grid(n=64, nt=64)
    out = {}
    for label, lam in [("zero", 0.0), ("convolution", 1.0), ("efficient", 1.0),
                       ("potential", 0.8), ("xfree", 1.0)]:
        prob = make_problem(g, label, lam=lam)
        out[label] = (prob, solve_mfg(prob))
    return g, out


class TestSocialCost:
    def test_trivial_zero(self, bench64):
        g, b = bench64
        prob, sol = b["zero"]
        assert social_cost(sol, prob) == 0.0

    def test_same_quadrature_as_planner_cost(self, bench64):
        g, b = bench64
        prob, sol = b["potential"]
        assert social_cost(sol, prob) == planner_cost(sol.m, sol.alpha_star, prob)


class TestResiduals:
    def test_m_independent_coupling_vanishes(self, grid32, rng):
        c = coupling_spatial(grid32, lambda x: np.cos(TWO_PI * x))
        m = np.ones(grid32.n)
        assert np.abs(residual_field(c, m)).max() == 0.0

    def test_efficient_vanishes_along_path(self, bench64):
        g, b = bench64
        prob, sol = b["efficient"]
        worst = max(np.abs(residual_field(prob.coupling, sol.m.values[k])).max()
                    for k in range(g.nt + 1))
        assert worst <= 1e-8

    def test_potential_equals_minus_coupling(self, bench64):
        g, b = bench64
        prob, sol = b["potential"]
        m_T = sol.m.values[-1]
        np.testing.assert_allclose(residual_field(prob.coupling, m_T),
                                   -prob.coupling.eval(m_T), atol=1e-8)

    def test_terminal_residual_zero_cases(self, bench64):
        g, b = bench64
        prob, sol = b["convolution"]
        assert np.abs(residual_field(prob.terminal, sol.m.values[-1])).max() == 0.0

    def test_terminal_residual_against_quadrature_oracle(self, bench64, rng):
        g, b = bench64
        _, sol = b["convolution"]
        lam = 0.6
        term = coupling_from_label(g, "convolution", lam=lam)
        m = sol.m.values[-1]
        x = g.xs()
        phi = np.cos(TWO_PI * (x[:, None] - x[None, :]))
        delta = lam * (phi - (phi @ m * g.dx)[:, None])
        oracle = m @ delta * g.dx
        np.testing.assert_allclose(residual_field(term, m), oracle, atol=1e-12)


class TestBoundIntegrands:
    def test_efficient_gives_zero(self, bench64):
        g, b = bench64
        prob, sol = b["efficient"]
        eps = default_epsilon(g)
        lb_f, lb_g = lb_integrands(equilibrium(sol, prob), eps)
        assert lb_f <= 1e-12 and lb_g == 0.0

    def test_potential_equals_coupling_square_integral(self, bench64):
        # the residual is -F pointwise, so the squared-residual integral is
        # exactly the time-space integral of F^2 in the same quadrature
        g, b = bench64
        prob, sol = b["potential"]
        lb_f, _ = lb_integrands(equilibrium(sol, prob), 0.0)
        w = np.full(g.nt + 1, g.dt)
        w[0] = w[-1] = g.dt / 2
        oracle = sum(w[k] * float(prob.coupling.eval(sol.m.values[k]) ** 2
                                  @ np.ones(g.n)) * g.dx
                     for k in range(g.nt + 1))
        assert lb_f == pytest.approx(oracle, rel=1e-12)

    def test_window_monotone(self, bench64):
        g, b = bench64
        prob, sol = b["convolution"]
        full, lb_g0 = lb_integrands(equilibrium(sol, prob), 0.0)
        windowed, lb_g1 = lb_integrands(equilibrium(sol, prob), default_epsilon(g))
        assert windowed <= full
        assert lb_g0 == lb_g1

    def test_eps_validation(self, bench64):
        g, b = bench64
        prob, sol = b["convolution"]
        with pytest.raises(ValueError):
            lb_integrands(equilibrium(sol, prob), 0.6 * (g.T - g.t0))

    def test_empty_window_rejected(self):
        # on seven steps no time level lies in [0.45, 0.55]
        g = Grid(n=16, nt=7)
        prob = make_problem(g, "convolution")
        with pytest.raises(ValueError, match="no time level"):
            lb_integrands(equilibrium(solve_mfg(prob), prob), 0.45)

    def test_ub_norm_consistency(self, bench64):
        g, b = bench64
        prob, sol = b["convolution"]
        lb_f, lb_g = lb_integrands(equilibrium(sol, prob), 0.0)
        assert lb_g == 0.0  # zero terminal cost
        assert ub_norm(equilibrium(sol, prob)) == pytest.approx(np.sqrt(lb_f + lb_g), rel=1e-15)

    def test_ub_norm_efficient_vanishes(self, bench64):
        g, b = bench64
        prob, sol = b["efficient"]
        assert ub_norm(equilibrium(sol, prob)) <= 1e-6

    def test_homogeneity_in_strength(self, bench64):
        # at a frozen density path the residual is linear in the coupling
        # strength: the squared integral scales by lambda^2, the norm by lambda
        g, b = bench64
        prob, sol = b["convolution"]
        prob2 = make_problem(g, "convolution", lam=2.0)
        lb1, _ = lb_integrands(equilibrium(sol, prob), 0.0)
        lb2, _ = lb_integrands(equilibrium(sol, prob2), 0.0)
        assert lb2 == pytest.approx(4.0 * lb1, rel=1e-12)
        assert ub_norm(equilibrium(sol, prob2)) == pytest.approx(
            2.0 * ub_norm(equilibrium(sol, prob)), rel=1e-12)


class TestPerturbations:
    def test_running_invariants(self, bench64):
        g, b = bench64
        prob, sol = b["convolution"]
        eps = default_epsilon(g)
        pert = build_perturbation_running(equilibrium(sol, prob), eps)
        mu = pert.mu.values
        assert np.abs(mu.sum(axis=1) * g.dx).max() <= 1e-10
        assert np.all(mu[0] == 0.0)
        scale = np.abs(mu).max() * (1.0 / g.dt + 1.0 / g.dx**2)
        assert continuity_residual_1d(pert.mu, pert.beta, g) <= 1e-8 * scale
        m = sol.m.values
        assert np.all(m + pert.tau * mu >= 0.5 * m - 1e-12)

    def test_terminal_invariants(self, bench64):
        g, b = bench64
        term = coupling_spatial(g, lambda x: np.cos(TWO_PI * x), lam=0.5)
        # m-dependent terminal cost so the residual is nonzero
        prob = make_problem(g, "zero", amplitude=0.5,
                            terminal=coupling_from_label(g, "convolution", lam=0.5))
        sol = solve_mfg(prob)
        eps = default_epsilon(g)
        pert = build_perturbation_terminal(equilibrium(sol, prob), eps)
        t = g.times()
        support = np.abs(pert.mu.values).max(axis=1) > 0
        assert not support[t < g.T - eps - 1e-12].any()
        m_T = sol.m.values[-1]
        expect = -m_T * residual_field(prob.terminal, m_T)
        np.testing.assert_allclose(pert.mu.values[-1], expect, atol=1e-14)

    def test_efficient_direction_vanishes(self, bench64):
        g, b = bench64
        prob, sol = b["efficient"]
        pert = build_perturbation_running(equilibrium(sol, prob), default_epsilon(g))
        assert np.abs(pert.mu.values).max() <= 1e-12

    def test_zero_terminal_cost_gives_zero_direction(self, bench64):
        g, b = bench64
        prob, sol = b["convolution"]  # G = 0 here
        pert = build_perturbation_terminal(equilibrium(sol, prob), default_epsilon(g))
        assert np.abs(pert.mu.values).max() == 0.0
        assert np.all(pert.beta.values == 0.0)

    def test_bad_eps(self, bench64):
        g, b = bench64
        prob, sol = b["convolution"]
        with pytest.raises(ValueError):
            build_perturbation_running(equilibrium(sol, prob), 0.0)

    @staticmethod
    def vanishing_at(sol, k):
        """sol with the mass of m[k, 3] moved onto m[k, 4]: still a density, zero at one cell."""
        m = sol.m.values.copy()
        m[k, 4] += m[k, 3]
        m[k, 3] = 0.0
        return dataclasses.replace(sol, m=DensityPath(m, sol.m.grid))

    def test_running_needs_a_positive_density_where_the_ramp_is_active(self, bench64):
        g, b = bench64
        prob, sol = b["convolution"]
        eps = default_epsilon(g)
        active = np.flatnonzero(_ramp_running(g, eps) > 0.0)
        k = int(active[len(active) // 2])
        with pytest.raises(MassConservationError, match=f"density vanishes on slice {k};"):
            build_perturbation_running(equilibrium(self.vanishing_at(sol, k), prob), eps)
        assert _ramp_running(g, eps)[0] == 0.0  # a zero where the ramp is off is no error
        build_perturbation_running(equilibrium(self.vanishing_at(sol, 0), prob), eps)

    def test_terminal_needs_a_positive_terminal_density(self, bench64):
        g, b = bench64
        prob, sol = b["convolution"]
        eq = equilibrium(self.vanishing_at(sol, g.nt), prob)
        with pytest.raises(MassConservationError, match="terminal density vanishes"):
            build_perturbation_terminal(eq, default_epsilon(g))


class TestPhi:
    def test_zero_perturbation_size_reproduces_cost(self, bench64):
        g, b = bench64
        prob, sol = b["convolution"]
        pert = build_perturbation_running(equilibrium(sol, prob), default_epsilon(g))
        assert phi_eval(sol, pert, 0.0, prob) == social_cost(sol, prob)

    def test_h_range_enforced(self, bench64):
        g, b = bench64
        prob, sol = b["convolution"]
        pert = build_perturbation_running(equilibrium(sol, prob), default_epsilon(g))
        with pytest.raises(ValueError):
            phi_eval(sol, pert, pert.tau * 1.01, prob)
        with pytest.raises(ValueError):
            phi_eval(sol, pert, -0.1, prob)

    def test_derivative_matches_residual_formula(self):
        # the first variation of phi at 0 is minus the ramp-weighted integral
        # of the squared residual against m
        g = Grid(n=128, nt=256)
        prob = make_problem(g, "potential", lam=0.8)
        sol = solve_mfg(prob)
        eps = default_epsilon(g)
        pert = build_perturbation_running(equilibrium(sol, prob), eps)
        c0 = social_cost(sol, prob)
        m = sol.m.values
        formula = -sum(g.dt * pert.gamma[k]
                       * float((residual_field(prob.coupling, m[k]) ** 2) @ m[k]) * g.dx
                       for k in range(g.nt))
        h = 1e-4 * pert.tau
        fd = (phi_eval(sol, pert, h, prob) - c0) / h
        assert fd == pytest.approx(formula, rel=0.1)

    def test_above_planner_for_samples(self, bench64, fast_params):
        g, b = bench64
        prob, sol = b["potential"]
        desc = solve_planner_descent(prob, fast_params, init=sol.alpha_star)
        pert = build_perturbation_running(equilibrium(sol, prob), default_epsilon(g))
        tau = pert.tau if np.isfinite(pert.tau) else 1.0
        for h in np.geomspace(1e-4 * tau, tau, 8):
            assert phi_eval(sol, pert, h, prob) >= desc.cost - 1e-6 * (1 + abs(desc.cost))

    def test_efficient_profile_is_flat(self, bench64):
        # the direction field is round-off dust, so phi stays at phi(0) for
        # any h that keeps h * ||mu|| small (tau itself is astronomically
        # large here and the far end of the admissible range only increases
        # the cost, certifying nothing)
        g, b = bench64
        prob, sol = b["efficient"]
        pert = build_perturbation_running(equilibrium(sol, prob), default_epsilon(g))
        c0 = social_cost(sol, prob)
        for h in np.geomspace(1e-3, 1e3, 5):
            assert abs(phi_eval(sol, pert, h, prob) - c0) <= 1e-10 * (1 + abs(c0))


class TestCertificate:
    def test_zero_problem(self, bench64):
        g, b = bench64
        prob, sol = b["zero"]
        assert certificate(equilibrium(sol, prob), default_epsilon(g)) == 0.0

    def test_efficient_below_tolerance(self, bench64):
        g, b = bench64
        prob, sol = b["efficient"]
        assert certificate(equilibrium(sol, prob), default_epsilon(g)) <= 1e-8

    def test_strictly_positive_and_below_gap(self, bench64, fast_params):
        g, b = bench64
        prob, sol = b["convolution"]
        cert = certificate(equilibrium(sol, prob), default_epsilon(g))
        desc = solve_planner_descent(prob, fast_params, init=sol.alpha_star)
        gap = social_cost(sol, prob) - desc.cost
        assert cert > 1e-9
        assert cert <= gap + 1e-6 * (1 + abs(social_cost(sol, prob)))

    def test_agrees_with_per_h_reference_loop(self):
        # a nonzero terminal cost, so both perturbation variants run; the
        # stack is priced by one kernel product per step, which sums in
        # another order than phi_eval's per-slice products: each phi agrees
        # on its own scale, the certificate (cost_eq - phi, a difference of
        # two cost-sized numbers) on the cost scale
        g = Grid(n=32, nt=64)
        prob = make_problem(g, "convolution", lam=1.0,
                            terminal=coupling_from_label(g, "convolution", lam=0.5))
        sol = solve_mfg(prob)
        eps = default_epsilon(g)
        eq = equilibrium(sol, prob)
        cost_eq = social_cost(sol, prob)
        best = 0.0
        for builder in (build_perturbation_running, build_perturbation_terminal):
            pert = builder(eq, eps)
            assert float(np.abs(pert.mu.values).max()) > 0.0
            tau = pert.tau if np.isfinite(pert.tau) else 1.0
            hs = np.geomspace(1e-4 * tau, tau, 32)
            phis = np.array([phi_eval(sol, pert, h, prob) for h in hs])
            stacked = _phi_stack(sol, pert, hs, prob)
            assert np.all(np.abs(stacked - phis) <= 1e-12 * (1.0 + np.abs(phis)))
            for phi in phis:
                best = max(best, cost_eq - phi)
        assert best > 0.0
        assert abs(certificate(eq, eps) - best) <= 1e-12 * (1.0 + abs(cost_eq))


class TestDuality:
    def test_decoupled_both_sides_zero(self, bench64, fast_params):
        g, b = bench64
        prob, sol = b["zero"]
        plan = solve_planner_system(prob, fast_params)
        rep = duality_check(sol, plan, prob)
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_potential_slack(self, bench64, fast_params):
        g, b = bench64
        prob, sol = b["potential"]
        plan = solve_planner_system(prob, fast_params)
        rep = duality_check(sol, plan, prob)
        assert rep.slack >= -1e-6 * (1.0 + rep.lhs + abs(rep.rhs))

    def test_efficient_sides_vanish(self, bench64, fast_params):
        g, b = bench64
        prob, sol = b["efficient"]
        plan = solve_planner_system(prob, fast_params)
        rep = duality_check(sol, plan, prob)
        assert rep.lhs <= 1e-8
        assert abs(rep.rhs) <= 1e-8


class TestHolder:
    def test_label_guard(self, bench64):
        g, b = bench64
        prob, sol = b["convolution"]
        with pytest.raises(ValueError):
            holder_diagnostic(sol, prob, default_epsilon(g))

    def test_stationary_uniform_gives_zero(self, fast_params):
        g = Grid(n=64, nt=64)
        prob = make_problem(g, "xfree", lam=1.0, amplitude=0.0)
        sol = solve_mfg(prob, fast_params)
        assert holder_diagnostic(sol, prob, default_epsilon(g)) <= 1e-12

    def test_linear_strength_scaling(self, bench64):
        g, b = bench64
        prob, sol = b["xfree"]
        eps = default_epsilon(g)
        h1 = holder_diagnostic(sol, prob, eps)
        prob2 = make_problem(g, "xfree", lam=2.0)
        h2 = holder_diagnostic(sol, prob2, eps)
        assert h2 == pytest.approx(2.0 * h1, rel=1e-12)
        assert h1 > 0.0

    def test_single_level_window_gives_nan(self, tmp_path):
        # at nt=8 the default eps leaves only t = 1/2 in the window
        cfg = {"schema": 1, "grid": {"n": 16, "nt": 8},
               "coupling": {"label": "xfree", "lambda": 1.0}, "terminal": {"label": "zero"},
               "m0": {"kind": "cosine", "amplitude": 0.5}}
        rows = harness.run(cfg, tmp_path / "rows.csv")
        assert len(rows) == 1 and np.isnan(rows[0]["holder"])
        assert len(harness.read_rows(tmp_path / "rows.csv")) == 1


class TestFullReport:
    @pytest.mark.parametrize("label", COUPLING_LABELS)
    def test_fields_are_python_scalars(self, label):
        # every field has its declared Python type, never a numpy scalar
        rep = full_report(make_problem(Grid(n=16, nt=16), label, lam=0.7))
        types = {"float": float, "int": int, "bool": bool}
        for field in dataclasses.fields(rep):
            value = getattr(rep, field.name)
            assert type(value) is types[field.type], (field.name, type(value))

    def test_zero_problem_all_zero(self):
        g = Grid(n=32, nt=16)
        rep = full_report(make_problem(g, "zero", amplitude=0.5))
        assert rep.cost_mfg == 0.0
        assert rep.certificate == 0.0
        assert rep.residual_F_sup == 0.0
        assert rep.ub_norm == 0.0
        assert abs(rep.gap) < 1e-12
        assert rep.mfg_converged and rep.descent_converged and rep.system_converged

    def test_efficient_structure(self):
        g = Grid(n=64, nt=64)
        rep = full_report(make_problem(g, "efficient", lam=1.0))
        assert rep.residual_F_sup <= 1e-6
        assert abs(rep.gap) <= 1e-3 * (1 + rep.cost_mfg)
        assert rep.certificate <= 1e-8
        assert not rep.planner_values_disagree

    def test_potential_benchmark_regression(self):
        g = Grid(n=64, nt=64)
        rep = full_report(make_problem(g, "potential", lam=0.5))
        # frozen from the build grid; the gap equals the equilibrium cost
        # because the planner reaches zero for a potential coupling
        assert rep.cost_planner == pytest.approx(0.0, abs=1e-10)
        assert rep.gap == pytest.approx(rep.cost_mfg, rel=1e-6)
        assert rep.lb_integrand_G == 0.0
        assert rep.holder != rep.holder  # NaN for non-xfree couplings

    def test_fields_equal_the_public_functions_on_the_equilibrium(self):
        # full_report reads its bounds and certificate through the same public
        # functions, on the same record, bit for bit
        g = Grid(n=32, nt=64)
        prob = make_problem(g, "convolution", lam=1.0,
                            terminal=coupling_from_label(g, "convolution", lam=0.5))
        rep = full_report(prob)
        eq = equilibrium(solve_mfg(prob), prob)
        assert (rep.lb_integrand_F, rep.lb_integrand_G) == lb_integrands(eq, rep.epsilon)
        assert rep.ub_norm == ub_norm(eq)
        assert rep.certificate == certificate(eq, rep.epsilon) > 0.0
        assert rep.residual_F_sup == float(np.abs(eq.r_path).max()) > 0.0
        assert rep.residual_G_sup == float(np.abs(eq.r_g).max()) > 0.0
        assert rep.cost_mfg == eq.cost == social_cost(eq.sol, prob)


def _dense_path_terms(coupling, m, exact=False):
    """Coupling._path_terms by the dense reference: eval(m) and (m @ delta(m)) dx."""
    m = np.asarray(m, dtype=float)
    return (np.stack([coupling.eval(m_k) for m_k in m]),
            np.stack([(m_k @ coupling.delta(m_k)) * coupling.grid.dx for m_k in m]))


# the report fields that come from the closed-form residuals of
# Coupling._path_terms: the planner system and the equilibrium's residual path
CLOSED_FORM_FIELDS = ("cost_planner_system", "lb_integrand_F", "lb_integrand_G", "ub_norm",
                      "residual_F_sup", "residual_G_sup", "certificate")
# the descent's fields that follow its residuals, closed-form but for the convolution
DESCENT_COST_FIELDS = ("cost_planner", "gap")


@pytest.fixture(scope="module", params=["convolution", "efficient", "potential", "xfree"])
def fused_and_dense_reports(request):
    """The label, and full_report as is and with every coupling term taken from
    the dense reference."""
    g = Grid(n=32, nt=32)
    terminal = coupling_from_label(g, "convolution", lam=0.3)
    prob = make_problem(g, request.param, lam=0.7, terminal=terminal)
    fused = full_report(prob)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Coupling, "_path_terms", _dense_path_terms)
        dense = full_report(prob)
    return request.param, fused, dense


class TestFusedTermsBitwise:
    # The equilibrium and the descent take their coupling fields from the
    # exact stacked eval, each slice bit for bit its own eval, and the
    # convolution's descent its residuals from one dense delta(m) per
    # slice.  Their rounding must equal the dense reference exactly:
    # L-BFGS stops by stagnation at round-off level, so any change of
    # rounding can move iteration counts and costs.  The tiny bench
    # reference misses such changes; this comparison does not.  The
    # planner system, the residual path and the other labels' descent
    # residuals use closed forms, which agree with the dense reference
    # within round-off; the descent's iteration count stays exact.
    def test_mfg_and_descent_fields_equal_dense_reference_run(self, fused_and_dense_reports):
        label, fused, dense = fused_and_dense_reports
        near = DESCENT_COST_FIELDS if label in CLOSED_FORM_LABELS else ()
        exact = [f for f in EfficiencyReport.SCHEMA if f not in CLOSED_FORM_FIELDS + near]
        assert ({f: repr(getattr(fused, f)) for f in exact}
                == {f: repr(getattr(dense, f)) for f in exact})
        for f in near:
            v = getattr(dense, f)
            assert abs(getattr(fused, f) - v) <= 1e-12 * (1.0 + abs(v)), f

    def test_closed_form_fields_agree_with_dense_reference_run(self, fused_and_dense_reports):
        _, fused, dense = fused_and_dense_reports
        for f in CLOSED_FORM_FIELDS:
            v = getattr(dense, f)
            assert abs(getattr(fused, f) - v) <= 1e-12 * (1.0 + abs(v)), f
