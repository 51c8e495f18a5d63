"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

Desk scale is d=1, n=128, nt=256.  All tolerances are fixed here, not
calibrated at run time.  Relative tolerances written as "tol * scale" use
scale = 1 + |quantities involved| (the mixed absolute/relative convention
used throughout the package).
"""

import json
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

from mfglab import (
    Grid,
    SolverParams,
    build_perturbation_running,
    build_perturbation_terminal,
    certificate,
    convention_defect,
    default_epsilon,
    delta_m_fd_check,
    duality_check,
    equilibrium,
    lb_integrands,
    phi_eval,
    residual_field,
    social_cost,
    solve_mfg,
    solve_planner_descent,
    solve_planner_system,
)
from mfglab.harness import fit_scaling, read_rows, run
from mfglab.model import coupling_from_label
from conftest import make_problem, random_density

DESK_N, DESK_NT = 128, 256
CATALOG = ("convolution", "efficient", "potential", "xfree")


def report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"{status} [criterion {criterion:2d}] {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@dataclass
class Bundle:
    problem: object
    params: SolverParams
    sol: object
    desc: object
    cost: float
    eps: float

    @property
    def gap(self):
        return self.cost - self.desc.cost


def make_bundle(label, lam=1.0, amp=0.5, n=DESK_N, nt=DESK_NT, tol=1e-8):
    g = Grid(n=n, nt=nt)
    problem = make_problem(g, label, lam=lam, amplitude=amp)
    params = SolverParams(tol_fixed_point=tol)
    sol = solve_mfg(problem, params)
    desc = solve_planner_descent(problem, params, init=sol.alpha_star)
    return Bundle(problem, params, sol, desc, social_cost(sol, problem),
                  default_epsilon(g))


@pytest.fixture(scope="module")
def desk():
    return {label: make_bundle(label) for label in CATALOG}


def phi_samples(b: Bundle, h_samples: int = 32):
    """phi values over both perturbation variants at the standard h grid."""
    out = []
    eq = equilibrium(b.sol, b.problem)
    for builder in (build_perturbation_running, build_perturbation_terminal):
        pert = builder(eq, b.eps)
        if np.abs(pert.mu.values).max() == 0.0:
            continue
        tau = pert.tau if np.isfinite(pert.tau) else 1.0
        for h in np.geomspace(1e-4 * tau, tau, h_samples):
            out.append(phi_eval(b.sol, pert, h, b.problem))
    return np.array(out)


class TestCriterion1:
    def test_efficient_structure_zero_gap(self, desk):
        b = desk["efficient"]
        res_sup = max(np.abs(residual_field(b.problem.coupling, b.sol.m.values[k])).max()
                      for k in range(b.problem.grid.nt + 1))
        ok_res = res_sup <= 1e-6
        ok_gap = abs(b.gap) <= 1e-3 * (1.0 + b.cost)
        coarse = make_bundle("efficient", n=64, nt=128)
        ratio = coarse.gap / b.gap if b.gap > 0 else np.inf
        ok_ratio = ratio >= 3.0
        report(1, ok_res and ok_gap and ok_ratio,
               f"efficient coupling: residual_sup={res_sup:.2e} (<=1e-6), "
               f"|gap|={abs(b.gap):.2e} (<= {1e-3 * (1 + b.cost):.2e}), "
               f"refinement ratio={ratio:.2f} (>=3)")


class TestCriterion2:
    def test_constant_free_lower_bound_inequality(self, desk):
        details = []
        ok = True
        for label in CATALOG:
            b = desk[label]
            phis = phi_samples(b)
            tol = 1e-6 * (1.0 + abs(b.desc.cost))
            worst = float((phis - b.desc.cost).min()) if phis.size else 0.0
            cert = max(0.0, b.cost - phis.min()) if phis.size else 0.0
            ok_phi = phis.size == 0 or worst >= -tol
            ok_cert = 0.0 <= cert <= b.gap + 1e-6 * (1.0 + b.cost)
            ok = ok and ok_phi and ok_cert
            details.append(f"{label}: min(phi-C*)={worst:+.2e}, cert={cert:.2e}")
        report(2, ok, "phi(h) >= C*_descent - 1e-6 scale and cert in [0, gap+tol] -- "
               + "; ".join(details))


class TestCriterion3:
    def test_strict_inefficiency_detection(self):
        tol = 1e-9
        b = make_bundle("convolution", lam=1.0, amp=0.8, tol=tol)
        cert = certificate(equilibrium(b.sol, b.problem), b.eps)
        ok = cert >= 10.0 * tol
        report(3, ok, f"convolution lambda=1: certificate={cert:.3e} >= "
               f"10 x fixed-point tol = {10 * tol:.1e}")


class TestCriterion4:
    def test_planner_mutual_oracle(self):
        b = make_bundle("potential", lam=0.5)
        syst = solve_planner_system(b.problem, b.params)
        scale = 1.0 + max(abs(syst.cost), abs(b.desc.cost))
        ok_agree = abs(syst.cost - b.desc.cost) <= 1e-3 * scale
        hist = np.array(b.desc.objective_history)
        ok_mono = bool(np.all(np.diff(hist) <= 1e-15 * (1.0 + np.abs(hist[:-1]))))
        report(4, ok_agree and ok_mono,
               f"potential benchmark: |C*_system - C*_descent| = "
               f"{abs(syst.cost - b.desc.cost):.2e} (<= {1e-3 * scale:.1e}), "
               f"descent monotone over {len(hist)} accepted steps: {ok_mono}")


class TestCriterion5:
    def test_measure_derivative_calculus(self):
        g = Grid(n=64, nt=16)
        gen = np.random.default_rng(1234)
        worst_fd = 0.0
        worst_conv = 0.0
        count = 0
        for label in CATALOG:
            c = coupling_from_label(g, label, lam=1.0)
            for _ in range(30):
                m = random_density(g, gen)
                i, j = (int(v) for v in gen.integers(0, g.n, size=2))
                worst_fd = max(worst_fd, delta_m_fd_check(c, m, i, j, s=1e-7))
                worst_conv = max(worst_conv, convention_defect(c, m))
                count += 1
        ok = worst_fd <= 1e-5 and worst_conv <= 1e-8
        report(5, ok, f"{count} random samples: max fd-check error={worst_fd:.2e} "
               f"(<=1e-5), max convention integral={worst_conv:.2e} (<=1e-8)")


class TestCriterion6:
    def test_conservation_suite(self, desk):
        ok = True
        details = []
        for label in CATALOG:
            b = desk[label]
            g = b.problem.grid
            m = b.sol.m.values
            mass_err = float(np.abs(m.sum(axis=1) * g.dx - 1.0).max())
            min_m = float(m.min())
            term_err = float(np.abs(b.sol.u.values[-1]
                                    - b.problem.terminal.eval(m[-1])).max())
            res = max(b.sol.hjb_residual, b.sol.fpk_residual)
            good = (mass_err <= 1e-12 and min_m >= -1e-12 and term_err == 0.0
                    and res <= 10 * b.params.tol_fixed_point)
            ok = ok and good
            details.append(f"{label}: mass={mass_err:.1e} min_m={min_m:.1e} "
                           f"term={term_err:.1e} residuals={res:.1e}")
        report(6, ok, "; ".join(details))


class TestCriterion7:
    def test_potential_structure_identities(self, desk):
        b = desk["potential"]
        g = b.problem.grid
        m = b.sol.m.values
        fhat = max(abs(float(b.problem.coupling.eval(m[k]) @ m[k]) * g.dx)
                   for k in range(g.nt + 1))
        resid_vs_f = max(float(np.abs(residual_field(b.problem.coupling, m[k])
                                      + b.problem.coupling.eval(m[k])).max())
                         for k in range(g.nt + 1))
        lb_f, _ = lb_integrands(equilibrium(b.sol, b.problem), 0.0)
        w = np.full(g.nt + 1, g.dt)
        w[0] = w[-1] = g.dt / 2
        f_sq = sum(w[k] * float(b.problem.coupling.eval(m[k]) ** 2 @ np.ones(g.n))
                   * g.dx for k in range(g.nt + 1))
        ok = (fhat <= 1e-10 and resid_vs_f <= 1e-8
              and abs(lb_f - f_sq) <= 1e-12 * (1.0 + lb_f))
        report(7, ok, f"potential coupling: max|int F dm|={fhat:.2e} (<=1e-10), "
               f"max|resid+F|={resid_vs_f:.2e} (<=1e-8), "
               f"|lb_F - int int F^2|={abs(lb_f - f_sq):.2e}")


class TestCriterion8:
    def test_bound_sandwich_scaling(self, tmp_path):
        cfg = {
            "schema": 1,
            "grid": {"n": DESK_N, "nt": DESK_NT},
            "coupling": {"label": "potential", "lambda": 1.0},
            "terminal": {"label": "zero"},
            "m0": {"kind": "cosine", "amplitude": 0.8},
            "solver": {"tol_fixed_point": 1e-9, "max_iters": 200},
            "seed": 0,
            "sweep": {"parameter": "coupling.lambda",
                      "values": [0.125, 0.25, 0.5, 1.0]},
        }
        rows = run(cfg, tmp_path / "sweep.csv")
        fit = fit_scaling(rows, "coupling_lambda", "gap", tolerance=1e-9)
        ok = (not fit.degenerate) and 1.0 <= fit.slope <= 4.0 and fit.r2 >= 0.98
        report(8, ok, f"gap vs lambda over {fit.n_used} points: "
               f"slope={fit.slope:.3f} (in [1, 4]), r2={fit.r2:.5f} (>=0.98)")


class TestCriterion9:
    def test_duality_inequality(self, desk):
        ok = True
        details = []
        for label in ("potential", "efficient"):
            b = desk[label]
            syst = solve_planner_system(b.problem, b.params)
            rep = duality_check(b.sol, syst, b.problem)
            scale = 1.0 + rep.lhs + abs(rep.rhs)
            good = rep.slack >= -1e-6 * scale
            ok = ok and good
            details.append(f"{label}: slack={rep.slack:+.2e} (>= {-1e-6 * scale:.1e})")
        report(9, ok, "convexity terms vs coupling terms -- " + "; ".join(details))


class TestCriterion10:
    def _base_config(self):
        return {
            "schema": 1,
            "grid": {"n": 32, "nt": 16},
            "coupling": {"label": "potential", "lambda": 0.5},
            "terminal": {"label": "zero"},
            "m0": {"kind": "cosine", "amplitude": 0.5},
            "solver": {"tol_fixed_point": 1e-8, "max_iters": 100},
            "seed": 0,
        }

    def test_determinism(self, tmp_path):
        cfg = self._base_config()
        cfg["sweep"] = {"parameter": "coupling.lambda", "values": [0.5, 1.0]}
        run(cfg, tmp_path / "a.csv")
        run(cfg, tmp_path / "b.csv")
        a = (tmp_path / "a.csv").read_text().splitlines()
        b = (tmp_path / "b.csv").read_text().splitlines()
        stripped = [line.rsplit(",", 1)[0] for line in a]
        ok = stripped == [line.rsplit(",", 1)[0] for line in b]
        report(10, ok, "identical config reruns bitwise identical "
               "(all columns except the trailing wall time)")

    def test_interrupted_sweep_leaves_parseable_rows(self, tmp_path):
        cfg = self._base_config()
        cfg["grid"] = {"n": 64, "nt": 64}
        cfg["sweep"] = {"parameter": "coupling.lambda",
                        "values": [0.25, 0.5, 0.75, 1.0, 1.25, 1.5]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "rows.csv"
        proc = subprocess.Popen(
            [sys.executable, "-m", "mfglab.cli", "sweep",
             "--config", str(path), "--out", str(out)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.time() + 300
            rows = []
            while time.time() < deadline:
                if out.exists():
                    try:
                        rows = read_rows(out)
                    except Exception:
                        rows = []
                    if rows:
                        break
                time.sleep(0.1)
        finally:
            proc.kill()
            proc.wait()
        parsed = read_rows(out)
        ok = len(parsed) >= 1 and all(r["coupling"] == "potential" for r in parsed)
        report(10, ok, f"killed sweep mid-run: {len(parsed)} complete row(s) "
               "parse back cleanly")
