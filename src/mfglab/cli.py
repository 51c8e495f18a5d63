"""Command-line interface.

Exit codes: 0 success, 2 configuration error, an input file that cannot
be read or an output path that cannot be written (one stderr line names
the path), 3 at least one solver did not converge (results are still
written), 4 a solver failed with a MassConservationError,
LinearSolveError or TimeStepDivergenceError (one stderr line names the
error and its message; rows of the points that finished before it are
kept).

load_config checks every value any command reads, the m0 file and a
whole sweep too, so a config error exits 2 before any output exists.
Every command opens its output before it solves, so an --out that
cannot be written exits 2 before any solver runs.  solve-mfg,
solve-planner and fit open it to append, which changes no existing file,
and write their row after solving: after exit 4, a result file that
existed is left as it was, and a new one is left empty.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    ConfigError,
    LinearSolveError,
    MassConservationError,
    TimeStepDivergenceError,
)
from .harness import (
    SCHEMA_VERSION,
    _config_values,
    _fmt,
    build_problem,
    emit_plotdata,
    fit_scaling,
    load_config,
    read_rows,
    run,
)
from .mfg import solve_mfg
from .planner import solve_planner_descent, solve_planner_system

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
EXIT_SOLVER = 4


def _write_row(path: str | Path, columns: list[str], values: list) -> None:
    with open(path, "w") as fh:
        fh.write(f"# schema={SCHEMA_VERSION}\n")
        fh.write(",".join(columns) + "\n")
        fh.write(",".join(_fmt(v) for v in values) + "\n")


def _cmd_solve_mfg(cfg: dict, out: str) -> int:
    from .efficiency import social_cost

    problem, params, _ = build_problem(cfg)
    open(out, "a").close()  # an --out that cannot be written exits 2 before solving
    sol = solve_mfg(problem, params)
    _write_row(out,
               ["converged", "iterations", "fp_residual", "hjb_residual",
                "fpk_residual", "cost_mfg"],
               [sol.converged, sol.iterations, sol.fp_residual, sol.hjb_residual,
                sol.fpk_residual, social_cost(sol, problem)])
    return EXIT_OK if sol.converged else EXIT_NOT_CONVERGED


def _cmd_solve_planner(cfg: dict, out: str) -> int:
    problem, params, _ = build_problem(cfg)
    open(out, "a").close()  # an --out that cannot be written exits 2 before solving
    system = solve_planner_system(problem, params)
    descent = solve_planner_descent(problem, params)
    _write_row(out,
               ["cost_system", "cost_descent", "abs_difference",
                "system_converged", "descent_converged",
                "system_iterations", "descent_iterations"],
               [system.cost, descent.cost, abs(system.cost - descent.cost),
                system.converged, descent.converged,
                system.iterations, descent.iterations])
    ok = system.converged and descent.converged
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def _cmd_run(cfg: dict, out: str) -> int:
    rows = run(cfg, out)
    converged = all(r["mfg_converged"] and r["system_converged"] and r["descent_converged"]
                    for r in rows)
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def _cmd_fit(cfg: dict, rows_path: str, out: str) -> int:
    v = _config_values(cfg)
    for key in ("fit.x_column", "fit.y_column"):
        if v[key] is None:
            raise ConfigError(f"{key}: missing required field")
    rows = read_rows(rows_path)
    open(out, "a").close()  # an --out that cannot be written exits 2 before fitting
    res = fit_scaling(rows, v["fit.x_column"], v["fit.y_column"],
                      tolerance=v["fit.tolerance"])
    _write_row(out, ["slope", "intercept", "r2", "n_used", "degenerate"],
               [res.slope, res.intercept, res.r2, res.n_used, res.degenerate])
    return EXIT_OK


def _cmd_emit(cfg: dict, rows_path: str, out: str) -> int:
    series = _config_values(cfg)["emit.series"]
    if series is None:
        raise ConfigError("emit.series: missing required field")
    emit_plotdata(read_rows(rows_path), [tuple(pair) for pair in series], out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfglab",
        description="Mean field game equilibria vs. the global planner: "
                    "solve, report inefficiency gaps, sweep and fit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("solve-mfg", "solve the equilibrium system for one config point"),
        ("solve-planner", "compute the planner optimum by both routes"),
        ("report", "full efficiency report for one config point"),
        ("sweep", "run the configured parameter sweep"),
        ("fit", "log-log scaling fit over a result file"),
        ("emit", "emit plain-text plot series from a result file"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output path (directory for emit)")
        if name in ("fit", "emit"):
            p.add_argument("--rows", required=True, dest="rows",
                           help="result CSV produced by sweep/report")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "solve-mfg":
            return _cmd_solve_mfg(cfg, args.out)
        if args.command == "solve-planner":
            return _cmd_solve_planner(cfg, args.out)
        if args.command in ("report", "sweep"):
            if args.command == "report":
                cfg.pop("sweep", None)  # report runs the base point only
            return _cmd_run(cfg, args.out)
        if args.command == "fit":
            return _cmd_fit(cfg, args.rows, args.out)
        if args.command == "emit":
            return _cmd_emit(cfg, args.rows, args.out)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # inputs that cannot be read raise ConfigError
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MassConservationError, LinearSolveError, TimeStepDivergenceError) as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
