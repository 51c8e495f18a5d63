import json
from pathlib import Path

import numpy as np
import pytest

from mfglab import cli, harness
from mfglab.cli import main
from mfglab.efficiency import EfficiencyReport, check_epsilon, default_epsilon, full_report
from mfglab.errors import ConfigError, MassConservationError
from mfglab.grids import Grid
from mfglab.harness import (
    NUMBER_COLUMNS,
    RESULT_COLUMNS,
    build_problem,
    emit_plotdata,
    fit_scaling,
    read_rows,
    run,
    validate_config,
)
from mfglab.mfg import SolverParams
from mfglab.model import density_cosine

BASE = {
    "schema": 1,
    "grid": {"n": 32, "nt": 16},
    "coupling": {"label": "potential", "lambda": 0.5},
    "terminal": {"label": "zero"},
    "m0": {"kind": "cosine", "amplitude": 0.5},
    "solver": {"tol_fixed_point": 1e-8, "max_iters": 100},
    "seed": 0,
}


def cfg(**over):
    out = json.loads(json.dumps(BASE))
    for key, val in over.items():
        if isinstance(val, dict) and key in out:
            out[key].update(val)
        else:
            out[key] = val
    return out


def plot_columns(path):
    """The x and y columns of a plot-data file, comment lines skipped."""
    pairs = [line.split() for line in Path(path).read_text().splitlines()
             if not line.startswith("#")]
    return [float(x) for x, _ in pairs], [float(y) for _, y in pairs]


def write_cfg(tmp_path, c, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(c))
    return str(p)


class TestValidation:
    def test_valid(self):
        validate_config(cfg())

    @pytest.mark.parametrize("bad,path", [
        (dict(grid={"n": 2}), "grid.n"),
        (dict(grid={"nt": 1}), "grid.nt"),
        (dict(grid={"T": -1.0}), "grid.T"),
        (dict(coupling={"label": "bogus"}), "coupling.label"),
        (dict(coupling={"kernel": "bogus"}), "coupling.kernel"),
        (dict(m0={"kind": "bogus"}), "m0.kind"),
        (dict(m0={"kind": "cosine", "amplitude": 1.5}), "m0.amplitude"),
        (dict(solver={"tol_fixed_point": -1.0}), "solver.tol_fixed_point"),
        (dict(solver={"damping": 1.5}), "solver.damping"),
        (dict(sweep={"parameter": "bogus", "values": [1]}), "sweep.parameter"),
        (dict(sweep={"parameter": "coupling.lambda", "values": []}), "sweep.values"),
        (dict(sweep={"parameter": "coupling.lambda", "values": [1, "x"]}), "sweep.values[1]"),
        (dict(grid={"nt": 7}, epsilon=0.45), "epsilon"),  # no time level in the window
    ])
    def test_errors_name_the_field(self, bad, path):
        with pytest.raises(ConfigError, match=path.replace("[", r"\[").replace("]", r"\]")):
            validate_config(cfg(**bad))

    def test_build_problem(self):
        problem, params, eps = build_problem(cfg())
        assert problem.coupling.label == "potential"
        assert params.tol_fixed_point == 1e-8
        assert 0 < eps < 0.5

    def test_m0_from_file(self, tmp_path):
        m0 = density_cosine(Grid(n=32, nt=16), 0.3)
        np.savetxt(tmp_path / "m0.txt", m0)
        np.save(tmp_path / "m0.npy", m0)
        for name in ("m0.txt", "m0.npy"):
            c = cfg(m0={"kind": "file", "path": str(tmp_path / name)})
            (point,) = validate_config(c)  # validation reads the file
            assert np.array_equal(point.m0, m0)
            problem, _, _ = build_problem(c)
            assert np.array_equal(problem.m0, m0)


class TestRun:
    def test_single_point(self, tmp_path):
        rows = run(cfg(), tmp_path / "out.csv")
        assert len(rows) == 1
        parsed = read_rows(tmp_path / "out.csv")
        assert len(parsed) == 1
        assert parsed[0]["coupling"] == "potential"
        assert set(parsed[0]) == set(RESULT_COLUMNS)

    def test_sweep_rows_in_order(self, tmp_path):
        c = cfg(sweep={"parameter": "coupling.lambda", "values": [0.25, 0.5, 1.0]})
        rows = run(c, tmp_path / "out.csv")
        lams = [r["coupling_lambda"] for r in rows]
        assert lams == [0.25, 0.5, 1.0]
        assert [r["sweep_index"] for r in rows] == [0, 1, 2]

    def test_deterministic_except_walltime(self, tmp_path):
        c = cfg(sweep={"parameter": "coupling.lambda", "values": [0.5, 1.0]})
        run(c, tmp_path / "a.csv")
        run(c, tmp_path / "b.csv")
        a = (tmp_path / "a.csv").read_text().splitlines()
        b = (tmp_path / "b.csv").read_text().splitlines()
        strip = lambda line: line.rsplit(",", 1)[0]  # wall_time_s is last
        assert [strip(l) for l in a] == [strip(l) for l in b]

    def test_report_columns_read_back_as_numbers(self, tmp_path):
        # numpy scalars in a report (lb_integrand_F is an np.float64) are
        # written as plain numbers, so they parse back as numbers
        run(cfg(), tmp_path / "out.csv")
        (row,) = read_rows(tmp_path / "out.csv")
        for column in EfficiencyReport.SCHEMA:
            assert type(row[column]) in (bool, int, float), (column, row[column])

    def test_non_convergence_recorded_not_raised(self, tmp_path):
        c = cfg(solver={"max_iters": 1, "tol_fixed_point": 1e-15},
                coupling={"label": "convolution", "lambda": 1.0})
        rows = run(c, tmp_path / "out.csv")
        assert rows[0]["mfg_converged"] is False


class TestReadRows:
    def test_schema_line_required(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError):
            read_rows(p)

    def test_schema_line_alone_holds_no_rows(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text("# schema=1\n")
        assert read_rows(p) == []
        c = cfg(fit={"x_column": "coupling_lambda", "y_column": "gap"})
        out = tmp_path / "f.csv"
        assert main(["fit", "--config", write_cfg(tmp_path, c), "--rows", str(p),
                     "--out", str(out)]) == 0
        (row,) = read_rows(out)
        assert row["n_used"] == 0 and row["degenerate"] is True

    def test_torn_final_line_tolerated(self, tmp_path):
        c = cfg()
        run(c, tmp_path / "out.csv")
        text = (tmp_path / "out.csv").read_text()
        lines = text.splitlines()
        torn = "\n".join(lines + [lines[-1][: len(lines[-1]) // 3]])
        p = tmp_path / "torn.csv"
        p.write_text(torn)
        assert len(read_rows(p)) == 1


class TestFitScaling:
    def test_exact_power(self):
        rows = [{"x": v, "y": v**2} for v in (0.5, 1.0, 2.0, 4.0)]
        fit = fit_scaling(rows, "x", "y", tolerance=1e-12)
        assert fit.slope == pytest.approx(2.0, abs=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert not fit.degenerate

    def test_constant_rejected(self):
        rows = [{"x": v, "y": 3.0} for v in (1.0, 2.0, 4.0)]
        assert fit_scaling(rows, "x", "y").degenerate

    def test_noise_floor_filter(self):
        rows = [{"x": 1.0, "y": 1e-12}, {"x": 2.0, "y": 4.0}, {"x": 4.0, "y": 16.0}]
        fit = fit_scaling(rows, "x", "y", tolerance=1e-8)
        assert fit.n_used == 2
        assert fit.slope == pytest.approx(2.0, abs=1e-10)

    def test_all_below_floor_degenerate(self):
        rows = [{"x": v, "y": 1e-12} for v in (1.0, 2.0)]
        assert fit_scaling(rows, "x", "y", tolerance=1e-8).degenerate


class TestEmit:
    def test_round_trip(self, tmp_path):
        rows = [{"coupling_lambda": 0.5, "gap": 1.2345678901234e-5},
                {"coupling_lambda": 1.0, "gap": 4.938271560494e-5}]
        files = emit_plotdata(rows, [("coupling_lambda", "gap")], tmp_path)
        assert len(files) == 1
        xs, ys = plot_columns(files[0])
        assert xs == [0.5, 1.0]
        assert ys == [rows[0]["gap"], rows[1]["gap"]]

    def test_empty_rows_header_only(self, tmp_path):
        files = emit_plotdata([], [("coupling_lambda", "gap")], tmp_path)
        xs, ys = plot_columns(files[0])
        assert xs == [] and ys == []
        assert files[0].read_text().startswith("# schema=")


class TestCli:
    def test_config_error_exit_code(self, tmp_path):
        path = write_cfg(tmp_path, cfg(grid={"n": 2}))
        assert main(["report", "--config", path, "--out", str(tmp_path / "o.csv")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["report", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_solve_mfg(self, tmp_path):
        path = write_cfg(tmp_path, cfg())
        out = tmp_path / "mfg.csv"
        assert main(["solve-mfg", "--config", path, "--out", str(out)]) == 0
        text = out.read_text()
        assert "cost_mfg" in text and "True" in text

    def test_solve_planner(self, tmp_path):
        path = write_cfg(tmp_path, cfg())
        out = tmp_path / "plan.csv"
        assert main(["solve-planner", "--config", path, "--out", str(out)]) == 0
        assert "cost_descent" in out.read_text()

    def test_report_and_fit_and_emit(self, tmp_path):
        c = cfg(sweep={"parameter": "coupling.lambda", "values": [0.25, 0.5, 1.0]},
                fit={"x_column": "coupling_lambda", "y_column": "gap",
                     "tolerance": 1e-10},
                emit={"series": [["coupling_lambda", "gap"]]})
        path = write_cfg(tmp_path, c)
        rows_path = tmp_path / "rows.csv"
        assert main(["sweep", "--config", path, "--out", str(rows_path)]) == 0
        fit_path = tmp_path / "fit.csv"
        assert main(["fit", "--config", path, "--rows", str(rows_path),
                     "--out", str(fit_path)]) == 0
        assert "slope" in fit_path.read_text()
        emit_dir = tmp_path / "plots"
        assert main(["emit", "--config", path, "--rows", str(rows_path),
                     "--out", str(emit_dir)]) == 0
        assert (emit_dir / "gap_vs_coupling_lambda.dat").exists()

    def test_fit_on_a_numpy_scalar_column(self, tmp_path):
        c = cfg(sweep={"parameter": "coupling.lambda", "values": [0.5, 1.0]},
                fit={"x_column": "coupling_lambda", "y_column": "lb_integrand_F"})
        path = write_cfg(tmp_path, c)
        rows_path = tmp_path / "rows.csv"
        assert main(["sweep", "--config", path, "--out", str(rows_path)]) == 0
        fit_path = tmp_path / "fit.csv"
        assert main(["fit", "--config", path, "--rows", str(rows_path),
                     "--out", str(fit_path)]) == 0
        assert "slope" in fit_path.read_text()

    def test_non_convergence_exit_code(self, tmp_path):
        c = cfg(solver={"max_iters": 1, "tol_fixed_point": 1e-15},
                coupling={"label": "convolution", "lambda": 1.0})
        path = write_cfg(tmp_path, c)
        assert main(["report", "--config", path, "--out", str(tmp_path / "o.csv")]) == 3

    def test_solver_error_exit_code(self, tmp_path, capsys):
        # the planner system's density dips to -4.7e-12 on this stiff point
        c = {"grid": {"n": 64, "nt": 8}, "coupling": {"label": "convolution", "lambda": 400.0},
             "m0": {"kind": "cosine", "amplitude": 0.9}}
        path = write_cfg(tmp_path, c)
        assert main(["report", "--config", path, "--out", str(tmp_path / "o.csv")]) == 4
        err = capsys.readouterr().err
        assert "MassConservationError" in err and "Traceback" not in err

    # every command, fit and emit too, reads the m0 file before it writes
    @pytest.mark.parametrize("command", ["report", "sweep", "solve-mfg", "fit", "emit"])
    @pytest.mark.parametrize("values", [np.full(32, 0.5), np.ones(31), None,
                                        np.where(np.arange(32) == 3, np.nan, 1.0)],
                             ids=["half_mass", "wrong_length", "missing", "nan_entry"])
    def test_m0_file_error_exit_code(self, tmp_path, capsys, values, command):
        density = tmp_path / "m0.txt"
        if values is not None:
            np.savetxt(density, values)
        path = write_cfg(tmp_path, cfg(m0={"kind": "file", "path": str(density)},
                                       sweep={"parameter": "coupling.lambda",
                                              "values": [0.5, 1.0]},
                                       fit={"x_column": "coupling_lambda", "y_column": "gap"},
                                       emit={"series": [["coupling_lambda", "gap"]]}))
        out = tmp_path / "o.csv"
        rows = tmp_path / "rows.csv"
        rows.write_text("# schema=1\n" + ",".join(RESULT_COLUMNS) + "\n")
        inputs = ["--rows", str(rows)] if command in ("fit", "emit") else []
        assert main([command, "--config", path, *inputs, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: m0.path" in err and "Traceback" not in err
        assert not out.exists()

    def test_sweep_checks_the_m0_file_at_every_point(self, tmp_path, capsys):
        # the file fits the grid of point 0 only: the sweep is refused before point 0 runs
        density = tmp_path / "m0.txt"
        np.savetxt(density, np.ones(16))
        path = write_cfg(tmp_path, cfg(grid={"n": 16, "nt": 8},
                                       m0={"kind": "file", "path": str(density)},
                                       sweep={"parameter": "grid.n", "values": [16, 32]}))
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: sweep.values[1]: m0.path" in err and "Traceback" not in err
        assert not out.exists()

    def test_sweep_base_point_is_checked_only_where_the_sweep_leaves_it(self, tmp_path, capsys):
        # the base grid does not fit the file, the only swept point does: the sweep runs it
        density = tmp_path / "m16.txt"
        np.savetxt(density, np.ones(16))
        sweep_cfg = {"grid": {"n": 32, "nt": 8}, "m0": {"kind": "file", "path": str(density)},
                 "sweep": {"parameter": "grid.n", "values": [16]}}
        path = write_cfg(tmp_path, sweep_cfg)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        assert [row["n"] for row in read_rows(out)] == [16]
        # solve-mfg runs the base point itself, so the file is checked against its grid
        assert main(["solve-mfg", "--config", path, "--out", str(tmp_path / "m.csv")]) == 2
        assert "config error: m0.path" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()
        # the epsilon window and the grid rules of a base point that no sweep value keeps
        (point,) = validate_config(cfg(epsilon=0.6,
                                       sweep={"parameter": "epsilon", "values": [0.2]}))
        assert point.eps == 0.2
        (point,) = validate_config(cfg(grid={"n": 16, "nt": 3}, epsilon=0.45,
                                       sweep={"parameter": "grid.nt", "values": [8]}))
        assert (point.grid.nt, point.eps) == (8, 0.45)
        # a rule that reads no swept key is still checked at the base, unprefixed
        with pytest.raises(ConfigError, match="^epsilon: "):
            validate_config(cfg(epsilon=0.6, sweep={"parameter": "coupling.lambda",
                                                    "values": [0.5]}))

    # values the schema used to pass, each then crashing in a solver with a traceback
    @pytest.mark.parametrize("command,over,field", [
        ("report", dict(solver={"max_iters": 0}), "solver.max_iters"),
        ("report", dict(epsilon=0.5), "epsilon"),
        ("sweep", dict(sweep={"parameter": "grid.n", "values": [16, 2.5]}),
         "sweep.values[1]: grid.n"),
        ("sweep", dict(sweep={"parameter": "grid.nt", "values": [8, 3]}),
         "sweep.values[1]: grid.nt"),
        ("sweep", dict(sweep={"parameter": "m0.amplitude", "values": [0.5, -1.0]}),
         "sweep.values[1]: m0.amplitude"),
        ("sweep", dict(sweep={"parameter": "epsilon", "values": [0.2, 0.0]}),
         "sweep.values[1]: epsilon"),
        # JSON booleans are no numbers, although bool is an int subclass in Python
        ("report", dict(solver={"max_iters": True}), "solver.max_iters"),
        ("report", dict(coupling={"lambda": True}), "coupling.lambda"),
        ("report", dict(solver={"damping": True}), "solver.damping"),
        ("report", dict(epsilon=True), "epsilon"),
        ("sweep", dict(sweep={"parameter": "m0.amplitude", "values": [0.5, False]}),
         "sweep.values[1]"),
    ], ids=["max_iters", "epsilon", "sweep_n", "sweep_nt", "sweep_amplitude", "sweep_epsilon",
            "bool_max_iters", "bool_lambda", "bool_damping", "bool_epsilon",
            "bool_sweep_value"])
    def test_bad_value_exit_code(self, tmp_path, capsys, command, over, field):
        path = write_cfg(tmp_path, cfg(grid={"n": 16, "nt": 8}, **over))
        out = tmp_path / "o.csv"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {field}" in err and "Traceback" not in err
        assert not out.exists()  # every point is checked before the first one runs

    # malformed configs that used to run on defaults or end in a traceback
    @pytest.mark.parametrize("command,over,message", [
        ("report", dict(solver=5), "solver: expected a JSON object, got int"),
        ("report", dict(coupling="convolution"), "coupling: expected a JSON object, got str"),
        ("report", dict(coupling={"lamda": 3.0}), "coupling.lamda: unknown key"),
        ("report", dict(sovler={"max_iters": 3}), "sovler: unknown key"),
        ("report", dict(grid={"T": float("inf")}), "grid.T: expected a finite number"),
        ("report", dict(coupling={"lambda": float("nan")}),
         "coupling.lambda: expected a finite number"),
        ("report", dict(coupling={"lambda": 10**400}), "coupling.lambda: expected a finite number"),
        ("sweep", dict(sweep={"parameter": "coupling.lambda", "values": [0.5, float("nan")]}),
         "sweep.values[1]: expected a finite number"),
        # the sweep, fit and emit sections are walked like the others, by every command
        ("report", dict(fit={"x_column": "coupling_lambda", "y_column": "gap",
                             "tolerence": 1e-6}), "fit.tolerence: unknown key"),
        ("sweep", dict(sweep={"parameter": "coupling.lambda", "values": [0.5], "extra": 1}),
         "sweep.extra: unknown key"),
        ("report", dict(emit={"series": 5}), "emit.series: expected list, got int"),
        ("report", dict(fit=5), "fit: expected a JSON object, got int"),
        ("sweep", dict(fit={"x_column": "nope", "y_column": "gap"}), "fit.x_column: unknown name"),
        ("report", dict(schema=2), "schema: unsupported version 2"),
        ("sweep", dict(sweep={"values": [0.5]}), "sweep.parameter: missing required field"),
        ("report", dict(m0={"kind": "file"}), "m0.path: missing required field"),
        ("fit", dict(fit={"y_column": "gap"}), "fit.x_column: missing required field"),
        ("emit", {}, "emit.series: missing required field"),
        ("emit", dict(emit={"series": [["gap"]]}),
         "emit.series[0]: expected a [x_column, y_column] pair"),
        ("emit", dict(emit={"series": [["coupling_lambda", "nope"]]}),
         "emit.series[0]: unknown column 'nope'"),
        # the fit and emit values are checked by every command
        ("report", dict(fit={"tolerance": -1.0}), "fit.tolerance: need >= 0, got -1.0"),
        ("solve-planner", dict(emit={"series": [["gap"]]}),
         "emit.series[0]: expected a [x_column, y_column] pair"),
    ], ids=["solver_not_object", "coupling_not_object", "unknown_key", "unknown_section",
            "infinite_T", "nan_lambda", "huge_int_lambda", "nan_sweep_value",
            "fit_unknown_key", "sweep_unknown_key", "emit_series_not_list", "fit_not_object",
            "fit_unknown_column", "schema_2", "sweep_no_parameter", "m0_file_no_path",
            "fit_no_x_column", "emit_no_series", "emit_one_column", "emit_unknown_column",
            "report_negative_fit_tolerance", "solve_planner_emit_one_column"])
    def test_malformed_config_exit_code(self, tmp_path, capsys, command, over, message):
        path = write_cfg(tmp_path, cfg(**over))
        out = tmp_path / "o.csv"
        rows = tmp_path / "rows.csv"
        rows.write_text("# schema=1\n" + ",".join(RESULT_COLUMNS) + "\n")
        inputs = ["--rows", str(rows)] if command in ("fit", "emit") else []
        assert main([command, "--config", path, *inputs, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        ("[1, 2]", "top level: expected a JSON object"),
        ('{"grid": {"nt": 8}}', "grid.n: missing required field"),
        ('{"grid": {"n": 16, "nt": 8}', "invalid JSON"),
    ], ids=["top_level_list", "no_grid_n", "invalid_json"])
    def test_config_text_exit_code(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        out = tmp_path / "o.csv"
        assert main(["report", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err and "Traceback" not in err
        assert not out.exists()

    # an input that cannot be read, or an output path that cannot be written:
    # exit 2 and one stderr line naming the path
    @pytest.mark.parametrize("command,rows,out,named", [
        ("fit", None, "f.csv", "rows"),
        ("emit", None, "plots", "rows"),
        ("fit", "# schema=x\n", "f.csv", "rows"),
        ("emit", "# schema=x\n", "plots", "rows"),
        ("fit", "# schema=2\n", "f.csv", "rows"),
        ("report", None, "missing/o.csv", "out"),
        ("sweep", None, "missing/o.csv", "out"),
        ("solve-mfg", None, "missing/o.csv", "out"),
        ("solve-planner", None, "missing/o.csv", "out"),
        ("fit", "# schema=1\n", "missing/f.csv", "out"),
        ("emit", "# schema=1\n", "existing", "out"),
        ("emit", "# schema=1\n", "missing/plots", "out"),
    ], ids=["fit_rows_missing", "emit_rows_missing", "fit_schema_not_int", "emit_schema_not_int",
            "fit_schema_2", "report_out_dir_missing", "sweep_out_dir_missing",
            "solve_mfg_out_dir_missing", "solve_planner_out_dir_missing",
            "fit_out_dir_missing", "emit_out_is_a_file", "emit_out_parent_missing"])
    def test_file_error_exit_code(self, tmp_path, capsys, monkeypatch, command, rows, out, named):
        def solver(*args, **kwargs):  # every command checks its files before it solves
            raise AssertionError(f"{command}: a solver ran before the file error")

        for name in ("solve_mfg", "solve_planner_system", "solve_planner_descent", "fit_scaling"):
            monkeypatch.setattr(cli, name, solver)
        monkeypatch.setattr(harness, "full_report", solver)
        c = cfg(grid={"n": 16, "nt": 8},
                sweep={"parameter": "coupling.lambda", "values": [0.5]},
                fit={"x_column": "coupling_lambda", "y_column": "gap"},
                emit={"series": [["coupling_lambda", "gap"]]})
        args = [command, "--config", write_cfg(tmp_path, c), "--out", str(tmp_path / out)]
        if command in ("fit", "emit"):
            if rows is not None:
                (tmp_path / "rows.csv").write_text(rows)
            args += ["--rows", str(tmp_path / "rows.csv")]
        (tmp_path / "existing").write_text("")
        assert main(args) == 2
        err = capsys.readouterr().err
        path = tmp_path / ("rows.csv" if named == "rows" else out)
        assert str(path) in err and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command,solver", [("solve-mfg", "solve_mfg"),
                                                ("solve-planner", "solve_planner_system")])
    def test_solver_error_leaves_the_out_file(self, tmp_path, capsys, monkeypatch, command, solver):
        def failing(*args, **kwargs):
            raise MassConservationError("mass 0.5")

        monkeypatch.setattr(cli, solver, failing)
        path = write_cfg(tmp_path, cfg(grid={"n": 16, "nt": 8}))
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text("# schema=1\ncost_mfg\n1.5\n")
        for out in (old, new):
            assert main([command, "--config", path, "--out", str(out)]) == 4
            assert "solver error: MassConservationError: mass 0.5" in capsys.readouterr().err
        assert old.read_text() == "# schema=1\ncost_mfg\n1.5\n"  # a prior result stays
        assert new.read_text() == ""

    def test_uniform_m0_report(self, tmp_path):
        path = write_cfg(tmp_path, cfg(grid={"n": 16, "nt": 8}, m0={"kind": "uniform"}))
        out = tmp_path / "o.csv"
        assert main(["report", "--config", path, "--out", str(out)]) == 0
        (row,) = read_rows(out)
        assert row["m0_kind"] == "uniform"

    def test_integer_damping_factor(self):
        _, params, _ = build_problem(cfg(solver={"damping": 1}))
        assert params.damping == 1.0

    @pytest.mark.parametrize("tolerance", [True, float("nan"), -1.0])
    def test_fit_tolerance_must_be_a_nonnegative_number(self, tmp_path, capsys, tolerance):
        c = cfg(fit={"x_column": "coupling_lambda", "y_column": "gap", "tolerance": tolerance})
        path = write_cfg(tmp_path, c)
        rows = tmp_path / "rows.csv"
        rows.write_text("# schema=1\n" + ",".join(RESULT_COLUMNS) + "\n")
        assert main(["fit", "--config", path, "--rows", str(rows),
                     "--out", str(tmp_path / "f.csv")]) == 2
        assert "config error: fit.tolerance" in capsys.readouterr().err

    def test_fit_unknown_column(self, tmp_path):
        c = cfg(fit={"x_column": "nope", "y_column": "gap"})
        path = write_cfg(tmp_path, c)
        run(cfg(), tmp_path / "rows.csv")
        assert main(["fit", "--config", path, "--rows", str(tmp_path / "rows.csv"),
                     "--out", str(tmp_path / "f.csv")]) == 2


class TestDefaultEpsilon:
    """The default epsilon leaves a time level in [t0+eps, T-eps] on every grid."""

    @pytest.mark.parametrize("nt", (5, 7))  # 7/16 of the horizon used to empty the window
    def test_odd_short_grids_end_in_a_row(self, tmp_path, capsys, nt):
        path = write_cfg(tmp_path, {"grid": {"n": 16, "nt": nt}})
        out = tmp_path / "o.csv"
        assert main(["report", "--config", path, "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        (row,) = read_rows(out)
        check_epsilon(Grid(n=16, nt=nt), row["epsilon"])

    @pytest.mark.parametrize("nt", (8, 16, 64, 256))
    def test_unchanged_where_the_window_held_a_level(self, nt):
        g = Grid(n=16, nt=nt)
        assert default_epsilon(g) == min(max(4.0 * g.dt, 1.0 / 16.0), 7.0 / 16.0)


class TestFitColumns:
    @pytest.mark.parametrize("key", ("x_column", "y_column"))
    @pytest.mark.parametrize("column", ("coupling", "damping", "mfg_converged"))
    def test_fit_rejects_a_column_that_holds_no_numbers(self, tmp_path, capsys, key, column):
        fit = {"x_column": "coupling_lambda", "y_column": "gap", key: column}
        path = write_cfg(tmp_path, cfg(fit=fit))
        rows = tmp_path / "rows.csv"
        run(cfg(), rows)
        assert main(["fit", "--config", path, "--rows", str(rows),
                     "--out", str(tmp_path / "f.csv")]) == 2
        err = capsys.readouterr().err
        assert f"config error: fit.{key}" in err and "Traceback" not in err
        assert not (tmp_path / "f.csv").exists()

    # a solve-mfg output has no n or gap column: one stderr line names the
    # column and the rows file, and no --out is written, not even in part
    @pytest.mark.parametrize("command,out", [("fit", "fit.csv"), ("emit", "plots")])
    def test_rows_file_lacking_a_column(self, tmp_path, capsys, command, out):
        path = write_cfg(tmp_path, {"grid": {"n": 16, "nt": 8},
                                    "fit": {"x_column": "n", "y_column": "gap"},
                                    "emit": {"series": [["n", "gap"]]}})
        rows = tmp_path / "mfg.csv"
        assert main(["solve-mfg", "--config", path, "--out", str(rows)]) == 0
        assert main([command, "--config", path, "--rows", str(rows),
                     "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {rows}: result file has no column 'n'\n"
        assert not (tmp_path / out).exists()

    def test_number_columns(self):
        assert set(RESULT_COLUMNS) - set(NUMBER_COLUMNS) == {
            "hamiltonian", "coupling", "kernel", "terminal", "m0_kind", "damping",
            "mfg_converged", "system_converged", "descent_converged",
            "planner_values_disagree"}


class TestDomainRules:
    """Each value rule lives in the object the value builds; its message names the
    field first, so the harness only adds the config section."""

    @pytest.mark.parametrize("build,field", [
        (lambda: Grid(n=2, nt=8), "n"),
        (lambda: Grid(n=8, nt=3), "nt"),
        (lambda: Grid(n=8, nt=8, t0=1.0, T=1.0), "T"),
        (lambda: SolverParams(damping="bogus"), "damping"),
        (lambda: SolverParams(damping=1.5), "damping"),
        (lambda: SolverParams(tol_fixed_point=0.0), "tol_fixed_point"),
        (lambda: SolverParams(max_iters=0), "max_iters"),
        (lambda: density_cosine(Grid(n=8, nt=8), 1.0), "amplitude"),
        (lambda: check_epsilon(Grid(n=8, nt=8), 0.5), "epsilon"),
        (lambda: check_epsilon(Grid(n=8, nt=7), 0.45), "epsilon"),  # no level in the window
    ], ids=["n", "nt", "T", "schedule", "factor", "tol", "max_iters", "amplitude",
            "epsilon_range", "epsilon_window"])
    def test_message_names_the_field_first(self, build, field):
        with pytest.raises(ValueError, match=f"^{field}: "):
            build()

    @pytest.mark.parametrize("build", [
        lambda: SolverParams(tol_fixed_point=float("nan")),
        lambda: SolverParams(damping=float("nan")),
        lambda: Grid(n=8, nt=8, T=float("nan")),
        lambda: density_cosine(Grid(n=8, nt=8), float("nan")),
        lambda: check_epsilon(Grid(n=8, nt=8), float("nan")),
    ], ids=["tol", "damping", "T", "amplitude", "epsilon"])
    def test_nan_fails_every_rule(self, build):
        with pytest.raises(ValueError):
            build()


def test_readme_config_example_validates():
    """The README's config example is a config that validate_config accepts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Config example", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    points = validate_config(json.loads(block))
    assert len(points) == len(json.loads(block)["sweep"]["values"])


# The benchmark's reference rows for its tiny desk_catalog points (n=16,
# nt=8), identical for one and two BLAS threads.  L-BFGS stops by
# stagnation at round-off level, so any change of rounding in the
# solvers can move the iteration counts the benchmark checks exactly.
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


@pytest.mark.parametrize("label", ["convolution", "efficient", "potential"])
def test_tiny_reports_match_bench_reference(label):
    ref = json.loads(REFERENCE.read_text())["1"]["tiny"]["desk_catalog"][label]
    point = {"schema": 1, "grid": {"n": 16, "nt": 8},
             "coupling": {"label": label, "lambda": 1.0}, "terminal": {"label": "zero"},
             "m0": {"kind": "cosine", "amplitude": 0.5}}
    report = full_report(*build_problem(point))
    for key in ("cost_mfg", "cost_planner", "cost_planner_system"):
        assert abs(getattr(report, key) - ref[key]) <= 1e-12 * (1.0 + abs(ref[key])), key
    for key in ("mfg_converged", "system_converged", "descent_converged",
                "mfg_iterations", "descent_iterations"):
        assert getattr(report, key) == ref[key], key
    assert report.cost_planner <= report.cost_mfg and report.certificate >= 0.0
