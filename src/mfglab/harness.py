"""Experiment harness: configs, sweeps, persistent result rows, fits.

Configs are JSON with a published key set (see CONFIG_KEYS / the README);
results are CSV files with a schema-version comment line, a fixed column
set, and one row per run point, appended and flushed as each point
finishes so an interrupted sweep leaves parseable output.  Solvers are
deterministic, so identical configs reproduce identical rows; the
wall-time column (last) is the only nondeterministic field.
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .efficiency import EfficiencyReport, _window_levels, default_epsilon, full_report
from .errors import ConfigError
from .grids import Grid, check_density_slice
from .mfg import SolverParams
from .model import (
    COUPLING_LABELS,
    HAMILTONIANS,
    KERNELS,
    PROFILES,
    Problem,
    coupling_from_label,
    density_cosine,
    density_uniform,
)

SCHEMA_VERSION = 1

CONFIG_ECHO_COLUMNS = (
    "sweep_index", "n", "nt", "t0", "T", "hamiltonian",
    "coupling", "kernel", "coupling_lambda", "terminal", "terminal_lambda",
    "m0_kind", "m0_amplitude", "tol_fixed_point", "damping", "max_iters", "seed",
)

RESULT_COLUMNS = CONFIG_ECHO_COLUMNS + EfficiencyReport.SCHEMA + ("wall_time_s",)

SWEEPABLE = (
    "coupling.lambda", "terminal.lambda", "grid.n", "grid.nt",
    "m0.amplitude", "epsilon",
)


def _need(cfg: dict, path: str, typ, default=None, required=False):
    node = cfg
    parts = path.split(".")
    for p in parts[:-1]:
        node = node.get(p, {}) if isinstance(node, dict) else {}
    if not isinstance(node, dict) or parts[-1] not in node:
        if required:
            raise ConfigError(f"{path}: missing required field")
        return default
    val = node[parts[-1]]
    if isinstance(val, bool) and typ is not bool:  # bool is an int subclass, but no number
        raise ConfigError(f"{path}: expected {typ.__name__}, got bool")
    if typ is float and isinstance(val, int):
        val = float(val)
    if not isinstance(val, typ):
        raise ConfigError(f"{path}: expected {typ.__name__}, got {type(val).__name__}")
    return val


def _is_number(val) -> bool:
    """An int or a float, not a bool (JSON true and false are no numbers)."""
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def load_config(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    """Schema check with path-to-field diagnostics; raises ConfigError.

    A sweep is checked point by point before any point runs; an error in
    the point of value i names sweep.values[i] and the field.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("top level: expected a JSON object")
    _validate_point(cfg)
    sweep = cfg.get("sweep")
    if sweep is not None:
        param = _need(cfg, "sweep.parameter", str, required=True)
        if param not in SWEEPABLE:
            raise ConfigError(f"sweep.parameter: {param!r} not sweepable; "
                              f"choose from {SWEEPABLE}")
        values = _need(cfg, "sweep.values", list, required=True)
        if not values:
            raise ConfigError("sweep.values: empty list")
        for i, v in enumerate(values):
            if not _is_number(v):
                raise ConfigError(f"sweep.values[{i}]: expected a number, got {v!r}")
            if param in ("grid.n", "grid.nt") and not float(v).is_integer():
                raise ConfigError(f"sweep.values[{i}]: {param}: expected an integer, got {v}")
            try:
                _validate_point(_apply_sweep_value(cfg, param, v))
            except ConfigError as exc:
                raise ConfigError(f"sweep.values[{i}]: {exc}") from exc


def _validate_point(cfg: dict) -> None:
    """validate_config for everything but the sweep section."""
    schema = cfg.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"schema: unsupported version {schema}")
    n = _need(cfg, "grid.n", int, required=True)
    nt = _need(cfg, "grid.nt", int, required=True)
    if n < 4:
        raise ConfigError(f"grid.n: need >= 4, got {n}")
    if nt < 4:
        raise ConfigError(f"grid.nt: need >= 4, got {nt}")
    t0 = _need(cfg, "grid.t0", float, 0.0)
    T = _need(cfg, "grid.T", float, 1.0)
    if not T > t0:
        raise ConfigError(f"grid.T: need T > t0, got t0={t0}, T={T}")
    ham = _need(cfg, "hamiltonian", str, "quadratic")
    if ham not in HAMILTONIANS:
        raise ConfigError(f"hamiltonian: unknown label {ham!r}")
    for section in ("coupling", "terminal"):
        label = _need(cfg, f"{section}.label", str, "zero")
        if label not in COUPLING_LABELS:
            raise ConfigError(f"{section}.label: unknown label {label!r}; "
                              f"choose from {COUPLING_LABELS}")
        kern = _need(cfg, f"{section}.kernel", str, "cos_diff")
        if kern not in KERNELS:
            raise ConfigError(f"{section}.kernel: unknown kernel {kern!r}")
        prof = _need(cfg, f"{section}.profile", str, "quadratic")
        if prof not in PROFILES:
            raise ConfigError(f"{section}.profile: unknown profile {prof!r}")
        _need(cfg, f"{section}.lambda", float, 1.0)
    kind = _need(cfg, "m0.kind", str, "cosine")
    if kind not in ("uniform", "cosine", "file"):
        raise ConfigError(f"m0.kind: unknown kind {kind!r}")
    if kind == "cosine":
        amp = _need(cfg, "m0.amplitude", float, 0.5)
        if not -1.0 < amp < 1.0:
            raise ConfigError(f"m0.amplitude: {amp} does not keep the density positive")
    if kind == "file":
        _need(cfg, "m0.path", str, required=True)
    tol = _need(cfg, "solver.tol_fixed_point", float, 1e-8)
    if tol <= 0:
        raise ConfigError(f"solver.tol_fixed_point: must be positive, got {tol}")
    damping = cfg.get("solver", {}).get("damping", "auto")
    if isinstance(damping, str):
        if damping not in ("auto", "averaging"):
            raise ConfigError(f"solver.damping: unknown schedule {damping!r}")
    elif _is_number(damping):
        if not 0.0 < float(damping) <= 1.0:
            raise ConfigError(f"solver.damping: need a factor in (0, 1], got {damping}")
    else:
        raise ConfigError("solver.damping: expected a number or schedule name")
    max_iters = _need(cfg, "solver.max_iters", int, 200)
    if max_iters < 1:
        raise ConfigError(f"solver.max_iters: need >= 1, got {max_iters}")
    eps = cfg.get("epsilon")
    if eps is not None:
        if not _is_number(eps):
            raise ConfigError("epsilon: expected a number or null")
        if not 0.0 < eps < 0.5 * (T - t0):
            raise ConfigError(f"epsilon: need 0 < epsilon < (T-t0)/2 = {0.5 * (T - t0)}, "
                              f"got {eps}")
        if not _window_levels(Grid(n=n, nt=nt, t0=t0, T=T), eps).size:
            raise ConfigError(f"epsilon: no time level of the grid lies in "
                              f"[t0+epsilon, T-epsilon] for epsilon={eps}")
    _need(cfg, "seed", int, 0)


def _apply_sweep_value(cfg: dict, param: str, value) -> dict:
    out = copy.deepcopy(cfg)
    out.pop("sweep", None)
    if param == "coupling.lambda":
        out.setdefault("coupling", {})["lambda"] = float(value)
    elif param == "terminal.lambda":
        out.setdefault("terminal", {})["lambda"] = float(value)
    elif param == "grid.n":
        out.setdefault("grid", {})["n"] = int(value)
    elif param == "grid.nt":
        out.setdefault("grid", {})["nt"] = int(value)
    elif param == "m0.amplitude":
        out.setdefault("m0", {})["amplitude"] = float(value)
    elif param == "epsilon":
        out["epsilon"] = float(value)
    return out


def build_problem(cfg: dict) -> tuple[Problem, SolverParams, float]:
    """Instantiate the model of one (sweep-free) config point."""
    grid = Grid(n=_need(cfg, "grid.n", int, required=True),
                nt=_need(cfg, "grid.nt", int, required=True),
                t0=_need(cfg, "grid.t0", float, 0.0),
                T=_need(cfg, "grid.T", float, 1.0))
    ham = HAMILTONIANS[_need(cfg, "hamiltonian", str, "quadratic")]()

    def make(section):
        return coupling_from_label(
            grid,
            _need(cfg, f"{section}.label", str, "zero"),
            lam=_need(cfg, f"{section}.lambda", float, 1.0),
            kernel=_need(cfg, f"{section}.kernel", str, "cos_diff"),
            profile=_need(cfg, f"{section}.profile", str, "quadratic"),
        )

    kind = _need(cfg, "m0.kind", str, "cosine")
    if kind == "uniform":
        m0 = density_uniform(grid)
    elif kind == "cosine":
        m0 = density_cosine(grid, _need(cfg, "m0.amplitude", float, 0.5))
    else:
        path = _need(cfg, "m0.path", str, required=True)
        try:
            m0 = check_density_slice(np.load(path) if path.endswith(".npy")
                                     else np.loadtxt(path), grid)
        except (OSError, ValueError) as exc:  # unreadable file, wrong length, not a density
            raise ConfigError(f"m0.path: {path}: {exc}") from exc

    damping = cfg.get("solver", {}).get("damping", "auto")
    params = SolverParams(
        damping=damping if isinstance(damping, str) else float(damping),
        max_iters=_need(cfg, "solver.max_iters", int, 200),
        tol_fixed_point=_need(cfg, "solver.tol_fixed_point", float, 1e-8),
    )
    eps = cfg.get("epsilon")
    eps = default_epsilon(grid) if eps is None else float(eps)
    problem = Problem(hamiltonian=ham, coupling=make("coupling"),
                      terminal=make("terminal"), m0=m0, grid=grid)
    return problem, params, eps


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):  # np.float64 too: its repr names the type
        return repr(float(v))
    return str(v)


def _echo(cfg: dict, index: int) -> dict:
    damping = cfg.get("solver", {}).get("damping", "auto")
    return {
        "sweep_index": index,
        "n": _need(cfg, "grid.n", int, required=True),
        "nt": _need(cfg, "grid.nt", int, required=True),
        "t0": _need(cfg, "grid.t0", float, 0.0),
        "T": _need(cfg, "grid.T", float, 1.0),
        "hamiltonian": _need(cfg, "hamiltonian", str, "quadratic"),
        "coupling": _need(cfg, "coupling.label", str, "zero"),
        "kernel": _need(cfg, "coupling.kernel", str, "cos_diff"),
        "coupling_lambda": _need(cfg, "coupling.lambda", float, 1.0),
        "terminal": _need(cfg, "terminal.label", str, "zero"),
        "terminal_lambda": _need(cfg, "terminal.lambda", float, 1.0),
        "m0_kind": _need(cfg, "m0.kind", str, "cosine"),
        "m0_amplitude": _need(cfg, "m0.amplitude", float, 0.5),
        "tol_fixed_point": _need(cfg, "solver.tol_fixed_point", float, 1e-8),
        "damping": damping,
        "max_iters": _need(cfg, "solver.max_iters", int, 200),
        "seed": _need(cfg, "seed", int, 0),
    }


def run(cfg: dict, out_path: str | Path) -> list[dict]:
    """Execute the config (single point or sweep), appending rows as they finish.

    Returns the rows as dicts.  Never raises on solver non-convergence;
    the flags land in the row and the caller decides the exit code.
    """
    validate_config(cfg)
    sweep = cfg.get("sweep")
    if sweep is None:
        points = [cfg]
    else:
        points = [_apply_sweep_value(cfg, sweep["parameter"], v)
                  for v in sweep["values"]]

    rows = []
    out_path = Path(out_path)
    with open(out_path, "w") as fh:
        fh.write(f"# schema={SCHEMA_VERSION}\n")
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        fh.flush()
        for idx, point in enumerate(points):
            start = time.perf_counter()
            problem, params, eps = build_problem(point)
            report = full_report(problem, params, eps)
            wall = time.perf_counter() - start
            row = _echo(point, idx)
            row.update({k: getattr(report, k) for k in EfficiencyReport.SCHEMA})
            row["wall_time_s"] = wall
            rows.append(row)
            fh.write(",".join(_fmt(row[c]) for c in RESULT_COLUMNS) + "\n")
            fh.flush()
    return rows


def read_rows(path: str | Path) -> list[dict]:
    """Parse a result file back into typed row dicts (schema-checked)."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# schema="):
        raise ConfigError(f"{path}: missing schema comment line")
    version = int(lines[0].split("=", 1)[1])
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{path}: unsupported result schema {version}")
    if len(lines) < 2:
        return []
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            continue  # a torn final line from an interrupted run
        row = {}
        for key, raw in zip(header, parts):
            if raw in ("True", "False"):
                row[key] = raw == "True"
            else:
                try:
                    row[key] = int(raw)
                except ValueError:
                    try:
                        row[key] = float(raw)
                    except ValueError:
                        row[key] = raw
        rows.append(row)
    return rows


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r2: float
    n_used: int
    degenerate: bool


def fit_scaling(rows: list[dict], x_column: str, y_column: str,
                tolerance: float = 1e-8) -> FitResult:
    """Log-log least squares over rows with y above the noise floor 10*tolerance."""
    pts = [(float(r[x_column]), float(r[y_column])) for r in rows]
    pts = [(x, y) for x, y in pts if y > 10.0 * tolerance and x > 0.0]
    if len(pts) < 2:
        return FitResult(float("nan"), float("nan"), float("nan"), len(pts), True)
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    if np.ptp(lx) == 0.0 or np.ptp(ly) == 0.0:
        return FitResult(float("nan"), float("nan"), float("nan"), len(pts), True)
    slope, intercept = np.polyfit(lx, ly, 1)
    fit = slope * lx + intercept
    ss_res = float(((ly - fit) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    return FitResult(float(slope), float(intercept), r2, len(pts), False)


def emit_plotdata(rows: list[dict], series: list[tuple[str, str]],
                  out_dir: str | Path) -> list[Path]:
    """One whitespace-separated two-column file per (x, y) series."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for x_col, y_col in series:
        path = out_dir / f"{y_col}_vs_{x_col}.dat"
        with open(path, "w") as fh:
            fh.write(f"# schema={SCHEMA_VERSION}\n")
            fh.write(f"# {x_col} {y_col}\n")
            for r in rows:
                fh.write(f"{_fmt(r[x_col])} {_fmt(r[y_col])}\n")
        written.append(path)
    return written


def read_plotdata(path: str | Path) -> tuple[list[float], list[float]]:
    xs, ys = [], []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        a, b = line.split()
        xs.append(float(a))
        ys.append(float(b))
    return xs, ys
