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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .efficiency import EfficiencyReport, check_epsilon, default_epsilon, full_report
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

_REQUIRED = object()  # the default of a key that every config point must give
# abs(v) <= _FLOAT_MAX is false for nan, infinities and ints beyond the float range
_FLOAT_MAX = float(np.finfo(float).max)

# Every key of a config point: dotted path -> (type, default).  A float key
# also takes an int and rejects nan and infinities; a default of None also
# admits null.  solver.damping is a factor or a schedule name.  The sweep,
# fit and emit sections belong to the commands of those names.
CONFIG_KEYS = {
    "schema": (int, SCHEMA_VERSION),
    "grid.n": (int, _REQUIRED), "grid.nt": (int, _REQUIRED),
    "grid.t0": (float, 0.0), "grid.T": (float, 1.0),
    "hamiltonian": (str, "quadratic"),
    "coupling.label": (str, "zero"), "coupling.kernel": (str, "cos_diff"),
    "coupling.profile": (str, "quadratic"), "coupling.lambda": (float, 1.0),
    "terminal.label": (str, "zero"), "terminal.kernel": (str, "cos_diff"),
    "terminal.profile": (str, "quadratic"), "terminal.lambda": (float, 1.0),
    "m0.kind": (str, "cosine"), "m0.amplitude": (float, 0.5), "m0.path": (str, None),
    "solver.tol_fixed_point": (float, 1e-8), "solver.damping": ((str, float), "auto"),
    "solver.max_iters": (int, 200),
    "epsilon": (float, None),
    "seed": (int, 0),
    "sweep.parameter": (str, None), "sweep.values": (list, None),
    "fit.x_column": (str, None), "fit.y_column": (str, None), "fit.tolerance": (float, 1e-8),
    "emit.series": (list, None),
}
_SECTIONS = {key.split(".")[0] for key in CONFIG_KEYS if "." in key}

# result column -> the config key it echoes
CONFIG_ECHO_COLUMNS = {
    "n": "grid.n", "nt": "grid.nt", "t0": "grid.t0", "T": "grid.T",
    "hamiltonian": "hamiltonian", "coupling": "coupling.label",
    "kernel": "coupling.kernel", "coupling_lambda": "coupling.lambda",
    "terminal": "terminal.label", "terminal_lambda": "terminal.lambda",
    "m0_kind": "m0.kind", "m0_amplitude": "m0.amplitude",
    "tol_fixed_point": "solver.tol_fixed_point", "damping": "solver.damping",
    "max_iters": "solver.max_iters", "seed": "seed",
}

RESULT_COLUMNS = ("sweep_index", *CONFIG_ECHO_COLUMNS, *EfficiencyReport.SCHEMA, "wall_time_s")

# the result columns that hold numbers, not names or flags: what a fit can take
_NOT_NUMBERS = ({c for c, key in CONFIG_ECHO_COLUMNS.items()
                 if CONFIG_KEYS[key][0] not in (int, float)}
                | {f.name for f in fields(EfficiencyReport) if f.type == "bool"})
NUMBER_COLUMNS = tuple(c for c in RESULT_COLUMNS if c not in _NOT_NUMBERS)

SWEEPABLE = (
    "coupling.lambda", "terminal.lambda", "grid.n", "grid.nt",
    "m0.amplitude", "epsilon",
)

_CHOICES = {  # name key -> the names it takes
    "hamiltonian": tuple(HAMILTONIANS), "m0.kind": ("uniform", "cosine", "file"),
    **{f"{section}.{name}": tuple(choices) for section in ("coupling", "terminal")
       for name, choices in (("label", COUPLING_LABELS), ("kernel", KERNELS),
                             ("profile", PROFILES))},
    "sweep.parameter": SWEEPABLE,
    "fit.x_column": NUMBER_COLUMNS, "fit.y_column": NUMBER_COLUMNS,
}


def _is_number(val) -> bool:
    """An int or a float, not a bool (JSON true and false are no numbers)."""
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _typed(key: str, val, typ):
    """val as a value of the key's type (an int becomes a float); ConfigError otherwise."""
    kinds = typ if isinstance(typ, tuple) else (typ,)
    if float in kinds and _is_number(val):
        if not abs(val) <= _FLOAT_MAX:
            raise ConfigError(f"{key}: expected a finite number, got {val}")
        return float(val) if typ is float else val
    if isinstance(val, kinds) and not isinstance(val, bool):
        return val
    names = " or ".join(k.__name__ for k in kinds)
    raise ConfigError(f"{key}: expected {names}, got {type(val).__name__}")


def _config_values(cfg: dict) -> dict:
    """{key: value} of every CONFIG_KEYS key of a config point, given or default.

    One walk over the point: a section that is no JSON object, a key
    that the table does not hold, a missing required key and a value of
    the wrong type each raise ConfigError naming the path.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("top level: expected a JSON object")
    for name, node in cfg.items():
        if name in _SECTIONS and not isinstance(node, dict):
            raise ConfigError(f"{name}: expected a JSON object, got {type(node).__name__}")
        paths = [f"{name}.{key}" for key in node] if name in _SECTIONS else [name]
        for path in paths:
            if path not in CONFIG_KEYS:
                raise ConfigError(f"{path}: unknown key")
    values = {}
    for key, (typ, default) in CONFIG_KEYS.items():
        section, _, name = key.rpartition(".")
        val = (cfg.get(section, {}) if section else cfg).get(name, default)
        if val is _REQUIRED:
            raise ConfigError(f"{key}: missing required field")
        values[key] = None if val is None and default is None else _typed(key, val, typ)
    return values


def load_config(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file ({type(exc).__name__})") from exc
    except ValueError as exc:  # not JSON, or not text
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> list[_Point]:
    """Schema check with path-to-field diagnostics; raises ConfigError.

    Every value any command reads is checked here, the m0 file too.
    Returns the checked points to run: the config itself, or one per
    sweep value.  A sweep is checked whole before any point runs; an
    error in the point of value i names sweep.values[i] and the field.
    """
    base = _validate_point(cfg)
    if "sweep" not in cfg:
        return [base]
    param, values = base.values["sweep.parameter"], base.values["sweep.values"]
    if param is None:
        raise ConfigError("sweep.parameter: missing required field")
    if not values:
        raise ConfigError(f"sweep.values: expected a nonempty list, got {values!r}")
    points = []
    for i, v in enumerate(values):
        if not _is_number(v) or not abs(v) <= _FLOAT_MAX:
            raise ConfigError(f"sweep.values[{i}]: expected a finite number, got {v!r}")
        if CONFIG_KEYS[param][0] is int and not float(v).is_integer():
            raise ConfigError(f"sweep.values[{i}]: {param}: expected an integer, got {v}")
        try:
            points.append(_validate_point(_apply_sweep_value(cfg, param, v)))
        except ConfigError as exc:
            raise ConfigError(f"sweep.values[{i}]: {exc}") from exc
    return points


@dataclass(frozen=True)
class _Point:
    """A checked config point: its key values and the objects they build."""

    values: dict
    grid: Grid
    params: SolverParams
    m0: np.ndarray
    eps: float


def _built(prefix: str, build, *args, **kwargs):
    """build(*args, **kwargs); its ValueError, which names the field first,
    becomes a ConfigError under the section prefix."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _validate_point(cfg: dict) -> _Point:
    """validate_config for everything but the sweep values: the point's values,
    the grid, solver parameters, m0 and epsilon they build (each value rule
    lives in the object it builds) and the fit and emit values."""
    v = _config_values(cfg)
    if v["schema"] != SCHEMA_VERSION:
        raise ConfigError(f"schema: unsupported version {v['schema']}")
    for key, choices in _CHOICES.items():
        if v[key] is not None and v[key] not in choices:
            raise ConfigError(f"{key}: unknown name {v[key]!r}; choose from {choices}")
    grid = _built("grid.", Grid, n=v["grid.n"], nt=v["grid.nt"], t0=v["grid.t0"], T=v["grid.T"])
    damping = v["solver.damping"]
    params = _built("solver.", SolverParams,
                    damping=damping if isinstance(damping, str) else float(damping),
                    max_iters=v["solver.max_iters"], tol_fixed_point=v["solver.tol_fixed_point"])
    kind, path = v["m0.kind"], v["m0.path"]
    if kind == "uniform":
        m0 = density_uniform(grid)
    elif kind == "cosine":
        m0 = _built("m0.", density_cosine, grid, v["m0.amplitude"])
    elif path is None:
        raise ConfigError("m0.path: missing required field")
    else:
        try:
            m0 = check_density_slice(np.load(path) if path.endswith(".npy")
                                     else np.loadtxt(path), grid)
        except (OSError, ValueError) as exc:  # unreadable file, wrong length, not a density
            raise ConfigError(f"m0.path: {path}: {exc}") from exc
    if not v["fit.tolerance"] >= 0:
        raise ConfigError(f"fit.tolerance: need >= 0, got {v['fit.tolerance']}")
    for i, pair in enumerate(v["emit.series"] or ()):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"emit.series[{i}]: expected a [x_column, y_column] pair")
        for col in pair:
            if col not in RESULT_COLUMNS:
                raise ConfigError(f"emit.series[{i}]: unknown column {col!r}")
    eps = v["epsilon"]
    if eps is None:
        eps = default_epsilon(grid)
    else:
        _built("", check_epsilon, grid, eps)
    return _Point(v, grid, params, m0, eps)


def _apply_sweep_value(cfg: dict, param: str, value) -> dict:
    out = copy.deepcopy(cfg)
    out.pop("sweep", None)
    section, _, name = param.rpartition(".")
    (out.setdefault(section, {}) if section else out)[name] = CONFIG_KEYS[param][0](value)
    return out


def build_problem(cfg: dict | _Point) -> tuple[Problem, SolverParams, float]:
    """Instantiate the model of one (sweep-free) config point, checked first,
    or assemble a point that validate_config returned: no ConfigError."""
    point = cfg if isinstance(cfg, _Point) else _validate_point(cfg)
    v, grid = point.values, point.grid

    def make(section):
        return coupling_from_label(grid, v[f"{section}.label"], lam=v[f"{section}.lambda"],
                                   kernel=v[f"{section}.kernel"], profile=v[f"{section}.profile"])

    problem = Problem(hamiltonian=HAMILTONIANS[v["hamiltonian"]](), coupling=make("coupling"),
                      terminal=make("terminal"), m0=point.m0, grid=grid)
    return problem, point.params, point.eps


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):  # np.float64 too: its repr names the type
        return repr(float(v))
    return str(v)


def run(cfg: dict, out_path: str | Path) -> list[dict]:
    """Execute the config (single point or sweep), appending rows as they finish.

    Returns the rows as dicts.  Never raises on solver non-convergence;
    the flags land in the row and the caller decides the exit code.
    """
    points = validate_config(cfg)
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
            row = {"sweep_index": idx}
            row.update((column, point.values[key]) for column, key in CONFIG_ECHO_COLUMNS.items())
            row.update({k: getattr(report, k) for k in EfficiencyReport.SCHEMA})
            row["wall_time_s"] = wall
            rows.append(row)
            fh.write(",".join(_fmt(row[c]) for c in RESULT_COLUMNS) + "\n")
            fh.flush()
    return rows


def read_rows(path: str | Path) -> list[dict]:
    """Parse a result file back into typed row dicts (schema-checked); a file
    that cannot be read or has no integer schema line is a ConfigError."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, ValueError) as exc:  # missing, a directory, not text
        raise ConfigError(f"{path}: cannot read result file ({type(exc).__name__})") from exc
    if not lines or not lines[0].startswith("# schema="):
        raise ConfigError(f"{path}: missing schema comment line")
    try:
        version = int(lines[0].split("=", 1)[1])
    except ValueError as exc:
        raise ConfigError(f"{path}: result schema is no integer: {lines[0]!r}") from exc
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
    """One whitespace-separated two-column file per (x, y) series.

    Creates out_dir if needed, but not its parents: a missing parent
    raises FileNotFoundError, as an output file in it would."""
    out_dir = Path(out_dir)
    out_dir.mkdir(exist_ok=True)
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
