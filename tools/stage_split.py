"""Print the wall time of each ``full_report`` stage for the benchmark's report points.

    python3 tools/stage_split.py                          # every desk_catalog and wide_grid point
    python3 tools/stage_split.py --src OLD/src            # the same table for another checkout
    python3 tools/stage_split.py --workload desk_catalog --repeats 5

Each point of ``bench/workloads.py`` (imported read-only) is built by
``harness.build_problem`` and run through ``efficiency.full_report``
``--repeats`` times.  The stages are timed by wrapping the functions
that ``full_report`` calls, so the table splits whatever ``full_report``
the checkout has: ``mfg`` is ``solve_mfg``, ``descent`` is
``solve_planner_descent``, ``system`` is ``solve_planner_system``,
``eq+bounds`` is ``equilibrium``, ``lb_integrands``, ``ub_norm`` and
``holder_diagnostic`` together, and ``certificate`` is ``certificate``.
``total`` is the whole ``full_report`` call; the part no stage holds is
``total`` minus their sum.  Every column is the best of the repeats, in
seconds.  BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import importlib.util  # noqa: E402  (BLAS threads are pinned before numpy loads)
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
# column -> the efficiency functions it times
STAGES = {
    "mfg": ("solve_mfg",),
    "descent": ("solve_planner_descent",),
    "system": ("solve_planner_system",),
    "eq+bounds": ("equilibrium", "lb_integrands", "ub_norm", "holder_diagnostic"),
    "certificate": ("certificate",),
}
COLUMNS = (*STAGES, "total")


def _workloads():
    """bench/workloads.py, loaded from its file (bench/ is not a package)."""
    name = "_bench_workloads"
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _timed(fn, column: str, spent: dict, active: set):
    """fn, adding its wall time to spent[column] unless a call of the same
    column is already running (ub_norm calls lb_integrands)."""
    def wrapper(*args, **kwargs):
        if column in active:
            return fn(*args, **kwargs)
        active.add(column)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[column] += perf_counter() - start
            active.discard(column)
    return wrapper


def stage_times(config: dict, repeats: int) -> dict:
    """{column: best seconds over the repeats} of one point's full_report."""
    from mfglab import efficiency, harness

    best = dict.fromkeys(COLUMNS, float("inf"))
    spent, active = {}, set()
    originals = {name: getattr(efficiency, name) for names in STAGES.values() for name in names}
    for column, names in STAGES.items():
        for name in names:
            setattr(efficiency, name, _timed(originals[name], column, spent, active))
    try:
        for _ in range(repeats):
            problem, params, eps = harness.build_problem(config)
            spent.update(dict.fromkeys(COLUMNS, 0.0))
            start = perf_counter()
            efficiency.full_report(problem, params, eps)
            spent["total"] = perf_counter() - start
            best = {c: min(best[c], spent[c]) for c in COLUMNS}
    finally:
        for name, fn in originals.items():
            setattr(efficiency, name, fn)
    return best


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the mfglab package to time (default: ./src)")
    ap.add_argument("--workload", action="append", dest="workloads",
                    help="restrict to this workload (repeatable; default: desk_catalog "
                         "and wide_grid)")
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="grid scale of the points (default: full)")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    bench = _workloads()
    print(f"seconds per full_report stage, best of {args.repeats}, {args.scale} scale, "
          "1 BLAS thread")
    print(f"{'point':<28}" + "".join(f"{c:>12}" for c in COLUMNS))
    for name in args.workloads or ["desk_catalog", "wide_grid"]:
        for point in bench.WORKLOADS[name].points:
            times = stage_times(point.config(args.scale), args.repeats)
            print(f"{name + '/' + point.name:<28}" + "".join(f"{times[c]:>12.4f}" for c in COLUMNS),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
