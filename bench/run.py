"""mfglab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload desk_catalog --seed 0 --seconds 50 --trace 0

Each point goes through ``harness.run`` (``build_problem`` then
``full_report``), writes its CSV row under ``.bench_out/`` and is checked
against the reference rows in ``bench/reference.json``.

``--trace 0`` measures the end-to-end metrics with tracing off: one pass
over the points in the seed's order, then more points while they fit in
``--seconds``; wall_s and cpu_s sum each point's median.  ``--trace 1``
makes one untraced and one traced pass and reports the per-layer metrics
from the spans (see ``spans.py``), then runs the workload's probes:
untimed points that may fail, counted in fail_ratio but not in
``failed``.

BLAS runs on one thread unless ``--blas-threads 2`` is given; each count
has its own reference rows.  The traced desk_catalog convolution point
makes 27,904 tridiagonal solves and 22 descent f/g evaluations on one
thread, 38,912 and 44 on two.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record with the machine
details, every sample and every failure goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, layer_metrics, per_point_counts
from workloads import SCALES, TINY_GRID, WORKLOADS, Point

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# BLAS threads for timed runs.  One thread leaves the second core of a
# 2-core machine to everything else: with two, OpenBLAS's spinning worker
# made the desk convolution point 1.6x slower in wall time, 2.5x in CPU
# time, and its wall time spread with the neighbours' load.  The count sets
# the summation order of matrix-vector products and the descent's
# iteration counts follow it, so reference.json holds rows per count.
BLAS_THREADS = 1
SETUP_REPEATS = 7

COST_FIELDS = ("cost_mfg", "cost_planner", "cost_planner_system")
EXACT_FIELDS = ("mfg_converged", "system_converged", "descent_converged",
                "mfg_iterations", "descent_iterations")
COST_RTOL = 1e-12

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def configure(blas_threads: int = BLAS_THREADS) -> None:
    """Pin BLAS threads and make ``src`` importable, here and in children."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path.insert(0, str(SRC))


def machine(blas_threads: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads}


def check_row(row: dict, ref: dict) -> list[str]:
    """Differences between a result row and its reference row."""
    problems = [f"{k}={row[k]!r}, reference {ref[k]!r}" for k in COST_FIELDS
                if not abs(row[k] - ref[k]) <= COST_RTOL * (1.0 + abs(ref[k]))]
    problems += [f"{k}={row[k]!r}, reference {ref[k]!r}" for k in EXACT_FIELDS
                 if row[k] != ref[k]]
    if not row["cost_planner"] <= row["cost_mfg"]:
        problems.append("cost_planner > cost_mfg")
    if not row["certificate"] >= 0.0:
        problems.append(f"certificate={row['certificate']!r} < 0")
    return problems


def run_point(harness, point: Point, scale: str, refs: dict | None) -> dict:
    """Run one point through the harness; check it against ``refs`` unless None."""
    path = OUT / f"{point.name}.csv"
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        harness.run(point.config(scale), path)
        error = None
    except Exception as exc:  # a failing point is recorded; the workload goes on
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if error is None and refs is not None:
        rows = harness.read_rows(path)
        if not rows:
            error = "no row written"
        elif refs.get(point.name) is None:
            error = "no reference row"
        else:
            error = "; ".join(check_row(rows[0], refs[point.name]))
    return {"point": point.name, "wall_s": wall, "cpu_s": cpu, "error": error or None}


def timed_samples(harness, points, scale, refs, seconds) -> list[dict]:
    """One pass over the points, then more while they fit in ``seconds``."""
    start = time.perf_counter()
    samples = [run_point(harness, p, scale, refs) for p in points]
    last = {s["point"]: s["wall_s"] for s in samples}
    i = 0
    while time.perf_counter() - start + last[points[i].name] <= seconds:
        sample = run_point(harness, points[i], scale, refs)
        samples.append(sample)
        last[sample["point"]] = sample["wall_s"]
        i = (i + 1) % len(points)
    return samples


def sum_of_medians(samples: list[dict], key: str) -> float:
    by_point: dict[str, list[float]] = {}
    for s in samples:
        by_point.setdefault(s["point"], []).append(s[key])
    return sum(statistics.median(v) for v in by_point.values())


def setup_seconds(workload: str, scale: str) -> float:
    """Median set-up time over fresh interpreters."""
    cmd = [sys.executable, str(BENCH / "setup_time.py"), workload, scale]
    times = [float(subprocess.run(cmd, capture_output=True, text=True, check=True,
                                  timeout=120).stdout.split()[-1])
             for _ in range(SETUP_REPEATS)]
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=SCALES, default="full",
                    help=f"'tiny' runs every point on a {TINY_GRID} grid (smoke test)")
    ap.add_argument("--blas-threads", type=int, choices=(1, 2), default=BLAS_THREADS,
                    help="BLAS threads; reference.json has rows for 1 and 2")
    args = ap.parse_args(argv)

    if not (SRC / "mfglab" / "__init__.py").is_file():
        print(f"error: no mfglab package under {SRC}", file=sys.stderr)
        return 2
    configure(args.blas_threads)
    from mfglab import harness

    workload = WORKLOADS[args.workload]
    refs = json.loads((BENCH / "reference.json").read_text())
    refs = refs[str(args.blas_threads)][args.scale][workload.name]
    points = workload.ordered(args.seed)
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "scale": args.scale,
              "trace": args.trace, "order": [p.name for p in points],
              "machine": machine(args.blas_threads)}
    for key, val in record["machine"].items():
        print(f"# {key}: {val}")

    # Warm-up, untimed: lazy imports, and the allocator's first growth at this
    # grid size, which made whichever n=1024 point ran first ~25% slower.
    # The workload's first listed point is used whatever the seed's order.
    run_point(harness, workload.points[0], args.scale, None)

    if args.trace == 0:
        setup = setup_seconds(workload.name, args.scale)
        samples = timed_samples(harness, points, args.scale, refs, args.seconds)
        metrics = {
            "wall_s": sum_of_medians(samples, "wall_s"),
            "cpu_s": sum_of_medians(samples, "cpu_s"),
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        untraced = [run_point(harness, p, args.scale, refs) for p in points]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [run_point(harness, p, args.scale, refs) for p in points]
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.csv.gz")
        samples = untraced + traced
        layers = layer_metrics(tracer.spans, tracer.absent)
        layers["trace.overhead_s"] = (sum(s["wall_s"] for s in traced)
                                      - sum(s["wall_s"] for s in untraced), "s")
        record["absent_spans"] = tracer.absent
        record["point_counts"] = dict(zip((p.name for p in points),
                                          per_point_counts(tracer.spans)))
        for name, counts in record["point_counts"].items():
            print(f"# traced {name}: {counts.get('tridiag', 0)} tridiagonal solves, "
                  f"{counts.get('gradient', 0)} descent f/g evaluations")
        for name in tracer.absent:
            print(f"# span {name}: target missing, its metrics are absent")

    failed = sum(1 for s in samples if s["error"])
    probes = []
    if args.trace == 1:
        probes = [run_point(harness, p, args.scale, None) for p in workload.probes]
        probe_failed = sum(1 for s in probes if s["error"])
        layers["fail_ratio"] = ((failed + probe_failed) / (len(samples) + len(probes)), "ratio")
        metrics = {k: v for k, (v, _) in layers.items()}
        units = {k: u for k, (_, u) in layers.items()}

    for s in samples + probes:
        status = f"FAILED {s['error']}" if s["error"] else "ok"
        print(f"# point {s['point']}: wall {s['wall_s']:.3f} s, cpu {s['cpu_s']:.3f} s, {status}")
    for s in probes:
        print(f"# probe {s['point']}: {'failed: ' + s['error'] if s['error'] else 'finished'}")
    for name, value in metrics.items():
        print(f"# {name} = {value!r} {units[name]}")

    record.update(samples=samples, probes=probes, metrics=metrics)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    # the result line carries the metrics BENCHMARK.json declares; the record has all
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in declared if k in metrics}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
