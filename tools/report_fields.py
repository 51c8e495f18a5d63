"""Dump every EfficiencyReport field of the benchmark's report points, or compare two dumps.

A change that claims "bitwise unchanged results" is checked by running
this script on the old and the new source and comparing the dumps:

    python3 tools/report_fields.py --src OLD/src --out old.json
    python3 tools/report_fields.py --out new.json
    python3 tools/report_fields.py --compare old.json new.json

Each point and probe of every workload in ``bench/workloads.py``
(imported read-only) is pushed through ``harness.build_problem`` ->
``efficiency.full_report`` at full and tiny scale, and every report
field is recorded as its ``repr``, so two dumps agree exactly when the
reports are bitwise equal.  A point that raises records the error type
and message instead.  BLAS runs on one thread, since the thread count
changes round-off.  ``--compare`` prints every field that differs, with
the absolute difference and the difference on the cost scale
(1 + |cost_mfg|) where both values are numbers, then a count line, then
one line per differing field name: the points where it differs and its
largest difference on the cost scale.  It exits 1 if any field differs.
"""

from __future__ import annotations

import argparse
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import importlib.util  # noqa: E402  (BLAS threads are pinned before numpy loads)
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    """bench/workloads.py, loaded from its file (bench/ is not a package)."""
    name = "_bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def dump(src: Path, workloads: list[str], scales: list[str]) -> dict:
    """{"workload/point/scale": {field: repr} or {"error": "Type: message"}}."""
    sys.path.insert(0, str(src))
    from mfglab import harness
    from mfglab.efficiency import EfficiencyReport, full_report

    bench = _workloads()
    out = {}
    for name in workloads:
        workload = bench.WORKLOADS[name]
        for scale in scales:
            for point in workload.points + workload.probes:
                key = f"{name}/{point.name}/{scale}"
                try:
                    problem, params, eps = harness.build_problem(point.config(scale))
                    report = full_report(problem, params, eps)
                except Exception as exc:  # a failing point is part of the record
                    out[key] = {"error": f"{type(exc).__name__}: {exc}"}
                else:
                    out[key] = {f: repr(getattr(report, f)) for f in EfficiencyReport.SCHEMA}
                print(f"{key}: {out[key].get('error', 'ok')}", file=sys.stderr)
    return out


def _float(text):
    """The number a field's repr shows (also inside np.float64(...)), else None."""
    if isinstance(text, str) and text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def compare(a: dict, b: dict) -> tuple[list[str], list[str]]:
    """Lines for every point or field missing from one dump or differing,
    and one summary line per differing field name.

    A differing field whose two values are numbers also gets |a-b| and
    |a-b|/(1+|cost_mfg|), the cost scale of the first dump's point.
    """
    lines = []
    by_field: dict[str, list] = {}  # field -> [points, largest difference on the cost scale]
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            lines.append(f"{key}: only in {'the first' if key in a else 'the second'} dump")
            continue
        for field in sorted(a[key].keys() | b[key].keys()):
            va, vb = a[key].get(field), b[key].get(field)
            if va == vb:
                continue
            line = f"{key}: {field}: {va} != {vb}"
            seen = by_field.setdefault(field, [[], None])
            seen[0].append(key)
            fa, fb = _float(va), _float(vb)
            if fa is not None and fb is not None:  # two report values: cost_mfg is there
                diff = abs(fa - fb)
                scaled = diff / (1.0 + abs(float(a[key]["cost_mfg"])))
                line += f"  |a-b|={diff:.3g}  |a-b|/(1+|cost_mfg|)={scaled:.3g}"
                seen[1] = scaled if seen[1] is None else max(seen[1], scaled)
            lines.append(line)
    summary = []
    for field, (points, worst) in sorted(by_field.items()):
        line = f"{field}: differs on {len(points)} of {len(a)} points: {', '.join(points)}"
        if worst is not None:
            line += f"; max |a-b|/(1+|cost_mfg|)={worst:.3g}"
        summary.append(line)
    return lines, summary


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two dumps instead of running")
    ap.add_argument("--out", help="write the dump here (default: stdout)")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the mfglab package to run (default: ./src)")
    ap.add_argument("--workload", action="append", dest="workloads",
                    help="restrict to this workload (repeatable; default: all)")
    ap.add_argument("--scale", choices=("full", "tiny"), action="append", dest="scales",
                    help="restrict to this scale (repeatable; default: both)")
    args = ap.parse_args(argv)

    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        lines, summary = compare(a, b)
        for line in lines:
            print(line)
        fields = sum(len(v) for v in a.values())
        print(f"{len(a)} points, {fields} fields; {len(lines)} differ")
        for line in summary:
            print(line)
        return 1 if lines else 0

    workloads = args.workloads or list(_workloads().WORKLOADS)
    result = dump(args.src.resolve(), workloads, args.scales or ["full", "tiny"])
    text = json.dumps(result, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
