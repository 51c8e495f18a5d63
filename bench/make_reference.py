"""Record the reference rows that ``run.py`` checks each point against.

    python3 bench/make_reference.py [blas_threads]

Runs every timed point of every workload at both scales with the given
BLAS thread count (default: the benchmark's) and rewrites that count's
rows in ``bench/reference.json``.  Run it for each count only when a
change is meant to alter the reported values.
"""

import json
import sys

import run
from workloads import SCALES, WORKLOADS


def main() -> None:
    threads = int(sys.argv[1]) if len(sys.argv) > 1 else run.BLAS_THREADS
    run.configure(threads)
    from mfglab import harness

    run.OUT.mkdir(exist_ok=True)
    refs = {}
    for scale in SCALES:
        for workload in WORKLOADS.values():
            for point in workload.points:
                path = run.OUT / f"reference-{point.name}.csv"
                try:
                    harness.run(point.config(scale), path)
                except Exception as exc:  # recorded as null: the point fails every check
                    print(scale, workload.name, point.name, "raised", repr(exc))
                    ref = None
                else:
                    row = harness.read_rows(path)[0]
                    ref = {k: row[k] for k in run.COST_FIELDS + run.EXACT_FIELDS}
                    print(scale, workload.name, point.name, ref, flush=True)
                refs.setdefault(scale, {}).setdefault(workload.name, {})[point.name] = ref
    path = run.BENCH / "reference.json"
    all_refs = json.loads(path.read_text()) if path.exists() else {}
    all_refs[str(threads)] = refs
    path.write_text(json.dumps(dict(sorted(all_refs.items())), indent=1) + "\n")


if __name__ == "__main__":
    main()
