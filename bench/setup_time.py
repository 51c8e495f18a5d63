"""Set-up time of one workload in a fresh interpreter: importing mfglab
and building the problem of every timed point.  Prints the seconds.

    python3 bench/setup_time.py <workload> <scale>

``run.py`` starts it with ``src`` on PYTHONPATH and its BLAS settings.
"""

import sys
import time

from workloads import WORKLOADS


def main() -> None:
    workload, scale = WORKLOADS[sys.argv[1]], sys.argv[2]
    start = time.perf_counter()
    from mfglab.harness import build_problem

    for point in workload.points:
        build_problem(point.config(scale))
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
