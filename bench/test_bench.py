"""Smoke test of the benchmark on the tiny grid, so the script cannot rot.

    python3 -m pytest bench

Each workload runs through ``run.py`` exactly as in a real run, with
``--scale tiny``, untraced and traced.  The desk-scale run is not part of
this test.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


def record(workload, seed, trace):
    return json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    assert result["attempted"] >= 1
    failures = [s for s in record(workload, 3, trace)["samples"] if s["error"]]
    assert result["failed"] == len(failures)
    # At n=16, nt=8 the Holder window of the xfree report holds one time
    # level and holder_diagnostic raises; every other tiny point passes.
    assert all(s["point"] == "xfree" and s["error"].startswith("ValueError")
               for s in failures)
    assert result["correct"] == (not failures)


def test_traced_counts_and_probe():
    proc = bench("--workload", "stiff_sweep", "--seed", "0", "--seconds", "1",
                 "--trace", "1", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    rec = record("stiff_sweep", 0, 1)
    assert rec["absent_spans"] == []
    assert [p["point"] for p in rec["probes"]] == ["defect_probe"]
    counts = rec["point_counts"]
    assert set(counts) == {"convolution_l32", "convolution_l128", "potential_l128"}
    # one backward sweep plus one forward step per level and iteration
    assert all(c["tridiag"] >= c["fp_step"] > 0 and c["gradient"] > 0 for c in counts.values())
    assert rec["metrics"]["planner.descent.fg_evals"] == sum(c["gradient"] for c in counts.values())


def test_missing_target_is_absent():
    sys.path.insert(0, str(ROOT / "src"))
    from mfglab import stepping

    solver, step = stepping.solve_periodic_tridiag, stepping.fp_step
    targets = dict(spans.TARGETS, tridiag=("stepping", "renamed_solver", None))
    tracer = spans.Tracer(targets)
    tracer.install()
    try:
        assert stepping.fp_step is not step
        assert stepping.solve_periodic_tridiag is solver
    finally:
        tracer.uninstall()
    assert stepping.fp_step is step
    assert tracer.absent == ["tridiag"]
    metrics = spans.layer_metrics(tracer.spans, tracer.absent)
    assert "stepping.tridiag.calls" not in metrics
    assert "stepping.fp_step.calls" in metrics


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk_catalog",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
