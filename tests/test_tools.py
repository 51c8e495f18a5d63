import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from mfglab.efficiency import EfficiencyReport

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "report_fields.py"


def report_fields(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, timeout=300)


def test_report_fields_dump_and_compare(tmp_path):
    dump = tmp_path / "a.json"
    done = report_fields("--workload", "desk_catalog", "--scale", "tiny", "--out", str(dump))
    assert done.returncode == 0, done.stderr
    fields = json.loads(dump.read_text())
    assert sorted(fields) == [f"desk_catalog/{label}/tiny"
                              for label in ("convolution", "efficient", "potential", "xfree")]
    for point in fields.values():
        assert sorted(point) == sorted(EfficiencyReport.SCHEMA)

    done = report_fields("--compare", str(dump), str(dump))
    assert done.returncode == 0
    assert done.stdout.strip().endswith("4 points, 84 fields; 0 differ")

    point = fields["desk_catalog/potential/tiny"]
    diff = abs(float(point["gap"]) - 0.5)
    scaled = diff / (1.0 + abs(float(point["cost_mfg"])))
    point["gap"] = "0.5"
    point["mfg_converged"] = "False" if point["mfg_converged"] == "True" else "True"
    assert float(point["lb_integrand_F"]) >= 0.0  # a plain float repr
    point["lb_integrand_F"] = "np.float64(0.25)"  # dumps of older reports still parse
    changed = tmp_path / "b.json"
    changed.write_text(json.dumps(fields))
    done = report_fields("--compare", str(dump), str(changed))
    assert done.returncode == 1
    gap_line, lb_line, flag_line, summary, gap_field, lb_field, flag_field = \
        done.stdout.splitlines()
    # numeric fields carry the absolute difference and the one on the cost scale
    assert gap_line.startswith("desk_catalog/potential/tiny: gap: ")
    assert gap_line.endswith(f" != 0.5  |a-b|={diff:.3g}  |a-b|/(1+|cost_mfg|)={scaled:.3g}")
    assert lb_line.endswith(" != np.float64(0.25)  |a-b|=0.25  |a-b|/(1+|cost_mfg|)="
                            f"{0.25 / (1.0 + abs(float(point['cost_mfg']))):.3g}")
    assert flag_line.startswith("desk_catalog/potential/tiny: mfg_converged: ")
    assert "|a-b|" not in flag_line
    assert summary.endswith("4 points, 84 fields; 3 differ")
    # then one line per differing field: its points and largest difference on the cost scale
    assert gap_field == ("gap: differs on 1 of 4 points: desk_catalog/potential/tiny; "
                         f"max |a-b|/(1+|cost_mfg|)={scaled:.3g}")
    assert lb_field.startswith("lb_integrand_F: differs on 1 of 4 points: ")
    assert flag_field == "mfg_converged: differs on 1 of 4 points: desk_catalog/potential/tiny"


@pytest.mark.parametrize("label", [None, "potential", "xfree"])
def test_step_costs_smoke(label):
    script = SCRIPT.parent / "step_costs.py"
    args = ["--n", "8", "16", "--nt", "8", "--repeats", "1"]
    done = subprocess.run([sys.executable, str(script), *args,
                           *(["--label", label] if label else [])],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    title, header, *rows = done.stdout.splitlines()
    assert "nt=8" in title and "best of 1" in title
    assert title.endswith(f"{label or 'convolution'} coupling")
    assert header.split() == ["n", "fp_sweep", "hjb_sweep", "adjoint", "descent_eval", "factor",
                              "fields", "path_terms", "descent_terms", "cert_step"]
    assert [int(row.split()[0]) for row in rows] == [8, 16]
    assert all(float(cost) > 0.0 for row in rows for cost in row.split()[1:])


def _load_tool(name):
    """A script of tools/, loaded from its file (tools/ is not a package)."""
    spec = importlib.util.spec_from_file_location(name, SCRIPT.parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_tool("bench_pairs")


def _run(value, correct=True, failed=0, **more):
    return {"correct": correct, "attempted": 50, "failed": failed, "setup_s": value, **more}


def test_bench_pairs_summary():
    # ten pairs: the change is lower in nine and ties in one
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    change = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 1.9]
    pairs = [{"seed": i, "parent": _run(a, score=a, wall_s=a), "change": _run(b, score=b)}
             for i, (a, b) in enumerate(zip(parent, change))]
    summary = bench_pairs.summarize(pairs, [("setup_s", "lower"), ("score", "higher"),
                                              ("wall_s", "lower")])
    assert sorted(summary) == ["score", "setup_s"]  # wall_s: no pair has both sides
    s = summary["setup_s"]
    assert s["pairs"] == s["compared"] == 10 and s["change_wins"] == 9
    assert s["parent_median"] == pytest.approx(1.45)
    assert s["parent_q1_q3"] == pytest.approx([1.225, 1.675])  # numpy's percentile
    assert s["change_median"] == pytest.approx(0.725)
    assert s["change_q1_q3"] == pytest.approx([0.6125, 0.8375])
    assert s["ratio"] == pytest.approx(0.725 / 1.45)
    assert s["paired_ratio"] == pytest.approx(0.5)  # nine ratios of exactly 0.5
    assert s["void"] is None
    assert s["claim_holds"]  # 9/10 wins and a gap of 0.725 > IQR 0.45
    higher = summary["score"]
    assert higher["change_wins"] == 0 and not higher["claim_holds"]

    # 8/10 wins fail the rule, however large the gap
    pairs[0]["change"]["setup_s"] = 1.0
    assert not bench_pairs.summarize(pairs, [("setup_s", "lower")])["setup_s"]["claim_holds"]
    # 10/10 wins with a gap inside the parent's IQR fail it too
    narrow = [{"parent": _run(a), "change": _run(a - 0.01)} for a in parent]
    s = bench_pairs.summarize(narrow, [("setup_s", "lower")])["setup_s"]
    assert s["change_wins"] == 10 and not s["claim_holds"]


def _ten_wins():
    return [{"parent": _run(1.0 + 0.1 * i), "change": _run(0.5)} for i in range(10)]


def test_bench_pairs_crashed_change_run_is_a_loss():
    pairs = _ten_wins()
    assert bench_pairs.summarize(pairs, [("setup_s", "lower")])["setup_s"]["claim_holds"]
    pairs[3]["change"] = {"error": "exit 1: Traceback"}
    s = bench_pairs.summarize(pairs, [("setup_s", "lower")])["setup_s"]
    assert (s["change_wins"], s["compared"], s["pairs"]) == (9, 9, 10)
    assert "1 change run(s) errored or not correct" == s["void"] and not s["claim_holds"]


def test_bench_pairs_incorrect_or_failing_change_voids_the_claim():
    pairs = _ten_wins()
    pairs[3]["change"]["correct"] = False
    s = bench_pairs.summarize(pairs, [("setup_s", "lower")])["setup_s"]
    assert s["change_wins"] == 9 and s["void"] and not s["claim_holds"]

    pairs = _ten_wins()
    pairs[3]["change"]["failed"] = 1  # still correct, but more failed points than the parent
    s = bench_pairs.summarize(pairs, [("setup_s", "lower")])["setup_s"]
    assert s["change_wins"] == 10 and "failed" in s["void"] and not s["claim_holds"]
    pairs[5]["parent"]["failed"] = 1  # the same share on both sides
    assert bench_pairs.summarize(pairs, [("setup_s", "lower")])["setup_s"]["claim_holds"]


def test_bench_pairs_seeds_and_help():
    assert bench_pairs.parse_seeds("0-9") == list(range(10))
    assert bench_pairs.parse_seeds("0,3,5-7") == [0, 3, 5, 6, 7]
    done = subprocess.run([sys.executable, bench_pairs.__file__, "--help"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "PARENT" in done.stdout.upper() and "--workload" in done.stdout


def test_stage_split_smoke():
    script = SCRIPT.parent / "stage_split.py"
    done = subprocess.run([sys.executable, str(script), "--workload", "desk_catalog",
                           "--scale", "tiny", "--repeats", "1"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    title, header, *rows = done.stdout.splitlines()
    assert "best of 1" in title and "tiny scale" in title
    assert header.split() == ["point", "mfg", "descent", "system", "eq+bounds", "certificate",
                              "total"]
    assert [row.split()[0] for row in rows] == [
        f"desk_catalog/{label}" for label in ("convolution", "efficient", "potential", "xfree")]
    for row in rows:
        *stages, total = (float(v) for v in row.split()[1:])
        # the stages are disjoint parts of the one full_report call; each printed
        # value is rounded to 4 decimals, so their sum may pass the total by 5e-5 each
        assert all(t > 0.0 for t in stages) and sum(stages) <= total + 5e-5 * (len(stages) + 1)
