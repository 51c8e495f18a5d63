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
    assert header.split() == ["n", "fp_sweep", "hjb_sweep", "adjoint", "factor", "fields",
                              "path_terms", "descent_terms", "cert_step"]
    assert [int(row.split()[0]) for row in rows] == [8, 16]
    assert all(float(cost) > 0.0 for row in rows for cost in row.split()[1:])
