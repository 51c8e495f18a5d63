import json
import subprocess
import sys
from pathlib import Path

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
    changed = tmp_path / "b.json"
    changed.write_text(json.dumps(fields))
    done = report_fields("--compare", str(dump), str(changed))
    assert done.returncode == 1
    gap_line, flag_line, summary = done.stdout.splitlines()
    # numeric fields carry the absolute difference and the one on the cost scale
    assert gap_line.startswith("desk_catalog/potential/tiny: gap: ")
    assert gap_line.endswith(f" != 0.5  |a-b|={diff:.3g}  |a-b|/(1+|cost_mfg|)={scaled:.3g}")
    assert flag_line.startswith("desk_catalog/potential/tiny: mfg_converged: ")
    assert "|a-b|" not in flag_line
    assert summary.endswith("4 points, 84 fields; 2 differ")
