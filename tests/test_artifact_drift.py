"""scripts/artifact_drift.py on two small results directories."""
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "artifact_drift.py"


def run(old, new):
    proc = subprocess.run([sys.executable, str(SCRIPT), str(old), str(new)],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout


def write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_identical_runs_pass_whatever_their_timings(tmp_path):
    files = {"exp/report.json": json.dumps({"a": [1.0, 2.0]}),
             "exp/u.csv": "x1,value\n0,1.5\n"}
    write(tmp_path / "old", {**files, "exp/timing.txt": "elapsed_s 1.0\n"})
    write(tmp_path / "new", {**files, "exp/timing.txt": "elapsed_s 9.0\n"})
    code, out = run(tmp_path / "old", tmp_path / "new")
    assert code == 0
    assert "byte-identical: 2" in out
    assert "timing.txt" not in out
    assert "differing: 0" in out


def test_drift_is_reported_per_field(tmp_path):
    write(tmp_path / "old", {
        "same.json": "{}\n",
        "gone.csv": "t\n1\n",
        "exp/report.json": json.dumps(
            {"lam": 0.5, "probe": {"t": [1.0, 2.0, 4.0]}, "tag": "x"}),
        "exp/u.csv": "x1,value\n0,1.0\n1,2.0\n",
    })
    write(tmp_path / "new", {
        "same.json": "{}\n",
        "new.txt": "hello\n",
        "exp/report.json": json.dumps(
            {"lam": 0.5, "probe": {"t": [1.0, 2.5, 4.0]}, "tag": "y"}),
        "exp/u.csv": "x1,value\n0,1.0\n1,2.0000001\n",
    })
    code, out = run(tmp_path / "old", tmp_path / "new")
    assert code == 1
    lines = out.splitlines()
    assert lines[:2] == ["byte-identical: 1", "  same.json"]
    assert "missing: 1" in lines and "  gone.csv" in lines
    assert "extra: 1" in lines and "  new.txt" in lines
    assert "    probe.t[]: max abs 0.5, max rel 0.25" in lines
    assert "    tag: max abs inf, max rel inf" in lines
    assert "    value: max abs 1e-07, max rel 5e-08" in lines
    # unchanged fields of a differing file are not listed
    assert not any(line.strip().startswith(("lam:", "x1:")) for line in lines)
