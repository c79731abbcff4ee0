"""scripts/bench_record.py on two checkouts whose bench/run.py is a stub."""
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"

STUB = '''
import argparse, json, pathlib
p = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--trace"):
    p.add_argument(name)
a = p.parse_args()
if a.trace == "1":
    metrics = {"discounted.sweeps": 99, "gridfn.interp_calls": INTERP}
else:
    metrics = {"solve_s": SOLVE, "peak_rss_mb": 90.0, "setup_s": 0.5}
out = pathlib.Path("bench/out")
out.mkdir(exist_ok=True)
(out / f"{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(
    json.dumps({"machine": {"nproc": 2, "src_lines": LINES}}))
print("a line of human-readable output")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics":
                  {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}))
'''


def checkout(root: Path, solve: float, interp: int, lines: int) -> Path:
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(
        STUB.replace("SOLVE", str(solve)).replace("INTERP", str(interp))
        .replace("LINES", str(lines)))
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "one"}, {"name": "two"}]}))
    return root


def test_record_has_medians_counters_and_line_counts(tmp_path):
    parent = checkout(tmp_path / "parent", 1.0, 3760, 4380)
    change = checkout(tmp_path / "change", 0.6, 949, 4390)
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "99", str(parent), "--change", str(change),
         "--pairs", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads((change / "BENCH_99.json").read_text())
    assert rec["pairs"] == 2 and rec["machine"] == {"nproc": 2}
    assert rec["src_lines"] == {"parent": 4380, "change": 4390}
    for w in ("one", "two"):
        row = rec["workloads"][w]
        assert row["parent"]["solve_s"] == {"median": 1.0, "q1": 1.0, "q3": 1.0,
                                            "runs": [1.0, 1.0]}
        assert row["change"]["solve_s"]["median"] == 0.6
        assert row["change"]["failed"] == [0, 0]
        assert row["solve_s"] == {"change_faster_pairs": 2,
                                  "median_change_minus_parent": 0.6 - 1.0,
                                  "parent_quartile_spread": 0.0}
        assert row["change"]["trace_seed0"]["gridfn.interp_calls"] == 949
        assert row["parent"]["trace_seed0"]["lagrangian.calls"] is None
    assert not (parent / "BENCH_99.json").exists()


def test_failed_run_is_reported_not_read_from_a_stale_record(tmp_path):
    parent = checkout(tmp_path / "parent", 1.0, 3760, 4380)
    change = checkout(tmp_path / "change", 0.6, 949, 4390)
    stale = change / "bench" / "out"
    stale.mkdir()
    (stale / "one-seed0-trace0.json").write_text(json.dumps({"machine": {}}))
    (change / "bench" / "run.py").write_text(
        "import sys\nprint('no summary')\nsys.exit('broken')\n")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "99", str(parent), "--change", str(change),
         "--pairs", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "exited 1 without its JSON summary" in proc.stderr
    assert "broken" in proc.stderr and "Traceback" not in proc.stderr
    assert not (change / "BENCH_99.json").exists()
