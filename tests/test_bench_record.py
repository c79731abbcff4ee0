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


# two experiments: "steady" writes the same artifact on both sides, "moved"
# writes VALUE
EXPERIMENTS = """#!/usr/bin/env bash
for name in steady moved; do
    mkdir -p "$1/$name"
    echo "wall_seconds=SOLVE" > "$1/$name/timing.txt"
done
echo '{"a": 1.0}' > "$1/steady/report.json"
echo '{"a": VALUE}' > "$1/moved/report.json"
"""

# a package surface: OPTIONS defaulted parameters, two config keys and
# two exports (a function and a constant; the submodules do not count)
PACKAGE = {
    "__init__.py": "from .lib import solve\nLIMIT = 1\n",
    "lib.py": "def solve(a, OPTIONS):\n    return a\n",
    "cli.py": "_SCHEMAS = {'run': {'n': (int, 1), 'tol': ({'err': (float, 1.0)}, {})}}\n",
}

TESTS = """
def test_one():
    pass


def test_two():
    assert FAIL is False
"""


def checkout(root: Path, solve: float, interp: int, lines: int,
             value: float = 2.0, fail: bool = False,
             options: str = "b=1, c=2") -> Path:
    (root / "bench").mkdir(parents=True)
    package = root / "src" / "hjlax"
    package.mkdir(parents=True)
    for name, text in PACKAGE.items():
        (package / name).write_text(text.replace("OPTIONS", options))
    (root / "bench" / "run.py").write_text(
        STUB.replace("SOLVE", str(solve)).replace("INTERP", str(interp))
        .replace("LINES", str(lines)))
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "one"}, {"name": "two"}]}))
    (root / "scripts").mkdir()
    (root / "scripts" / "run_experiments.sh").write_text(
        EXPERIMENTS.replace("SOLVE", str(solve)).replace("VALUE", str(value)))
    (root / "tests").mkdir()
    (root / "tests" / "test_stub.py").write_text(TESTS.replace("FAIL", str(fail)))
    return root


def test_record_has_medians_counters_and_line_counts(tmp_path):
    parent = checkout(tmp_path / "parent", 1.0, 3760, 4380)
    change = checkout(tmp_path / "change", 0.6, 949, 4390, options="b=1")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "99", str(parent), "--change", str(change),
         "--pairs", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads((change / "BENCH_99.json").read_text())
    assert rec["pairs"] == 2 and rec["machine"] == {"nproc": 2}
    assert rec["src_lines"] == {"parent": 4380, "change": 4390}
    assert rec["surface"] == {
        "parent": {"options": 2, "config_keys": 2, "exports": 2},
        "change": {"options": 1, "config_keys": 2, "exports": 2}}
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
    for side, tier1 in rec["tier1"].items():
        assert tier1["returncode"] == 0 and tier1["wall_s"] > 0.0
        assert (tier1["passed"], tier1["failed"]) == (2, 0)
    assert rec["experiments"]["parent"] == {
        "returncode": 0, "timing": {"moved": {"wall_seconds": 1.0},
                                    "steady": {"wall_seconds": 1.0}}}
    assert rec["experiments"]["change"]["timing"]["moved"] == {"wall_seconds": 0.6}
    assert rec["artifact_drift"] == {"drifted": False, "report": [
        "byte-identical: 2", "missing: 0", "extra: 0", "differing: 0"]}
    assert not (parent / "BENCH_99.json").exists()


def test_drift_and_failing_tests_are_recorded(tmp_path):
    parent = checkout(tmp_path / "parent", 1.0, 3760, 4380)
    change = checkout(tmp_path / "change", 0.6, 949, 4390, value=2.5, fail=True)
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "99", str(parent), "--change", str(change),
         "--pairs", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    rec = json.loads((change / "BENCH_99.json").read_text())
    assert rec["tier1"]["parent"]["failed"] == 0
    change_tier1 = rec["tier1"]["change"]
    assert change_tier1["returncode"] == 1
    assert (change_tier1["passed"], change_tier1["failed"]) == (1, 1)
    assert rec["artifact_drift"] == {"drifted": True, "report": [
        "byte-identical: 1", "missing: 0", "extra: 0", "differing: 1",
        "  moved/report.json", "    a: max abs 0.5, max rel 0.25"]}


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
