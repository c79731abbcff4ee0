#!/usr/bin/env python3
"""Write BENCH_<pr>.json: the benchmark of a change against its parent.

Usage: scripts/bench_record.py PR PARENT [--change DIR] [--pairs 10]

PARENT and DIR (default: the checkout holding this script) are checkouts
with bench/run.py.  For every workload of DIR's BENCHMARK.json the script
runs ``python3 bench/run.py --workload W --seed 0 --trace 0`` (bench/run.py's
own run length) as a subprocess in PARENT and in DIR, PAIRS times with the
workloads interleaved and the side that runs first alternating, and then one
``--trace 1`` run per side and workload.  It reads only each run's last
stdout line (one JSON object) and the record the run leaves under
bench/out/.  Then, once per side, it times the tier-1 suite
(``python -m pytest -q --continue-on-collection-errors`` with src/ on
PYTHONPATH) and runs scripts/run_experiments.sh into a temporary directory.
It writes DIR/BENCH_<PR>.json: the machine block, each side's median,
quartiles and every run of the end-to-end metrics, per workload the pairs
the change won on solve_s with the median difference beside the parent's
quartile spread, the traced counters, each side's src/ line count and
public surface (option, config key and export counts of its src/hjlax, as
this script's tests/test_surface.py counts them), tier-1 wall time and pass
count, and the timing.txt of every experiment, and the
scripts/artifact_drift.py summary from the parent's results to the
change's.  Exits 1 when a bench run failed a check, or any run, test or
experiment exited non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import artifact_drift

ROOT = Path(__file__).resolve().parents[1]
# prints the surface counts of the hjlax package on PYTHONPATH; argv[1] is
# the directory holding test_surface.py
SURFACE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_surface as s
print(json.dumps({"options": len(s.public_options()),
                  "config_keys": len(s.config_keys()),
                  "exports": len(s.exports())}))
"""
END_TO_END = ("solve_s", "peak_rss_mb", "setup_s")
SEED = 0
COUNTERS = ("discounted.sweeps", "discounted.s_per_sweep",
            "gridfn.interp_calls", "lagrangian.calls")


def bench(checkout: Path, workload: str, trace: int) -> dict:
    """One bench/run.py subprocess: its exit code, failed count, metrics
    (from the last stdout line) and machine block (from its record)."""
    record = checkout / "bench" / "out" / f"{workload}-seed{SEED}-trace{trace}.json"
    record.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(SEED), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=1800)
    try:
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        machine = json.loads(record.read_text())["machine"]
    except (IndexError, ValueError, OSError):
        raise SystemExit(f"bench_record: {workload} in {checkout} exited "
                         f"{proc.returncode} without its JSON summary and record:"
                         f"\n{proc.stderr[-2000:]}") from None
    return {"returncode": proc.returncode, "failed": last["failed"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()},
            "machine": machine}


def surface(checkout: Path) -> dict:
    """Public option, config key and export counts of the checkout's
    src/hjlax, counted by tests/test_surface.py next to this script."""
    proc = subprocess.run(
        [sys.executable, "-c", SURFACE, str(ROOT / "tests")], cwd=checkout,
        env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
        capture_output=True, text=True, timeout=300)
    if proc.returncode:
        raise SystemExit(f"bench_record: counting the surface of {checkout} "
                         f"exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def tier1(checkout: Path) -> dict:
    """Wall time, exit code and outcome counts of the checkout's test suite."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")   # as scripts/run_experiments.sh
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=7200)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (\w+)", lines[-1])
              } if lines else {}
    return {"wall_s": wall, "returncode": proc.returncode,
            "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("errors", 0)
            + counts.get("error", 0)}


def experiments(checkout: Path, results: Path) -> dict:
    """Run scripts/run_experiments.sh into results: its exit code and each
    experiment's timing.txt as key -> number."""
    proc = subprocess.run(["bash", "scripts/run_experiments.sh", str(results)],
                          cwd=checkout, capture_output=True, text=True,
                          timeout=7200)
    timing = {}
    for path in sorted(results.glob("*/timing.txt")):
        pairs = (line.split("=", 1) for line in path.read_text().split())
        timing[path.parent.name] = {k: float(v) for k, v in pairs}
    return {"returncode": proc.returncode, "timing": timing}


def summary(values: list[float]) -> dict:
    """Median, first and third quartile, and every run."""
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("pr")
    p.add_argument("parent", type=Path)
    p.add_argument("--change", type=Path, default=ROOT)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    surfaces = {side: surface(path) for side, path in sides.items()}

    runs: dict = {side: {w: [] for w in workloads} for side in sides}
    for i in range(args.pairs):
        for w in workloads:
            for side in sorted(sides, reverse=i % 2 == 1):
                runs[side][w].append(bench(sides[side], w, 0))
    traced = {side: {w: bench(path, w, 1) for w in workloads}
              for side, path in sides.items()}
    tests = {side: tier1(path) for side, path in sides.items()}
    with tempfile.TemporaryDirectory() as tmp:
        results = {side: Path(tmp) / side for side in sides}
        exps = {side: experiments(path, results[side])
                for side, path in sides.items()}
        report, drifted = artifact_drift.compare(results["parent"],
                                                 results["change"])
    # the report without the list of byte-identical files
    identical = int(report[0].split(": ")[1])
    drift = {"drifted": drifted, "report": report[:1] + report[1 + identical:]}

    table: dict = {}
    for w in workloads:
        table[w] = {}
        for side in sides:
            row: dict = {"failed": [r["failed"] for r in runs[side][w]]}
            for m in END_TO_END:
                row[m] = summary([r["metrics"][m] for r in runs[side][w]])
            row["trace_seed0"] = {c: traced[side][w]["metrics"].get(c)
                                  for c in COUNTERS}
            table[w][side] = row
        parent, change = table[w]["parent"]["solve_s"], table[w]["change"]["solve_s"]
        table[w]["solve_s"] = {
            "change_faster_pairs": sum(
                c < q for q, c in zip(parent["runs"], change["runs"])),
            "median_change_minus_parent": change["median"] - parent["median"],
            "parent_quartile_spread": parent["q3"] - parent["q1"]}

    first = {side: runs[side][workloads[0]][0]["machine"] for side in sides}
    out = {
        "pr": args.pr,
        "command": f"python3 bench/run.py --workload W --seed {SEED} --trace 0",
        "pairs": args.pairs,
        "machine": {k: v for k, v in first["change"].items() if k != "src_lines"},
        "src_lines": {side: m["src_lines"] for side, m in first.items()},
        "surface": surfaces,
        "workloads": table,
        "tier1": tests,
        "experiments": exps,
        "artifact_drift": drift,
    }
    path = sides["change"] / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    every = [r for side in sides for w in workloads
             for r in runs[side][w] + [traced[side][w]]]
    every += list(tests.values()) + list(exps.values())
    return 1 if any(r["returncode"] or r.get("failed") for r in every) else 0


if __name__ == "__main__":
    sys.exit(main())
