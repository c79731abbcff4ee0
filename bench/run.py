"""Run one benchmark workload against the hjlax sources and print its metrics.

    python3 bench/run.py --workload arcs --seed 0 --seconds 20 --trace 0

The process is the workload's single client.  It pins BLAS to one thread
before numpy is imported, sets up (imports ``hjlax`` from ``src/`` next to
this directory, builds the workload's Lagrangians and grids, runs one
warm-up request), then repeats the seeded request list while the next pass
is expected to end within ``--seconds``, checking every result against its
oracle.  Set-up is timed in this process and in fresh child processes, and
the median is reported.  Times are rescaled to a machine of fixed speed by
the probe in speed.py; raw wall times are recorded next to them.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see spans.py) of the traced ones, plus the tracing
overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record with
the machine, the generated inputs and every pass is written to
``bench/out/``.  The exit code is 1 when any check failed, 2 when the
sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5        # this process plus four fresh children

END_TO_END = {"solve_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or ".s_per_" in name:
        return "s"
    if "_per_" in name or name.endswith("tol_used_max"):
        return "ratio"
    return "count"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it as JSON and exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up


def set_up(workload: str, seed: int):
    """Import hjlax, generate the requests, build fixtures, warm up.
    Returns (hjlax, workload, requests, fixtures, seconds), the seconds
    rescaled by the reference time measured right after."""
    start = time.perf_counter()
    import hjlax as hj
    if Path(hj.__file__).resolve().parent != (SRC / "hjlax").resolve():
        raise SystemExit(f"bench: imported hjlax from {hj.__file__}, "
                         f"not from {SRC}")
    from workloads import WORKLOADS
    wl = WORKLOADS[workload]
    reqs = wl.requests(random.Random(seed))
    fx = wl.fixtures(hj, reqs)
    wl.warmup(hj, fx)
    seconds = time.perf_counter() - start
    from speed import REFERENCE_S, reference_seconds
    return hj, wl, reqs, fx, seconds * REFERENCE_S / reference_seconds()


def child_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# passes


def run_pass(hj, wl, fx, reqs, tracer=None) -> dict:
    """Send every request once, in order, checking each result.  Checks are
    timed as part of the pass but are neither traced nor counted for
    warnings: they are the benchmark's work, not the request's."""
    from workloads import CheckFailed
    state: dict = {}
    calls, ratios, failures = [], [], []
    requested: Counter = Counter()
    warned: Counter = Counter()
    checking = False

    def show(message, category, filename, lineno, file=None, line=None):
        if checking:
            return
        warned[category.__name__] += 1
        if tracer is not None:
            tracer.on_warning(category)

    def check(req, out) -> float:
        nonlocal checking
        checking = True
        if tracer is not None:
            tracer.paused = True
        try:
            return wl.check(hj, fx, req, out, state)
        finally:
            checking = False
            if tracer is not None:
                tracer.paused = False

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        start = time.perf_counter()
        for req in reqs:
            t0 = time.perf_counter()
            try:
                try:
                    out = wl.run(hj, fx, req, state)
                finally:
                    calls.append((t0, time.perf_counter()))
                ratios.append(check(req, out))
                requested.update(wl.requested(req, out))
            except (hj.HJLaxError, CheckFailed) as exc:
                failures.append(f"{req['kind']}: {type(exc).__name__}: {exc}")
        end = time.perf_counter()
    return {"start": start, "end": end, "calls": calls, "ratios": ratios,
            "failures": failures, "requested": dict(requested),
            "warnings": dict(warned)}


def traced_pass(hj, wl, fx, reqs, probe=None) -> dict:
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    if probe is not None:
        probe.on_tick = tracer.exclude
    try:
        result = run_pass(hj, wl, tracer.wrap_fixtures(fx), reqs, tracer)
    finally:
        tracer.uninstall()
        if probe is not None:
            probe.on_tick = None
    layers = tracer.metrics()
    # the tracer's counts must agree with what the solvers report
    for metric, key in (("discounted.sweeps", "sweeps"),
                        ("laxoleinik.nodes", "lo_nodes")):
        want = result["requested"].get(key, 0)
        if layers[metric] != want:
            result["failures"].append(
                f"trace: {metric} = {layers[metric]}, solvers report {want}")
    result["layers"] = layers
    return result


def hard_arcs(hj, wl, fx, seed: int) -> list[dict]:
    """Run the workload's hard requests once, untimed and untraced.  They
    probe a known NoConvergence defect, so a failure is recorded as an
    outcome, not as a failed request."""
    from workloads import CheckFailed
    outcomes = []
    for req in wl.hard_requests(random.Random(f"{seed}-hard")):
        try:
            wl.check(hj, fx, req, wl.run(hj, fx, req, {}), {})
            outcome = "ok"
        except (hj.HJLaxError, CheckFailed) as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        outcomes.append({"request": req, "outcome": outcome})
    return outcomes


# ---------------------------------------------------------------------------
# record


def calibration_seconds(np) -> float:
    """Best of three runs of a fixed numpy loop, to compare machines."""
    a = np.linspace(0.0, 1.0, 250_000)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(20):
            b = np.sort(np.sin(7.0 * a) + a)
            float(b @ a)
        best = min(best, time.perf_counter() - t0)
    return best


def machine() -> dict:
    import numpy as np
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "calibration_s": calibration_seconds(np),
        "src_lines": sum(len(f.read_text().splitlines())
                         for f in sorted((SRC / "hjlax").glob("*.py"))),
    }


def percentile_ms(values: list[float], q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) * 1e3


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "hjlax" / "__init__.py").is_file():
        print(f"bench: no hjlax sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        *_, seconds = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    from speed import SpeedProbe
    setups = [child_setup_seconds(args.workload, args.seed)
              for _ in range(SETUP_SAMPLES - 1)]
    hj, wl, reqs, fx, seconds = set_up(args.workload, args.seed)
    setups.append(seconds)
    info = machine()

    plain, traced = [], []
    with SpeedProbe() as probe:
        begin = time.perf_counter()
        while True:
            plain.append(run_pass(hj, wl, fx, reqs))
            if args.trace:
                traced.append(traced_pass(hj, wl, fx, reqs, probe))
            per_round = sum(statistics.median(p["end"] - p["start"] for p in kind)
                            for kind in (plain, traced) if kind)
            if time.perf_counter() - begin + per_round > args.seconds:
                break
    for p in plain + traced:
        p["wall_s"] = p["end"] - p["start"]
        p["solve_s"] = probe.rescaled(p["start"], p["end"])
        p["latencies_s"] = [probe.rescaled(a, b) for a, b in p.pop("calls")]
        p["start"], p["end"] = p["start"] - begin, p["end"] - begin
    ticks = [b - a for a, b in probe.ticks]
    hard = (hard_arcs(hj, wl, fx, args.seed)
            if args.trace and hasattr(wl, "hard_requests") else [])

    passes = plain + traced
    failures = [f for p in passes for f in p["failures"]]
    attempted = len(reqs) * len(passes)
    solve_s = statistics.median(p["solve_s"] for p in plain)
    latencies = [x for p in plain for x in p["latencies_s"]]
    tol_used_max = max((r for p in passes for r in p["ratios"]), default=0.0)
    if args.trace:
        names = list(traced[0]["layers"])
        metrics = {n: statistics.fmean(p["layers"][n] for p in traced)
                   for n in names}
        metrics["action.hard_arcs_failed"] = sum(h["outcome"] != "ok"
                                                 for h in hard)
        metrics["trace.overhead_s"] = (
            statistics.median(p["solve_s"] for p in traced) - solve_s)
        metrics["checks.tol_used_max"] = tol_used_max
        units = {n: per_layer_unit(n) for n in metrics}
    else:
        metrics = {
            "solve_s": solve_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info, "inputs": reqs,
        "setup_samples_s": setups,
        "reference_s": {"samples": len(ticks), "median": statistics.median(ticks),
                        "min": min(ticks), "max": max(ticks)} if ticks else {},
        "ticks": [(a - begin, b - a) for a, b in probe.ticks],
        "passes": [{k: v for k, v in p.items() if k != "latencies_s"}
                   for p in passes],
        # recorded, not bounded: only arcs times enough requests for p90
        "latency_ms": {"requests": len(latencies),
                       "p50": percentile_ms(latencies, 50),
                       "p90": percentile_ms(latencies, 90)},
        "tol_used_max": tol_used_max,
        "runtime_warnings": sum(p["warnings"].get("RuntimeWarning", 0)
                                for p in plain) / len(plain),
        "hard_arcs": hard,
        "failures": failures,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for line in failures:
        print(f"FAILED {line}")
    print(f"machine: {info['nproc']} cpus, python {info['python']}, numpy "
          f"{info['numpy']}, scipy {info['scipy']}, calibration "
          f"{info['calibration_s']:.4f} s, src {info['src_lines']} lines")
    if ticks:
        ref = record["reference_s"]
        print(f"reference work: {ref['samples']} samples, median "
              f"{ref['median'] * 1e3:.2f} ms, range {ref['min'] * 1e3:.2f}-"
              f"{ref['max'] * 1e3:.2f} ms")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} requests, tol_used_max {tol_used_max:.3g}, "
          f"runtime warnings per pass {record['runtime_warnings']:g}, "
          f"raw wall per pass "
          f"{statistics.median(p['wall_s'] for p in plain):.4g} s")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    lat = record["latency_ms"]
    print(f"  op_p50_ms {lat['p50']:.6g} ms, op_p90_ms {lat['p90']:.6g} ms "
          f"over {lat['requests']} requests (recorded, not bounded)")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
