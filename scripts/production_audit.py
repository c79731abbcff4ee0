#!/usr/bin/env python3
"""List the code of src/hjlax that production never reaches.

Usage: scripts/production_audit.py

Production means the 8 experiments of scripts/configs, run through
``hjlax.cli.main`` into a temporary directory, and one checked pass of each
bench/ workload at seeds 0 and 1, the arcs workload's hard requests
included.  All of it runs under a ``sys.settrace`` line tracer that watches
the files of src/hjlax only.  The script prints, per module, the functions
never entered and the lines never run inside the functions that were.
Exits 0, or 1 when an experiment does not finish with status ok or a bench
check fails.
"""

from __future__ import annotations

import dis
import inspect
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hjlax"
CONFIGS = ROOT / "scripts" / "configs"


def _code_objects(code):
    """code and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _code_objects(const)


def _body_lines(code) -> set[int]:
    """Lines of the instructions after the function's entry RESUME (the
    def line runs no statement of the body)."""
    ins = list(dis.get_instructions(code))
    start = next(i for i, x in enumerate(ins) if x.opname == "RESUME") + 1
    return {x.positions.lineno for x in ins[start:] if x.positions.lineno}


class LineTracer:
    """Context manager recording the functions entered and the lines run
    in the .py files of one directory."""

    def __init__(self, root: Path = PACKAGE):
        self.root = root.resolve()
        self.entered: set[tuple[str, str, int]] = set()
        self.lines: set[tuple[str, int]] = set()
        self._watched: dict[str, bool] = {}

    def _watch(self, filename: str) -> bool:
        if filename not in self._watched:
            self._watched[filename] = (
                Path(filename).resolve().parent == self.root)
        return self._watched[filename]

    def _global(self, frame, event, arg):
        code = frame.f_code
        if not self._watch(code.co_filename):
            return None
        self.entered.add((code.co_filename, code.co_qualname,
                          code.co_firstlineno))
        return self._local

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def __enter__(self) -> "LineTracer":
        self._previous = sys.gettrace()
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous)

    def report(self) -> dict[str, dict[str, list]]:
        """Per module: "never_entered", the functions (qualified name and
        first line; comprehensions aside) that never ran, and "never_run",
        the lines of the entered functions that never ran."""
        out = {}
        for path in sorted(self.root.glob("*.py")):
            filename = str(path)
            top = compile(path.read_text(), filename, "exec")
            functions = [c for c in _code_objects(top)
                         if c.co_flags & inspect.CO_OPTIMIZED]
            missed = [c for c in functions if (
                filename, c.co_qualname, c.co_firstlineno) not in self.entered]
            skipped = {line for c in missed for inner in _code_objects(c)
                       for line in _body_lines(inner)}
            ran = {line for name, line in self.lines if name == filename}
            lines = set().union(*map(_body_lines, functions))
            out[path.stem] = {
                "never_entered": [
                    (c.co_qualname, c.co_firstlineno) for c in missed
                    if c.co_name == "<lambda>" or not c.co_name.startswith("<")],
                "never_run": sorted(lines - ran - skipped),
            }
        return out


def _spans(lines: list[int]) -> str:
    """Ascending line numbers as comma-separated runs, 12-14 for 12, 13, 14."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def run_experiments(out_dir: Path) -> list[str]:
    """Every shipped config through hjlax.cli.main; the failures."""
    from hjlax import cli
    failures = []
    for path in sorted(CONFIGS.glob("*.yaml")):
        kind = next(k for k in cli._SCHEMAS
                    if path.stem.startswith(k.replace("-", "_") + "_"))
        out = out_dir / path.stem
        code = cli.main([kind, "--config", str(path), "--out", str(out)])
        status = json.loads((out / "manifest.json").read_text())["status"]
        if code != 0 or status != "ok":
            failures.append(f"{path.stem}: exit {code}, status {status}")
    return failures


def run_bench(seeds: tuple[int, ...] = (0, 1)) -> list[str]:
    """One checked pass of every bench workload per seed, after its warm-up,
    and the arcs workload's hard requests; the failures."""
    import hjlax as hj
    import run
    from workloads import WORKLOADS
    failures = []
    for name, wl in WORKLOADS.items():
        for seed in seeds:
            reqs = wl.requests(random.Random(seed))
            fx = wl.fixtures(hj, reqs)
            wl.warmup(hj, fx)
            result = run.run_pass(hj, wl, fx, reqs)
            failures += [f"{name} seed {seed}: {f}" for f in result["failures"]]
            if hasattr(wl, "hard_requests"):
                failures += [
                    f"{name} seed {seed} hard: {o['outcome']}"
                    for o in run.hard_arcs(hj, wl, fx, seed)
                    if o["outcome"] != "ok"]
    return failures


def main() -> int:
    # single-threaded BLAS before numpy loads, as bench/run.py pins it
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    with tempfile.TemporaryDirectory() as tmp, LineTracer() as tracer:
        failures = run_experiments(Path(tmp)) + run_bench()
    for module, found in tracer.report().items():
        print(f"hjlax.{module}")
        names = ", ".join(f"{q} ({line})" for q, line in found["never_entered"])
        print(f"  never entered: {names or '-'}")
        print(f"  lines never run: {_spans(found['never_run']) or '-'}")
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
