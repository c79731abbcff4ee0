"""Probe reports (constants, slacks, violation lists) and the one JSON and
one CSV writer every artifact goes through."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np


def _jsonable(obj: Any) -> Any:
    """Strict-JSON copy: numpy values to Python values, non-finite floats to
    None, recursively through dicts, lists and tuples."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else None
    return obj


def dump_json(obj: Any, path: str) -> None:
    """Deterministic strict JSON: sorted keys, stable float repr, trailing
    newline."""
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, sort_keys=True, indent=2,
                  allow_nan=False)
        fh.write("\n")


def write_csv(path: str, header: list[str], rows: Iterable[Iterable[Any]]
              ) -> None:
    """Comma-separated table under one header line: floats (numpy float64
    included) as .17g, every other cell through str."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{c:.17g}" if isinstance(c, float) else str(c)
                              for c in row) + "\n")


@dataclass
class ProbeReport:
    """Outcome of a sampling probe.

    constants holds named empirical constants (scalars or small tables),
    worst_slack is the minimal margin over all checks (>= 0 means every
    sampled inequality held), violations lists one dict per failed sample.
    """

    name: str
    samples: int = 0
    constants: dict[str, Any] = field(default_factory=dict)
    worst_slack: float = float("inf")
    violations: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def record_slack(self, slack: float, tol: float = 0.0, **context: Any) -> None:
        """Fold one margin into the report; negative beyond tol is a violation."""
        slack = float(slack)
        if slack < self.worst_slack:
            self.worst_slack = slack
        if slack < -tol:
            self.violations.append({"slack": slack, **_jsonable(context)})

    def as_dict(self) -> dict[str, Any]:
        return _jsonable({
            "name": self.name,
            "samples": self.samples,
            "constants": self.constants,
            "worst_slack": self.worst_slack,
            "violations": self.violations,
            "notes": self.notes,
            "passed": self.passed,
        })

    def to_json(self, path: str) -> None:
        dump_json(self.as_dict(), path)
