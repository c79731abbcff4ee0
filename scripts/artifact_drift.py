#!/usr/bin/env python3
"""Compare two experiment results directories file by file.

Usage: scripts/artifact_drift.py OLD NEW

Lists the files that are byte-identical, the files only OLD has (missing)
and the files only NEW has (extra).  For every other JSON or CSV file it
prints, per field, the largest absolute and relative change of the numbers
found there.  A JSON field is the key path with list indices dropped, so
all elements of a list share one row; a CSV field is a column.  timing.txt
files hold wall times and are skipped.  Exits 0 when every compared file is
byte-identical and both sides hold the same files, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

IGNORED = {"timing.txt"}


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and p.name not in IGNORED}


def _leaves(obj, path: str = ""):
    """(field, value) pairs of a parsed JSON document, in document order."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, list):
        for value in obj:
            yield from _leaves(value, path + "[]")
    else:
        yield path, obj


def _json_fields(path: Path) -> dict[str, list]:
    fields: dict[str, list] = defaultdict(list)
    for name, value in _leaves(json.loads(path.read_text())):
        fields[name].append(value)
    return fields


def _csv_fields(path: Path) -> dict[str, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    fields: dict[str, list] = {name: [] for name in header}
    for row in body:
        for name, cell in zip(header, row):
            try:
                fields[name].append(float(cell))
            except ValueError:
                fields[name].append(cell)
    return fields


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _change(a, b) -> tuple[float, float]:
    """Absolute and relative change from a to b (inf when not comparable)."""
    if a == b or (_number(a) and _number(b) and math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    if not (_number(a) and _number(b)):
        return math.inf, math.inf
    diff = abs(b - a)
    if math.isnan(diff):
        return math.inf, math.inf
    return diff, (diff / abs(a) if a else math.inf)


def field_drift(old: dict[str, list], new: dict[str, list]
                ) -> list[tuple[str, str]]:
    """One (field, description) pair per field that changed."""
    out = []
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name), new.get(name)
        if a is None or b is None:
            out.append((name, "only in OLD" if b is None else "only in NEW"))
            continue
        changes = [_change(x, y) for x, y in zip(a, b)]
        worst_abs = max((c[0] for c in changes), default=0.0)
        worst_rel = max((c[1] for c in changes), default=0.0)
        note = "" if len(a) == len(b) else f" ({len(a)} -> {len(b)} values)"
        if worst_abs or worst_rel or note:
            out.append((name, f"max abs {worst_abs:.3g}, max rel "
                              f"{worst_rel:.3g}{note}"))
    return out


def compare(old_root: Path, new_root: Path) -> tuple[list[str], bool]:
    """Report lines and whether any file other than timing.txt differs."""
    old_files, new_files = _files(old_root), _files(new_root)
    common = sorted(old_files & new_files)
    same = [f for f in common
            if (old_root / f).read_bytes() == (new_root / f).read_bytes()]
    changed = [f for f in common if f not in same]
    lines = [f"byte-identical: {len(same)}"] + [f"  {f}" for f in same]
    for label, names in (("missing", old_files - new_files),
                         ("extra", new_files - old_files)):
        lines += [f"{label}: {len(names)}"] + [f"  {f}" for f in sorted(names)]
    lines.append(f"differing: {len(changed)}")
    for f in changed:
        lines.append(f"  {f}")
        reader = {".json": _json_fields, ".csv": _csv_fields}.get(
            Path(f).suffix)
        if reader is None:
            lines.append("    (not a JSON or CSV file)")
            continue
        try:
            drift = field_drift(reader(old_root / f), reader(new_root / f))
        except (ValueError, UnicodeDecodeError) as exc:
            lines.append(f"    (unreadable: {exc})")
            continue
        if not drift:
            lines.append("    (same values, different bytes)")
        lines += [f"    {name}: {desc}" for name, desc in drift]
    return lines, bool(changed or old_files ^ new_files)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Byte identity and per-field drift between two results "
                    "directories (timing.txt is skipped).")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    for root in (args.old, args.new):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    lines, drifted = compare(args.old, args.new)
    print("\n".join(lines))
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())
