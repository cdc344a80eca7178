"""Output checks and digests for workload runs.

A run passes when every expected output of every step exists, each CSV
has the expected number of data rows, and every CSV, JSON and SVG holds
only finite numbers.  Digests cover every expected output byte for byte;
the committed ``reference.json`` holds the digest of each workload at
``workloads.REFERENCE_SEED``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import shutil
from pathlib import Path

_REFERENCE = Path(__file__).resolve().parent / "reference.json"
_NONFINITE_SVG = re.compile(r"(?i)(?<![a-z])-?(nan|inf|infinity)(?![a-z])")


def clear(out: Path) -> None:
    """Remove a step's old outputs so that a missing file cannot pass."""
    shutil.rmtree(out, ignore_errors=True)


def _finite_json(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    return True


def _csv_problem(text: str, rows: int | None) -> str:
    lines = text.splitlines()
    if rows is not None and len(lines) - 1 != rows:
        return f"{len(lines) - 1} data rows, expected {rows}"
    for line in lines[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue  # a label column
            if not math.isfinite(value):
                return f"non-finite value {cell!r}"
    return ""


def outputs(wl, base: Path) -> str:
    """Empty when every output of the run at ``base`` passes, else the problem."""
    for i, step in enumerate(wl.steps):
        for name in step.outputs:
            path = base / str(i) / name
            if not path.is_file():
                return f"missing {path}"
            try:
                text = path.read_text(encoding="utf-8")
                if name.endswith(".csv"):
                    problem = _csv_problem(text, step.rows.get(name))
                elif name.endswith(".json"):
                    problem = "" if _finite_json(json.loads(text)) else "non-finite value"
                else:
                    problem = "non-finite value" if _NONFINITE_SVG.search(text) else ""
            except ValueError as exc:  # undecodable text or malformed JSON
                problem = f"unreadable: {exc}"
            if problem:
                return f"{path}: {problem}"
    return ""


def digest(wl, base: Path) -> str:
    h = hashlib.sha256()
    for i, step in enumerate(wl.steps):
        for name in sorted(step.outputs):
            h.update(f"{i}/{name}\0".encode())
            h.update((base / str(i) / name).read_bytes())
    return h.hexdigest()


def records(wl, base: Path) -> bytes | None:
    """Bytes of the records CSV compared across thread counts."""
    path = base / "0" / wl.pooled_records
    return path.read_bytes() if path.is_file() else None


def bytes_written(wl, base: Path) -> int:
    return sum(
        (base / str(i) / name).stat().st_size
        for i, step in enumerate(wl.steps)
        for name in step.outputs
    )


def reference(wl, base: Path, problem: str, scale: str) -> dict:
    """Digest of the reference-seed run and whether it matches the committed one."""
    expected = json.loads(_REFERENCE.read_text()).get(scale, {}).get(wl.name)
    got = "" if problem else digest(wl, base)
    return {
        "problem": problem,
        "digest": got,
        "expected": expected,
        "match": None if expected is None or problem else got == expected,
    }
