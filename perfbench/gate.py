"""Correctness gate: a sweep's CSV against the reference recorded for its inputs.

Each (estimator, budget) cell the sweep was asked for must appear once, with
``mean_matvecs`` equal to the reference exactly and each relative-error
column within ``REL_TOL`` of it, relative.  A missing (skipped) cell, a
mismatch, a non-finite value or an unexpected row fails the gate; nothing is
passed silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

HEADER = "estimator,m,median_rel_err,q25,q75,mean_matvecs"
ERROR_COLUMNS = ("median_rel_err", "q25", "q75")
REL_TOL = 1e-12


@dataclass
class GateResult:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not self.problems


def parse_csv(text: str) -> dict[tuple[str, int], dict[str, float]]:
    """Rows of a trace-bench CSV keyed by (estimator, m)."""
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError(f"bad CSV header: {lines[:1]!r}")
    columns = HEADER.split(",")
    rows: dict[tuple[str, int], dict[str, float]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(columns):
            raise ValueError(f"line {lineno}: expected {len(columns)} fields: {line!r}")
        key = (fields[0], int(fields[1]))
        if key in rows:
            raise ValueError(f"line {lineno}: duplicate cell {key}")
        rows[key] = {c: float(v) for c, v in zip(columns[2:], fields[2:])}
    return rows


def check_csv(
    produced: str, reference: str, cells: list[tuple[str, int]]
) -> GateResult:
    """Compare a produced CSV with the reference, cell by cell."""
    result = GateResult(attempted=len(cells), failed=0)
    ref = parse_csv(reference)
    try:
        got = parse_csv(produced)
    except ValueError as exc:
        result.failed = len(cells)
        result.problems.append(f"unreadable CSV: {exc}")
        return result
    for cell in cells:
        problem = _cell_problem(got.get(cell), ref.get(cell))
        if problem:
            result.failed += 1
            result.problems.append(f"{cell[0]} m={cell[1]}: {problem}")
    for extra in sorted(set(got) - set(cells)):
        result.problems.append(f"{extra[0]} m={extra[1]}: row for a cell not asked for")
    return result


def _cell_problem(got: dict | None, ref: dict | None) -> str | None:
    if got is None:
        return "cell missing (skipped)"
    if ref is None:
        return "no reference row"
    if got["mean_matvecs"] != ref["mean_matvecs"]:
        return f"mean_matvecs {got['mean_matvecs']!r} != {ref['mean_matvecs']!r}"
    for col in ERROR_COLUMNS:
        a, b = got[col], ref[col]
        if not (math.isfinite(a) and abs(a - b) <= REL_TOL * abs(b)):
            return f"{col} {a!r} differs from {b!r} by more than {REL_TOL} relative"
    return None
