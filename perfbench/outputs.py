"""Output checks: grid rows against pinned references, estimates against exact means.

Grid rule: each row's gap, lambda1 and lambda_min must match the pinned
row to 1e-8 relative where the pinned gap is at least 1e-4, and to 1e-11
absolute below that, and the underflow flag must match.  The looser
absolute band lets a more accurate small-gap solver pass.

Simulate rule: the estimate must lie within 5 batch-means standard errors
of the exact class-table expectation.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

GRID_FIELDS = ("gap", "lambda1", "lambda_min")
RELATIVE_FROM_GAP = 1e-4
REL_TOL = 1e-8
ABS_TOL = 1e-11
MAX_Z = 5.0
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def read_grid(path: Path) -> list:
    """[gap, lambda1, lambda_min, underflow] per row of report.csv or gaps.csv."""
    with open(path, newline="") as fh:
        return [[float(row[f]) for f in GRID_FIELDS] + [row["underflow"] == "true"]
                for row in csv.DictReader(fh)]


def row_matches(ref: list, got: list) -> bool:
    relative = ref[0] >= RELATIVE_FROM_GAP
    return ref[3] == got[3] and all(  # NaN compares false, so it fails
        abs(g - r) <= (REL_TOL * abs(r) if relative else ABS_TOL)
        for r, g in zip(ref[:3], got[:3]))


def grid_failures(ref_rows: list, got_rows: list) -> int:
    """Pinned rows that fail; every one does when the row count differs."""
    if len(got_rows) != len(ref_rows):
        return len(ref_rows)
    return sum(not row_matches(r, g) for r, g in zip(ref_rows, got_rows))


def simulate_z(path: Path, exact: float) -> float:
    """(estimate - exact) / batch-means standard error; inf without batch means."""
    stats = json.loads(path.read_text())["stats"]
    if stats["batch_means_avar"] is None:
        return math.inf
    se = math.sqrt(float(stats["batch_means_avar"]) / int(stats["n_samples"]))
    return (float(stats["estimate"]) - exact) / se if se > 0 else math.inf


def self_test(reference: dict, scratch: Path) -> None:
    """The grid check must pass a pinned artifact and fail one gap off by 1e-6.

    Raises RuntimeError when the checker misjudges either artifact.
    """
    rows = max((v for v in reference.values() if isinstance(v, list)), key=len)
    i = max(range(len(rows)), key=lambda k: rows[k][0])
    if rows[i][0] < RELATIVE_FROM_GAP:
        raise RuntimeError("self-test needs a pinned gap of at least 1e-4")
    scratch.mkdir(parents=True, exist_ok=True)
    for scale, want in ((1.0, 0), (1.0 + 1e-6, 1)):
        path = scratch / "gaps.csv"
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("N",) + GRID_FIELDS + ("underflow",))
            for k, (g, l1, lmin, under) in enumerate(rows):
                g = g * scale if k == i else g
                out.writerow((k, repr(g), repr(l1), repr(lmin),
                              "true" if under else "false"))
        failed = grid_failures(rows, read_grid(path))
        if failed != want:
            raise RuntimeError(f"self-test: gap scaled by {scale!r} gave {failed} "
                               f"failed rows, expected {want}")
