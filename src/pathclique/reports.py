"""Verification report rows and JSON/CSV serialisation.

Row order is always (k, m, r, n, scope) and timing is kept out of the
data section so identical runs serialise byte-identically.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class VerificationRow:
    """One oracle-versus-formula comparison cell.

    status: EQUAL, ORACLE_GREATER (small-n anomaly, legal), BOUND_RESPECTED
    (oracle below a value that is only an upper bound here), or MISMATCH.
    extremal_match compares the oracle's extremal set with the predicted
    family: exact, superset (oracle strictly larger), subset, or disjoint.
    """

    k: int
    m: int
    r: int
    n: int
    scope: str
    case_tag: str
    oracle_value: int
    predicted_value: int
    status: str
    extremal_match: str
    runtime_ms: float
    witnesses: tuple[str, ...]


# the data columns, in the order of VerificationRow; runtime_ms is timing
ROW_FIELDS = tuple(f.name for f in fields(VerificationRow) if f.name != "runtime_ms")


def sort_rows(rows: list[VerificationRow]) -> list[VerificationRow]:
    return sorted(rows, key=lambda r: (r.k, r.m, r.r, r.n, r.scope))


def _data_dict(row: VerificationRow) -> dict:
    d = {f: getattr(row, f) for f in ROW_FIELDS}
    d["witnesses"] = list(row.witnesses)
    return d


def report_json(rows: list[VerificationRow], meta: dict | None = None) -> str:
    """JSON document with a data section (deterministic) and a meta section
    (timings and invocation info, excluded from byte-identity checks)."""
    rows = sort_rows(rows)
    doc = {
        "meta": dict(meta or {}, runtime_ms=[row.runtime_ms for row in rows]),
        "data": [_data_dict(row) for row in rows],
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def report_csv(rows: list[VerificationRow]) -> str:
    """CSV with one row per cell; witnesses joined by ';', runtime last."""
    rows = sort_rows(rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(ROW_FIELDS) + ["runtime_ms"])
    for row in rows:
        rec = [getattr(row, f) for f in ROW_FIELDS[:-1]]
        rec.append(";".join(row.witnesses))
        rec.append(row.runtime_ms)
        writer.writerow(rec)
    return buf.getvalue()


def write_report(
    rows: list[VerificationRow],
    fmt: str,
    path: str,
    meta: dict | None = None,
) -> None:
    if fmt == "json":
        text = report_json(rows, meta)
    elif fmt == "csv":
        text = report_csv(rows)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
