"""Convergence reports: rows of (index, pre-limit value, limit, gap) plus
auxiliary diagnostics, with byte-stable CSV round-tripping.

Floats are rendered with 17 significant digits so that CSV bodies are
bit-reproducible and round-trip float64 exactly.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["ReportRow", "ConvergenceReport", "format_float", "csv_body"]


def format_float(x) -> str:
    if isinstance(x, bool):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def csv_body(header, rows) -> str:
    """The CSV text of every report: a header line, then one line per row.

    Numbers go through :func:`format_float`; strings are written verbatim
    and never quoted, so a caller keeps commas out of its labels.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else format_float(v) for v in row))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ReportRow:
    index: float
    prelimit: float
    limit: float
    gap: float
    aux: dict = field(default_factory=dict)


@dataclass
class ConvergenceReport:
    """Ordered experiment rows with the standard (index, value, limit, gap) core.

    ``meta`` carries run facts for the manifest (grids, scheme, stability
    numbers); it never enters the CSV body.
    """

    kind: str
    rows: list
    columns: tuple = ("index", "prelimit", "limit", "gap")
    meta: dict = field(default_factory=dict)

    def sorted_rows(self):
        return sorted(self.rows, key=lambda r: r.index)

    def to_csv(self, header_names: Optional[tuple] = None) -> str:
        names = header_names or self.columns
        aux_keys = sorted({k for r in self.rows for k in r.aux})
        rows = [[r.index, r.prelimit, r.limit, r.gap] + [r.aux.get(k, "") for k in aux_keys]
                for r in self.sorted_rows()]
        return csv_body(list(names) + aux_keys, rows)

    @classmethod
    def from_csv(cls, text: str, kind: str = "") -> "ConvergenceReport":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        rows = []
        for rec in reader:
            if not rec:
                continue
            vals = [float(v) if v != "" else math.nan for v in rec]
            aux = dict(zip(header[4:], vals[4:]))
            # the gap column is recomputed on load
            rows.append(ReportRow(vals[0], vals[1], vals[2], abs(vals[1] - vals[2]), aux))
        return cls(kind=kind, rows=rows, columns=tuple(header[:4]))


def compare_csv_texts(text_a: str, text_b: str):
    """Cell-wise comparison of two report CSV bodies.

    Numeric cells contribute their absolute difference; non-numeric cells
    must match exactly.  Mismatched headers or shapes raise.
    """

    def parse(text):
        rows = [r for r in csv.reader(io.StringIO(text)) if r]
        return rows[0], rows[1:]

    header_a, rows_a = parse(text_a)
    header_b, rows_b = parse(text_b)
    if header_a != header_b:
        raise ValueError("mismatched headers")
    if len(rows_a) != len(rows_b):
        raise ValueError("mismatched row counts")
    worst = 0.0
    count = 0
    for ra, rb in zip(rows_a, rows_b):
        if len(ra) != len(rb):
            raise ValueError("mismatched row widths")
        count += 1
        for va, vb in zip(ra, rb):
            try:
                fa, fb = float(va), float(vb)
            except ValueError:
                if va != vb:
                    raise ValueError(f"mismatched labels {va!r} vs {vb!r}")
                continue
            if math.isnan(fa) and math.isnan(fb):
                continue
            worst = max(worst, abs(fa - fb))
    return worst, count
