"""Report CSV bodies: the one writer every runner hands its header and
plain-tuple rows to, and the cell-wise comparison of two bodies.  The
runner alone decides the columns and the order of the rows.

Floats are rendered with 17 significant digits so that CSV bodies are
bit-reproducible and round-trip float64 exactly.
"""

from __future__ import annotations

import csv
import io
import math

__all__ = ["format_float", "csv_body"]


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
