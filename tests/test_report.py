"""Report serialization: byte-stable CSV, gap recomputation, comparisons."""

import math

import pytest

from driftlab.report import (
    ConvergenceReport,
    ReportRow,
    compare_csv_texts,
    format_float,
)


class TestFormatting:
    def test_round_trips_float64(self):
        for x in (0.1, 1.0 / 3.0, 1e-17, math.pi, 12345.678901234567):
            assert float(format_float(x)) == x

    def test_special_values(self):
        assert format_float(math.inf) == "inf"
        assert format_float(-math.inf) == "-inf"
        assert format_float(math.nan) == "nan"


class TestRoundTrip:
    def test_csv_rows_sorted_by_index(self):
        rows = [
            ReportRow(index=4, prelimit=0.59, limit=0.67, gap=999.0),
            ReportRow(index=2, prelimit=0.55, limit=0.67, gap=0.12),
        ]
        text = ConvergenceReport(kind="pde-sweep", rows=rows).to_csv()
        lines = text.splitlines()
        assert lines[0] == "index,prelimit,limit,gap"
        assert [float(line.split(",")[0]) for line in lines[1:]] == [2, 4]

    def test_bodies_byte_stable(self):
        rows = [ReportRow(index=1, prelimit=1.0 / 3.0, limit=0.5, gap=0.5 - 1.0 / 3.0)]
        a = ConvergenceReport(kind="x", rows=rows).to_csv()
        b = ConvergenceReport(kind="x", rows=list(rows)).to_csv()
        assert a == b

    def test_aux_columns_appended(self):
        rows = [ReportRow(index=1, prelimit=2.0, limit=2.0, gap=0.0, aux={"feasible": 1.0})]
        text = ConvergenceReport(kind="x", rows=rows).to_csv(("eps", "value", "ot", "gap"))
        assert text.splitlines()[0] == "eps,value,ot,gap,feasible"


class TestCompareCsv:
    def test_identical(self):
        text = "a,b\n1,2\n"
        worst, rows = compare_csv_texts(text, text)
        assert worst == 0.0 and rows == 1

    def test_numeric_difference(self):
        worst, _ = compare_csv_texts("a,b\n1,2\n", "a,b\n1,2.5\n")
        assert worst == 0.5

    def test_label_mismatch_raises(self):
        with pytest.raises(ValueError, match="labels"):
            compare_csv_texts("a,b\nx,2\n", "a,b\ny,2\n")

    def test_header_mismatch_raises(self):
        with pytest.raises(ValueError, match="header"):
            compare_csv_texts("a,b\n1,2\n", "a,c\n1,2\n")
