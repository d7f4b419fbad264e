"""Report serialization: byte-stable CSV bodies and their comparison."""

import math

import pytest

from driftlab.report import compare_csv_texts, csv_body, format_float


class TestFormatting:
    def test_round_trips_float64(self):
        for x in (0.1, 1.0 / 3.0, 1e-17, math.pi, 12345.678901234567):
            assert float(format_float(x)) == x

    def test_special_values(self):
        assert format_float(math.inf) == "inf"
        assert format_float(-math.inf) == "-inf"
        assert format_float(math.nan) == "nan"


class TestRoundTrip:
    def test_bodies_byte_stable(self):
        header = ("n", "prelimit", "limit", "gap")
        rows = [(1, 1.0 / 3.0, 0.5, 0.5 - 1.0 / 3.0)]
        a = csv_body(header, rows)
        assert a == csv_body(list(header), [list(row) for row in rows])
        assert a == "n,prelimit,limit,gap\n1,0.33333333333333331,0.5,0.16666666666666669\n"


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
