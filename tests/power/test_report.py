"""Unit tests for table formatting."""

from repro.power.report import format_table


class TestFormatTable:
    def test_headers_and_separator(self):
        text = format_table(["a", "bb"], [[1, 2.5]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert set(lines[1]) == {"-"}
        assert "2.50" in lines[2]

    def test_column_widths_adapt(self):
        text = format_table(["x"], [["longvalue"]])
        header, sep, row = text.splitlines()
        assert len(sep) >= len("longvalue")

    def test_floats_formatted_to_two_places(self):
        text = format_table(["v"], [[3.14159]])
        assert "3.14" in text
        assert "3.142" not in text

    def test_non_float_cells_stringified(self):
        text = format_table(["n", "v"], [["name", 7]])
        assert "name" in text and "7" in text
