from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalstab.errors import InputError
from coalstab.tables import ResultTable, format_cell, parse_cell


def sample_table():
    table = ResultTable(("name", "count", "price", "ratio"),
                        provenance={"command": "demo", "seed": "7",
                                    "version": "0.1.0"})
    table.append("repeat", 2, Fraction(9, 2), 0.5)
    table.append("scatter", 0, Fraction(3, 1), 0.0)
    return table


class TestRoundTrips:
    def test_csv(self):
        table = sample_table()
        again = ResultTable.from_csv(table.to_csv())
        assert again == table

    def test_json(self):
        table = sample_table()
        again = ResultTable.from_json(table.to_json())
        assert again == table

    def test_rationals_stay_rational(self):
        table = ResultTable(("x",))
        table.append(Fraction(5))
        again = ResultTable.from_csv(table.to_csv())
        assert again.rows[0][0] == Fraction(5)
        assert isinstance(again.rows[0][0], Fraction)

    def test_json_never_floats_rationals(self):
        table = sample_table()
        assert '"9/2"' in table.to_json()

    def test_provenance_strips_to_plain_csv(self):
        text = sample_table().to_csv()
        stripped = "\n".join(line for line in text.splitlines()
                             if not line.startswith("#"))
        table = ResultTable.from_csv(stripped)
        assert table.provenance == {}
        assert len(table.rows) == 2

    def test_cell_formats(self):
        assert format_cell(Fraction(1, 3)) == "1/3"
        assert parse_cell("1/3") == Fraction(1, 3)
        assert parse_cell("-4") == -4
        assert parse_cell("0.5") == 0.5
        assert parse_cell("repeat") == "repeat"
        with pytest.raises(InputError):
            format_cell(object())

    def test_row_width_checked(self):
        table = ResultTable(("a", "b"))
        with pytest.raises(InputError):
            table.append(1)


@st.composite
def tables(draw):
    """Random tables of ints, rationals, finite floats and short strings
    (none that reads back as a number), with or without provenance."""
    width = draw(st.integers(1, 4))
    text = st.text(max_size=6)
    cells = st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=50),
                      st.floats(allow_nan=False, allow_infinity=False),
                      text.filter(lambda s: isinstance(parse_cell(s), str)))
    columns = draw(st.lists(text, min_size=width, max_size=width))
    rows = draw(st.lists(st.tuples(*[cells] * width), max_size=5))
    provenance = draw(st.one_of(st.just({}), st.dictionaries(text, text, min_size=1,
                                                             max_size=3)))
    return ResultTable(columns, rows, provenance)


def typed(table):
    """`table` with every cell's type next to it (Fraction(5) == 5, so the
    values alone would not show a cell that changed type)."""
    return (table.columns, [[(type(c), c) for c in row] for row in table.rows],
            table.provenance)


class TestRandomRoundTrips:
    @settings(max_examples=300)
    @given(table=tables())
    def test_csv(self, table):
        assert typed(ResultTable.from_csv(table.to_csv())) == typed(table)

    @settings(max_examples=300)
    @given(table=tables())
    def test_json(self, table):
        assert typed(ResultTable.from_json(table.to_json())) == typed(table)

    def test_csv_keeps_line_breaks_inside_cells(self):
        # a quoted cell may hold "\r", "\n" or U+0085, which str.splitlines
        # also treats as line ends
        table = ResultTable(("\r",), [("a\nb",), ("\x85",)], {"seed": "7"})
        assert typed(ResultTable.from_csv(table.to_csv())) == typed(table)

    def test_zero_denominator_stays_a_string(self):
        # neither is a number: "0/0" has no value, "7\n" has a line break
        table = ResultTable(("x",), [("0/0",), ("7\n",)])
        assert typed(ResultTable.from_csv(table.to_csv())) == typed(table)
        assert typed(ResultTable.from_json(table.to_json())) == typed(table)

    @pytest.mark.parametrize("render,cell", [("csv", "0"), ("csv", "1.5"),
                                             ("csv", "0/1"), ("json", "0/1")])
    def test_number_like_strings_are_refused(self, render, cell):
        # written as is, they would read back as an int, a float or a Fraction
        with pytest.raises(InputError):
            ResultTable(("x",), [(cell,)]).render(render)

    @pytest.mark.parametrize("render", ["csv", "json"])
    @pytest.mark.parametrize("cell", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_floats_are_refused(self, render, cell):
        # CSV would read them back as the strings "inf"/"nan", and JSON would
        # write the non-standard Infinity/NaN
        with pytest.raises(InputError):
            ResultTable(("x",), [(cell,)]).render(render)

    def test_rows_without_columns_are_refused_in_csv(self):
        # every such row is an empty CSV record, which reads back as no row
        with pytest.raises(InputError):
            ResultTable((), [(), ()]).to_csv()
        assert ResultTable.from_csv(ResultTable((), []).to_csv()) == ResultTable(())
        table = ResultTable((), [(), ()])
        assert typed(ResultTable.from_json(table.to_json())) == typed(table)


class TestDecimalColumns:
    def test_companion_columns_added(self):
        table = sample_table().with_decimal_columns()
        assert table.columns == ("name", "count", "price", "price_dec", "ratio")
        assert table.rows[0][3] == 4.5

    def test_no_rationals_no_change(self):
        table = ResultTable(("a",), [(1,), (2,)])
        assert table.with_decimal_columns().columns == ("a",)
