"""Typed result tables with provenance, CSV/JSON round-trips.

Cells are ints, exact rationals, floats or short strings.  Rationals always
serialise as "p/q" strings (never floats); floats use repr so they re-parse
bit for bit.  A string cell that would read back as another type ("7" or
"1.5" in CSV, "1/2" in either format) is refused with InputError instead of
being written, and so are the cells neither format can carry back: an
infinite or NaN float, and any row of a table without columns in CSV.
Every emitted table carries a provenance record (command echo, seed,
version) which strips cleanly, leaving plain data.
"""

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError

# ASCII digits only, and whole-string matches: "7\n" and "0/0" stay strings
_RATIONAL_RE = re.compile(r"-?[0-9]+/[0-9]*[1-9][0-9]*")
_INT_RE = re.compile(r"-?[0-9]+")


def format_cell(cell) -> str:
    if isinstance(cell, bool):
        raise InputError("boolean cells are not supported; use 0/1")
    if isinstance(cell, Fraction):
        return f"{cell.numerator}/{cell.denominator}"
    if isinstance(cell, int):
        return str(cell)
    if isinstance(cell, float):
        _require_finite(cell)
        return repr(cell)
    if isinstance(cell, str):
        if not isinstance(parse_cell(cell), str):
            raise InputError(f"string cell {cell!r} would read back as a number")
        return cell
    raise InputError(f"unsupported cell type {type(cell).__name__}")


def parse_cell(text: str):
    if _INT_RE.fullmatch(text):
        return int(text)
    if _RATIONAL_RE.fullmatch(text):
        return Fraction(text)
    try:
        if "." in text or "e" in text or "E" in text:
            return float(text)
    except ValueError:
        pass
    return text


def _require_finite(cell: float) -> None:
    # CSV would read "inf" back as a string; JSON has no such number
    if not math.isfinite(cell):
        raise InputError(f"float cell {cell!r} is not finite")


def cell_to_json(cell):
    if isinstance(cell, float):
        _require_finite(cell)
    if isinstance(cell, Fraction):
        return f"{cell.numerator}/{cell.denominator}"
    if isinstance(cell, str) and _RATIONAL_RE.fullmatch(cell):
        raise InputError(f"string cell {cell!r} would read back as a rational")
    return cell


def cell_from_json(value):
    if isinstance(value, str) and _RATIONAL_RE.fullmatch(value):
        return Fraction(value)
    return value


@dataclass
class ResultTable:
    columns: tuple
    rows: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.columns = tuple(self.columns)
        self.rows = [tuple(r) for r in self.rows]

    def append(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise InputError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(tuple(cells))

    def with_decimal_columns(self) -> "ResultTable":
        """Copy with an extra float column after every column that contains a
        rational, for plotting without rational parsing."""
        rational_cols = [
            idx for idx in range(len(self.columns))
            if any(isinstance(row[idx], Fraction) for row in self.rows)
        ]
        if not rational_cols:
            return ResultTable(self.columns, list(self.rows), dict(self.provenance))
        columns = []
        for idx, name in enumerate(self.columns):
            columns.append(name)
            if idx in rational_cols:
                columns.append(f"{name}_dec")
        rows = []
        for row in self.rows:
            out = []
            for idx, cell in enumerate(row):
                out.append(cell)
                if idx in rational_cols:
                    out.append(float(cell))
            rows.append(tuple(out))
        return ResultTable(tuple(columns), rows, dict(self.provenance))

    # -- CSV ---------------------------------------------------------------

    def to_csv(self) -> str:
        if self.rows and not self.columns:
            raise InputError("a table without columns has no CSV rows")
        buf = io.StringIO()
        if self.provenance:
            blob = json.dumps(self.provenance, sort_keys=True)
            buf.write(f"# provenance: {blob}\r\n")
        writer = csv.writer(buf)
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([format_cell(c) for c in row])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        provenance = {}
        first, _, rest = text.partition("\n")
        if first.startswith("# provenance: "):
            provenance = json.loads(first[len("# provenance: "):])
            text = rest
        # the csv module, not str.splitlines, ends records: a quoted cell may
        # hold "\r", "\n" or another line break
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            columns = tuple(next(reader))
        except StopIteration:
            raise InputError("CSV table needs a header row") from None
        rows = [tuple(parse_cell(c) for c in row) for row in reader if row]
        return cls(columns, rows, provenance)

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "provenance": self.provenance,
            "columns": list(self.columns),
            "rows": [[cell_to_json(c) for c in row] for row in self.rows],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ResultTable":
        doc = json.loads(text)
        rows = [tuple(cell_from_json(c) for c in row) for row in doc["rows"]]
        return cls(tuple(doc["columns"]), rows, doc.get("provenance", {}))

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise InputError(f"unknown format {fmt!r}")
