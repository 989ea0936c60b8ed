"""Typed result tables with provenance, CSV/JSON round-trips.

Cells are ints, exact rationals, floats or short strings.  Rationals always
serialise as "p/q" strings (never floats); floats use repr so they re-parse
bit for bit.  Every emitted table carries a provenance record (command echo,
seed, version) which strips cleanly, leaving plain data.
"""

import csv
import io
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError

_RATIONAL_RE = re.compile(r"^-?\d+/\d+$")
_INT_RE = re.compile(r"^-?\d+$")


def format_cell(cell) -> str:
    if isinstance(cell, bool):
        raise InputError("boolean cells are not supported; use 0/1")
    if isinstance(cell, Fraction):
        return f"{cell.numerator}/{cell.denominator}"
    if isinstance(cell, int):
        return str(cell)
    if isinstance(cell, float):
        return repr(cell)
    if isinstance(cell, str):
        return cell
    raise InputError(f"unsupported cell type {type(cell).__name__}")


def parse_cell(text: str):
    if _INT_RE.match(text):
        return int(text)
    if _RATIONAL_RE.match(text):
        return Fraction(text)
    try:
        if any(ch in text for ch in ".eE") and text not in (".", "e", "E"):
            return float(text)
    except ValueError:
        pass
    return text


def cell_to_json(cell):
    if isinstance(cell, Fraction):
        return f"{cell.numerator}/{cell.denominator}"
    return cell


def cell_from_json(value):
    if isinstance(value, str) and _RATIONAL_RE.match(value):
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
        lines = text.splitlines()
        if lines and lines[0].startswith("# provenance: "):
            provenance = json.loads(lines[0][len("# provenance: "):])
            lines = lines[1:]
        reader = csv.reader(lines)
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
