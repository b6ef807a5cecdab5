"""In-memory table layouts: columnar, row and boxed (Figure 3 of the paper).

The storage engine keeps loaded relations in a **columnar** layout (one Python
list per attribute), which is what the generated code reads directly when the
column-store transformer is active.  The row and boxed layouts exist both as
conversion targets (the layout transformation of Section 4.2 chooses between
them for intermediate data) and as the representation used by the naive
engines (the Volcano interpreter and the stack configurations without the
data-layout optimization pass boxed rows around).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Sequence

from .schema import TableSchema


class LayoutError(Exception):
    pass


@dataclass
class ColumnarTable:
    """Columnar layout: a dict from column name to a list of values."""

    schema: TableSchema
    columns: Dict[str, List[Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = set(self.schema.column_names())
        if self.columns and set(self.columns) != expected:
            missing = expected - set(self.columns)
            extra = set(self.columns) - expected
            raise LayoutError(
                f"columns do not match schema of {self.schema.name!r}: "
                f"missing={sorted(missing)}, extra={sorted(extra)}")
        sizes = {len(col) for col in self.columns.values()}
        if len(sizes) > 1:
            raise LayoutError(f"ragged columns in table {self.schema.name!r}: {sizes}")

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def column(self, name: str) -> List[Any]:
        try:
            return self.columns[name]
        except KeyError:
            raise LayoutError(f"table {self.name!r} has no column {name!r}") from None

    def row_dict(self, index: int) -> Dict[str, Any]:
        """The boxed representation of one row (used by the interpreter)."""
        return {name: values[index] for name, values in self.columns.items()}

    def row_tuple(self, index: int, fields: Sequence[str]) -> tuple:
        """The row-layout representation restricted to ``fields``."""
        return tuple(self.columns[name][index] for name in fields)

    def iter_rows(self) -> Iterator[Dict[str, Any]]:
        for i in range(self.num_rows):
            yield self.row_dict(i)

    @classmethod
    def from_rows(cls, schema: TableSchema, rows: Sequence[Dict[str, Any]]) -> "ColumnarTable":
        columns: Dict[str, List[Any]] = {name: [] for name in schema.column_names()}
        for row in rows:
            for name in columns:
                columns[name].append(row[name])
        return cls(schema, columns)


@dataclass
class RowTable:
    """Row layout: a list of tuples plus the field order (array-of-structs)."""

    schema: TableSchema
    fields: Sequence[str]
    rows: List[tuple] = field(default_factory=list)

    def __post_init__(self) -> None:
        # name -> position, computed once: field_index sits on per-row access
        # paths and must not rebuild (and linearly search) the field list on
        # every call.
        self._field_positions = {name: i for i, name in enumerate(self.fields)}

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def field_index(self, name: str) -> int:
        try:
            return self._field_positions[name]
        except KeyError:
            raise LayoutError(
                f"row table {self.schema.name!r} has no field {name!r}; "
                f"fields: {list(self.fields)}") from None

    @classmethod
    def from_columnar(cls, table: ColumnarTable, fields: Sequence[str] = ()) -> "RowTable":
        fields = list(fields) or table.schema.column_names()
        rows = [table.row_tuple(i, fields) for i in range(table.num_rows)]
        return cls(table.schema, fields, rows)


@dataclass
class BoxedTable:
    """Boxed layout: a list of per-row dictionaries (array of pointers to structs)."""

    schema: TableSchema
    rows: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @classmethod
    def from_columnar(cls, table: ColumnarTable) -> "BoxedTable":
        return cls(table.schema, [table.row_dict(i) for i in range(table.num_rows)])


def to_layout(table: ColumnarTable, layout: str):
    """Convert a columnar table into the requested layout name."""
    if layout == "columnar":
        return table
    if layout == "row":
        return RowTable.from_columnar(table)
    if layout == "boxed":
        return BoxedTable.from_columnar(table)
    raise LayoutError(f"unknown layout {layout!r}")
