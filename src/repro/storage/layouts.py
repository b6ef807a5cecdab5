"""The in-memory table layout: columnar (Figure 3 of the paper).

The storage engine keeps loaded relations in a **columnar** layout (one Python
list per attribute), which is what the generated code reads directly.  The
row and boxed layouts of Section 4.2 are a choice of the lowering, not of
storage: ``transforms/pipelining.py`` picks row tuples or boxed dictionaries
for the intermediate records it materialises (``record_layout``), and the
Volcano interpreter boxes each row it scans into a dictionary.
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
        """The boxed representation of one row."""
        return {name: values[index] for name, values in self.columns.items()}

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
