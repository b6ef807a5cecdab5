"""Schema definitions: columns, tables, primary and foreign keys.

The paper's optimizations lean on schema annotations supplied "at schema
definition time" (Section B.1): primary keys, foreign keys and 1-N
relationship hints drive automatic index inference, partitioning and
data-structure initialisation hoisting.  This module is where those
annotations live.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.types import DATE, FLOAT, INT, STRING, Type


class SchemaError(Exception):
    """Raised for malformed schema definitions or unknown tables/columns."""


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key annotation: this column references ``table.column``."""

    table: str
    column: str


@dataclass(frozen=True)
class Column:
    """One column of a relation."""

    name: str
    type: Type
    foreign_key: Optional[ForeignKey] = None

    @property
    def is_string(self) -> bool:
        return self.type is STRING


@dataclass
class TableSchema:
    """Schema of one relation, including key annotations."""

    name: str
    columns: List[Column]
    primary_key: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError(f"table {self.name!r} has duplicate column names")
        for key in self.primary_key:
            if key not in names:
                raise SchemaError(f"primary key column {key!r} not in table {self.name!r}")

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(col.name == name for col in self.columns)

    def column_names(self) -> List[str]:
        return [col.name for col in self.columns]

    def column_type(self, name: str) -> Type:
        return self.column(name).type

    @property
    def single_column_primary_key(self) -> Optional[str]:
        """The primary key column when it is a single attribute (else ``None``)."""
        if len(self.primary_key) == 1:
            return self.primary_key[0]
        return None

    def foreign_keys(self) -> Dict[str, ForeignKey]:
        return {col.name: col.foreign_key for col in self.columns if col.foreign_key}


@dataclass
class Schema:
    """A database schema: a collection of table schemas."""

    tables: Dict[str, TableSchema] = field(default_factory=dict)

    def add(self, table: TableSchema) -> "Schema":
        if table.name in self.tables:
            raise SchemaError(f"table {table.name!r} defined twice")
        self.tables[table.name] = table
        return self

    def table(self, name: str) -> TableSchema:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self.tables

    def table_names(self) -> List[str]:
        return list(self.tables)

    def table_of_column(self, column: str) -> Optional[str]:
        """Find the unique table owning ``column`` (TPC-H column names are unique)."""
        owners = [name for name, tbl in self.tables.items() if tbl.has_column(column)]
        if len(owners) == 1:
            return owners[0]
        return None

    def validate_foreign_keys(self) -> None:
        for table in self.tables.values():
            for col_name, fkey in table.foreign_keys().items():
                if not self.has_table(fkey.table):
                    raise SchemaError(
                        f"{table.name}.{col_name} references unknown table {fkey.table!r}")
                if not self.table(fkey.table).has_column(fkey.column):
                    raise SchemaError(
                        f"{table.name}.{col_name} references unknown column "
                        f"{fkey.table}.{fkey.column}")


def int_column(name: str, references: Optional[Tuple[str, str]] = None) -> Column:
    fkey = ForeignKey(*references) if references else None
    return Column(name, INT, fkey)


def float_column(name: str) -> Column:
    return Column(name, FLOAT)


def string_column(name: str) -> Column:
    return Column(name, STRING)


def date_column(name: str) -> Column:
    return Column(name, DATE)
