"""The catalog: loaded tables, their schema and their statistics.

A :class:`Catalog` is the ``db`` value that both the Volcano interpreter and
every compiled query receive as input.  Generated code only ever touches it
through two accessors (``size`` and ``column``), which keeps the unparser
simple and the access pattern identical across engines.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..robustness.faults import fault_point
from .layouts import ColumnarTable
from .schema import Schema
from .statistics import Statistics, compute_table_statistics


class CatalogError(Exception):
    pass


@dataclass
class Catalog:
    """A loaded database: schema, columnar tables and statistics."""

    schema: Schema = field(default_factory=Schema)
    tables: Dict[str, ColumnarTable] = field(default_factory=dict)
    statistics: Statistics = field(default_factory=Statistics)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def register(self, table: ColumnarTable) -> None:
        """Add a loaded table and its statistics, reading none of its rows.

        Each column's statistics are taken on their first read.  Re-registering
        a table replaces its data and statistics; access-layer structures built
        against the old columns (key indices, partitions, dictionaries) are
        invalidated so they rebuild lazily from the new data.
        """
        name = table.schema.name
        if not self.schema.has_table(name):
            self.schema.add(table.schema)
        self.tables[name] = table
        self.statistics.tables[name] = compute_table_statistics(table)
        layer = getattr(self, "_access_layer", None)
        if layer is not None:
            layer.invalidate_table(name)

    # ------------------------------------------------------------------
    # Access (used by interpreters and generated code)
    # ------------------------------------------------------------------
    def table(self, name: str) -> ColumnarTable:
        fault_point("catalog.table", table=name)
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"table {name!r} is not loaded") from None

    def has_table(self, name: str) -> bool:
        return name in self.tables

    def size(self, name: str) -> int:
        return self.table(name).num_rows

    def column(self, table: str, column: str) -> List[Any]:
        return self.table(table).column(column)

    def table_names(self) -> List[str]:
        return list(self.tables)

    # ------------------------------------------------------------------
    # Physical access layer
    # ------------------------------------------------------------------
    def access_layer(self):
        """The catalog's physical access layer (PK direct arrays, candidate
        lists, string dictionaries), created on first use and memoized for
        the catalog's lifetime — see :mod:`repro.storage.access`."""
        from .access import AccessLayer
        return AccessLayer.for_catalog(self)

    # ------------------------------------------------------------------
    # Schema helpers used by the optimizer / index inference
    # ------------------------------------------------------------------
    def is_primary_key(self, table: str, column: str) -> bool:
        return self.schema.table(table).primary_key == (column,)

    def memory_footprint(self) -> int:
        """*Logical* loaded-data size in bytes: the C layout the paper's
        Figure 8 assumes — 8 B per non-string value, one per character of a
        string, plus the column lists — not what the Python objects occupy
        (shared objects are counted once per row here).  This is the value
        the benchmark reports as ``storage.catalog_bytes``.  It decodes no
        text column (:meth:`ColumnarTable.footprint`)."""
        return sum(table.footprint() for table in self.tables.values())
