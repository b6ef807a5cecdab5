"""Bulk loading of ``.tbl`` files (TPC-H dbgen format) into a catalog.

The dbgen format is one ``|``-separated line per row, with a trailing ``|``.
Values are parsed according to the column types of the schema; dates become
``YYYYMMDD`` integers (see :mod:`repro.dates`).
"""
from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional

from .. import dates
from ..ir.types import DATE, FLOAT, INT, STRING
from .catalog import Catalog
from .layouts import ColumnarTable
from .schema import Schema, TableSchema


class LoaderError(Exception):
    pass


def parse_value(raw: str, column_type):
    if column_type is INT:
        return int(raw)
    if column_type is FLOAT:
        return float(raw)
    if column_type is DATE:
        return dates.date_to_int(raw)
    if column_type is STRING:
        return raw
    raise LoaderError(f"cannot parse values of type {column_type!r}")


def load_table_file(schema: TableSchema, path: str) -> ColumnarTable:
    """Load one ``.tbl`` file into a columnar table.

    Each column interns through its own pool as it parses: a field text seen
    before in that column yields the object parsed the first time, so a column
    holds one object per distinct value.  Pools are keyed on the text, not the
    value (``0.0`` and ``-0.0`` stay apart), and never span columns.
    """
    column_names = schema.column_names()
    column_types = [schema.column_type(name) for name in column_names]
    columns: Dict[str, List] = {name: [] for name in column_names}
    pools: List[Dict[str, object]] = [{} for _ in column_names]
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("|")
            if parts and parts[-1] == "":
                parts = parts[:-1]
            if len(parts) != len(column_names):
                raise LoaderError(
                    f"{path}:{line_no}: expected {len(column_names)} fields, got {len(parts)}")
            for name, ctype, pool, raw in zip(column_names, column_types, pools, parts):
                if raw not in pool:
                    pool[raw] = parse_value(raw, ctype)
                columns[name].append(pool[raw])
    return ColumnarTable(schema, columns)


def load_directory(schema: Schema, directory: str,
                   tables: Optional[Iterable[str]] = None,
                   extension: str = ".tbl") -> Catalog:
    """Load every ``<table><extension>`` file found in ``directory``."""
    catalog = Catalog()
    names = list(tables) if tables is not None else schema.table_names()
    for name in names:
        path = os.path.join(directory, f"{name}{extension}")
        if not os.path.exists(path):
            raise LoaderError(f"missing data file for table {name!r}: {path}")
        catalog.register(load_table_file(schema.table(name), path))
    return catalog


def warm_access_paths(catalog: Catalog) -> None:
    """Build the direct array of every single-column primary key that gets
    one (unique and dense), paying that part of the paper's "moved to loading
    time" cost up front instead of on the first query that probes it.

    Nothing else is built here: every other structure of the access layer,
    string dictionaries included, is built on the first request that reads
    it — at compile time, at ``prepare`` or by the vectorized engine — and
    memoized from then on.  A structure built eagerly that no plan reads is
    resident memory for nothing.
    """
    layer = catalog.access_layer()
    for name in catalog.table_names():
        key = catalog.schema.table(name).single_column_primary_key
        if key is not None:
            layer.key_index(name, key)


def dump_table_file(table: ColumnarTable, path: str) -> None:
    """Write a columnar table back out in dbgen ``.tbl`` format."""
    schema = table.schema
    columns = [map(dates.int_to_str, table.column(name))
               if schema.column_type(name) is DATE else table.column(name)
               for name in schema.column_names()]
    with open(path, "w", encoding="utf-8") as handle:
        for row in zip(*columns):
            handle.write("|".join(map(str, row)) + "|\n")
