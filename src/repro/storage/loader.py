"""Load-time work on a registered catalog: the access paths built up front."""
from __future__ import annotations

from .catalog import Catalog


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
