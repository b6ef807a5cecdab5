"""The small runtime library targeted by generated code.

The C code generated by DBLAB/LB links against GLib (generic hash tables and
lists) plus a handful of support routines (string dictionaries).  Our
generated Python's GLib is the host's own ``dict``, ``list`` and ``set``,
used inline by the unparser; what remains here is support that is not
per-row work: fetches of the catalog-resident access layer (its string
dictionaries among them), sorting, ``LIKE``, and the governor hooks at the
head of each top-level loop.  No aggregation lives here: an aggregate's fold
and finalisation are statements the pipelining lowering emits over the
group's accumulator record, so every pass below it sees them.
"""
from __future__ import annotations

from typing import Any, List, Sequence, Tuple

# generated code tests ``LIKE`` through ``_rt.like``: the one matcher, not a copy
from ..dsl.expr import matches_like as like  # noqa: F401
from ..robustness.governor import current_governor


# ---------------------------------------------------------------------------
# Catalog-resident access layer (repro.storage.access).  These helpers back
# the ``access_*`` IR ops: compiled queries fetch the *shared* load-time
# structures of the catalog; no compiled query builds one of its own.  The
# pipelining lowering only emits the ops after verifying, against the
# compile-time catalog, that the structure exists; a prepare() against a
# catalog whose data breaks that assumption fails loudly instead of running
# a wrong plan.
# ---------------------------------------------------------------------------
def catalog_partition(db, table: str, column: str, lo: int, size: int,
                      single: bool):
    """The slot array of the catalog's partition of ``table.column``.

    ``slots[key - lo]`` is the ascending list of row positions holding
    ``key`` — or, for a ``single`` (unique-key) probe, the one position or
    ``None``, straight from the unique-key index.  Shared by every query,
    request and thread: generated code only ever reads it.  The compiled
    probe bakes in ``lo`` and ``size``; a catalog whose structure covers
    another key range fails loudly here instead of indexing out of range.
    """
    from ..storage.access import AccessError, AccessLayer

    layer = AccessLayer.for_catalog(db)
    index = layer.key_index(table, column) if single else layer.partition(table, column)
    if index is None or index.offset != lo or len(index.slots) != size:
        raise AccessError(
            f"no partition of {table}.{column} over keys "
            f"[{lo}, {lo + size - 1}]; the query was compiled against a "
            "catalog that had one")
    return index.slots


def catalog_pruned_indices(db, table: str, filters):
    """Candidate base-row positions of a pruned scan (ascending, memoized)."""
    from ..storage.access import AccessLayer

    return AccessLayer.for_catalog(db).pruned_indices(table, filters)


def catalog_dictionary(db, table: str, column: str):
    """The catalog's sorted string dictionary of ``table.column`` (never ``None``)."""
    from ..storage.access import AccessError, AccessLayer

    dictionary = AccessLayer.for_catalog(db).dictionary(table, column)
    if dictionary is None:
        raise AccessError(
            f"no string dictionary available for {table}.{column}; "
            "the query was compiled against a catalog that had one")
    return dictionary


def catalog_dict_codes(db, table: str, column: str):
    """The shared per-row code column of a catalog string dictionary."""
    return catalog_dictionary(db, table, column).codes


def catalog_prefix_range(dictionary, prefix: str) -> Tuple[int, int]:
    """Inclusive ``[lo, hi]`` code range of a prefix in a catalog dictionary.

    Adapts :meth:`repro.storage.access.StringDictionary.prefix_code_range`
    (half-open) to the inclusive contract of the ``ge``/``le`` comparisons the
    string-dictionary rewrite emits; an empty range becomes ``(1, 0)`` so that
    ``lo <= code <= hi`` is never satisfied.
    """
    lo, hi = dictionary.prefix_code_range(prefix)
    if lo >= hi:
        return (1, 0)
    return (lo, hi - 1)


# ---------------------------------------------------------------------------
# Sorting and misc helpers used by generated code.
# ---------------------------------------------------------------------------
def sort_records(records: List[Any], keys: Sequence[Tuple[Any, str]], layout: str,
                 fields: Sequence[str] = ()) -> List[Any]:
    """Sort a list of records by ``(field, order)`` keys.

    ``layout`` is ``"boxed"`` (dict records) or ``"row"`` (tuple records, in
    which case ``fields`` gives the positional mapping).  Null ordering
    follows the engine-wide contract of :mod:`repro.engine.sortkeys`:
    ``None`` sorts after every value on ascending keys (and first on
    descending ones), with stable ties.
    """
    from ..engine.sortkeys import null_aware_key

    result = list(records)
    if layout == "row":
        index = {name: i for i, name in enumerate(fields)}

        def accessor(record, field):
            return record[index[field]]
    else:
        def accessor(record, field):
            return record[field]
    for field, order in reversed(list(keys)):
        result.sort(key=lambda record, f=field: null_aware_key(accessor(record, f)),
                    reverse=(order == "desc"))
    return result


def governed_range(start: int, stop: int):
    """A ``range`` for generated pipeline-breaker loops, budget-guarded.

    The unparser emits ``for i in _rt.governed_range(lo, hi):`` at the head
    of every *top-level* generated loop.  With no governor installed this
    returns a native ``range`` — the loop runs exactly as before, so the
    hardening layer costs the compiled stacks nothing when inactive.  With a
    governor, each iteration ticks the budget (amortised wall-clock checks),
    giving in-loop cancellation even for fully fused single-loop queries.
    """
    governor = current_governor()
    if governor is None:
        return range(start, stop)
    return governor.guard_rows(range(start, stop))


def governed_iter(obj):
    """Iterable counterpart of :func:`governed_range` for foreach loops."""
    governor = current_governor()
    if governor is None:
        return obj
    return governor.guard_rows(obj)

