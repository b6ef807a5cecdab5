"""The small runtime library targeted by generated code.

The C code generated by DBLAB/LB links against GLib (generic hash tables and
lists) plus a handful of support routines (string dictionaries, memory pools).
Our generated Python plays the same game: the *generic* data-structure paths
call into the helpers below, while the *specialised* paths (dense arrays,
integer-coded strings) are emitted inline by the unparser, exactly as the
paper lowers hash tables to native arrays and inlines their operations.
"""
from __future__ import annotations

import bisect
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..robustness.governor import current_governor


# ---------------------------------------------------------------------------
# Generic aggregation hash table (the GLib-hash-table substitute).
# ---------------------------------------------------------------------------
class AggTable:
    """A HashMap-based aggregation table: key -> tuple of accumulators.

    ``specs`` is a sequence of aggregate kinds (``"sum"``, ``"count"``,
    ``"avg"``, ``"min"``, ``"max"``, ``"count_distinct"``).  ``update`` folds
    one row's values into the accumulators of its group; ``finalised`` yields
    ``(key, values)`` pairs with averages divided out.
    """

    __slots__ = ("specs", "groups", "distinct")

    def __init__(self, specs: Sequence[str]) -> None:
        self.specs = tuple(specs)
        self.groups: Dict[Any, list] = {}
        self.distinct: Dict[Any, list] = {}

    def _new_group(self, key: Any) -> list:
        accumulators = []
        sets = []
        for spec in self.specs:
            if spec in ("sum", "count"):
                accumulators.append(0)
            elif spec == "avg":
                accumulators.append((0.0, 0))
            elif spec == "count_distinct":
                accumulators.append(0)
            else:  # min / max
                accumulators.append(None)
            sets.append(set() if spec == "count_distinct" else None)
        self.groups[key] = accumulators
        self.distinct[key] = sets
        return accumulators

    def update(self, key: Any, values: Sequence[Any]) -> None:
        accumulators = self.groups.get(key)
        if accumulators is None:
            accumulators = self._new_group(key)
        sets = self.distinct[key]
        for i, (spec, value) in enumerate(zip(self.specs, values)):
            if spec == "count":
                if value is not None:
                    accumulators[i] += 1
                continue
            if value is None:
                continue
            if spec == "sum":
                accumulators[i] += value
            elif spec == "avg":
                total, count = accumulators[i]
                accumulators[i] = (total + value, count + 1)
            elif spec == "min":
                if accumulators[i] is None or value < accumulators[i]:
                    accumulators[i] = value
            elif spec == "max":
                if accumulators[i] is None or value > accumulators[i]:
                    accumulators[i] = value
            elif spec == "count_distinct":
                sets[i].add(value)
                accumulators[i] = len(sets[i])

    def finalised(self) -> Iterator[Tuple[Any, Tuple]]:
        for key, accumulators in self.groups.items():
            values = []
            for spec, accumulator in zip(self.specs, accumulators):
                if spec == "avg":
                    total, count = accumulator
                    values.append(total / count if count else None)
                else:
                    values.append(accumulator)
            yield key, tuple(values)

    def __len__(self) -> int:
        return len(self.groups)


class DenseAggTable:
    """Aggregation specialised to a dense integer key range [0, size).

    This is what the hash-table specialization lowers :class:`AggTable` to
    when the grouping key is a dense integer column with a statically known
    range; initialisation is hoisted to loading time (Section D.2).
    """

    __slots__ = ("specs", "size", "slots", "touched")

    def __init__(self, specs: Sequence[str], size: int) -> None:
        self.specs = tuple(specs)
        self.size = size
        self.slots: List[Optional[list]] = [None] * size
        self.touched: List[int] = []

    def update(self, index: int, values: Sequence[Any]) -> None:
        slot = self.slots[index]
        if slot is None:
            slot = []
            for spec in self.specs:
                if spec in ("sum", "count"):
                    slot.append(0)
                elif spec == "avg":
                    slot.append((0.0, 0))
                else:
                    slot.append(None)
            self.slots[index] = slot
            self.touched.append(index)
        for i, (spec, value) in enumerate(zip(self.specs, values)):
            if spec == "count":
                if value is not None:
                    slot[i] += 1
                continue
            if value is None:
                continue
            if spec == "sum":
                slot[i] += value
            elif spec == "avg":
                total, count = slot[i]
                slot[i] = (total + value, count + 1)
            elif spec == "min":
                if slot[i] is None or value < slot[i]:
                    slot[i] = value
            elif spec == "max":
                if slot[i] is None or value > slot[i]:
                    slot[i] = value

    def finalised(self) -> Iterator[Tuple[int, Tuple]]:
        for index in self.touched:
            slot = self.slots[index]
            values = []
            for spec, accumulator in zip(self.specs, slot):
                if spec == "avg":
                    total, count = accumulator
                    values.append(total / count if count else None)
                else:
                    values.append(accumulator)
            yield index, tuple(values)

    def reset(self) -> None:
        for index in self.touched:
            self.slots[index] = None
        self.touched.clear()


# ---------------------------------------------------------------------------
# String dictionaries (Section 5.3).
# ---------------------------------------------------------------------------
class StringDictionary:
    """Maps the distinct strings of a column to integer codes.

    Ordered dictionaries assign codes in lexicographic order so that range
    (prefix) predicates can be answered with two integer comparisons
    (Table 2 of the paper).
    """

    __slots__ = ("ordered", "codes", "sorted_values")

    def __init__(self, ordered: bool = False) -> None:
        self.ordered = ordered
        self.codes: Dict[str, int] = {}
        self.sorted_values: List[str] = []

    @classmethod
    def build(cls, values: Iterable[str], ordered: bool = False) -> "StringDictionary":
        dictionary = cls(ordered)
        distinct = set(values)
        if ordered:
            dictionary.sorted_values = sorted(distinct)
            dictionary.codes = {value: i for i, value in enumerate(dictionary.sorted_values)}
        else:
            dictionary.codes = {value: i for i, value in enumerate(sorted(distinct))}
            dictionary.sorted_values = sorted(distinct)
        return dictionary

    def code(self, value: str) -> int:
        """Integer code of ``value`` (-1 when the string never occurs)."""
        return self.codes.get(value, -1)

    def encode_column(self, values: Sequence[str]) -> List[int]:
        codes = self.codes
        return [codes[value] for value in values]

    def prefix_range(self, prefix: str) -> Tuple[int, int]:
        """[start, end] code range of values starting with ``prefix``.

        Returns an empty range (1, 0) when no value matches, so that
        ``start <= code <= end`` is never satisfied.
        """
        if not self.ordered:
            raise ValueError("prefix_range requires an order-preserving dictionary")
        lo = bisect.bisect_left(self.sorted_values, prefix)
        hi = bisect.bisect_left(self.sorted_values, prefix + "￿")
        if lo >= hi:
            return (1, 0)
        return (lo, hi - 1)

    def __len__(self) -> int:
        return len(self.codes)


# ---------------------------------------------------------------------------
# Memory pools (Section D.1) — the Python stand-in pre-sizes result buffers.
# ---------------------------------------------------------------------------
class MemoryPool:
    """A pre-allocated pool of record slots.

    In generated C this removes per-tuple ``malloc`` calls; in Python the
    equivalent benefit is avoiding repeated list growth, so the pool
    pre-allocates a list of the worst-case size and hands out slots.
    """

    __slots__ = ("slots", "used")

    def __init__(self, size: int) -> None:
        self.slots: List[Any] = [None] * size
        self.used = 0

    def next(self) -> int:
        index = self.used
        if index >= len(self.slots):
            self.slots.extend([None] * max(16, len(self.slots)))
        self.used = index + 1
        return index

    def reset(self) -> None:
        self.used = 0


# ---------------------------------------------------------------------------
# Catalog-resident access layer (repro.storage.access).  These helpers back
# the ``access_*`` IR ops: compiled queries fetch the *shared* load-time
# structures of the catalog instead of rebuilding their own in the hoisted
# block.  The pipelining lowering only emits the ops after verifying, against
# the compile-time catalog, that the structure exists; a prepare() against a
# catalog whose data breaks that assumption fails loudly instead of running a
# wrong plan.
# ---------------------------------------------------------------------------
def catalog_key_index(db, table: str, column: str):
    """The catalog's unique-key index of ``table.column`` (never ``None``)."""
    from ..storage.access import AccessError, AccessLayer

    index = AccessLayer.for_catalog(db).key_index(table, column)
    if index is None:
        raise AccessError(
            f"no unique-key index available for {table}.{column}; "
            "the query was compiled against a catalog that had one")
    return index


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
    from ..storage.access import AccessError, AccessLayer, DirectArray

    layer = AccessLayer.for_catalog(db)
    if single:
        index = layer.key_index(table, column)
        if not isinstance(index, DirectArray):
            index = None
    else:
        index = layer.partition(table, column)
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


def like(value: str, pattern: str) -> bool:
    """General LIKE matching for patterns with multiple ``%`` wildcards."""
    parts = [p for p in pattern.split("%") if p]
    position = 0
    for part in parts:
        index = value.find(part, position)
        if index < 0:
            return False
        position = index + len(part)
    if parts and not pattern.startswith("%") and not value.startswith(parts[0]):
        return False
    if parts and not pattern.endswith("%") and not value.endswith(parts[-1]):
        return False
    return True
