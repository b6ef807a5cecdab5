"""Null-aware sort keys and bounded top-k selection, shared by every engine.

This module is the single definition of the repository's **ordering
semantics**; the Volcano interpreter, the vectorized engine, the compiled
runtime (:mod:`repro.codegen.runtime`) and the ``TopK`` operator all route
their comparisons through it so that a plan returns the same row order
everywhere.

Null ordering
    ``None`` compares as **greater than every non-null value**: ascending
    sorts place nulls last, descending sorts place nulls first, and ties
    between nulls preserve input order (all sorts are stable).  This is the
    NULLS-LAST-for-asc contract of the planner's order framework; before it
    existed, sorting a nullable column raised ``TypeError`` in every engine
    (``None < 3`` is not defined in Python).

Top-k selection
    ``Limit(Sort(x))`` plans are fused by the planner into a single ``TopK``
    operator, executed as a bounded heap (:func:`heapq.nsmallest`) instead of
    a full materialise-and-sort.  To use one ``nsmallest`` call for multi-key
    ASC/DESC ordering, each row's keys are *encoded* into a composite tuple
    whose plain ascending lexicographic order equals the multi-pass stable
    sort the engines perform — including the null contract above and
    input-order tie-breaking.
"""
from __future__ import annotations

import heapq
from typing import Any, Callable, List, Sequence, Tuple


class _Reversed:
    """Order-reversing wrapper for DESC keys over non-numeric values.

    Numeric DESC keys are encoded by negation; values that cannot be negated
    (strings, mostly) are wrapped instead, with comparisons delegated to the
    underlying value in reverse.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Reversed({self.value!r})"


# ---------------------------------------------------------------------------
# Per-pass keys for the engines' stable multi-pass sorts.
# ---------------------------------------------------------------------------
def pass_keys(values: Sequence[Any]) -> Sequence[Any]:
    """Keys for one stable sort pass over ``values`` (one key column).

    Returns ``values`` unchanged when no ``None`` is present (the common,
    fast path: native comparisons only).  Otherwise every value is decorated
    as ``(value is None, value)`` so that ``None`` compares greater than any
    non-null value without ever being compared *to* one; with
    ``reverse=True`` (a DESC pass) the same decoration puts nulls first,
    which is exactly the null contract's mirror image.
    """
    if None in values:
        return [(value is None, value) for value in values]
    return values


def null_aware_key(value: Any) -> Tuple[bool, Any]:
    """Decorate one sort-key value per the null contract (always decorates).

    Used where per-column ``None`` detection is not worth the bookkeeping
    (the compiled runtime's sorts).
    """
    return (value is None, value)


# ---------------------------------------------------------------------------
# Composite key encoding for single-pass (heap) ordering.
# ---------------------------------------------------------------------------
def _encode_column(values: Sequence[Any], order: str) -> Sequence[Any]:
    """Encode one key column so plain ascending order realises ``order``.

    The encoding per element:

    * ASC, no nulls: the value itself,
    * ASC with nulls: ``(value is None, value)`` — nulls last,
    * DESC numeric: ``-value`` (``(0, 0)`` for a null — nulls first),
    * DESC non-numeric: :class:`_Reversed` (same null treatment).
    """
    has_nulls = None in values
    if order == "asc":
        if not has_nulls:
            return values
        return [(value is None, value) for value in values]
    # DESC: negate when every non-null value is numeric, wrap otherwise.
    numeric = all(value is None or isinstance(value, (int, float))
                  for value in values)
    if numeric:
        if not has_nulls:
            return [-value for value in values]
        return [(0, 0) if value is None else (1, -value) for value in values]
    if not has_nulls:
        return [_Reversed(value) for value in values]
    return [(0, 0) if value is None else (1, _Reversed(value)) for value in values]


def topk_indices(key_columns: Sequence[Sequence[Any]], orders: Sequence[str],
                 count: int, num_rows: int) -> List[int]:
    """Indices of the first ``count`` rows of the sorted order (stable).

    Equivalent to fully sorting ``range(num_rows)`` by the encoded keys and
    truncating, but runs a bounded heap: O(n log k) comparisons instead of
    O(n log n), and only ``count`` rows are ever gathered downstream.
    """
    if count <= 0 or num_rows == 0:
        return []
    if not key_columns:  # no keys: plain input order, top-k is a prefix
        return list(range(min(count, num_rows)))
    # Per-row composite keys whose ascending lexicographic order is the
    # multi-key ASC/DESC order.  The trailing row index both breaks ties
    # stably (= the engines' stable multi-pass sorts) and guarantees no
    # comparison ever falls through to incomparable payload values.  zip()
    # builds the decorated tuples at C speed from the encoded columns.
    encoded = [_encode_column(column, order)
               for column, order in zip(key_columns, orders)]
    decorated = list(zip(*encoded, range(num_rows)))
    if count >= num_rows:
        decorated.sort()
        return [entry[-1] for entry in decorated]
    return [entry[-1] for entry in heapq.nsmallest(count, decorated)]


def topk_rows(rows: Sequence[Any], keys: Sequence[Tuple[Callable[[Any], Any], str]],
              count: int) -> List[Any]:
    """The first ``count`` rows of ``rows`` under ``keys`` = ``[(key_fn, order)]``.

    Row-oriented front end over :func:`topk_indices`, used by the Volcano
    interpreter.
    """
    if count <= 0 or not rows:
        return []
    key_columns = [[key_fn(row) for row in rows] for key_fn, _ in keys]
    orders = [order for _, order in keys]
    return [rows[i] for i in topk_indices(key_columns, orders, count, len(rows))]
