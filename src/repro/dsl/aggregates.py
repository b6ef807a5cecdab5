"""Aggregate semantics, stated once: per kind, the accumulator's start slots,
one fold of a run of values into an accumulator, and one finish.

The interpreter folds each row as a one-value run and the vectorized engine
each group's values as one run.  The compiled stacks lay a group's record out
from ``slots`` (:func:`repro.ir.ops.held_in_slot`, the unparser's starts) and
the pipelining lowering emits each fold and finish as IR statements over it,
so generated code calls no helper; the differential suites hold the two
forms equal.

A fold is a left fold from the accumulator it is given, so folding a run in
two calls equals folding it in one; ``sum`` and ``avg`` add with ``+``, never
builtin ``sum``, which compensates float rounding since CPython 3.12.
``None`` never contributes and ``count(*)`` folds the constant 1.
"""
from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, NamedTuple, Tuple


def _sum(total, run):
    for value in run:
        if value is not None:
            total += value
    return total


def _count(count, run):
    for value in run:
        if value is not None:
            count += 1
    return count


def _avg(accumulator, run):
    total, count = accumulator
    for value in run:
        if value is not None:
            total += value
            count += 1
    return total, count


def _min(low, run):
    for value in run:
        if value is not None and (low is None or value < low):
            low = value
    return low


def _max(high, run):
    for value in run:
        if value is not None and (high is None or value > high):
            high = value
    return high


def _count_distinct(seen, run):
    seen.update(run)
    seen.discard(None)  # a None of the run never stays
    return seen


def _mean(accumulator):
    total, count = accumulator
    return total / count if count else None


class Aggregate(NamedTuple):
    """``slots``: the starts of the slots the accumulator takes in a compiled
    group's record (``set`` stands for a fresh empty set)."""

    slots: Tuple[Any, ...]
    fold: Callable[[Any, Iterable[Any]], Any]
    finish: Callable[[Any], Any] = lambda accumulator: accumulator

    def start(self) -> Any:
        """A fresh accumulator: the one slot's start, or the tuple of them."""
        starts = tuple(set() if slot is set else slot for slot in self.slots)
        return starts[0] if len(starts) == 1 else starts


#: Every aggregate kind, in the order :data:`repro.dsl.qplan.AGG_KINDS` lists them.
AGGREGATES: Dict[str, Aggregate] = {
    "sum": Aggregate((0,), _sum),
    "count": Aggregate((0,), _count),
    "avg": Aggregate((0.0, 0), _avg, _mean),
    "min": Aggregate((None,), _min),
    "max": Aggregate((None,), _max),
    "count_distinct": Aggregate((set,), _count_distinct, len),
}
