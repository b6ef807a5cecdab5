"""Concrete lattices used by the dataflow analyses.

* :class:`Interval` — numeric ranges with ``None`` endpoints for "unbounded".
  Booleans embed as ``[0, 1]`` (``[1, 1]`` = provably true, ``[0, 0]`` =
  provably false), which lets the same lattice fold comparisons and drive
  dead-branch elimination.
* :class:`Nullability` — the three-point lattice NON_NULL < MAYBE_NULL and
  NULL < MAYBE_NULL.
* :class:`ValueFact` — the product of both, the element the forward value
  analysis (:mod:`repro.analysis.dataflow.values`) computes per binding.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

Number = Union[int, float]


def _min_lo(a: Optional[Number], b: Optional[Number]) -> Optional[Number]:
    if a is None or b is None:
        return None
    return min(a, b)


def _max_hi(a: Optional[Number], b: Optional[Number]) -> Optional[Number]:
    if a is None or b is None:
        return None
    return max(a, b)


@dataclass(frozen=True)
class Interval:
    """A closed numeric interval; a ``None`` endpoint means unbounded."""

    lo: Optional[Number] = None
    hi: Optional[Number] = None

    @staticmethod
    def top() -> "Interval":
        return Interval(None, None)

    @staticmethod
    def const(value: Number) -> "Interval":
        return Interval(value, value)

    @staticmethod
    def boolean() -> "Interval":
        return Interval(0, 1)

    @property
    def is_top(self) -> bool:
        return self.lo is None and self.hi is None

    @property
    def known_true(self) -> bool:
        return self.lo == 1 and self.hi == 1

    @property
    def known_false(self) -> bool:
        return self.lo == 0 and self.hi == 0

    def join(self, other: "Interval") -> "Interval":
        return Interval(_min_lo(self.lo, other.lo), _max_hi(self.hi, other.hi))

    def leq(self, other: "Interval") -> bool:
        """``self`` is contained in ``other``."""
        lo_ok = other.lo is None or (self.lo is not None and self.lo >= other.lo)
        hi_ok = other.hi is None or (self.hi is not None and self.hi <= other.hi)
        return lo_ok and hi_ok

    # -- interval arithmetic (used by the transfer functions) ---------------
    def add(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Interval(lo, hi)

    def sub(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.hi is None else self.lo - other.hi
        hi = None if self.hi is None or other.lo is None else self.hi - other.lo
        return Interval(lo, hi)

    def neg(self) -> "Interval":
        lo = None if self.hi is None else -self.hi
        hi = None if self.lo is None else -self.lo
        return Interval(lo, hi)

    def mul(self, other: "Interval") -> "Interval":
        if None in (self.lo, self.hi, other.lo, other.hi):
            return Interval.top()
        assert (self.lo is not None and self.hi is not None
                and other.lo is not None and other.hi is not None)
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return Interval(min(products), max(products))

    def compare(self, other: "Interval", op: str) -> "Interval":
        """Abstract comparison: ``[1,1]``/``[0,0]`` when provable, else ``[0,1]``."""
        if None in (self.lo, self.hi, other.lo, other.hi):
            # One usable direction may remain (e.g. lt with only his known).
            return _partial_compare(self, other, op)
        assert (self.lo is not None and self.hi is not None
                and other.lo is not None and other.hi is not None)
        if op == "lt":
            if self.hi < other.lo:
                return Interval.const(1)
            if self.lo >= other.hi:
                return Interval.const(0)
        elif op == "le":
            if self.hi <= other.lo:
                return Interval.const(1)
            if self.lo > other.hi:
                return Interval.const(0)
        elif op == "gt":
            return other.compare(self, "lt")
        elif op == "ge":
            return other.compare(self, "le")
        elif op == "eq":
            if self.lo == self.hi == other.lo == other.hi:
                return Interval.const(1)
            if self.hi < other.lo or self.lo > other.hi:
                return Interval.const(0)
        elif op == "ne":
            eq = self.compare(other, "eq")
            if eq.known_true:
                return Interval.const(0)
            if eq.known_false:
                return Interval.const(1)
        return Interval.boolean()

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


def _partial_compare(a: Interval, b: Interval, op: str) -> Interval:
    """Comparison verdicts that survive one unbounded side."""
    if op == "lt" and a.hi is not None and b.lo is not None and a.hi < b.lo:
        return Interval.const(1)
    if op == "le" and a.hi is not None and b.lo is not None and a.hi <= b.lo:
        return Interval.const(1)
    if op == "gt" and a.lo is not None and b.hi is not None and a.lo > b.hi:
        return Interval.const(1)
    if op == "ge" and a.lo is not None and b.hi is not None and a.lo >= b.hi:
        return Interval.const(1)
    if op in ("lt", "ne") and a.lo is not None and b.hi is not None and a.lo > b.hi:
        return Interval.const(0) if op == "lt" else Interval.const(1)
    if op in ("gt", "ne") and a.hi is not None and b.lo is not None and a.hi < b.lo:
        return Interval.const(0) if op == "gt" else Interval.const(1)
    return Interval.boolean()


class Nullability(enum.Enum):
    """Three-point nullability lattice (MAYBE_NULL is top)."""

    NON_NULL = "non-null"
    NULL = "null"
    MAYBE_NULL = "maybe-null"

    def join(self, other: "Nullability") -> "Nullability":
        if self is other:
            return self
        return Nullability.MAYBE_NULL

    def leq(self, other: "Nullability") -> bool:
        return self is other or other is Nullability.MAYBE_NULL


@dataclass(frozen=True)
class ValueFact:
    """What the value analysis knows about one binding."""

    interval: Interval = Interval.top()
    nullability: Nullability = Nullability.MAYBE_NULL

    @staticmethod
    def top() -> "ValueFact":
        return ValueFact()

    @staticmethod
    def of_const(value: object) -> "ValueFact":
        if value is None:
            return ValueFact(Interval.top(), Nullability.NULL)
        if isinstance(value, bool):
            return ValueFact(Interval.const(int(value)), Nullability.NON_NULL)
        if isinstance(value, (int, float)):
            return ValueFact(Interval.const(value), Nullability.NON_NULL)
        return ValueFact(Interval.top(), Nullability.NON_NULL)

    def join(self, other: "ValueFact") -> "ValueFact":
        return ValueFact(self.interval.join(other.interval),
                         self.nullability.join(other.nullability))

    def leq(self, other: "ValueFact") -> bool:
        return (self.interval.leq(other.interval)
                and self.nullability.leq(other.nullability))
