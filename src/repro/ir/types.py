"""The types an IR symbol carries: seven scalar singletons.

The paper's DSLs (QPlan, QMonad, ScaLite[Map, List], ScaLite[List], ScaLite,
C.Scala) are statically typed Scala-embedded DSLs.  The Python embedding types
only scalars — int, float, bool, string, date, unit and ``UNKNOWN`` — because
no symbol of any level carries more: records, lists and hash tables are told
apart by the op that made them (``ir/ops.py``), not by a type, and the record
layout is an attribute the lowering chooses (``transforms/pipelining.py``).

Types are immutable value objects: two structurally equal types compare and
hash equal, which is what the ANF builder relies on for hash-consing.
"""
from __future__ import annotations

from dataclasses import dataclass


class Type:
    """Base class of every DSL type."""

    def __repr__(self) -> str:  # pragma: no cover - repr defined per subclass
        return self.__class__.__name__


@dataclass(frozen=True)
class ScalarType(Type):
    """A primitive type identified by name (int, float, bool, string, date, unit)."""

    name: str

    def __repr__(self) -> str:
        return self.name


#: Singleton scalar types used throughout the stack.
INT = ScalarType("int")
FLOAT = ScalarType("float")
BOOL = ScalarType("bool")
STRING = ScalarType("string")
#: Dates are stored as integers of the form YYYYMMDD (see ``repro.codegen.runtime``).
DATE = ScalarType("date")
UNIT = ScalarType("unit")
UNKNOWN = ScalarType("unknown")
