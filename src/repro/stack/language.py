"""Definitions of the DSL levels that make up the compilation stack.

The paper's Figure 2 stack, reproduced here:

====================  =====  ==============================================
Language              level  description
====================  =====  ==============================================
``QPlan``             60     physical query-plan algebra (declarative)
``QMonad``            60     collection-programming front end (declarative)
``ScaLite[Map,List]`` 40     imperative core + HashMap/MultiMap/List
``ScaLite[List]``     30     imperative core + List (MultiMaps lowered away)
``ScaLite``           20     imperative core: bounded loops, records, arrays
``C.Py``              10     the unparser's input (the C.Scala/C analogue);
                             same vocabulary as ``ScaLite`` for now
====================  =====  ==============================================

Front-end languages (QPlan, QMonad) are *tree DSLs*: their programs are plain
operator ASTs, which the paper notes is a sufficient IR for algebraic
languages without variable bindings.  The imperative levels are *ANF DSLs*:
they share the :mod:`repro.ir` data structures and differ only in the
vocabulary of operations they allow.  A vocabulary lists only ops some
transformation in ``src/`` emits (:mod:`repro.ir.ops`); nothing emits an
explicit-memory op, so ``C.Py`` — a level and a lowering of its own — says
exactly what ``ScaLite`` says.

A higher level number means a higher level of abstraction.  Lowerings must go
strictly downwards (expressibility principle); the stack validator in
:mod:`repro.stack.pipeline` enforces the transformation-cohesion principle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

from ..ir import ops as ir_ops
from ..ir.nodes import Program
from ..ir.traversal import ops_used


class LanguageError(Exception):
    """A program uses constructs that are not part of its declared language."""


@dataclass(frozen=True)
class Language:
    """One abstraction level of the DSL stack.

    Attributes:
        name: the language name (e.g. ``"ScaLite[Map, List]"``).
        level: numeric abstraction level; larger is more abstract.
        kind: ``"tree"`` for front-end operator ASTs, ``"anf"`` for ANF DSLs.
        ops: for ANF DSLs, the names of IR operations programs may use.
        description: human readable summary (used in reports).
    """

    name: str
    level: int
    kind: str = "anf"
    ops: FrozenSet[str] = frozenset()
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("tree", "anf"):
            raise ValueError(f"unknown language kind {self.kind!r}")
        unknown = {op for op in self.ops if op not in ir_ops.REGISTRY}
        if unknown:
            raise ValueError(
                f"language {self.name!r} references unregistered ops: {sorted(unknown)}")

    def validate(self, program) -> None:
        """Check that ``program`` only uses constructs of this language.

        For ANF programs this verifies the op vocabulary.  Tree programs are
        validated by their own front-end modules; here we only check that an
        ANF program was not handed to a tree language by mistake.
        """
        if self.kind == "tree":
            if isinstance(program, Program):
                raise LanguageError(
                    f"{self.name} is a front-end (tree) DSL but received an ANF program")
            return
        if not isinstance(program, Program):
            raise LanguageError(f"{self.name} expects an ANF program, got {type(program).__name__}")
        used = ops_used(program)
        illegal = used - set(self.ops)
        if illegal:
            raise LanguageError(
                f"program uses ops not allowed in {self.name}: {sorted(illegal)}")

    def __repr__(self) -> str:
        return f"Language({self.name!r}, level={self.level})"


# ---------------------------------------------------------------------------
# Op families (``OpDef.family`` in repro.ir.ops) the languages are unions of.
# ---------------------------------------------------------------------------
#: The imperative core shared by every ScaLite variant (and C.Py).  It holds
#: the reads of the catalog-resident physical access layer (resident
#: partitions — a primary-key one is the unique-key index — partition
#: pruning, load-time string dictionaries): they are database accessors like
#: table_column, not specialised structures introduced by a lowering.  It
#: also holds what an aggregate's folds are written in: an accumulator record
#: is an array, and a count_distinct accumulator a set.
_CORE = ("arith", "compare", "logic", "convert", "string", "tuple", "control",
         "var", "record", "array", "set", "db", "access", "output")
#: String dictionaries are emitted by the StringDictionaries *optimization*,
#: which the stack declares at ScaLite[Map, List] — and an optimization must
#: stay within its own language (transformation cohesion), so "strdict"
#: starts at level 40, while the "dense" family — the group lookup over an
#: array of accumulator records — only appears once the HashMap lowering into
#: level 30 introduces it.
_family = ir_ops.REGISTRY.family


# ---------------------------------------------------------------------------
# The concrete languages of the stack.
# ---------------------------------------------------------------------------
QPLAN = Language(
    name="QPlan", level=60, kind="tree",
    description="Physical query-plan operators (Scan, Select, HashJoin, Agg, ...)")

QMONAD = Language(
    name="QMonad", level=60, kind="tree",
    description="Collection-programming front end (map, filter, hashJoin, fold, ...)")

SCALITE_MAP_LIST = Language(
    name="ScaLite[Map, List]", level=40, kind="anf",
    ops=_family(*_CORE, "list", "map", "strdict"),
    description="Imperative core extended with HashMap, MultiMap and List; "
                "no nested mutability inside hash tables")

SCALITE_LIST = Language(
    name="ScaLite[List]", level=30, kind="anf",
    # MultiMaps are lowered to arrays of lists here, so generic map ops are
    # still allowed only in their role as GLib-style fallback containers; the
    # specialised dense aggregation arrays become available.
    ops=_family(*_CORE, "list", "map", "dense", "strdict"),
    description="Imperative core + lists and specialised (dense) structures")

SCALITE = Language(
    name="ScaLite", level=20, kind="anf",
    ops=_family(*_CORE, "list", "map", "dense", "strdict"),
    description="Imperative core: bounded loops, records, fixed/dynamic arrays; "
                "memory handled by the host runtime")

C_PY = Language(
    name="C.Py", level=10, kind="anf",
    # The same vocabulary as ScaLite until a lowering into C.Py emits
    # something ScaLite cannot say: an op is registered iff a stack emits it.
    ops=SCALITE.ops,
    description="Lowest level: generic library (GLib substitute) containers; "
                "unparsed to Python source")

ALL_LANGUAGES: Tuple[Language, ...] = (QPLAN, QMONAD, SCALITE_MAP_LIST, SCALITE_LIST,
                                       SCALITE, C_PY)
