"""The registry of IR operations used across the DSL stack.

Every imperative DSL level of the stack (ScaLite[Map, List], ScaLite[List],
ScaLite and C.Py) shares the same ANF data structure (:mod:`repro.ir.nodes`)
but restricts which *operations* may appear — footnote 6 of the paper.  This
module is the single source of truth for those operations: each op is one
row stating its family, effect and application shape, and everything else
is derived from the rows — the language vocabularies of
:mod:`repro.stack.language` are unions of families, the type checker and the
effect auditor read the shape, the dataflow analyses read ``mutated``,
``result`` and ``loop``.

An op is registered iff something in ``src/`` can emit it (``print_`` is the
exception: the effect lattice's only ``IO`` witness).  Every op costs one row
here and an unparser handler, so one nobody emits is deleted from both;
``tests/ir/test_vocabulary.py`` lowers every query under every configuration
and names the producer of each op the sweep does not reach.

Registering effects centrally means generic transformations (CSE, DCE, code
motion, hoisting) never need op-specific data-flow analysis, which is the
point the paper makes for choosing ANF as the IR (Section 3.3).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from ..dsl.aggregates import AGGREGATES
from .effects import ALLOC, CONTROL, Effect, IO, PURE, READ, READ_WRITE, WRITE
from .nodes import Atom, Const, Stmt
from .types import BOOL, INT, STRING, Type


@dataclass(frozen=True)
class OpDef:
    """Definition of one IR operation kind: everything the stack knows of it."""

    name: str
    #: the op group languages are assembled from and type rules dispatch on
    family: str
    effect: Effect = PURE
    doc: str = ""
    #: argument count: exact, or the minimum when ``variadic``
    arity: int = 0
    variadic: bool = False
    #: attribute keys the unparser and the lowerings read (must be present)
    attrs: Tuple[str, ...] = ()
    #: parameter count of each nested block (control ops only)
    blocks: Tuple[int, ...] = ()
    #: index of the argument a writing op mutates in place
    mutated: Optional[int] = None
    #: the result is a catalog-resident structure shared by every query,
    #: request and thread — read-only for generated code
    shared: bool = False
    #: the type the op always returns, when it does not depend on the operands
    result: Optional[Type] = None
    #: the nested blocks re-run on each iteration
    loop: bool = False


def _inconsistency(op: OpDef) -> Optional[str]:
    effect = op.effect
    if op.mutated is not None and (not effect.writes or effect.control):
        return "names a mutated argument but does not write"
    if op.mutated is not None and op.mutated >= op.arity:
        return f"mutates argument {op.mutated} of {op.arity}"
    if (op.blocks or op.loop) and not effect.control:
        return "carries nested blocks but is not a control op"
    if effect.control and not op.blocks:
        return "is a control op without nested blocks"
    return None


class OpRegistry:
    """A registry mapping op names to their :class:`OpDef`."""

    def __init__(self) -> None:
        self._ops: Dict[str, OpDef] = {}

    def register(self, name: str, family: str, effect: Effect = PURE,
                 doc: str = "", **shape: Any) -> OpDef:
        """Add one row; ``shape`` holds the remaining :class:`OpDef` fields."""
        if name in self._ops:
            raise ValueError(f"op {name!r} registered twice")
        op = OpDef(name, family, effect, doc, **shape)
        problem = _inconsistency(op)
        if problem:
            raise ValueError(f"op {name!r} {problem}")
        self._ops[name] = op
        return op

    def get(self, name: str) -> OpDef:
        try:
            return self._ops[name]
        except KeyError:
            raise KeyError(f"unknown IR op {name!r}; register it in repro.ir.ops") from None

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def names(self):
        return set(self._ops)

    def effect_of(self, name: str) -> Effect:
        return self.get(name).effect

    def select(self, predicate: Callable[[OpDef], bool]) -> FrozenSet[str]:
        """Names of the ops whose row satisfies ``predicate``."""
        return frozenset(name for name, op in self._ops.items() if predicate(op))

    def family(self, *families: str) -> FrozenSet[str]:
        """Names of the ops of the given families."""
        return self.select(lambda op: op.family in families)


#: The global registry used by the builder, the languages and the unparser.
REGISTRY = OpRegistry()
_r = REGISTRY.register

# ---------------------------------------------------------------------------
# Pure scalar operations (available at every imperative level).
# ---------------------------------------------------------------------------
for _name in ("add", "sub", "mul", "div"):
    _r(_name, "arith", arity=2)
_r("neg", "arith", arity=1)
for _name in ("eq", "ne", "lt", "le", "gt", "ge"):
    _r(_name, "compare", arity=2, result=BOOL)
for _name in ("and_", "or_"):
    _r(_name, "logic", arity=2, result=BOOL)
# ``&`` and ``|`` of two integers is an integer: only boolean operands make
# these boolean (the branchless-booleans pass emits them over booleans)
for _name in ("band", "bor"):
    _r(_name, "logic", arity=2)
_r("not_", "logic", arity=1, result=BOOL)
_r("year_of_date", "convert", arity=1, result=INT)

_STRING_DOC = "string operation; target of the string-dictionary optimization"
for _name in ("str_contains", "str_startswith", "str_endswith"):
    _r(_name, "string", PURE, _STRING_DOC, arity=2, result=BOOL)
_r("str_like", "string", PURE, _STRING_DOC, arity=1, attrs=("pattern",), result=BOOL)
_r("str_substr", "string", PURE, _STRING_DOC, arity=1, attrs=("start", "length"),
   result=STRING)
_r("str_in", "string", PURE, _STRING_DOC, arity=1, attrs=("values",), result=BOOL)

_r("tuple_new", "tuple", variadic=True)
_r("tuple_get", "tuple", arity=1, attrs=("index",))

# ---------------------------------------------------------------------------
# Control flow (ScaLite core: bounded loops and conditionals).
# ---------------------------------------------------------------------------
_r("if_", "control", CONTROL, "if(cond) then-block else-block", arity=1, blocks=(0, 0))
_r("for_range", "control", CONTROL, "bounded loop over [start, end) with one index parameter",
   arity=2, blocks=(1,), loop=True)
_r("while_", "control", CONTROL, "while loop: condition block + body block",
   blocks=(0, 0), loop=True)

# ---------------------------------------------------------------------------
# Mutable local variables (ScaLite `var`).
# ---------------------------------------------------------------------------
_r("var_new", "var", ALLOC, "allocate a mutable local variable with an initial value", arity=1)
_r("var_read", "var", READ, "read the current value of a mutable variable", arity=1)
_r("var_write", "var", WRITE, "assign a new value to a mutable variable", arity=2, mutated=0)

# ---------------------------------------------------------------------------
# Records (structs).
# ---------------------------------------------------------------------------
_r("record_new", "record", ALLOC,
   "construct a record; attrs: fields=(names...), layout='boxed'|'row'",
   variadic=True, attrs=("fields",))
_r("record_get", "record", READ, "read a record field; attrs: field=<name>",
   arity=1, attrs=("field",))

# ---------------------------------------------------------------------------
# Arrays (ScaLite: fixed-size and dynamic arrays).
# ---------------------------------------------------------------------------
_r("array_new", "array", ALLOC, "allocate an array of a given size; attrs: init=<default value>",
   arity=1)
_r("array_get", "array", READ, arity=2)
_r("array_set", "array", WRITE, arity=3, mutated=0)

# ---------------------------------------------------------------------------
# Lists (ScaLite[List] and below; also used for query results).
# ---------------------------------------------------------------------------
_r("list_new", "list", ALLOC)
_r("list_append", "list", WRITE, arity=2, mutated=0)
_r("list_foreach", "list", CONTROL, "iterate a list; one body block with one element parameter",
   arity=1, blocks=(1,), loop=True)
_r("list_sort_by_fields", "list", Effect(reads=True, allocates=True),
   "sort a list of records; attrs: keys=[(field, 'asc'|'desc'), ...]",
   arity=1, attrs=("keys",))
_r("list_take", "list", Effect(reads=True, allocates=True), "first n elements of a list",
   arity=2)

# ---------------------------------------------------------------------------
# Hash tables: ScaLite[Map, List].  These same ops double as the generic
# library (GLib substitute) containers when they survive down to C.Py in the
# 2- and 3-level stack configurations.
# ---------------------------------------------------------------------------
_r("mmap_new", "map", ALLOC, "MultiMap: key -> list of values (hash joins)")
_r("mmap_add", "map", WRITE, "append a value to the bucket of a key",
   arity=3, mutated=0)
_r("mmap_get", "map", READ, "return the bucket list of a key (empty list if absent)", arity=2)
_r("hashmap_agg_new", "map", ALLOC,
   "HashMap from a group key to its accumulator record, or to its one "
   "accumulator value when the group holds it in the table slot (held_in_slot)")
_r("hashmap_agg_group", "map", READ_WRITE,
   "the group of a key, created the first time the key is seen: its "
   "accumulator record, or the accumulator value held in the slot; "
   "attrs: aggs=(kind, ...), laid out by the slots of repro.dsl.aggregates",
   arity=2, attrs=("aggs",), mutated=0)
_r("hashmap_agg_set", "map", WRITE,
   "write a folded accumulator value back into the table slot of its key",
   arity=3, mutated=0)
_r("hashmap_agg_foreach", "map", CONTROL,
   "iterate (key, accumulator record or slot value) pairs of an aggregation table",
   arity=1, blocks=(2,), loop=True)


def held_in_slot(aggs: Sequence[str]) -> bool:
    """Whether a group of these aggregates keeps its accumulator in the table
    slot itself, with no record: their slots in :mod:`repro.dsl.aggregates`
    are one immutable value (not a set).  The fold reads the slot and writes
    the new value back (``hashmap_agg_set`` / ``dense_agg_set``)."""
    slots = [slot for kind in aggs for slot in AGGREGATES[kind].slots]
    return len(slots) == 1 and slots[0] is not set


# ---------------------------------------------------------------------------
# Sets: a count_distinct accumulator.
# ---------------------------------------------------------------------------
_r("set_add", "set", WRITE, "add a value to a set", arity=2, mutated=0)
_r("set_size", "set", READ, "the number of values in a set", arity=1, result=INT)

# ---------------------------------------------------------------------------
# Database access (the loaded catalog is a parameter of every program).
# ---------------------------------------------------------------------------
_r("table_size", "db", READ, "number of rows of a table; attrs: table=<name>",
   arity=1, attrs=("table",), result=INT)
_r("table_column", "db", READ, "column array of a table; attrs: table=<name>, column=<name>",
   arity=1, attrs=("table", "column"), shared=True)

# ---------------------------------------------------------------------------
# Dense aggregation, introduced by the hash-table specialization at
# ScaLite[List]: the *result* of lowering the Map abstraction.  The table is
# an array indexed by ``key - lo`` whose slots hold what the HashMap's values
# were — accumulator records, or accumulator values (held_in_slot) — and
# which also remembers the order its slots were first used in.
# ---------------------------------------------------------------------------
_r("dense_agg_new", "dense", ALLOC, "dense aggregation table of a given slot count",
   arity=1)
_r("dense_agg_group", "dense", READ_WRITE,
   "the group in slot index, created the first time the slot is reached: "
   "its accumulator record, or the accumulator value held in the slot; "
   "attrs: aggs=(kind, ...), laid out by the slots of repro.dsl.aggregates",
   arity=2, attrs=("aggs",), mutated=0)
_r("dense_agg_set", "dense", WRITE,
   "write a folded accumulator value back into slot index",
   arity=3, mutated=0)
_r("dense_agg_foreach", "dense", CONTROL,
   "iterate (slot index, accumulator record or slot value) pairs in first-use order",
   arity=1, blocks=(2,), loop=True)

# ---------------------------------------------------------------------------
# String dictionaries (the string-dictionary optimization).
# ---------------------------------------------------------------------------
_r("strdict_code", "strdict", READ,
   "dictionary code of a constant string (None when absent)",
   arity=2, result=INT)

# ---------------------------------------------------------------------------
# Catalog-resident access structures (repro.storage.access).  These ops
# *fetch* structures that live on the catalog itself and are built lazily
# once per loaded database, so every compiled query (and every direct
# engine) shares the same physical access layer.  They are reads of catalog
# state, never allocations.
# ---------------------------------------------------------------------------
_r("access_pruned_indices", "access", READ,
   "candidate base-row positions of a pruned scan (ascending, memoized); "
   "attrs: table, filters",
   arity=1, attrs=("table", "filters"), shared=True)
_r("access_partition", "access", READ,
   "the catalog's partition of table.column: slot[key - key_lo] is the "
   "ascending list of row positions holding key (a MultiMap the hash-table "
   "lowerings probe by array indexing); attrs: table, column, key_lo, key_hi, "
   "and — once a lowering has claimed it — single (one position or None per "
   "slot, served by the unique-key index)",
   arity=1, attrs=("table", "column", "key_lo", "key_hi"), shared=True)
_r("access_strdict", "access", READ,
   "the catalog's sorted string dictionary of table.column; attrs: table, column; "
   "raises at prepare time when the loaded column has no dictionary",
   arity=1, attrs=("table", "column"), shared=True)
_r("access_strdict_codes", "access", READ,
   "the shared per-row integer code column of a catalog string dictionary; "
   "attrs: table, column",
   arity=1, attrs=("table", "column"), shared=True)
_r("access_prefix_range", "access", READ,
   "inclusive [lo, hi] code range of the strings with a given prefix in a "
   "catalog dictionary ((1, 0) when no string matches)",
   arity=2)

# ---------------------------------------------------------------------------
# Debugging: the effect lattice's one IO witness (never removed or reordered).
# ---------------------------------------------------------------------------
_r("print_", "output", IO, arity=1)


def effect_of(op_name: str) -> Effect:
    """Effect summary of a registered op (raises ``KeyError`` for unknown ops)."""
    return REGISTRY.effect_of(op_name)


def is_registered(op_name: str) -> bool:
    return op_name in REGISTRY


def is_bool(atom: Atom, defs: Mapping[int, Stmt], logic: bool = False) -> bool:
    """Whether an operand is already a bool: a ``True`` / ``False`` constant,
    or a symbol whose defining statement (``defs[id]``; absent for a
    parameter or a loop variable) applies an op that always returns one.
    With ``logic``, ``band`` / ``bor`` count too: a pass that emits them only
    over bools may say so."""
    if isinstance(atom, Const):
        return isinstance(atom.value, bool)
    stmt = defs.get(atom.id)
    if stmt is None:
        return False
    row = REGISTRY.get(stmt.expr.op)
    return row.result is BOOL or (logic and row.family == "logic")
