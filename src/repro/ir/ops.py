"""The registry of IR operations used across the DSL stack.

Every imperative DSL level of the stack (ScaLite[Map, List], ScaLite[List],
ScaLite and C.Py) shares the same ANF data structure (:mod:`repro.ir.nodes`)
but restricts which *operations* may appear — footnote 6 of the paper.  This
module is the single source of truth for those operations: each op is one
row stating its family, effect and application shape, and everything else
is derived from the rows — the language vocabularies of
:mod:`repro.stack.language` are unions of families, the type checker and the
effect auditor read the shape, the dataflow analyses read ``mutated``,
``merge``, ``result`` and ``loop``.

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
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple

from .effects import ALLOC, CONTROL, Effect, IO, PURE, READ, WRITE
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
    #: how per-worker partial states of this *writing* op combine when the
    #: enclosing loop is split across morsels: ``"concat"`` (order-preserving
    #: concatenation), ``"reduce"`` (commutative aggregate merge),
    #: ``"bucket-concat"`` — or ``None`` when the write is order-dependent and
    #: pins the loop to sequential execution.  The loop-dependence analysis
    #: (repro.analysis.dataflow) is the consumer.
    merge: Optional[str] = None


def _inconsistency(op: OpDef) -> Optional[str]:
    effect = op.effect
    if op.merge is not None and not effect.writes:
        return "declares a merge strategy but does not write"
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
_r("list_append", "list", WRITE, arity=2, mutated=0, merge="concat")
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
   arity=3, mutated=0, merge="bucket-concat")
_r("mmap_get", "map", READ, "return the bucket list of a key (empty list if absent)", arity=2)
_r("hashmap_agg_new", "map", ALLOC,
   "HashMap keyed aggregation table; attrs: aggs=[('sum'|'count'|'min'|'max'|'avg'), ...]",
   attrs=("aggs",))
_r("hashmap_agg_update", "map", WRITE,
   "get-or-initialise the accumulator row of a key and fold the given values into it",
   arity=2, variadic=True, mutated=0, merge="reduce")
_r("hashmap_agg_foreach", "map", CONTROL,
   "iterate (key, accumulator-values) pairs of an aggregation table",
   arity=1, blocks=(2,), loop=True)

# ---------------------------------------------------------------------------
# Database access (the loaded catalog is a parameter of every program).
# ---------------------------------------------------------------------------
_r("table_size", "db", READ, "number of rows of a table; attrs: table=<name>",
   arity=1, attrs=("table",), result=INT)
_r("table_column", "db", READ, "column array of a table; attrs: table=<name>, column=<name>",
   arity=1, attrs=("table", "column"), shared=True)

# ---------------------------------------------------------------------------
# Dense aggregation arrays, introduced by the hash-table specialization at
# ScaLite[List]: the *result* of lowering the Map abstraction.
# ---------------------------------------------------------------------------
_r("dense_agg_new", "dense", ALLOC,
   "dense aggregation array over a known key range; attrs: aggs=[...], size known at prepare time",
   arity=1, attrs=("aggs",))
_r("dense_agg_update", "dense", WRITE, arity=2, variadic=True, mutated=0, merge="reduce")
_r("dense_agg_foreach", "dense", CONTROL, arity=1, blocks=(2,), loop=True)

# ---------------------------------------------------------------------------
# Per-query string dictionaries (the string-dictionary optimization).
# ---------------------------------------------------------------------------
_r("strdict_build", "strdict", ALLOC,
   "build a string dictionary over a column; attrs: table, column, ordered=bool", arity=1)
_r("strdict_encode_column", "strdict", ALLOC, "integer-encoded copy of a string column",
   arity=2)
_r("strdict_code", "strdict", READ, "dictionary code of a constant string (-1 when absent)",
   arity=2, result=INT)
_r("strdict_prefix_range", "strdict", READ,
   "[start, end] code range of the strings with a given prefix (ordered dictionaries only)",
   arity=2)

# ---------------------------------------------------------------------------
# Catalog-resident access structures (repro.storage.access).  Unlike the
# strdict_build op above — which constructs a per-query structure in the
# hoisted block — these ops *fetch* structures that live on the catalog
# itself and are built lazily once per loaded database, so every compiled
# query (and every direct engine) shares the same physical access layer.
# They are reads of catalog state, never allocations.
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
