"""The registry of IR operations used across the DSL stack.

Every imperative DSL level of the stack (ScaLite[Map, List], ScaLite[List],
ScaLite and C.Py) shares the same ANF data structure (:mod:`repro.ir.nodes`)
but restricts which *operations* may appear — footnote 6 of the paper.  This
module is the single source of truth for those operations: each op is
registered once with its effect summary, and the language definitions in
:mod:`repro.stack.language` pick subsets of this registry.

An op is registered iff something in ``src/`` can emit it (``print_`` is the
exception: the effect lattice's only ``IO`` witness).  Every op costs a row
in the language sets, the signature and type tables, the value analysis and
an unparser handler, so one nobody emits is deleted from all of them;
``tests/ir/test_vocabulary.py`` lowers every query under every configuration
and names the producer of each op the sweep does not reach.

Registering effects centrally means generic transformations (CSE, DCE, code
motion, hoisting) never need op-specific data-flow analysis, which is the
point the paper makes for choosing ANF as the IR (Section 3.3).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .effects import ALLOC, CONTROL, Effect, IO, PURE, READ, WRITE


@dataclass(frozen=True)
class OpDef:
    """Definition of one IR operation kind."""

    name: str
    effect: Effect = PURE
    doc: str = ""
    #: number of nested blocks the op expects (None = any)
    n_blocks: Optional[int] = 0
    #: how per-worker partial states of this *writing* op combine when the
    #: enclosing loop is split across morsels: ``"concat"`` (order-preserving
    #: concatenation), ``"reduce"`` (commutative aggregate merge),
    #: ``"bucket-concat"`` — or ``None`` when the write is order-dependent and
    #: pins the loop to sequential execution.  The loop-dependence analysis
    #: (repro.analysis.dataflow) is the consumer.
    merge: Optional[str] = None


class OpRegistry:
    """A registry mapping op names to their :class:`OpDef`."""

    def __init__(self) -> None:
        self._ops: Dict[str, OpDef] = {}

    def register(self, name: str, effect: Effect = PURE, doc: str = "",
                 n_blocks: Optional[int] = 0,
                 merge: Optional[str] = None) -> OpDef:
        if name in self._ops:
            raise ValueError(f"op {name!r} registered twice")
        if merge is not None and not effect.writes:
            raise ValueError(f"op {name!r} declares a merge strategy but does not write")
        op = OpDef(name, effect, doc, n_blocks, merge)
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


#: The global registry used by the builder, the languages and the unparser.
REGISTRY = OpRegistry()
_r = REGISTRY.register

# ---------------------------------------------------------------------------
# Pure scalar operations (available at every imperative level).
# ---------------------------------------------------------------------------
ARITHMETIC_OPS = ("add", "sub", "mul", "div", "neg")
COMPARISON_OPS = ("eq", "ne", "lt", "le", "gt", "ge")
LOGICAL_OPS = ("and_", "or_", "not_", "band", "bor")
CONVERSION_OPS = ("year_of_date",)
STRING_OPS = ("str_contains", "str_startswith", "str_endswith", "str_like",
              "str_substr", "str_in")
TUPLE_OPS = ("tuple_new", "tuple_get")

for _name in ARITHMETIC_OPS + COMPARISON_OPS + LOGICAL_OPS + CONVERSION_OPS + TUPLE_OPS:
    _r(_name, PURE)

for _name in STRING_OPS:
    _r(_name, PURE, doc="string operation; target of the string-dictionary optimization")

# ---------------------------------------------------------------------------
# Control flow (ScaLite core: bounded loops and conditionals).
# ---------------------------------------------------------------------------
_r("if_", CONTROL, "if(cond) then-block else-block", n_blocks=2)
_r("for_range", CONTROL, "bounded loop over [start, end) with one index parameter", n_blocks=1)
_r("while_", CONTROL, "while loop: condition block + body block", n_blocks=2)

# ---------------------------------------------------------------------------
# Mutable local variables (ScaLite `var`).
# ---------------------------------------------------------------------------
_r("var_new", ALLOC, "allocate a mutable local variable with an initial value")
_r("var_read", READ, "read the current value of a mutable variable")
_r("var_write", WRITE, "assign a new value to a mutable variable")

# ---------------------------------------------------------------------------
# Records (structs).
# ---------------------------------------------------------------------------
_r("record_new", ALLOC, "construct a record; attrs: fields=(names...), layout='boxed'|'row'")
_r("record_get", READ, "read a record field; attrs: field=<name>")

# ---------------------------------------------------------------------------
# Arrays (ScaLite: fixed-size and dynamic arrays).
# ---------------------------------------------------------------------------
_r("array_new", ALLOC, "allocate an array of a given size; attrs: init=<default value>")
_r("array_get", READ)
_r("array_set", WRITE)

# ---------------------------------------------------------------------------
# Lists (ScaLite[List] and below; also used for query results).
# ---------------------------------------------------------------------------
_r("list_new", ALLOC)
_r("list_append", WRITE, merge="concat")
_r("list_foreach", CONTROL, "iterate a list; one body block with one element parameter", n_blocks=1)
_r("list_sort_by_fields", Effect(reads=True, allocates=True),
   "sort a list of records; attrs: keys=[(field, 'asc'|'desc'), ...]")
_r("list_take", Effect(reads=True, allocates=True), "first n elements of a list")

# ---------------------------------------------------------------------------
# Hash tables: ScaLite[Map, List].  These same ops double as the generic
# library (GLib substitute) containers when they survive down to C.Py in the
# 2- and 3-level stack configurations.
# ---------------------------------------------------------------------------
_r("mmap_new", ALLOC, "MultiMap: key -> list of values (hash joins)")
_r("mmap_add", WRITE, "append a value to the bucket of a key", merge="bucket-concat")
_r("mmap_get", READ, "return the bucket list of a key (empty list if absent)")
_r("hashmap_agg_new", ALLOC,
   "HashMap keyed aggregation table; attrs: aggs=[('sum'|'count'|'min'|'max'|'avg'), ...]")
_r("hashmap_agg_update", WRITE,
   "get-or-initialise the accumulator row of a key and fold the given values into it",
   merge="reduce")
_r("hashmap_agg_foreach", CONTROL,
   "iterate (key, accumulator-values) pairs of an aggregation table", n_blocks=1)

# ---------------------------------------------------------------------------
# Database access (the loaded catalog is a parameter of every program).
# ---------------------------------------------------------------------------
_r("table_size", READ, "number of rows of a table; attrs: table=<name>")
_r("table_column", READ, "column array of a table; attrs: table=<name>, column=<name>")

# ---------------------------------------------------------------------------
# Specialised data structures introduced by the level-4/5 lowerings
# (hash-table specialization, index inference, partitioning, string
# dictionaries, dense aggregation arrays).  Only allowed at ScaLite[List] and
# below: they are the *result* of lowering the Map/List abstractions.
# ---------------------------------------------------------------------------
_r("dense_agg_new", ALLOC,
   "dense aggregation array over a known key range; attrs: aggs=[...], size known at prepare time")
_r("dense_agg_update", WRITE, merge="reduce")
_r("dense_agg_foreach", CONTROL, n_blocks=1)
_r("strdict_build", ALLOC,
   "build a string dictionary over a column; attrs: table, column, ordered=bool")
_r("strdict_encode_column", ALLOC, "integer-encoded copy of a string column")
_r("strdict_code", READ, "dictionary code of a constant string (-1 when absent)")
_r("strdict_prefix_range", READ,
   "[start, end] code range of the strings with a given prefix (ordered dictionaries only)")

# ---------------------------------------------------------------------------
# Catalog-resident access structures (repro.storage.access).  Unlike the
# strdict_build op above — which constructs a per-query structure in the
# hoisted block — these ops *fetch* structures that live on the catalog
# itself and are built lazily once per loaded database, so every compiled
# query (and every direct engine) shares the same physical access layer.
# They are reads of catalog state, never allocations.
# ---------------------------------------------------------------------------
ACCESS_OPS = ("access_pruned_indices", "access_partition",
              "access_strdict", "access_strdict_codes", "access_prefix_range")

_r("access_pruned_indices", READ,
   "candidate base-row positions of a pruned scan (ascending, memoized); "
   "attrs: table, filters")
_r("access_partition", READ,
   "the catalog's partition of table.column: slot[key - key_lo] is the "
   "ascending list of row positions holding key (a MultiMap the hash-table "
   "lowerings probe by array indexing); attrs: table, column, key_lo, key_hi, "
   "and — once a lowering has claimed it — single (one position or None per "
   "slot, served by the unique-key index)")
_r("access_strdict", READ,
   "the catalog's sorted string dictionary of table.column; attrs: table, column; "
   "raises at prepare time when the loaded column has no dictionary")
_r("access_strdict_codes", READ,
   "the shared per-row integer code column of a catalog string dictionary; "
   "attrs: table, column")
_r("access_prefix_range", READ,
   "inclusive [lo, hi] code range of the strings with a given prefix in a "
   "catalog dictionary ((1, 0) when no string matches)")

# ---------------------------------------------------------------------------
# Debugging: the effect lattice's one IO witness (never removed or reordered).
# ---------------------------------------------------------------------------
_r("print_", IO)


def effect_of(op_name: str) -> Effect:
    """Effect summary of a registered op (raises ``KeyError`` for unknown ops)."""
    return REGISTRY.effect_of(op_name)


def merge_strategy(op_name: str) -> Optional[str]:
    """Morsel merge strategy of a writing op, or ``None`` for order-dependent writes."""
    return REGISTRY.get(op_name).merge


def is_registered(op_name: str) -> bool:
    return op_name in REGISTRY
