"""Forward interval + nullability analysis over ANF programs.

One forward pass computes a :class:`~.lattices.ValueFact` per binding.  A
single pass is sound here because ANF bindings are single-assignment — a
symbol's value never changes after its definition — and every channel that
*could* carry information around a back edge (mutable variables, containers)
is deliberately mapped to top.

The interesting facts come from the catalog: a scan's ``array_get`` over a
``table_column`` is seeded from the column's load-time statistics (min/max
feeding the interval, the null count feeding nullability), dictionary code
columns from the dictionary size.  Those seeds are what the dataflow folding
pass and the verifier's transition audit consume.  (A read of an
``access_partition`` slot — how a compiled ``IndexJoin`` reaches the
unique-key index — is an ``array_get`` of no known column: its fact is top.)
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ...ir.nodes import Atom, Block, Const, Expr, Program, Stmt, Sym
from ...ir.ops import REGISTRY
from ...ir.types import BOOL
from .framework import CACHE, use_def
from .lattices import Interval, Nullability, ValueFact


@dataclass(frozen=True)
class ValueFacts:
    """Per-binding value facts of one (program, catalog) pair."""

    facts: Dict[int, ValueFact] = field(default_factory=dict)

    def fact_of(self, sym_id: int) -> ValueFact:
        return self.facts.get(sym_id, ValueFact.top())

    def of_atom(self, atom: Atom) -> ValueFact:
        if isinstance(atom, Const):
            return ValueFact.of_const(atom.value)
        if isinstance(atom, Sym):
            return self.fact_of(atom.id)
        return ValueFact.top()


def value_facts(program: Program, catalog: Optional[Any] = None) -> ValueFacts:
    """Memoized value facts of ``program`` under ``catalog``'s statistics."""
    def compute() -> ValueFacts:
        return _ValueAnalysis(program, catalog).run()

    result = CACHE.get_or_compute(program, "values", compute, context_key=catalog)
    assert isinstance(result, ValueFacts)
    return result


class _ValueAnalysis:
    def __init__(self, program: Program, catalog: Optional[Any]) -> None:
        self.program = program
        self.catalog = catalog
        self.defs = use_def(program).defs
        self.env: Dict[int, ValueFact] = {}
        #: sym id -> (table, column) for column-array bindings
        self.columns: Dict[int, Tuple[str, str, bool]] = {}

    def run(self) -> ValueFacts:
        for block in self.program.all_blocks():
            self._walk(block)
        return ValueFacts(facts=self.env)

    # ------------------------------------------------------------------
    def _walk(self, block: Block) -> None:
        for stmt in block.stmts:
            self._transfer(stmt)

    def _atom(self, atom: Atom) -> ValueFact:
        if isinstance(atom, Const):
            return ValueFact.of_const(atom.value)
        if isinstance(atom, Sym):
            return self.env.get(atom.id, ValueFact.top())
        return ValueFact.top()

    def _transfer(self, stmt: Stmt) -> None:
        expr = stmt.expr
        op = expr.op
        row = REGISTRY.get(op)
        fact = ValueFact.top()

        if op in ("add", "sub", "mul", "neg"):
            fact = self._arithmetic(op, expr)
        elif op in ("div", "year_of_date"):
            fact = self._conversion(op, expr)
        elif row.family == "compare":
            fact = self._comparison(op, expr)
        elif row.family == "logic":
            fact = self._logical(op, expr)
        elif row.result is BOOL:
            fact = ValueFact(Interval.boolean(), Nullability.NON_NULL)
        elif op == "array_get":
            fact = self._array_get(expr)
        elif op == "table_column":
            self.columns[stmt.sym.id] = (expr.attrs["table"], expr.attrs["column"], False)
        elif op == "access_strdict_codes":
            self.columns[stmt.sym.id] = (expr.attrs["table"], expr.attrs["column"], True)
        elif op == "table_size":
            fact = self._table_size(expr)
        elif op == "strdict_code":
            fact = ValueFact(Interval(-1, None), Nullability.NON_NULL)
        elif op == "tuple_get":
            fact = self._tuple_get(expr)
        elif op == "record_get":
            fact = self._record_get(expr)
        elif op == "if_":
            fact = self._if(expr)
        elif op == "for_range":
            self._for_range(expr)
        elif expr.blocks:
            for nested in expr.blocks:
                self._walk(nested)

        self.env[stmt.sym.id] = fact

    # ------------------------------------------------------------------
    def _combine_nullability(self, *facts: ValueFact) -> Nullability:
        if all(f.nullability is Nullability.NON_NULL for f in facts):
            return Nullability.NON_NULL
        return Nullability.MAYBE_NULL

    def _arithmetic(self, op: str, expr: Expr) -> ValueFact:
        facts = [self._atom(a) for a in expr.args]
        nullability = self._combine_nullability(*facts)
        if op == "neg":
            return ValueFact(facts[0].interval.neg(), nullability)
        a, b = facts[0].interval, facts[1].interval
        interval = {"add": a.add, "sub": a.sub, "mul": a.mul}[op](b)
        return ValueFact(interval, nullability)

    def _conversion(self, op: str, expr: Expr) -> ValueFact:
        facts = [self._atom(a) for a in expr.args]
        nullability = self._combine_nullability(*facts)
        interval = Interval.top()
        src = facts[0].interval
        if op == "year_of_date":
            # dates are yyyymmdd integers
            interval = Interval(None if src.lo is None else int(src.lo) // 10000,
                                None if src.hi is None else int(src.hi) // 10000)
        return ValueFact(interval, nullability)

    def _comparison(self, op: str, expr: Expr) -> ValueFact:
        left, right = (self._atom(a) for a in expr.args)
        # eq/ne against a literal None is a null check, decided by nullability
        # (two NULLs are equal: ``None == None``).
        for fact, other in ((left, right), (right, left)):
            if fact.nullability is Nullability.NULL:
                if op in ("eq", "ne") and other.nullability is not Nullability.MAYBE_NULL:
                    equal = other.nullability is Nullability.NULL
                    return ValueFact(Interval.const(int(equal == (op == "eq"))),
                                     Nullability.NON_NULL)
                return ValueFact(Interval.boolean(), Nullability.NON_NULL)
        if (left.nullability is Nullability.NON_NULL
                and right.nullability is Nullability.NON_NULL):
            return ValueFact(left.interval.compare(right.interval, op),
                             Nullability.NON_NULL)
        return ValueFact(Interval.boolean(), Nullability.NON_NULL)

    def _logical(self, op: str, expr: Expr) -> ValueFact:
        facts = [self._atom(a) for a in expr.args]
        boolean = ValueFact(Interval.boolean(), Nullability.NON_NULL)
        intervals = [f.interval for f in facts]
        if not all(i.leq(Interval.boolean()) for i in intervals):
            return boolean
        if op == "and_":
            if any(i.known_false for i in intervals):
                return ValueFact(Interval.const(0), Nullability.NON_NULL)
            if all(i.known_true for i in intervals):
                return ValueFact(Interval.const(1), Nullability.NON_NULL)
        elif op == "or_":
            if any(i.known_true for i in intervals):
                return ValueFact(Interval.const(1), Nullability.NON_NULL)
            if all(i.known_false for i in intervals):
                return ValueFact(Interval.const(0), Nullability.NON_NULL)
        elif op == "not_":
            if intervals[0].known_true:
                return ValueFact(Interval.const(0), Nullability.NON_NULL)
            if intervals[0].known_false:
                return ValueFact(Interval.const(1), Nullability.NON_NULL)
        return boolean

    # ------------------------------------------------------------------
    def _column_of(self, atom: Atom) -> Optional[Tuple[str, str, bool]]:
        if isinstance(atom, Sym):
            return self.columns.get(atom.id)
        return None

    def _column_stats(self, table: str, column: str) -> Optional[Any]:
        if self.catalog is None:
            return None
        statistics = getattr(self.catalog, "statistics", None)
        if statistics is None or not statistics.has_column(table, column):
            return None
        return statistics.column(table, column)

    def _array_get(self, expr: Expr) -> ValueFact:
        source = self._column_of(expr.args[0])
        if source is None:
            return ValueFact.top()
        table, column, is_codes = source
        stats = self._column_stats(table, column)
        if stats is None:
            return ValueFact.top()
        nullability = (Nullability.NON_NULL if stats.num_nulls == 0
                       else Nullability.MAYBE_NULL)
        if is_codes:
            # dictionary codes are dense in [0, num_distinct)
            return ValueFact(Interval(0, max(stats.num_distinct - 1, 0)), nullability)
        interval = Interval.top()
        if isinstance(stats.min_value, (int, float)) and not isinstance(stats.min_value, bool):
            interval = Interval(stats.min_value, stats.max_value)
        return ValueFact(interval, nullability)

    def _table_size(self, expr: Expr) -> ValueFact:
        if self.catalog is not None:
            statistics = getattr(self.catalog, "statistics", None)
            table = expr.attrs.get("table")
            if statistics is not None and table and statistics.has_table(table):
                n = statistics.cardinality(table)
                return ValueFact(Interval.const(n), Nullability.NON_NULL)
        return ValueFact(Interval(0, None), Nullability.NON_NULL)

    def _tuple_get(self, expr: Expr) -> ValueFact:
        source, index = expr.args[0], expr.attrs.get("index")
        if index is None and len(expr.args) > 1 and isinstance(expr.args[1], Const):
            index = expr.args[1].value
        if isinstance(source, Sym) and isinstance(index, int):
            definition = self.defs.get(source.id)
            if definition is not None and definition.expr.op == "tuple_new" \
                    and 0 <= index < len(definition.expr.args):
                return self._atom(definition.expr.args[index])
        return ValueFact.top()

    def _record_get(self, expr: Expr) -> ValueFact:
        source, fname = expr.args[0], expr.attrs.get("field")
        if isinstance(source, Sym) and fname is not None:
            definition = self.defs.get(source.id)
            if definition is not None and definition.expr.op == "record_new":
                fields = definition.expr.attrs.get("fields", ())
                if fname in fields:
                    position = tuple(fields).index(fname)
                    if position < len(definition.expr.args):
                        return self._atom(definition.expr.args[position])
        return ValueFact.top()

    # ------------------------------------------------------------------
    def _if(self, expr: Expr) -> ValueFact:
        then_block, else_block = expr.blocks[0], expr.blocks[1]
        self._walk(then_block)
        self._walk(else_block)
        return self._atom(then_block.result).join(self._atom(else_block.result))

    def _for_range(self, expr: Expr) -> None:
        start, end = (self._atom(a) for a in expr.args[:2])
        body = expr.blocks[0]
        if body.params:
            hi = None if end.interval.hi is None else end.interval.hi - 1
            self.env[body.params[0].id] = ValueFact(
                Interval(start.interval.lo, hi), Nullability.NON_NULL)
        self._walk(body)
