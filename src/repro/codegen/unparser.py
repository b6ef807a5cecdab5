"""Unparsing (stringification) of the lowest-level IR into Python source.

The paper's C.Scala programs are "equivalent to a C program, modulo a
straightforward syntactic transformation (called stringification or
unparsing)".  This module is that transformation for the Python target: every
IR operation has a textual emission rule, control-flow ops become Python
``for``/``if`` statements, and the two blocks of a program become
two functions:

* ``prepare(db, _rt)`` executes the hoisted (data-loading time) block and
  returns the auxiliary structures it fetched (the catalog's resident
  partitions and string dictionaries, table columns), and
* ``query(db, _rt, aux)`` executes the query body against the database and
  the auxiliary structures and returns the result rows.

Keeping the two entry points separate is what lets the benchmark harness
charge the first fetch of a catalog structure — the one that builds it — to
data-loading time, as the paper does for its non-TPC-H-compliant
optimizations.
"""
from __future__ import annotations

from typing import Dict, List, Optional

from ..dsl.aggregates import AGGREGATES
from ..dsl.expr import BY_IR_OP, literal_source
from ..ir.nodes import Atom, Block, Const, Program, Stmt, Sym
from ..ir.ops import held_in_slot, is_bool
from ..ir.traversal import used_syms

_INDENT = "    "


class UnparserError(Exception):
    pass


def _name(sym: Sym) -> str:
    return f"{sym.hint}_{sym.id}" if sym.hint else f"x_{sym.id}"


def _atom(atom: Atom) -> str:
    if isinstance(atom, Sym):
        return _name(atom)
    if isinstance(atom, Const):
        return literal_source(atom.value)
    raise UnparserError(f"not an atom: {atom!r}")


class PythonUnparser:
    """Turns an ANF program into Python source text."""

    def __init__(self, query_name: str = "query") -> None:
        self.query_name = query_name
        #: current loop-nesting depth during emission — top-level loops (the
        #: pipeline-breaker stages) get budget-governed heads, nested loops
        #: (per-probe bucket walks) stay raw so the hot paths keep their shape
        self._loop_depth = 0
        #: the statement defining each symbol emitted so far, by symbol id
        self._defs: Dict[int, Stmt] = {}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def unparse(self, program: Program) -> str:
        if len(program.params) != 1:
            raise UnparserError("expected exactly one program parameter (the database)")
        db = _name(program.params[0])
        self._defs = {}
        used_in_body = used_syms(program.body)
        needed_from_hoisted = [stmt.sym for stmt in program.hoisted.stmts
                               if stmt.sym in used_in_body]

        lines: List[str] = []
        lines.append(f'"""Generated by the DSL stack for query {self.query_name!r}."""')
        lines.append("")
        lines.append(f"def prepare({db}, _rt):")
        hoisted_lines = self._block_body(program.hoisted, scope_result=False)
        if hoisted_lines:
            lines.extend(_INDENT + line for line in hoisted_lines)
        exports = ", ".join(f"'{_name(sym)}': {_name(sym)}" for sym in needed_from_hoisted)
        lines.append(_INDENT + "return {" + exports + "}")
        lines.append("")
        lines.append(f"def query({db}, _rt, aux):")
        for sym in needed_from_hoisted:
            lines.append(_INDENT + f"{_name(sym)} = aux['{_name(sym)}']")
        body_lines = self._block_body(program.body, scope_result=False)
        lines.extend(_INDENT + line for line in body_lines)
        lines.append(_INDENT + f"return {_atom(program.body.result)}")
        lines.append("")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Blocks and statements
    # ------------------------------------------------------------------
    def _block_body(self, block: Block, scope_result: bool = True,
                    result_target: Optional[str] = None) -> List[str]:
        lines: List[str] = []
        for stmt in block.stmts:
            lines.extend(self._stmt(stmt))
        if result_target is not None:
            lines.append(f"{result_target} = {_atom(block.result)}")
        return lines

    def _stmt(self, stmt: Stmt) -> List[str]:
        expr = stmt.expr
        handler = getattr(self, f"_op_{expr.op}", None)
        if handler is None:
            raise UnparserError(f"no Python emission rule for op {expr.op!r}")
        self._defs[stmt.sym.id] = stmt
        return handler(stmt)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _assign(self, stmt: Stmt, rhs: str) -> List[str]:
        return [f"{_name(stmt.sym)} = {rhs}"]

    def _binary(self, stmt: Stmt) -> List[str]:
        """An infix op: its text is the scalar operator it lowers from."""
        left, right = (_atom(a) for a in stmt.expr.args)
        return self._assign(stmt, f"({left} {BY_IR_OP[stmt.expr.op].symbol} {right})")

    def _connective(self, stmt: Stmt) -> List[str]:
        """``and`` / ``or`` over operands made bools: Python's return an
        operand, the connectives of every engine return ``True`` / ``False``."""
        left, right = (self._truth(a) for a in stmt.expr.args)
        return self._assign(stmt, f"({left} {BY_IR_OP[stmt.expr.op].symbol} {right})")

    def _truth(self, atom: Atom) -> str:
        if is_bool(atom, self._defs):
            return _atom(atom)
        return f"bool({_atom(atom)})"

    def _nested(self, block: Block, result_target: Optional[str] = None) -> List[str]:
        lines = self._block_body(block, result_target=result_target)
        if result_target is not None and not lines:
            lines = [f"{result_target} = {_atom(block.result)}"]
        if not lines:
            lines = ["pass"]
        return lines

    def _loop_body(self, block: Block) -> List[str]:
        """Emit a loop body, tracking nesting so inner loops stay ungoverned."""
        self._loop_depth += 1
        try:
            return self._nested(block)
        finally:
            self._loop_depth -= 1

    # ------------------------------------------------------------------
    # Arithmetic / comparison / logic
    # ------------------------------------------------------------------
    _op_add = _op_sub = _op_mul = _op_div = _binary
    _op_lt = _op_le = _op_gt = _op_ge = _binary
    _op_and_ = _op_or_ = _connective

    def _op_eq(self, stmt):   return self._equality(stmt, "is")
    def _op_ne(self, stmt):   return self._equality(stmt, "is not")

    def _equality(self, stmt: Stmt, identity: str) -> List[str]:
        """A test against ``None`` is an identity test, unless a literal
        other than ``None`` is on the left: ``5 is None`` is a SyntaxWarning."""
        left, right = stmt.expr.args
        if isinstance(right, Const) and right.value is None and not (
                isinstance(left, Const) and left.value is not None):
            return self._assign(stmt, f"({_atom(left)} {identity} {_atom(right)})")
        return self._binary(stmt)

    def _op_neg(self, stmt):
        return self._assign(stmt, f"(-{_atom(stmt.expr.args[0])})")

    def _op_not_(self, stmt):
        return self._assign(stmt, f"(not {_atom(stmt.expr.args[0])})")

    def _op_year_of_date(self, stmt):
        return self._assign(stmt, f"({_atom(stmt.expr.args[0])} // 10000)")

    # ------------------------------------------------------------------
    # Strings
    # ------------------------------------------------------------------
    def _op_str_contains(self, stmt):
        value, needle = (_atom(a) for a in stmt.expr.args)
        return self._assign(stmt, f"({needle} in {value})")

    def _op_str_startswith(self, stmt):
        value, needle = (_atom(a) for a in stmt.expr.args)
        return self._assign(stmt, f"{value}.startswith({needle})")

    def _op_str_endswith(self, stmt):
        value, needle = (_atom(a) for a in stmt.expr.args)
        return self._assign(stmt, f"{value}.endswith({needle})")

    def _op_str_like(self, stmt):
        pattern = stmt.expr.attrs["pattern"]
        return self._assign(stmt, f"_rt.like({_atom(stmt.expr.args[0])}, {pattern!r})")

    def _op_str_substr(self, stmt):
        start = stmt.expr.attrs["start"]
        length = stmt.expr.attrs["length"]
        return self._assign(stmt, f"{_atom(stmt.expr.args[0])}[{start - 1}:{start - 1 + length}]")

    def _op_str_in(self, stmt):
        values = literal_source(tuple(stmt.expr.attrs["values"]))
        return self._assign(stmt, f"({_atom(stmt.expr.args[0])} in {values})")

    # ------------------------------------------------------------------
    # Tuples
    # ------------------------------------------------------------------
    def _op_tuple_new(self, stmt):
        parts = ", ".join(_atom(a) for a in stmt.expr.args)
        suffix = "," if len(stmt.expr.args) == 1 else ""
        return self._assign(stmt, f"({parts}{suffix})")

    def _op_tuple_get(self, stmt):
        index = stmt.expr.attrs["index"]
        return self._assign(stmt, f"{_atom(stmt.expr.args[0])}[{index}]")

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    def _op_if_(self, stmt):
        cond = _atom(stmt.expr.args[0])
        then_block, else_block = stmt.expr.blocks
        target = _name(stmt.sym) if self._if_produces_value(stmt) else None
        lines = [f"if {cond}:"]
        lines.extend(_INDENT + line for line in self._nested(then_block, target))
        if else_block.stmts or target is not None:
            lines.append("else:")
            lines.extend(_INDENT + line for line in self._nested(else_block, target))
        return lines

    @staticmethod
    def _if_produces_value(stmt: Stmt) -> bool:
        then_block, else_block = stmt.expr.blocks
        def meaningful(block: Block) -> bool:
            result = block.result
            return not (isinstance(result, Const) and result.value is None)
        return meaningful(then_block) or meaningful(else_block)

    def _op_for_range(self, stmt):
        start, end = (_atom(a) for a in stmt.expr.args)
        body = stmt.expr.blocks[0]
        index = _name(body.params[0])
        # Top-level loops are the generated pipeline-breaker stages; their
        # heads route through the runtime's governed_range hook, which is a
        # native range when no query budget is installed and a ticking guard
        # when one is — in-loop cancellation even for fully fused queries.
        if self._loop_depth == 0:
            lines = [f"for {index} in _rt.governed_range({start}, {end}):"]
        else:
            lines = [f"for {index} in range({start}, {end}):"]
        lines.extend(_INDENT + line for line in self._loop_body(body))
        return lines

    # ------------------------------------------------------------------
    # Mutable variables
    # ------------------------------------------------------------------
    def _op_var_new(self, stmt):
        return self._assign(stmt, _atom(stmt.expr.args[0]))

    def _op_var_read(self, stmt):
        return self._assign(stmt, _atom(stmt.expr.args[0]))

    def _op_var_write(self, stmt):
        var, value = stmt.expr.args
        return [f"{_atom(var)} = {_atom(value)}"]

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def _op_record_new(self, stmt):
        fields = tuple(stmt.expr.attrs["fields"])
        layout = stmt.expr.attrs.get("layout", "boxed")
        values = [_atom(a) for a in stmt.expr.args]
        if layout == "row":
            suffix = "," if len(values) == 1 else ""
            return self._assign(stmt, f"({', '.join(values)}{suffix})")
        pairs = ", ".join(f"{name!r}: {value}" for name, value in zip(fields, values))
        return self._assign(stmt, "{" + pairs + "}")

    def _op_record_get(self, stmt):
        field = stmt.expr.attrs["field"]
        layout = stmt.expr.attrs.get("layout", "boxed")
        record = _atom(stmt.expr.args[0])
        if layout == "row":
            fields = tuple(stmt.expr.attrs["fields"])
            return self._assign(stmt, f"{record}[{fields.index(field)}]")
        return self._assign(stmt, f"{record}[{field!r}]")

    # ------------------------------------------------------------------
    # Arrays and lists
    # ------------------------------------------------------------------
    def _op_array_new(self, stmt):
        if stmt.expr.attrs.get("init_kind") == "empty_lists":
            return self._assign(stmt, f"[[] for _ in range({_atom(stmt.expr.args[0])})]")
        init = stmt.expr.attrs.get("init", None)
        return self._assign(stmt, f"[{init!r}] * {_atom(stmt.expr.args[0])}")

    def _op_array_get(self, stmt):
        array, index = (_atom(a) for a in stmt.expr.args)
        return self._assign(stmt, f"{array}[{index}]")

    def _op_array_set(self, stmt):
        array, index, value = (_atom(a) for a in stmt.expr.args)
        return [f"{array}[{index}] = {value}"]

    def _op_list_new(self, stmt):
        return self._assign(stmt, "[]")

    def _op_list_append(self, stmt):
        lst, value = (_atom(a) for a in stmt.expr.args)
        return [f"{lst}.append({value})"]

    def _op_list_take(self, stmt):
        lst, count = (_atom(a) for a in stmt.expr.args)
        return self._assign(stmt, f"{lst}[:{count}]")

    def _op_list_foreach(self, stmt):
        body = stmt.expr.blocks[0]
        element = _name(body.params[0])
        source = _atom(stmt.expr.args[0])
        if self._loop_depth == 0:
            source = f"_rt.governed_iter({source})"
        lines = [f"for {element} in {source}:"]
        lines.extend(_INDENT + line for line in self._loop_body(body))
        return lines

    def _op_list_sort_by_fields(self, stmt):
        keys = tuple(stmt.expr.attrs["keys"])
        layout = stmt.expr.attrs.get("layout", "boxed")
        fields = tuple(stmt.expr.attrs.get("fields", ()))
        return self._assign(
            stmt,
            f"_rt.sort_records({_atom(stmt.expr.args[0])}, {keys!r}, {layout!r}, {fields!r})")

    # ------------------------------------------------------------------
    # Generic hash containers (the GLib substitutes)
    # ------------------------------------------------------------------
    def _op_mmap_new(self, stmt):
        return self._assign(stmt, "{}")

    def _op_mmap_add(self, stmt):
        table, key, value = (_atom(a) for a in stmt.expr.args)
        return [f"{table}.setdefault({key}, []).append({value})"]

    def _op_mmap_get(self, stmt):
        table, key = (_atom(a) for a in stmt.expr.args)
        return self._assign(stmt, f"{table}.get({key}, ())")

    def _op_hashmap_agg_new(self, stmt):
        return self._assign(stmt, "{}")

    def _op_hashmap_agg_group(self, stmt):
        table, key = (_atom(a) for a in stmt.expr.args)
        starts = self._starts(stmt)
        if held_in_slot(stmt.expr.attrs["aggs"]):
            return self._assign(stmt, f"{table}.setdefault({key}, {starts})")
        return self._group(stmt, f"{table}.get({key})", "None", f"{table}[{key}]",
                           f"[{starts}]")

    def _op_hashmap_agg_set(self, stmt):
        return self._op_array_set(stmt)

    def _op_hashmap_agg_foreach(self, stmt):
        body = stmt.expr.blocks[0]
        key, record = (_name(p) for p in body.params)
        source = f"{_atom(stmt.expr.args[0])}.items()"
        if self._loop_depth == 0:
            source = f"_rt.governed_iter({source})"
        lines = [f"for {key}, {record} in {source}:"]
        lines.extend(_INDENT + line for line in self._loop_body(body))
        return lines

    # ------------------------------------------------------------------
    # Dense aggregation: a list of ``size`` slots, then the list of the slot
    # indexes in first-use order.  A slot no key has reached holds ``...``,
    # which no group can hold: ``None`` is a min or max slot's start.
    # ------------------------------------------------------------------
    def _op_dense_agg_new(self, stmt):
        return self._assign(stmt, f"[...] * {_atom(stmt.expr.args[0])} + [[]]")

    def _op_dense_agg_group(self, stmt):
        table, index = (_atom(a) for a in stmt.expr.args)
        starts = self._starts(stmt)
        if not held_in_slot(stmt.expr.attrs["aggs"]):
            starts = f"[{starts}]"
        return self._group(stmt, f"{table}[{index}]", "...", f"{table}[{index}]",
                           starts, f"{table}[-1].append({index})")

    def _op_dense_agg_set(self, stmt):
        return self._op_array_set(stmt)

    def _op_dense_agg_foreach(self, stmt):
        body = stmt.expr.blocks[0]
        index, record = (_name(p) for p in body.params)
        table = _atom(stmt.expr.args[0])
        source = f"{table}[-1]"
        if self._loop_depth == 0:
            source = f"_rt.governed_iter({source})"
        lines = [f"for {index} in {source}:", f"{_INDENT}{record} = {table}[{index}]"]
        lines.extend(_INDENT + line for line in self._loop_body(body))
        return lines

    @staticmethod
    def _starts(stmt: Stmt) -> str:
        """The starting values of a group's accumulator slots."""
        return ", ".join("set()" if start is set else repr(start)
                         for kind in stmt.expr.attrs["aggs"]
                         for start in AGGREGATES[kind].slots)

    @staticmethod
    def _group(stmt: Stmt, lookup: str, unseen: str, entry: str, start: str,
               *created: str) -> List[str]:
        """Get-or-create of a group's accumulator record or slot, inline."""
        group = _name(stmt.sym)
        return [f"{group} = {lookup}",
                f"if {group} is {unseen}:",
                f"{_INDENT}{group} = {entry} = {start}",
                *(_INDENT + line for line in created)]

    # ------------------------------------------------------------------
    # Sets
    # ------------------------------------------------------------------
    def _op_set_add(self, stmt):
        target, value = (_atom(a) for a in stmt.expr.args)
        return [f"{target}.add({value})"]

    def _op_set_size(self, stmt):
        return self._assign(stmt, f"len({_atom(stmt.expr.args[0])})")

    # ------------------------------------------------------------------
    # String dictionaries
    # ------------------------------------------------------------------
    def _op_strdict_code(self, stmt):
        dictionary, value = (_atom(a) for a in stmt.expr.args)
        return self._assign(stmt, f"{dictionary}.code({value})")

    # ------------------------------------------------------------------
    # Catalog-resident access layer
    # ------------------------------------------------------------------
    def _op_access_pruned_indices(self, stmt):
        table = stmt.expr.attrs["table"]
        filters = tuple(stmt.expr.attrs["filters"])
        db = _atom(stmt.expr.args[0])
        return self._assign(
            stmt, f"_rt.catalog_pruned_indices({db}, {table!r}, {filters!r})")

    def _op_access_partition(self, stmt):
        attrs = stmt.expr.attrs
        if "single" not in attrs:
            raise UnparserError(
                f"partition of {attrs['table']}.{attrs['column']} was never "
                "claimed by a hash-table lowering; its probes cannot be emitted")
        lo, hi = attrs["key_lo"], attrs["key_hi"]
        db = _atom(stmt.expr.args[0])
        return self._assign(
            stmt, f"_rt.catalog_partition({db}, {attrs['table']!r}, "
                  f"{attrs['column']!r}, {lo}, {hi - lo + 1}, {attrs['single']})")

    def _op_access_strdict(self, stmt):
        table = stmt.expr.attrs["table"]
        column = stmt.expr.attrs["column"]
        db = _atom(stmt.expr.args[0])
        return self._assign(
            stmt, f"_rt.catalog_dictionary({db}, {table!r}, {column!r})")

    def _op_access_strdict_codes(self, stmt):
        table = stmt.expr.attrs["table"]
        column = stmt.expr.attrs["column"]
        db = _atom(stmt.expr.args[0])
        return self._assign(
            stmt, f"_rt.catalog_dict_codes({db}, {table!r}, {column!r})")

    def _op_access_prefix_range(self, stmt):
        dictionary, prefix = (_atom(a) for a in stmt.expr.args)
        return self._assign(
            stmt, f"_rt.catalog_prefix_range({dictionary}, {prefix})")

    # ------------------------------------------------------------------
    # Database access
    # ------------------------------------------------------------------
    def _op_table_size(self, stmt):
        table = stmt.expr.attrs["table"]
        return self._assign(stmt, f"{_atom(stmt.expr.args[0])}.size({table!r})")

    def _op_table_column(self, stmt):
        table = stmt.expr.attrs["table"]
        column = stmt.expr.attrs["column"]
        return self._assign(stmt, f"{_atom(stmt.expr.args[0])}.column({table!r}, {column!r})")

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def _op_print_(self, stmt):
        return [f"print({_atom(stmt.expr.args[0])})"]
