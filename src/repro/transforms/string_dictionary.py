"""String dictionaries (Section 5.3, Table 2 of the paper).

String comparisons are among the most expensive per-tuple operations of a
query.  This optimization, applied at the ScaLite[Map, List] level, detects
comparisons between a base-table string column and constant strings, builds a
dictionary for that column at data-loading time, integer-encodes the column
once, and rewrites the comparisons into integer comparisons:

==============  ===========================  =========================
operation       before                       after
==============  ===========================  =========================
equals          ``strcmp(x, y) == 0``        ``x == y`` (codes)
notEquals       ``strcmp(x, y) != 0``        ``x != y`` (codes)
startsWith      ``strncmp(x, y, len(y))==0`` ``start <= x <= end``
IN (v1, .. vn)  n string comparisons          n integer comparisons
==============  ===========================  =========================

``startsWith`` requires an *order-preserving* dictionary so that the strings
with a given prefix form a contiguous code range.  Dictionary building and
column encoding are charged to data loading (the hoisted block), which is why
this optimization is not TPC-H compliant.

With the ``catalog_access_layer`` flag the hoisted section does not build and
encode anything per query: it fetches the **catalog-resident** sorted
dictionary and its shared per-row code column from the physical access layer
(:meth:`repro.storage.access.AccessLayer.dictionary`) — the same structures
the vectorized engine's predicate rewrite uses — so a whole workload of
compiled queries encodes each column exactly once per loaded database.
Catalog dictionaries are always sorted, hence always order-preserving; the
per-query path remains the fallback for columns the access layer declines
(near-unique or non-string data).
"""
from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir.nodes import Atom, Block, Const, Expr, Program, Stmt, Sym
from ..ir.traversal import BlockRewriter, iter_stmts
from ..ir.types import BOOL, INT
from ..stack.context import CompilationContext
from ..stack.language import Language, SCALITE_MAP_LIST
from ..stack.transformation import Optimization
from .analysis import definition_map, trace_to_table_column

#: comparison ops that can be retargeted onto dictionary codes
_REWRITABLE = {"eq", "ne", "str_startswith", "str_in"}


class StringDictionaries(Optimization):
    """Rewrite constant string comparisons into integer comparisons."""

    #: every candidate is rewritten in one run and what it becomes compares
    #: integer codes, which is not a candidate
    enables = ()

    def __init__(self, language: Language = SCALITE_MAP_LIST) -> None:
        super().__init__(language)
        self.name = f"string-dictionaries[{language.name}]"

    # ------------------------------------------------------------------
    def run(self, program: Program, context: CompilationContext) -> Program:
        defs = definition_map(program)
        candidates = self._find_candidates(program, defs, context)
        if not candidates:
            return program

        # Which columns need an order-preserving dictionary?
        ordered_columns: Set[Tuple[str, str]] = {
            column for column, stmt in candidates if stmt.expr.op == "str_startswith"}
        columns = {column for column, _ in candidates}

        # Build (or, with the catalog access layer, fetch) dictionaries and
        # encoded columns in the hoisted block.
        catalog_backed = self._catalog_backed_columns(columns, context)
        hoisted_stmts = list(program.hoisted.stmts)
        dictionaries: Dict[Tuple[str, str], Tuple[Sym, Sym]] = {}
        db = program.params[0]
        for table, column in sorted(columns):
            dictionary = Sym("sdict")
            encoded = Sym("enccol")
            if (table, column) in catalog_backed:
                # The catalog's sorted dictionary and its shared code column:
                # nothing is re-encoded per query, and every compiled query
                # (and the vectorized engine) reads the same structures.
                hoisted_stmts.append(Stmt(dictionary, Expr(
                    "access_strdict", (db,),
                    {"table": table, "column": column})))
                hoisted_stmts.append(Stmt(encoded, Expr(
                    "access_strdict_codes", (db,),
                    {"table": table, "column": column})))
            else:
                raw = Sym("sdcol", type=INT)
                hoisted_stmts.append(Stmt(raw, Expr("table_column", (db,),
                                                    {"table": table, "column": column})))
                hoisted_stmts.append(Stmt(dictionary, Expr(
                    "strdict_build", (raw,),
                    {"table": table, "column": column,
                     "ordered": (table, column) in ordered_columns})))
                hoisted_stmts.append(Stmt(encoded, Expr("strdict_encode_column",
                                                        (dictionary, raw), {})))
            dictionaries[(table, column)] = (dictionary, encoded)

        # Pre-compute constant codes / prefix ranges in the hoisted block.
        codes: Dict[Tuple[str, str, str, str], Sym] = {}
        for (table, column), stmt in candidates:
            dictionary, _ = dictionaries[(table, column)]
            for kind, text in self._constants_of(stmt):
                key = (table, column, kind, text)
                if key in codes:
                    continue
                if kind == "prefix":
                    rng = Sym("sdrange")
                    # both range ops share the inclusive [lo, hi] contract of
                    # the ge/le comparisons emitted below
                    range_op = ("access_prefix_range"
                                if (table, column) in catalog_backed
                                else "strdict_prefix_range")
                    hoisted_stmts.append(Stmt(rng, Expr(range_op,
                                                        (dictionary, Const(text)), {})))
                    lo = Sym("sdlo", type=INT)
                    hoisted_stmts.append(Stmt(lo, Expr("tuple_get", (rng,), {"index": 0})))
                    hi = Sym("sdhi", type=INT)
                    hoisted_stmts.append(Stmt(hi, Expr("tuple_get", (rng,), {"index": 1})))
                    codes[key] = (lo, hi)  # type: ignore[assignment]
                else:
                    code = Sym("sdcode", type=INT)
                    hoisted_stmts.append(Stmt(code, Expr("strdict_code",
                                                         (dictionary, Const(text)), {})))
                    codes[key] = code

        columns_by_sym = {stmt.sym.id: column for column, stmt in candidates}

        def rewrite(stmt: Stmt, rewriter: BlockRewriter) -> Optional[Atom]:
            if stmt.sym.id not in columns_by_sym:
                return None
            table_column_pair = columns_by_sym[stmt.sym.id]
            _, encoded = dictionaries[table_column_pair]
            value_sym = self._string_operand(stmt)
            definition = defs[value_sym.id]
            index_atom = definition.expr.args[1]
            code_value = rewriter.emit("array_get", [encoded, index_atom],
                                       tpe=INT, hint="scode")
            table, column = table_column_pair
            if stmt.expr.op in ("eq", "ne"):
                text = self._other_operand(stmt).value
                code_const = codes[(table, column, "value", text)]
                return rewriter.emit(stmt.expr.op, [code_value, code_const],
                                     tpe=BOOL, hint="cmp")
            if stmt.expr.op == "str_startswith":
                text = stmt.expr.args[1].value
                lo, hi = codes[(table, column, "prefix", text)]
                above = rewriter.emit("ge", [code_value, lo], tpe=BOOL)
                below = rewriter.emit("le", [code_value, hi], tpe=BOOL)
                return rewriter.emit("and_", [above, below], tpe=BOOL, hint="inrange")
            if stmt.expr.op == "str_in":
                values = tuple(stmt.expr.attrs["values"])
                result: Optional[Sym] = None
                for text in values:
                    code_const = codes[(table, column, "value", text)]
                    comparison = rewriter.emit("eq", [code_value, code_const], tpe=BOOL)
                    result = comparison if result is None else \
                        rewriter.emit("or_", [result, comparison], tpe=BOOL)
                return result
            return None

        body = BlockRewriter(rewrite).rewrite_block(program.body)
        context.info.setdefault("string_dictionary_columns", set()).update(columns)
        return Program(body=body, params=program.params, language=program.language,
                       hoisted=Block(hoisted_stmts, program.hoisted.result,
                                     program.hoisted.params))

    # ------------------------------------------------------------------
    # Catalog-backed dictionaries
    # ------------------------------------------------------------------
    @staticmethod
    def _catalog_backed_columns(columns: Set[Tuple[str, str]],
                                context: CompilationContext
                                ) -> Set[Tuple[str, str]]:
        """The columns whose dictionary the catalog's access layer serves.

        Consulted at compile time against the compilation catalog: the access
        layer builds lazily and memoizes on the catalog, so asking here *is*
        the load-time construction — every later query (compiled or direct)
        reuses the same object.  Columns the layer declines (near-unique,
        non-string values) keep the per-query hoisted build.
        """
        if not context.flags.catalog_access_layer:
            return set()
        catalog = context.catalog
        if catalog is None or not hasattr(catalog, "access_layer"):
            return set()
        layer = catalog.access_layer()
        return {(table, column) for table, column in columns
                if layer.dictionary(table, column) is not None}

    # ------------------------------------------------------------------
    # Candidate discovery
    # ------------------------------------------------------------------
    def _find_candidates(self, program: Program, defs, context
                         ) -> List[Tuple[Tuple[str, str], Stmt]]:
        catalog = context.catalog
        candidates: List[Tuple[Tuple[str, str], Stmt]] = []
        for stmt, _ in iter_stmts(program.body):
            if stmt.expr.op not in _REWRITABLE:
                continue
            operand = self._string_operand(stmt)
            if operand is None:
                continue
            if not self._constants_of(stmt):
                continue
            definition = defs.get(operand.id)
            if definition is None or definition.expr.op != "array_get":
                continue
            traced = trace_to_table_column(operand, defs)
            if traced is None:
                continue
            table, column = traced
            if catalog is not None:
                column_type = catalog.schema.table(table).column_type(column)
                from ..ir.types import STRING
                if column_type is not STRING:
                    continue
                # String dictionaries hurt for near-unique attributes (Section
                # 5.3): skip columns whose values are (almost) all distinct.
                if catalog.statistics.column(table, column).is_near_unique:
                    continue
            candidates.append(((table, column), stmt))
        return candidates

    @staticmethod
    def _string_operand(stmt: Stmt) -> Optional[Sym]:
        args = stmt.expr.args
        if stmt.expr.op in ("eq", "ne"):
            if len(args) == 2 and isinstance(args[0], Sym) and isinstance(args[1], Const) \
                    and isinstance(args[1].value, str):
                return args[0]
            return None
        if stmt.expr.op == "str_startswith":
            if isinstance(args[0], Sym) and isinstance(args[1], Const):
                return args[0]
            return None
        if stmt.expr.op == "str_in":
            values = stmt.expr.attrs.get("values", ())
            if isinstance(args[0], Sym) and values and all(isinstance(v, str) for v in values):
                return args[0]
            return None
        return None

    @staticmethod
    def _constants_of(stmt: Stmt) -> List[Tuple[str, str]]:
        if stmt.expr.op in ("eq", "ne"):
            constant = stmt.expr.args[1]
            if isinstance(constant, Const) and isinstance(constant.value, str):
                return [("value", constant.value)]
            return []
        if stmt.expr.op == "str_startswith":
            return [("prefix", stmt.expr.args[1].value)]
        if stmt.expr.op == "str_in":
            return [("value", text) for text in stmt.expr.attrs.get("values", ())]
        return []

    @staticmethod
    def _other_operand(stmt: Stmt) -> Const:
        return stmt.expr.args[1]
