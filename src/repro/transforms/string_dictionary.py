"""String dictionaries (Section 5.3, Table 2 of the paper).

String comparisons are among the most expensive per-tuple operations of a
query.  This optimization, applied at the ScaLite[Map, List] level, detects
comparisons between a base-table string column and constant strings, reads
the dictionary of that column and the column's integer encoding — both built
once at data-loading time — and rewrites the comparisons into integer
comparisons:

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
column encoding are data-loading work, which is why this optimization is not
TPC-H compliant.

The dictionaries are the **catalog-resident** ones of the physical access
layer (:meth:`repro.storage.access.AccessLayer.dictionary`), built once per
loaded table and shared with the vectorized engine's predicate rewrite; the
hoisted block only fetches a dictionary and its per-row code column.  Catalog
dictionaries are always sorted, hence always order-preserving.  A column the
layer declines (near-unique or non-string data) — and every column when the
``catalog_access_layer`` flag is off — keeps its string comparisons.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
        columns = {column for column, _ in candidates}

        # Fetch the catalog's sorted dictionaries and their shared code
        # columns in the hoisted block: nothing is encoded per query, and
        # every compiled query (and the vectorized engine) reads the same
        # structures.
        hoisted_stmts = list(program.hoisted.stmts)
        dictionaries: Dict[Tuple[str, str], Tuple[Sym, Sym]] = {}
        db = program.params[0]
        for table, column in sorted(columns):
            dictionary = Sym("sdict")
            encoded = Sym("enccol")
            hoisted_stmts.append(Stmt(dictionary, Expr(
                "access_strdict", (db,), {"table": table, "column": column})))
            hoisted_stmts.append(Stmt(encoded, Expr(
                "access_strdict_codes", (db,), {"table": table, "column": column})))
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
                    # the inclusive [lo, hi] range of the ge/le comparisons
                    # emitted below
                    hoisted_stmts.append(Stmt(rng, Expr("access_prefix_range",
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
    # Candidate discovery
    # ------------------------------------------------------------------
    def _find_candidates(self, program: Program, defs, context: CompilationContext
                         ) -> List[Tuple[Tuple[str, str], Stmt]]:
        """The comparisons over a column whose dictionary the catalog's
        access layer serves.

        Asked at compile time against the compilation catalog: the layer
        builds lazily and memoizes on the catalog, so asking here *is* the
        load-time construction — every later query (compiled or direct)
        reuses the same object.  The layer declines non-string columns and
        near-unique ones, where a dictionary hurts (Section 5.3).
        """
        catalog = context.catalog
        if catalog is None or not (context.flags.catalog_access_layer
                                   and hasattr(catalog, "access_layer")):
            return []
        layer = catalog.access_layer()
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
            if traced is not None and layer.dictionary(*traced) is not None:
                candidates.append((traced, stmt))
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
