"""Op-signature and type checking of ANF programs.

Two layers of checking, both driven by the op rows of :mod:`repro.ir.ops`:

* **structural** — every op is registered, applied with the declared arity,
  carries the static attributes its emission rule reads, and has the
  declared number of nested blocks with the declared parameter counts.
  These are unconditional: a violation is a guaranteed miscompile (the
  unparser would crash, or worse, silently emit wrong code).

* **type consistency** — the checker runs its *own* bottom-up inference
  over :mod:`repro.ir.types` (constants from their values, results from op
  semantics) instead of trusting the type annotations on symbols, which
  transformations are allowed to leave stale.  Rules fire only on types the
  inference actually derived, so a report is a real type confusion — an
  arithmetic op fed a string, an ordering comparison between a string and a
  number, a ``record_get`` for a field its defining ``record_new`` never
  constructed, a ``tuple_get`` past the end of its tuple.

When a catalog is supplied, table/column attributes (``table_column``,
``table_size``, the ``access_*`` and ``strdict_*`` ops) are
additionally resolved against the schema — the check that catches a field
removal or access-path rewrite baking in a column that does not exist.
"""
from __future__ import annotations

from typing import Any, Dict, Optional

from ..ir import ops as ir_ops
from ..ir.nodes import Atom, Block, Const, Expr, Program, Stmt, Sym
from ..ir.types import (BOOL, DATE, FLOAT, INT, STRING, Type, UNIT, UNKNOWN)
from .errors import VerificationError

#: types that support arithmetic / ordering against numbers
_NUMERIC = (INT, FLOAT, DATE, BOOL)


def _err(message: str, binding: Optional[str] = None) -> VerificationError:
    return VerificationError(message, check="types", binding=binding)


def _const_type(const: Const) -> Type:
    """The reliable type of a constant: derived from its value."""
    value = const.value
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT if const.type is not DATE else DATE
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, str):
        return STRING
    if value is None:
        return UNIT
    return UNKNOWN


class TypeChecker:
    """Signature and type-consistency checker for one ANF program."""

    def __init__(self, catalog: Optional[Any] = None) -> None:
        self.catalog = catalog
        #: inferred type per symbol id (program params stay UNKNOWN)
        self._types: Dict[int, Type] = {}
        #: defining expression per symbol id (for record/tuple resolution)
        self._defs: Dict[int, Expr] = {}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def check_program(self, program: Program) -> None:
        self._types = {param.id: UNKNOWN for param in program.params}
        self._defs = {}
        self._check_block(program.hoisted)
        self._check_block(program.body)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def _check_block(self, block: Block) -> None:
        for param in block.params:
            self._types.setdefault(param.id, UNKNOWN)
        for stmt in block.stmts:
            self._check_stmt(stmt)

    def _check_stmt(self, stmt: Stmt) -> None:
        expr = stmt.expr
        if expr.op not in ir_ops.REGISTRY:
            raise _err(f"unregistered op {expr.op!r}", binding=stmt.sym.name)
        op = ir_ops.REGISTRY.get(expr.op)
        self._check_shape(stmt, op)
        self._check_types(stmt, op)
        self._check_schema_refs(stmt, op)
        for nested in expr.blocks:
            self._check_block(nested)
        self._types[stmt.sym.id] = self._result_type(expr, op)
        self._defs[stmt.sym.id] = expr

    # ------------------------------------------------------------------
    # Structural checks
    # ------------------------------------------------------------------
    def _check_shape(self, stmt: Stmt, op: ir_ops.OpDef) -> None:
        expr = stmt.expr
        name = stmt.sym.name
        if op.variadic and len(expr.args) < op.arity:
            raise _err(
                f"{expr.op} expects at least {op.arity} "
                f"argument(s), got {len(expr.args)}", binding=name)
        if not op.variadic and len(expr.args) != op.arity:
            raise _err(
                f"{expr.op} expects {op.arity} argument(s), "
                f"got {len(expr.args)}", binding=name)
        for attr in op.attrs:
            if attr not in expr.attrs:
                raise _err(f"{expr.op} is missing required attribute "
                           f"{attr!r}", binding=name)
        if len(expr.blocks) != len(op.blocks):
            raise _err(
                f"{expr.op} expects {len(op.blocks)} nested block(s), "
                f"got {len(expr.blocks)}", binding=name)
        for i, (nested, expected) in enumerate(zip(expr.blocks, op.blocks)):
            if len(nested.params) != expected:
                raise _err(
                    f"{expr.op} block[{i}] expects {expected} "
                    f"parameter(s), got {len(nested.params)}",
                    binding=name)
        for arg in expr.args:
            if not isinstance(arg, (Sym, Const)):
                raise _err(f"{expr.op} applied to a non-atom argument "
                           f"{arg!r} — ANF operators take only symbols and "
                           "constants", binding=name)

    # ------------------------------------------------------------------
    # Type rules (fire only on types the local inference derived)
    # ------------------------------------------------------------------
    def _type_of(self, atom: Atom) -> Type:
        if isinstance(atom, Const):
            return _const_type(atom)
        return self._types.get(atom.id, UNKNOWN)

    def _check_types(self, stmt: Stmt, op: ir_ops.OpDef) -> None:
        expr = stmt.expr
        name = stmt.sym.name
        family = op.family
        types = [self._type_of(a) for a in expr.args]

        if family == "arith":
            for atom, tpe in zip(expr.args, types):
                if tpe in (STRING, UNIT):
                    raise _err(
                        f"arithmetic op {expr.op} applied to a {tpe!r} "
                        f"operand {atom!r}", binding=name)
        elif family == "compare":
            left, right = types
            if expr.op in ("lt", "le", "gt", "ge"):
                for atom, tpe in zip(expr.args, types):
                    if tpe is UNIT:
                        raise _err(
                            f"ordering comparison {expr.op} against the "
                            f"unit value {atom!r}", binding=name)
            if (left is STRING and right in _NUMERIC) or \
                    (right is STRING and left in _NUMERIC):
                raise _err(
                    f"comparison {expr.op} mixes a string and a numeric "
                    f"operand ({left!r} vs {right!r})", binding=name)
        elif family == "logic":
            for atom, tpe in zip(expr.args, types):
                if tpe in (STRING, UNIT):
                    raise _err(
                        f"boolean op {expr.op} applied to a {tpe!r} "
                        f"operand {atom!r}", binding=name)
        elif family == "string":
            subject = types[0]
            if subject in (INT, FLOAT, DATE, BOOL, UNIT):
                raise _err(
                    f"string op {expr.op} applied to a {subject!r} operand",
                    binding=name)
            if expr.op in ("str_contains", "str_startswith", "str_endswith"):
                needle = types[1]
                if needle not in (STRING, UNKNOWN):
                    raise _err(
                        f"string op {expr.op} with a non-string needle "
                        f"({needle!r})", binding=name)
            if expr.op == "str_substr":
                start = expr.attrs["start"]
                length = expr.attrs["length"]
                if not isinstance(start, int) or start < 1:
                    raise _err(f"str_substr start must be a 1-based int, "
                               f"got {start!r}", binding=name)
                if not isinstance(length, int) or length < 0:
                    raise _err(f"str_substr length must be a non-negative "
                               f"int, got {length!r}", binding=name)
        elif family == "control":
            if expr.op == "for_range":
                for atom, tpe in zip(expr.args, types):
                    if tpe in (STRING, FLOAT, UNIT):
                        raise _err(
                            f"for_range bound {atom!r} has non-integer type "
                            f"{tpe!r}", binding=name)
            if expr.op == "if_" and types and types[0] in (STRING, UNIT):
                raise _err(f"if_ condition has type {types[0]!r}",
                           binding=name)
        elif family == "record":
            self._check_record(stmt)
        elif family == "tuple":
            self._check_tuple(stmt)
        elif expr.op in ("array_get", "array_set"):
            index_type = types[1]
            if index_type in (STRING, FLOAT, UNIT):
                raise _err(
                    f"{expr.op} index has non-integer type {index_type!r}",
                    binding=name)

    def _check_record(self, stmt: Stmt) -> None:
        expr = stmt.expr
        name = stmt.sym.name
        if expr.op == "record_new":
            fields = tuple(expr.attrs["fields"])
            if len(fields) != len(expr.args):
                raise _err(
                    f"record_new declares {len(fields)} field(s) "
                    f"{list(fields)} but is applied to {len(expr.args)} "
                    "value(s)", binding=name)
            if len(set(fields)) != len(fields):
                raise _err(f"record_new declares duplicate fields "
                           f"{list(fields)}", binding=name)
            return
        # record_get
        field = expr.attrs["field"]
        layout = expr.attrs.get("layout", "boxed")
        if layout == "row":
            fields = tuple(expr.attrs.get("fields", ()))
            if field not in fields:
                raise _err(
                    f"record_get of field {field!r} from a row-layout "
                    f"record with fields {list(fields)}", binding=name)
        definition = self._definition(expr.args[0])
        if definition is not None and definition.op == "record_new":
            def_fields = tuple(definition.attrs.get("fields", ()))
            if field not in def_fields:
                raise _err(
                    f"record_get of field {field!r}, but the defining "
                    f"record_new only constructs {list(def_fields)}",
                    binding=name)

    def _check_tuple(self, stmt: Stmt) -> None:
        expr = stmt.expr
        if expr.op != "tuple_get":
            return
        index = expr.attrs["index"]
        if not isinstance(index, int) or index < 0:
            raise _err(f"tuple_get index must be a non-negative int, "
                       f"got {index!r}", binding=stmt.sym.name)
        definition = self._definition(expr.args[0])
        if definition is not None and definition.op == "tuple_new" \
                and index >= len(definition.args):
            raise _err(
                f"tuple_get index {index} out of range for a tuple of "
                f"{len(definition.args)} element(s)", binding=stmt.sym.name)

    def _definition(self, atom: Atom) -> Optional[Expr]:
        if isinstance(atom, Sym):
            return self._defs.get(atom.id)
        return None

    # ------------------------------------------------------------------
    # Schema resolution of table/column attributes
    # ------------------------------------------------------------------
    def _check_schema_refs(self, stmt: Stmt, op: ir_ops.OpDef) -> None:
        if self.catalog is None:
            return
        schema = getattr(self.catalog, "schema", None)
        if schema is None:
            return
        expr = stmt.expr
        table = expr.attrs.get("table")
        if table is None or op.family not in ("db", "access", "strdict"):
            return
        if not schema.has_table(table):
            raise _err(f"{expr.op} references unknown table {table!r}",
                       binding=stmt.sym.name)
        column = expr.attrs.get("column")
        if "column" in op.attrs and column is not None \
                and not schema.table(table).has_column(column):
            raise _err(
                f"{expr.op} references unknown column {table}.{column}",
                binding=stmt.sym.name)
        if expr.op == "access_pruned_indices":
            table_schema = schema.table(table)
            for entry in expr.attrs.get("filters", ()):
                filter_column = entry[0]
                if not table_schema.has_column(filter_column):
                    raise _err(
                        f"access_pruned_indices filter references unknown "
                        f"column {table}.{filter_column}",
                        binding=stmt.sym.name)

    # ------------------------------------------------------------------
    # Result-type inference
    # ------------------------------------------------------------------
    def _result_type(self, expr: Expr, op: ir_ops.OpDef) -> Type:
        if op.result is not None:
            return op.result
        if op.family == "arith":
            types = [self._type_of(a) for a in expr.args]
            if expr.op == "div":
                return FLOAT if all(t in _NUMERIC for t in types) else UNKNOWN
            if any(t is UNKNOWN for t in types):
                return UNKNOWN
            if all(t in _NUMERIC for t in types):
                return FLOAT if FLOAT in types else INT
            return UNKNOWN
        # conservatively UNKNOWN (a var_new's type may change by var_write)
        return UNKNOWN


def check_types(program: Program, catalog: Optional[Any] = None) -> None:
    """Module-level convenience wrapper around :class:`TypeChecker`."""
    TypeChecker(catalog).check_program(program)
