"""Shared program-analysis helpers for the IR-level transformations.

``definition_map`` used to rebuild its map on every call, once per pass per
fixpoint iteration.  It now delegates to the memoized use-def facts of the
dataflow framework (:func:`repro.analysis.dataflow.use_def`): the map is
computed once per program object, kept across the passes that return the
program unchanged, and invalidated automatically on rewrite, because a
transformation that changes anything builds a *new*
:class:`~repro.ir.nodes.Program`.  Treat the returned map as read-only — it
is shared between all passes that ask about the same program.
"""
from __future__ import annotations

from typing import Dict, Optional

from ..analysis.dataflow.framework import use_def
from ..ir.nodes import Atom, Program, Stmt, Sym


def definition_map(program: Program) -> Dict[int, Stmt]:
    """Map every symbol id to the statement defining it (memoized; read-only)."""
    return use_def(program).defs


def trace_to_table_column(atom: Atom, defs: Dict[int, Stmt]) -> Optional[tuple]:
    """If ``atom`` is (a read of) a base-table column value, return ``(table, column)``.

    Recognises the pattern ``x = array_get(col, i)`` with
    ``col = table_column(db)[table, column]`` produced by the scan lowering.
    """
    if not isinstance(atom, Sym):
        return None
    stmt = defs.get(atom.id)
    if stmt is None:
        return None
    expr = stmt.expr
    if expr.op == "array_get":
        return trace_to_table_column(expr.args[0], defs)
    if expr.op == "table_column":
        return (expr.attrs["table"], expr.attrs["column"])
    return None
