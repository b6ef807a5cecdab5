"""Scalar replacement and struct flattening (Appendix C of the paper).

``record_get`` of a record that was just constructed with ``record_new`` in an
enclosing scope is replaced by the original field value, removing a memory
access from the critical path.  Records whose every use disappears this way
are then removed by dead-code elimination, which flattens the struct into
local variables.
"""
from __future__ import annotations

from typing import Optional, Tuple

from ..ir.nodes import Atom, Program, Stmt, Sym
from ..ir.traversal import BlockRewriter, rewrite_program
from ..stack.context import CompilationContext
from ..stack.language import Language
from ..stack.transformation import Optimization
from .analysis import definition_map
from .dce import DeadCodeElimination
from .folding import DataflowFolding
from .licm import LoopInvariantHoisting
from .memory_hoisting import MemoryAllocationHoisting


class ScalarReplacement(Optimization):
    """Forward record fields read back out of freshly constructed records."""

    #: a forwarded field hands its consumers a constant or an outer symbol
    #: (folding, invariance, loading-time evaluation) and leaves the record
    #: dead; nested reads forward in the same run, so not itself
    enables = (DataflowFolding, LoopInvariantHoisting, DeadCodeElimination,
               MemoryAllocationHoisting)

    def __init__(self, language: Language) -> None:
        super().__init__(language)
        self.name = f"scalar-replacement[{language.name}]"

    def run(self, program: Program, context: CompilationContext) -> Program:
        defs = definition_map(program)

        def forward(stmt: Stmt, rewriter: BlockRewriter) -> Optional[Atom]:
            if stmt.expr.op != "record_get":
                return None
            record = stmt.expr.args[0]
            if not isinstance(record, Sym):
                return None
            definition = defs.get(record.id)
            if definition is None or definition.expr.op != "record_new":
                return None
            fields: Tuple[str, ...] = tuple(definition.expr.attrs["fields"])
            field = stmt.expr.attrs["field"]
            if field not in fields:
                return None
            return definition.expr.args[fields.index(field)]

        return rewrite_program(program, forward, language=program.language)
