"""The final lowering: ScaLite → C.Py (the unparser's input level).

In the paper this step introduces explicit memory management (malloc/free or
memory pools) and fixes the physical data layout before unparsing to C.  For
the Python target the host runtime owns memory and the record layout (boxed
dictionaries versus row tuples) is already decided upstream by the pipelining
lowering's target, so all that is left is re-labelling the program into the
C.Py language.

C.Py's op vocabulary equals ScaLite's: an op is registered only if something
in ``src/`` emits it (:mod:`repro.ir.ops`), and nothing emits an
explicit-memory op.  The first lowering that emits something ScaLite cannot
say (runtime library code lowered into the stack) adds its ops to this level.
"""
from __future__ import annotations

from ..ir.nodes import Program
from ..stack.context import CompilationContext
from ..stack.language import C_PY, Language, SCALITE
from ..stack.transformation import Lowering


class ScaLiteToCPy(Lowering):
    """Relabel a ScaLite program as C.Py."""

    name = "scalite-to-c.py"

    def __init__(self, source: Language = SCALITE, target: Language = C_PY) -> None:
        super().__init__(source, target)

    def run(self, program: Program, context: CompilationContext) -> Program:
        return Program(body=program.body, params=program.params,
                       language=self.target.name, hoisted=program.hoisted)
