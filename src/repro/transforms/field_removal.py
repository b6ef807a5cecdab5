"""Unused-struct-field removal, applied at the QPlan level.

Appendix C of the paper: attributes that a query never references are removed
from the record definitions and never loaded, which reduces memory pressure
and improves cache locality.  At the QPlan level this amounts to pruning the
field list of every ``Scan`` down to the columns actually referenced above it.
This optimization is one of the four disabled in the TPC-H-compliant
configuration of Section 7.

The pruning walk itself lives in :mod:`repro.planner.pruning` and is shared
with the logical plan optimizer; this stack optimization runs it in its
historical scan-only mode (the planner additionally prunes projections and
aggregates).
"""
from __future__ import annotations

from ..dsl import qplan as Q
from ..planner.pruning import prune_plan
from ..stack.context import CompilationContext
from ..stack.language import QPLAN
from ..stack.transformation import Optimization


class UnusedFieldRemoval(Optimization):
    """Prune scan field lists down to the columns the query references."""

    #: pruning does not change which columns the plan references
    enables = ()

    name = "unused-field-removal[QPlan]"

    def __init__(self) -> None:
        super().__init__(QPLAN)

    def run(self, plan: Q.Operator, context: CompilationContext) -> Q.Operator:
        return prune_plan(plan, context.catalog)
