"""Static analysis of the compilation stack: the miscompile-detection layer.

The paper's argument for a stack of small transformations over typed,
multi-level IRs is maintainability — but a deep rewrite stack is only
maintainable if a transformation that emits a broken program is caught *at
the phase that produced it*, not three lowerings later by a wrong TPC-H
answer.  This package is that safety net, four cooperating verifiers:

* :mod:`repro.analysis.scope` — def-use discipline of ANF programs: every
  symbol defined before use, bound exactly once, never referenced outside
  the scope that binds it.
* :mod:`repro.analysis.typecheck` — each op's shape as its
  :mod:`repro.ir.ops` row states it (arity, required static attributes,
  nested-block shapes) and type-consistency rules checked against
  :mod:`repro.ir.types`.
* :mod:`repro.analysis.effects_audit` — each op's declared
  :mod:`repro.ir.effects` summary against its actual use, plus
  before/after legality of optimizations (DCE removed only
  ``removable_if_unused`` bindings, nothing reordered non-reorderable
  effects).
* :mod:`repro.analysis.codelint` — an ``ast``-level lint of the unparser's
  Python output run before ``exec``.

:func:`repro.analysis.verifier.verify_program` is the facade the stack
pipeline calls between phases; ``python -m repro.analysis.verify`` drives
the whole battery over the 22 TPC-H queries.
"""
from .errors import VerificationError
from .verifier import (audit_optimization, check_language, confirm_fixpoint,
                       verify_program, verify_source)

__all__ = [
    "VerificationError",
    "audit_optimization",
    "check_language",
    "confirm_fixpoint",
    "verify_program",
    "verify_source",
]
