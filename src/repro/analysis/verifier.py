"""Facade over the four verifiers, used by the stack pipeline and the CLI.

Everything raises :class:`~repro.analysis.errors.VerificationError`, and
every entry point takes a ``phase`` so a failure is attributed to the
transformation that produced the bad program — the difference between
"query 19 is wrong" and "``DeadCodeElimination[ScaLite]`` dropped a live
binding".
"""
from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from ..ir.nodes import Program
from .codelint import lint_source
from .dataflow.checks import audit_dataflow_transition
from .effects_audit import audit_effects, audit_transition
from .errors import VerificationError
from .scope import check_scopes
from .typecheck import check_types


def _attributed(exc: VerificationError,
                phase: Optional[str]) -> VerificationError:
    return exc.with_phase(phase) if phase else exc


def check_language(program: Any, language: Any,
                   phase: Optional[str] = None) -> None:
    """Check the op vocabulary of ``program`` against one stack language.

    Wraps :meth:`repro.stack.language.Language.validate` so vocabulary
    violations surface as phase-attributed :class:`VerificationError`
    like every other check.
    """
    from ..stack.language import LanguageError
    try:
        language.validate(program)
    except LanguageError as exc:
        raise _attributed(
            VerificationError(str(exc), check="language"), phase) from None


def verify_program(program: Program, *, language: Any = None,
                   catalog: Any = None,
                   phase: Optional[str] = None) -> None:
    """Run the full static battery over one ANF program.

    Scope/def-use discipline, op signatures and type consistency (with
    schema resolution when a ``catalog`` is given), effect-declaration
    audit, and — when a ``language`` is given — the vocabulary check.
    """
    if not isinstance(program, Program):
        raise _attributed(VerificationError(
            f"expected an ANF program, got {type(program).__name__}"),
            phase)
    try:
        check_scopes(program)
        check_types(program, catalog)
        audit_effects(program)
    except VerificationError as exc:
        raise _attributed(exc, phase) from None
    if language is not None and getattr(language, "kind", "anf") == "anf":
        check_language(program, language, phase=phase)


def audit_optimization(before: Any, after: Any,
                       phase: Optional[str] = None,
                       catalog: Any = None,
                       justifications: Optional[Mapping[int, str]] = None) -> None:
    """Before/after legality audit of one optimization pass.

    Tree-level passes (QPlan/QMonad rewrites) are validated by the planner;
    this audit applies only when both sides are ANF programs.  On top of the
    effect-system transition audit (removals, write order, write targets),
    the dataflow cross-checks run: interval non-widening and control-unwrap
    justifications (``justifications`` maps the sym id of a rewritten
    binding to the pass's recorded reason; ``catalog`` seeds the value
    analysis that re-verifies those claims).
    """
    if isinstance(before, Program) and isinstance(after, Program):
        audit_transition(before, after, phase=phase)
        audit_dataflow_transition(before, after, catalog=catalog,
                                  justifications=justifications, phase=phase)


def confirm_fixpoint(steps: Sequence[Any], program: Any, context: Any,
                     report: Any) -> None:
    """The confirming round, as a check instead of a cost.

    ``report`` is what :func:`repro.stack.transformation.apply_fixpoint` said
    about running ``steps`` to the fixed point ``program``.  The worklist
    re-ran a step only when a step declaring that it ``enables`` it changed
    the program, so here every step runs once more: one that still changes
    the settled program was owed a run by a declaration that left it out.
    A fixpoint that stopped at the driver's bound is rejected the same way.
    """
    from ..stack.transformation import enabled_by
    if not report.reached_fixpoint:
        raise VerificationError(
            f"no fixed point: still queued after {report.runs} runs in "
            f"{report.iterations} passes over the step list (last changes: "
            f"{', '.join(report.applied[-len(steps):])})", check="fixpoint")
    for position, step in enumerate(steps):
        if step.run(program, context) is program:
            continue
        owed = type(step).__name__
        silent = [other.name for other in steps if other.name in report.applied
                  and position not in enabled_by(other, steps)]
        blame = (f"{', '.join(silent)} changed it without declaring `enables` "
                 f"of {owed}") if silent else (
            f"every step that changed it declares `enables` of {owed}: an "
            "`enables_after` left it out of one run")
        raise VerificationError(
            f"still changes the program the worklist settled on: {blame}",
            check="fixpoint", phase=step.name)


def verify_source(source: str, phase: Optional[str] = None) -> None:
    """Lint generated Python source before it is ``exec``'d."""
    lint_source(source, phase=phase)
