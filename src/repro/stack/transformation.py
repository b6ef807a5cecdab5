"""Transformation base classes and the fixed-point driver.

Section 2.2 of the paper distinguishes two kinds of code transformations:

* **optimizations**, whose source and target languages are the same, and
* **lowerings**, whose target language is at a strictly lower abstraction
  level.

Optimizations are applied recursively inside one abstraction level until a
fixed point is reached ("either no more optimizations can be applied or the
application of an optimization does not yield structurally different code"),
which mitigates the phase-ordering problem.  Lowerings are applied exactly
once and must always be applicable.

The fixed point is found by a **worklist**, not by re-running everything
until a whole round is quiet (:func:`apply_fixpoint`): every step starts
queued, and a step that changes the program re-queues only the steps it
declares it can give new work (:attr:`Optimization.enables`).  A step that
declares nothing re-queues every step, itself included — the round-robin
this driver used to be — and a step whose changes differ in what they enable
may name fewer classes for one change (:meth:`Optimization.enables_after`).
Nothing re-runs merely to learn that nothing changed; that confirmation is a
check the verifier makes
(:func:`repro.analysis.verifier.confirm_fixpoint`, under ``verify=True``),
which is also what holds the declarations to the truth.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..ir.nodes import Program
from ..ir.pretty import fingerprint
from .context import CompilationContext
from .language import Language


class TransformationError(Exception):
    """A transformation was mis-declared or failed to apply."""


class Transformation:
    """Base class of every code transformation in the stack."""

    #: subclasses set these as class attributes (or via __init__)
    name: str = "transformation"
    source: Language
    target: Language

    def run(self, program, context: CompilationContext):
        """Transform ``program`` and return the transformed program."""
        raise NotImplementedError

    @property
    def is_lowering(self) -> bool:
        return self.source.level > self.target.level

    def validate_declaration(self) -> None:
        """Check the declaration against the expressibility principle.

        A transformation whose target is at a *higher* level than its source
        would violate the transformation-cohesion principle (it would create a
        loop in the stack), so it is rejected outright.
        """
        if self.source.level < self.target.level:
            raise TransformationError(
                f"{self.name}: target language {self.target.name} is higher-level than "
                f"source {self.source.name}; upward transformations are forbidden")

    def __repr__(self) -> str:
        kind = "lowering" if self.is_lowering else "optimization"
        return f"<{kind} {self.name}: {self.source.name} -> {self.target.name}>"


class Optimization(Transformation):
    """A transformation that stays within one language.

    A stack runs exactly the optimizations it lists: there is no switch
    beside the list."""

    #: The pass classes whose instances may find new work in a program this
    #: pass has just changed — what :func:`apply_fixpoint` re-queues.  A pass
    #: is enabled by what it *reads*, so the declaration is reasoned from what
    #: this pass *rewrites*.  ``None`` (what :class:`FunctionOptimization` and
    #: any pass that says nothing gets) means every step, itself included;
    #: ``()`` means the change creates work for nobody, not even a second run
    #: of this pass.  A declaration that misses an edge costs a weaker program,
    #: never a wrong one, and ``verify=True`` raises on it.
    enables: Optional[Tuple[type, ...]] = None

    def __init__(self, language: Language) -> None:
        self.source = language
        self.target = language

    def enables_after(self, before) -> Optional[Tuple[type, ...]]:
        """What this pass enabled by changing ``before``: :attr:`enables`.

        A pass whose changes differ in what they enable, and that can tell
        which kind it made from the program it changed, overrides this to
        name fewer classes for that one run (dead-code elimination does).
        """
        return self.enables


class Lowering(Transformation):
    """A transformation from one language to the next lower one."""

    def __init__(self, source: Language, target: Language) -> None:
        self.source = source
        self.target = target
        self.validate_declaration()
        if not self.is_lowering:
            raise TransformationError(
                f"{self.name}: a lowering must strictly decrease the abstraction level")


class FunctionOptimization(Optimization):
    """An optimization defined by a plain function (useful for tests/ablations)."""

    def __init__(self, language: Language, name: str,
                 fn: Callable[[Program, CompilationContext], Program]) -> None:
        super().__init__(language)
        self.name = name
        self.fn = fn

    def run(self, program, context: CompilationContext):
        return self.fn(program, context)


@dataclass
class FixpointReport:
    """What happened while one step list ran to its fixed point."""

    #: passes over the step list in which at least one queued step ran (a
    #: single-step list — the planner's rule sweep — counts its runs)
    iterations: int = 0
    #: names of the steps that changed the program, in order
    applied: List[str] = field(default_factory=list)
    #: every step run, changing or not
    runs: int = 0
    #: steps put back on the worklist by a step that changed the program
    requeued: int = 0
    #: False when the bound on runs was hit with steps still queued
    reached_fixpoint: bool = False


def program_fingerprint(program) -> str:
    """Structural fingerprint of a program at any level.

    The fixpoint driver does not use it — a pass that changes nothing returns
    its input, so convergence is an identity check.  The verifier does, to
    hold passes to that contract.
    """
    if isinstance(program, Program):
        return fingerprint(program)
    # Tree (front-end) programs provide their own structural representation.
    return repr(program)


def enabled_by(step, steps: Sequence, before=None) -> List[int]:
    """Positions in ``steps`` of the steps ``step`` re-queues when it changes
    the program: every one unless it declares :attr:`Optimization.enables`.
    With ``before`` — the program of the run that changed — the pass is asked
    what that one change enabled (:meth:`Optimization.enables_after`)."""
    if before is not None and hasattr(step, "enables_after"):
        enables = step.enables_after(before)
    else:
        enables = getattr(step, "enables", None)
    if enables is None:
        return list(range(len(steps)))
    return [i for i, other in enumerate(steps) if isinstance(other, enables)]


def apply_fixpoint(steps: Sequence[Transformation], program, context,
                   max_iterations: int = 8,
                   observer: Optional[Callable] = None) -> tuple:
    """Run ``steps`` off a worklist until no step has anything left to do.

    The one fixpoint loop of the repository: the stack drives a level's
    optimizations through it, the planner a sweep of its rewrite rules
    (:func:`repro.planner.rewrite.apply_rules_fixpoint`).  A step is anything
    with a ``name`` and ``run(program, context)``.

    Every step starts queued.  Queued steps run in list order, pass after
    pass over the list; the pass contract — **a step that changes nothing
    returns its input** — makes "changed" an O(1) identity test, and a step
    that did change the program re-queues the steps it ``enables`` (every
    step, itself included, when it declares nothing: then this is exactly a
    round-robin that stops once every step in a row has returned its input).
    The loop ends when the queue is empty.  Returns ``(program, report)``.

    A hard bound of ``max_iterations`` passes over the list — at most
    ``max_iterations * len(steps)`` runs — guards against non-terminating
    step sets (the "special care" footnote of the paper); hitting it is
    reported (``reached_fixpoint`` false; :meth:`DslStack.compile` writes it
    into the phase detail and raises under ``verify=True``) rather than
    silently accepted.

    ``observer``, when given, is called as ``observer(step, before, after)``
    after every individual run — the hook the verifier uses to audit each
    transformation in isolation.  The default path pays no cost for it.
    """
    report = FixpointReport()
    queued = [True] * len(steps)
    waiting = len(steps)
    while waiting and report.iterations < max_iterations:
        report.iterations += 1
        for position, step in enumerate(steps):
            if not queued[position]:
                continue
            queued[position] = False
            waiting -= 1
            before = program
            program = step.run(program, context)
            report.runs += 1
            if observer is not None:
                observer(step, before, program)
            if program is not before:
                report.applied.append(step.name)
                for other in enabled_by(step, steps, before):
                    if not queued[other]:
                        queued[other] = True
                        waiting += 1
                        report.requeued += 1
    report.reached_fixpoint = not waiting
    return program, report
