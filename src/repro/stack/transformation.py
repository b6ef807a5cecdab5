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
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

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

    @property
    def is_optimization(self) -> bool:
        return self.source is self.target or self.source.level == self.target.level

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

    def __init__(self, language: Language) -> None:
        self.source = language
        self.target = language


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

    #: rounds over the step list that were started, the confirming one included
    iterations: int = 0
    #: names of the steps that changed the program, in order
    applied: List[str] = field(default_factory=list)
    #: every step run, changing or not
    runs: int = 0
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


def apply_fixpoint(steps: Sequence[Transformation], program, context,
                   max_iterations: int = 8,
                   observer: Optional[Callable] = None) -> tuple:
    """Run ``steps`` round-robin until the program stops changing.

    The one fixpoint loop of the repository: the stack drives a level's
    optimizations through it, the planner a sweep of its rewrite rules
    (:func:`repro.planner.rewrite.apply_rules_fixpoint`).  A step is anything
    with a ``name`` and ``run(program, context)``.

    Returns ``(program, report)``.  The pass contract makes "stopped
    changing" an O(1) fact: **a step that changes nothing returns its
    input**, so the fixed point is reached once every step in a row has
    returned the object it was given — the step right after the last changer
    is not run a second time to confirm it.  A hard bound on rounds guards
    against non-terminating step sets (the "special care" footnote of the
    paper); hitting the bound is reported rather than silently accepted.

    ``observer``, when given, is called as ``observer(step, before, after)``
    after every individual run — the hook the verifier uses to audit each
    transformation in isolation.  The default path pays no cost for it.
    """
    report = FixpointReport()
    if not steps:
        report.reached_fixpoint = True
        return program, report

    unchanged = 0  # consecutive runs that returned their input
    for _ in range(max_iterations):
        report.iterations += 1
        for step in steps:
            before = program
            program = step.run(program, context)
            report.runs += 1
            if observer is not None:
                observer(step, before, program)
            if program is before:
                unchanged += 1
                if unchanged == len(steps):
                    report.reached_fixpoint = True
                    return program, report
            else:
                unchanged = 0
                report.applied.append(step.name)
    return program, report
