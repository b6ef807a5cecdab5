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

import time
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

    def applies(self, context: CompilationContext) -> bool:
        """Whether this transformation is enabled under the given context.

        Optimizations may be switched off by configuration flags; lowerings
        must always apply (Section 2.2), so they return ``True``.
        """
        return True

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
    """A transformation that stays within one language."""

    #: name of the :class:`OptimizationFlags` attribute gating this optimization
    flag: Optional[str] = None

    def __init__(self, language: Language) -> None:
        self.source = language
        self.target = language

    def applies(self, context: CompilationContext) -> bool:
        if self.flag is None:
            return True
        return bool(getattr(context.flags, self.flag, False))


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
                 fn: Callable[[Program, CompilationContext], Program],
                 flag: Optional[str] = None) -> None:
        super().__init__(language)
        self.name = name
        self.fn = fn
        self.flag = flag

    def run(self, program, context: CompilationContext):
        return self.fn(program, context)


@dataclass
class FixpointReport:
    """What happened while optimizing one abstraction level."""

    language: str
    #: rounds over the optimization list that were started
    iterations: int = 0
    #: names of the passes that changed the program, in order
    applied: List[str] = field(default_factory=list)
    #: every pass run, changing or not
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


def apply_fixpoint(optimizations: Sequence[Optimization], program,
                   context: CompilationContext, max_iterations: int = 8,
                   observer: Optional[Callable] = None) -> tuple:
    """Apply ``optimizations`` round-robin until the program stops changing.

    Returns ``(program, report)``.  The pass contract makes "stopped
    changing" an O(1) fact: **a pass that changes nothing returns its
    input**, so the fixed point is reached once every applicable pass in a
    row has returned the object it was given — the pass right after the last
    changer is not run a second time to confirm it.  A hard bound on rounds
    guards against non-terminating optimization sets (the "special care"
    footnote of the paper); hitting the bound is reported rather than
    silently accepted.

    ``observer``, when given, is called as ``observer(opt, before, after)``
    after every individual pass — the hook the verifier uses to audit each
    transformation in isolation.  The default path pays no cost for it.
    """
    report = FixpointReport(language=optimizations[0].source.name if optimizations else "")
    applicable = [opt for opt in optimizations if opt.applies(context)]
    if not applicable:
        report.reached_fixpoint = True
        return program, report

    unchanged = 0  # consecutive runs that returned their input
    for _ in range(max_iterations):
        report.iterations += 1
        for opt in applicable:
            start = time.perf_counter()
            before = program
            program = opt.run(program, context)
            context.record_phase(opt.name, "optimization", time.perf_counter() - start,
                                 detail=opt.source.name)
            report.runs += 1
            if observer is not None:
                observer(opt, before, program)
            if program is before:
                unchanged += 1
                if unchanged == len(applicable):
                    report.reached_fixpoint = True
                    return program, report
            else:
                unchanged = 0
                report.applied.append(opt.name)
    return program, report
