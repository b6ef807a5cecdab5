"""The DSL stack: languages, transformations, principle checks and compilation.

This module is the heart of the paper's contribution: instead of a monolithic
template expander, the compiler is assembled from independent abstraction
levels.  :class:`DslStack` owns the set of languages and transformations,
verifies the two design principles of Section 2 when it is constructed, and
drives compilation by alternating fixed-point optimization within a level with
a single lowering to the next level.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .context import CompilationContext
from .language import Language
from .transformation import (Lowering, Optimization, apply_fixpoint,
                             program_fingerprint)


class StackValidationError(Exception):
    """The stack violates the expressibility or transformation-cohesion principle."""


@dataclass
class PhaseResult:
    """Trace entry describing one phase of a compilation run."""

    name: str
    kind: str                    # "optimization-fixpoint" | "lowering"
    language: str
    seconds: float
    detail: str = ""
    #: how the worklist of an ``"optimization-fixpoint"`` phase went: pass
    #: runs, runs that changed the program, steps put back on the worklist
    #: (all 0 for a lowering); ``detail`` names the passes that changed it
    runs: int = 0
    changed: int = 0
    requeued: int = 0


@dataclass
class CompilationResult:
    """The outcome of pushing a program through the stack."""

    program: object
    language: Language
    phases: List[PhaseResult] = field(default_factory=list)


class DslStack:
    """A stack of DSLs with their optimizations and lowerings.

    Args:
        name: configuration name (``"dblab-5"``, ``"tpch-compliant"``, ...).
        languages: the languages of this configuration, any order.
        lowerings: exactly one lowering per adjacent pair on the path from the
            front end(s) down to the target language.
        optimizations: any number of per-level optimizations.
    """

    def __init__(self, name: str, languages: Sequence[Language],
                 lowerings: Sequence[Lowering],
                 optimizations: Sequence[Optimization] = ()) -> None:
        self.name = name
        self.languages = list(languages)
        self.lowerings = list(lowerings)
        self.optimizations = list(optimizations)
        self._validate()

    # ------------------------------------------------------------------
    # Principle validation (Section 2.2 / 2.3)
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        known = set(self.languages)
        for transform in list(self.lowerings) + list(self.optimizations):
            if transform.source not in known or transform.target not in known:
                raise StackValidationError(
                    f"{transform.name}: source/target language not part of stack {self.name!r}")

        for lowering in self.lowerings:
            # Expressibility principle: lowering must go strictly downwards.
            if lowering.source.level <= lowering.target.level:
                raise StackValidationError(
                    f"lowering {lowering.name!r} does not decrease the abstraction level "
                    f"({lowering.source.name} -> {lowering.target.name})")

        for optimization in self.optimizations:
            if optimization.source is not optimization.target:
                raise StackValidationError(
                    f"optimization {optimization.name!r} must stay within one language")

        # Transformation cohesion principle: at most one lowering out of each
        # language, so the lowerings reachable from any language form a
        # single chain (a unique path downwards).
        by_source: Dict[str, List[Lowering]] = {}
        for lowering in self.lowerings:
            by_source.setdefault(lowering.source.name, []).append(lowering)
        for source_name, outgoing in by_source.items():
            if len(outgoing) > 1:
                targets = sorted(low.target.name for low in outgoing)
                raise StackValidationError(
                    "transformation cohesion violated: more than one lowering out of "
                    f"{source_name} (targets: {targets}); split the language instead "
                    "(Section 2.3 of the paper)")

        # No cycles: since every lowering strictly decreases the level, cycles
        # are impossible.  What remains to check is that every language of the
        # configuration can actually reach the target language through its
        # (unique) chain of lowerings — otherwise the stack has dead levels or
        # several disconnected targets.
        if self.lowerings:
            target = self.target_language
            for lang in self.languages:
                if lang is target:
                    continue
                path = self.lowering_path(lang)
                if not path or path[-1].target is not target:
                    raise StackValidationError(
                        f"stack {self.name!r}: no lowering path from {lang.name} "
                        f"to the target language {target.name}")

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def target_language(self) -> Language:
        """The lowest-level language; every other level lowers into it."""
        return min(self.languages, key=lambda lang: lang.level)

    def lowering_from(self, language: Language) -> Optional[Lowering]:
        for lowering in self.lowerings:
            if lowering.source is language:
                return lowering
        return None

    def lowering_path(self, source: Language) -> List[Lowering]:
        """The unique chain of lowerings from ``source`` to the target language."""
        path: List[Lowering] = []
        lowering = self.lowering_from(source)
        while lowering is not None:
            path.append(lowering)
            lowering = self.lowering_from(lowering.target)
        return path

    def optimizations_for(self, language: Language) -> List[Optimization]:
        return [opt for opt in self.optimizations if opt.source is language]

    def level_count(self, source: Language) -> int:
        """Number of distinct languages on the path from ``source`` to the target."""
        return len(self.lowering_path(source)) + 1

    def describe(self) -> str:
        lines = [f"DSL stack {self.name!r}"]
        for lang in sorted(self.languages, key=lambda l: -l.level):
            opts = [o.name for o in self.optimizations_for(lang)]
            lowering = self.lowering_from(lang)
            lines.append(f"  {lang.name} (level {lang.level})")
            if opts:
                lines.append(f"    optimizations: {', '.join(opts)}")
            if lowering is not None:
                lines.append(f"    lowering: {lowering.name} -> {lowering.target.name}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self, program, source: Language,
                context: Optional[CompilationContext] = None,
                verify: bool = False, catalog=None) -> CompilationResult:
        """Push ``program`` from ``source`` down to the stack's target language.

        At every level the optimizations the stack lists for it are applied
        to a fixed point (a worklist: a pass re-runs when a pass that declares
        it ``enables`` it changed the program), then the unique lowering out
        of that level translates the program one level down and the result is
        checked against the vocabulary of its language.  The per-phase timings
        collected in the result are the data behind Figure 9 (code
        generation time).

        With ``verify=True`` the static-analysis battery of
        :mod:`repro.analysis` runs after **every** transformation — each
        optimization pass is audited against the effect system
        (before/after legality; a pass that returned its input changed
        nothing and is skipped, one that rebuilt an identical program is
        rejected) and each intermediate program is scope-,
        type- and vocabulary-checked, with failures raised as
        phase-attributed :class:`~repro.analysis.VerificationError`.  Every
        fixed point is then confirmed: each optimization of the level runs
        once more on the settled program and must return it, so an
        ``enables`` declaration that misses an edge — or a fixpoint cut short
        by the driver's bound — is an error here, never a quietly weaker
        program.  A
        ``catalog`` additionally resolves table/column attributes against
        the schema.  The default path (``verify=False``) installs no hooks
        and pays nothing.
        """
        if source not in self.languages:
            raise StackValidationError(f"{source.name} is not part of stack {self.name!r}")
        context = context or CompilationContext()
        result = CompilationResult(program=program, language=source)
        current_language = source
        current_program = program
        observer = None
        verify_state = {"language": source}
        if verify:
            from ..analysis import (VerificationError, audit_optimization,
                                    confirm_fixpoint, verify_program)

            def observer(opt, before, after):
                if after is before:
                    return  # the pass changed nothing: already audited
                language = verify_state["language"]
                phase = f"{opt.name}[{language.name}]"
                audit_optimization(
                    before, after, phase=phase, catalog=catalog,
                    justifications=context.info.get("dataflow_justifications"))
                if language.kind == "anf":
                    verify_program(after, language=language,
                                   catalog=catalog, phase=phase)
                if program_fingerprint(after) == program_fingerprint(before):
                    # The fixpoint driver takes a new object for a change; a
                    # pass that copies without rewriting would never converge.
                    raise VerificationError(
                        "spurious rebuild: the pass returned a new object "
                        "structurally identical to its input (a pass that "
                        "changes nothing must return its input)",
                        check="fixpoint", phase=phase)

        while True:
            verify_state["language"] = current_language
            optimizations = self.optimizations_for(current_language)
            if optimizations:
                start = time.perf_counter()
                current_program, report = apply_fixpoint(optimizations, current_program, context,
                                                         observer=observer)
                if verify:
                    confirm_fixpoint(optimizations, current_program, context, report)
                bound = "" if report.reached_fixpoint else \
                    ", stopped at the bound with steps still queued"
                result.phases.append(PhaseResult(
                    name=f"optimize[{current_language.name}]",
                    kind="optimization-fixpoint",
                    language=current_language.name,
                    seconds=time.perf_counter() - start,
                    detail=(f"{report.runs} run(s) in {report.iterations} "
                            f"iteration(s){bound}: "
                            f"{', '.join(sorted(set(report.applied)))}"),
                    runs=report.runs, changed=len(report.applied),
                    requeued=report.requeued))

            lowering = self.lowering_from(current_language)
            if lowering is None:
                break
            start = time.perf_counter()
            current_program = lowering.run(current_program, context)
            seconds = time.perf_counter() - start
            result.phases.append(PhaseResult(
                name=lowering.name, kind="lowering",
                language=lowering.target.name, seconds=seconds,
                detail=f"{current_language.name} -> {lowering.target.name}"))
            current_language = lowering.target
            if current_language.kind == "anf":
                from ..analysis import VerificationError, check_language
                try:
                    check_language(current_program, current_language,
                                   phase=lowering.name)
                except VerificationError as exc:
                    raise StackValidationError(
                        f"after {lowering.name}, program is not valid "
                        f"{current_language.name}: {exc.detail}"
                    ) from exc
            if verify and current_language.kind == "anf":
                from ..analysis import verify_program
                verify_program(current_program, catalog=catalog,
                               phase=lowering.name)

        result.program = current_program
        result.language = current_language
        return result
