"""Lattice-based abstract-interpretation framework over ANF programs.

Two things live here, shared by every concrete analysis of the package
(the lattice elements themselves, each with its own ``join``/``widen``/``leq``,
are in :mod:`.lattices`):

* block walkers — :func:`walk_forward` / :func:`walk_backward` visit every
  statement of a program in (reverse) execution order, descending into the
  nested blocks of control ops, with the loop depth threaded through.  ANF
  makes these trivial and *sufficient*: bindings are single-assignment, so a
  symbol's abstract value never changes after its defining statement, and the
  only fixpoints an analysis needs are local to mutable state (which the
  concrete analyses treat conservatively).

* per-``(program, analysis)`` memoization (:class:`AnalysisCache`).  Programs
  are immutable — a transformation that changes one builds a new one, and one
  that changes nothing returns its input — so caching by object identity is
  sound, invalidation on rewrite is automatic (a rewritten program is a new
  object and simply misses the cache), and a program keeps its facts across
  every pass that leaves it alone.  Entries are evicted when the program is
  garbage collected, so the cache never pins memory.

The use-def facts (:func:`use_def`) are the memoized replacement for the
per-pass recomputation that :mod:`repro.transforms.analysis` used to do.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from ...ir.nodes import Block, Program, Stmt, Sym
from ...ir.ops import REGISTRY


# ---------------------------------------------------------------------------
# Block walkers
# ---------------------------------------------------------------------------
#: visitor events: (stmt, enclosing block, loop depth)
Visit = Tuple[Stmt, Block, int]

#: control ops whose nested blocks re-execute per iteration
LOOP_OPS = REGISTRY.select(lambda op: op.loop)


def walk_forward(program: Program) -> Iterator[Visit]:
    """Every statement in execution order (hoisted block first)."""
    yield from _walk_block(program.hoisted, depth=0, reverse=False)
    yield from _walk_block(program.body, depth=0, reverse=False)


def walk_backward(program: Program) -> Iterator[Visit]:
    """Every statement in reverse execution order (body first)."""
    yield from _walk_block(program.body, depth=0, reverse=True)
    yield from _walk_block(program.hoisted, depth=0, reverse=True)


def _walk_block(block: Block, depth: int, reverse: bool) -> Iterator[Visit]:
    stmts = reversed(block.stmts) if reverse else iter(block.stmts)
    for stmt in stmts:
        if not reverse:
            yield stmt, block, depth
        inner = depth + 1 if stmt.expr.op in LOOP_OPS else depth
        for nested in (reversed(stmt.expr.blocks) if reverse
                       else stmt.expr.blocks):
            yield from _walk_block(nested, inner, reverse)
        if reverse:
            yield stmt, block, depth


# ---------------------------------------------------------------------------
# Memoization
# ---------------------------------------------------------------------------
class AnalysisCache:
    """Memoizes analysis results per ``(program identity, analysis, context)``.

    A rewrite builds a new :class:`~repro.ir.nodes.Program` and a no-op pass
    returns its input, so identity keying gives exactly the required
    invalidation semantics: facts survive as long as the program they
    describe does — across any number of passes that leave it alone — and
    never serve a rewritten program.  A ``weakref.finalize`` on the program evicts the entry when the
    program dies, which also makes ``id()`` reuse harmless.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, str, int], Any] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_compute(self, program: Program, analysis: str,
                       compute: Callable[[], Any],
                       context_key: Optional[object] = None) -> Any:
        key = (id(program), analysis, id(context_key))
        try:
            return self._entries[key]
        except KeyError:
            pass
        result = self._entries[key] = compute()
        weakref.finalize(program, self._entries.pop, key, None)
        return result

    def clear(self) -> None:
        self._entries.clear()


#: the process-wide cache every analysis of this package shares
CACHE = AnalysisCache()


# ---------------------------------------------------------------------------
# Use-def facts
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class UseDefFacts:
    """Definition sites and use counts of every symbol of one program.

    Treat both maps as read-only: they are shared by every consumer that
    asks about the same program object.
    """

    defs: Dict[int, Stmt]
    uses: Dict[int, int]


def use_def(program: Program) -> UseDefFacts:
    """Memoized use-def facts (the substrate of scalar replacement, DCE, ...)."""
    def compute() -> UseDefFacts:
        defs: Dict[int, Stmt] = {}
        uses: Dict[int, int] = {}
        for block in program.all_blocks():
            _collect_use_def(block, defs, uses)
        return UseDefFacts(defs=defs, uses=uses)

    result = CACHE.get_or_compute(program, "use-def", compute)
    assert isinstance(result, UseDefFacts)
    return result


def _collect_use_def(block: Block, defs: Dict[int, Stmt],
                     uses: Dict[int, int]) -> None:
    for stmt in block.stmts:
        defs[stmt.sym.id] = stmt
        for arg in stmt.expr.args:
            if isinstance(arg, Sym):
                uses[arg.id] = uses.get(arg.id, 0) + 1
        for nested in stmt.expr.blocks:
            _collect_use_def(nested, defs, uses)
    if isinstance(block.result, Sym):
        uses[block.result.id] = uses.get(block.result.id, 0) + 1
