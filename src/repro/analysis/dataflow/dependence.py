"""Loop-dependence analysis: the static race detector for the morsel era.

For every **depth-0 loop** of a program (the loops the governor instruments
and the loops a morsel scheduler would split across workers), decide whether
iterations may run in parallel.  The verdict is conservative: a loop is
``parallelizable`` only when every effect inside its body is provably safe
under an "each worker runs a contiguous iteration range, partial states merge
at the barrier" execution model:

* iteration-local state (bound inside the body) is always safe;
* writes to *outer* objects are safe exactly when the op declares a morsel
  merge strategy (``repro.ir.ops.OpDef.merge``) **and** the loop never
  observes the object it is building (no read/alias use of a written object);
* I/O, ``while_`` loops (loop-carried control), and order-dependent writes
  (``var_write``, ``array_set``, ...) pin the loop to sequential execution,
  each with a recorded reason.

Depth counting matches the code lint's governor rule: ``if_`` arms stay at
the same depth, so a loop inside a top-level conditional is still depth-0.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

from ...ir.nodes import Block, Program, Stmt, Sym
from ...ir.ops import REGISTRY
from .framework import CACHE, LOOP_OPS

#: the attribute the annotator stamps onto loop exprs
SAFETY_ATTR = "parallel_safety"


@dataclass(frozen=True)
class LoopClassification:
    """Parallel-safety verdict for one depth-0 loop."""

    sym_id: int
    op: str
    loop_hint: str
    parallelizable: bool
    #: sequential reason, or for parallelizable loops a merge summary
    reason: str
    #: (object hint, merge strategy) for every outer object the loop builds
    merges: Tuple[Tuple[str, str], ...] = ()

    @property
    def label(self) -> str:
        return "parallelizable" if self.parallelizable else f"sequential({self.reason})"

    @property
    def stamp(self) -> str:
        """The value the annotator writes into ``attrs['parallel_safety']``."""
        return "parallelizable" if self.parallelizable else f"sequential:{self.reason}"


def top_level_loops(program: Program) -> Iterator[Stmt]:
    """Depth-0 loop statements, descending through ``if_`` arms only."""
    def scan(block: Block) -> Iterator[Stmt]:
        for stmt in block.stmts:
            if stmt.expr.op in LOOP_OPS:
                yield stmt
            elif stmt.expr.op == "if_":
                for arm in stmt.expr.blocks:
                    yield from scan(arm)

    for root in program.all_blocks():
        yield from scan(root)


def classify_loops(program: Program) -> Tuple[LoopClassification, ...]:
    """Memoized parallel-safety classification of every depth-0 loop."""
    def compute() -> Tuple[LoopClassification, ...]:
        return tuple(_classify(stmt) for stmt in top_level_loops(program))

    result = CACHE.get_or_compute(program, "loop-dependence", compute)
    assert isinstance(result, tuple)
    return result


def classification_map(program: Program) -> Dict[int, LoopClassification]:
    """The same classifications keyed by loop binding sym id."""
    return {c.sym_id: c for c in classify_loops(program)}


def _classify(stmt: Stmt) -> LoopClassification:
    op = stmt.expr.op
    hint = stmt.sym.hint or stmt.sym.name
    if op == "while_":
        return LoopClassification(stmt.sym.id, op, hint, False,
                                  "loop-carried control dependence")

    body = stmt.expr.blocks[-1]
    local = _bound_in(body)
    written: Dict[int, Tuple[str, str]] = {}   # outer obj id -> (hint, strategy)
    other_uses: Set[int] = set()               # outer obj ids read/aliased in-loop
    reasons: List[str] = []

    for inner, _depth in _walk_body(body):
        row = REGISTRY.get(inner.expr.op)
        effect = row.effect
        if effect.io:
            reasons.append(f"performs I/O ({inner.expr.op})")
            continue
        if effect.control:
            # Control ops (if_, nested loops) declare a conservative
            # read+write effect, but their actual writes are the statements
            # inside their blocks — each visited by this walk on its own.
            # The op itself only *reads* its arguments (condition, bounds,
            # iterated container).
            for arg in inner.expr.args:
                if isinstance(arg, Sym) and arg.id not in local:
                    other_uses.add(arg.id)
            continue
        mutated = row.mutated
        if effect.writes and mutated is None:
            reasons.append(f"untracked write ({inner.expr.op})")
            continue
        for position, arg in enumerate(inner.expr.args):
            if not isinstance(arg, Sym) or arg.id in local:
                continue
            if effect.writes and position == mutated:
                strategy = row.merge
                if strategy is None:
                    reasons.append(
                        f"order-dependent write to {arg.hint or arg.name} "
                        f"({inner.expr.op})")
                else:
                    written[arg.id] = (arg.hint or arg.name, strategy)
            else:
                other_uses.add(arg.id)

    for obj_id, (obj_hint, _strategy) in written.items():
        if obj_id in other_uses:
            reasons.append(f"reads {obj_hint} while writing it "
                           "(loop observes its own partial output)")

    if reasons:
        return LoopClassification(stmt.sym.id, op, hint, False,
                                  "; ".join(sorted(set(reasons))))
    merges = tuple(sorted(written.values()))
    if merges:
        summary = ", ".join(f"{name}:{strategy}" for name, strategy in merges)
        reason = f"merges {summary}"
    else:
        reason = "iteration-local effects only"
    return LoopClassification(stmt.sym.id, op, hint, True, reason, merges)


def _walk_body(body: Block) -> Iterator[Tuple[Stmt, int]]:
    def walk(block: Block, depth: int) -> Iterator[Tuple[Stmt, int]]:
        for stmt in block.stmts:
            yield stmt, depth
            inner = depth + 1 if stmt.expr.op in LOOP_OPS else depth
            for nested in stmt.expr.blocks:
                yield from walk(nested, inner)

    yield from walk(body, 0)


def _bound_in(body: Block) -> Set[int]:
    bound: Set[int] = {param.id for param in body.params}
    for stmt, _depth in _walk_body(body):
        bound.add(stmt.sym.id)
        for nested in stmt.expr.blocks:
            bound.update(param.id for param in nested.params)
    return bound


# ---------------------------------------------------------------------------
# Annotator
# ---------------------------------------------------------------------------
def annotate_parallel_safety(program: Program) -> Tuple[LoopClassification, ...]:
    """Stamp every depth-0 loop with its verdict (in ``attrs['parallel_safety']``).

    Stamps are advisory metadata for downstream consumers (the morsel
    scheduler, the report); they never feed back into the analyses, and
    :func:`repro.analysis.dataflow.check_stamps <check_stamps>` re-derives
    the verdicts to reject any stamp the analysis cannot back.
    """
    verdicts = classification_map(program)
    for stmt in top_level_loops(program):
        verdict = verdicts[stmt.sym.id]
        stmt.expr.attrs[SAFETY_ATTR] = verdict.stamp
    return classify_loops(program)
