"""IR-level common-subplan sharing across pipeline breakers.

The vectorized engine executes repeated subplans once per query through a
runtime cache (``VectorizedEngine._sharing_active``): Q11 builds its
partsupp pipeline twice, Q15 joins against the revenue view it also
aggregates, Q22 re-filters the same customer subset.  The Volcano
interpreter, the reference, deliberately runs a repeated subtree at each
occurrence.  The compiled DSL stacks could not share those, because the
push-engine lowering *fuses* a subplan into each of its consumers — the two
copies of the code differ in their consume continuations, so no generic CSE
over the finished program can merge them (the duplicated statements allocate
and mutate their own hash tables and buffers, and :meth:`Expr.cse_key
<repro.ir.nodes.Expr.cse_key>` rightly refuses to share anything that is not
pure).

The fix is to share *while the IR is being constructed*, the same hash-consing
move the :class:`~repro.ir.builder.IRBuilder` makes for pure expressions —
lifted from single expressions to whole pipeline-breaking regions:

* repeated subtrees are detected on the plan with
  :func:`repro.dsl.qplan.shared_subplan_fingerprints` (structural keys, the
  plan-level analogue of ``cse_key``);
* the first occurrence is **materialised once behind a binding**: its rows are
  produced into one list bound at the top level of the program body, breaking
  the producer/consumer fusion exactly at the shared boundary;
* every occurrence (including the first) then replays the binding with a
  ``list_foreach`` feeding its own consume continuation.  The duplicate
  production code is simply never emitted, so there is nothing left for DCE
  to sweep — and what DCE *does* still clean up afterwards are the
  per-duplicate column reads and key computations that became unused.

Sharing is sound for the same reason the vectorized engine's runtime cache
is: QPlan operators are deterministic functions of the loaded catalog, the
materialised list is written only by its production loop, and every statement
the region emits either is pure, reads the catalog, or writes objects
allocated inside the region (verifiable from the :mod:`repro.ir.effects`
summaries) — afterwards the binding is only ever read.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

from ..dsl import qplan as Q
from ..ir.nodes import Sym


class SharedSubplanMaterializer:
    """Materialise-once/replay bindings for a push-engine compilation run.

    One instance serves one :class:`~repro.transforms.pipelining._PushCompiler`
    run.  ``try_produce`` intercepts the produce/consume dispatch: for a node
    that is not shared it declines (the compiler inlines as usual); for a
    shared node it materialises the subplan into a list binding on first
    sight and replays that binding for this and every later occurrence.
    """

    def __init__(self, plan, flags) -> None:
        shared: Dict[int, str] = {}
        if flags.subplan_sharing and isinstance(plan, Q.Operator):
            shared = _maximal_shared(plan, Q.shared_subplan_fingerprints(plan))
        self._shared = shared
        #: structural key -> (list binding, output fields)
        self._bindings: Dict[str, Tuple[Sym, List[str]]] = {}

    @property
    def active(self) -> bool:
        return bool(self._shared)

    def materializes(self, node) -> bool:
        """Whether ``node`` is produced once into a binding of whole rows."""
        return id(node) in self._shared

    def try_produce(self, compiler, node, consume) -> bool:
        """Serve ``node`` from a shared binding; ``False`` when not shared."""
        key = self._shared.get(id(node))
        if key is None:
            return False
        binding = self._bindings.get(key)
        if binding is None:
            binding = self._materialize(compiler, node, key)
            self._bindings[key] = binding
        buffer, fields = binding
        compiler.b.foreach(
            buffer, lambda element: consume(compiler._bucket_rows(element, fields)),
            hint="sh")
        return True

    def _materialize(self, compiler, node, key: str) -> Tuple[Sym, List[str]]:
        """Produce ``node`` once into a fresh list binding (the shared value)."""
        fields = Q.output_fields(node, compiler.catalog)
        buffer = compiler.b.emit(
            "list_new", [], attrs={"shared_subplan": _short_key(key)},
            hint="shared")

        def collect(row) -> None:
            record, _ = row.materialize(compiler.b, compiler.record_layout, fields)
            compiler.b.emit("list_append", [buffer, record])

        compiler.dispatch_produce(node, collect)
        return buffer, fields


def _maximal_shared(plan, shared: Dict[int, str]) -> Dict[int, str]:
    """Restrict a shared-subplan map to the subtrees worth a binding.

    A fingerprint nested inside another shared subtree is only *produced*
    once — during that subtree's single materialisation — so giving it a
    binding of its own would break pipeline fusion without saving any work.
    The pruned walk below descends into each shared fingerprint's subtree
    exactly once (mirroring how often it will be produced) and keeps only
    the fingerprints still encountered more than once.
    """
    if not shared:
        return shared
    counts: Dict[str, int] = {}
    descended = set()

    def visit(node) -> None:
        key = shared.get(id(node))
        if key is not None:
            counts[key] = counts.get(key, 0) + 1
            if key in descended:
                return
            descended.add(key)
        for child in node.children():
            visit(child)

    visit(plan)
    useful = {key for key, count in counts.items() if count > 1}
    return {node_id: key for node_id, key in shared.items() if key in useful}


def _short_key(canonical: str) -> str:
    """A compact stable digest of a plan-canonical key (kept as a statement
    attribute so tests and debuggers can count shared bindings)."""
    import hashlib

    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def shared_binding_count(program) -> int:
    """Number of shared-subplan bindings in a compiled program (test probe)."""
    from ..ir.traversal import iter_program_stmts

    return sum(1 for stmt, _ in iter_program_stmts(program)
               if "shared_subplan" in stmt.expr.attrs)
