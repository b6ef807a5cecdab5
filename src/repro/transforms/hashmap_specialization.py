"""Hash-table specialization: lowering ScaLite[Map, List] data structures.

Section 5.2 / Appendix B.2 of the paper: the generic MultiMap and HashMap
abstractions are specialised according to how they are used.  The key facts
needed for the decision — is the key an integer with a known dense range, is
it a primary key, was the build partitioned to loading time — were attached to
the ``mmap_new`` / ``hashmap_agg_new`` statements as annotations by the
pipelining lowering (the Section 3.3 annotation mechanism).

Specialisations applied here:

* **MultiMap with a dense integer key** → an array of buckets indexed by
  ``key - lo`` (Figure 4e: ``Array[List[R]]``), removing the hashing of keys.
  A build the pipelining lowering already replaced by the catalog's resident
  partition (``access_partition``) is that array as it stands — only the
  probes are lowered.
* **HashMap aggregation with a dense integer key** → a dense accumulator
  array (``DenseAggTable``), removing key hashing on the aggregation path.
* everything else stays on the generic (GLib-substitute) containers, which
  remain legal at every lower level.

MultiMaps whose key is additionally a *primary key* can be specialised
further (one slot per key instead of a bucket list, Figure 7d); that final
step belongs to the list-specialization lowering of the five-level stack
(:mod:`repro.transforms.list_specialization`), so when the five-level
configuration is active such maps are only marked here and left intact.
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..ir.nodes import Atom, Block, Const, Expr, Program, Stmt, Sym
from ..ir.traversal import BlockRewriter, rewrite_program, substitute_block
from ..ir.types import BOOL, INT
from ..stack.context import CompilationContext
from ..stack.language import Language, SCALITE_LIST, SCALITE_MAP_LIST
from ..stack.transformation import Lowering


class HashTableSpecialization(Lowering):
    """Lower MultiMap/HashMap abstractions into arrays where annotations allow."""

    def __init__(self, target: Language) -> None:
        self.name = "hash-table-specialization"
        super().__init__(SCALITE_MAP_LIST, target)

    def run(self, program: Program, context: CompilationContext) -> Program:
        # Primary-key maps are the list-specialization lowering's to claim
        # when the stack has that level below this one.
        specializer = _Specializer(context, defer_unique=self.target is SCALITE_LIST)
        return rewrite_program(program, specializer.rewrite,
                               language=self.target.name)


class _Specializer:
    """Statement rewriter shared by the hash-table specialization lowering."""

    def __init__(self, context: CompilationContext, defer_unique: bool) -> None:
        self.context = context
        self.defer_unique = defer_unique
        #: array sym id -> (array, lo, hi, empty_list, needs_bounds_guard)
        self.arrays: Dict[int, Tuple[Sym, int, int, Sym, bool]] = {}
        #: dense aggregation table sym id -> lo offset
        self.dense_aggs: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def rewrite(self, stmt: Stmt, rw: BlockRewriter) -> Optional[Atom]:
        op = stmt.expr.op
        if op == "mmap_new":
            return self._mmap_new(stmt, rw)
        if op == "access_partition":
            return self._partition(stmt, rw)
        if op == "mmap_add":
            return self._mmap_add(stmt, rw)
        if op == "mmap_get":
            return self._mmap_get(stmt, rw)
        if op == "hashmap_agg_new":
            return self._agg_new(stmt, rw)
        if op == "hashmap_agg_update":
            return self._agg_update(stmt, rw)
        if op == "hashmap_agg_foreach":
            return self._agg_foreach(stmt, rw)
        return None

    # ------------------------------------------------------------------
    # MultiMaps
    # ------------------------------------------------------------------
    def _dense_range(self, attrs: Dict) -> Optional[Tuple[int, int]]:
        if "key_lo" not in attrs or "key_hi" not in attrs:
            return None
        return int(attrs["key_lo"]), int(attrs["key_hi"])

    def _mmap_new(self, stmt: Stmt, rw: BlockRewriter) -> Optional[Atom]:
        key_range = self._dense_range(stmt.expr.attrs)
        if key_range is None:
            return None
        if not (stmt.expr.attrs.get("build_is_base") or stmt.expr.attrs.get("partitioned")):
            # Intermediate relations keep the generic container: pre-allocating
            # one bucket per key of the whole domain only pays off when the
            # build covers (a filtered subset of) a base relation.
            return None
        if stmt.expr.attrs.get("unique") and self.defer_unique:
            # Leave primary-key maps for the list-specialization lowering.
            return None
        lo, hi = key_range
        size = hi - lo + 1
        # One (initially empty) bucket per possible key: probing never needs a
        # presence check, mirroring the pre-allocated partitions of Section B.1.
        array = rw.emit("array_new", [Const(size)], attrs={"init_kind": "empty_lists"},
                        hint="buckets")
        empty = rw.emit("list_new", [], hint="nobucket")
        guarded = not stmt.expr.attrs.get("probe_in_range", False)
        self.arrays[array.id] = (array, lo, hi, empty, guarded)
        return array

    def _partition(self, stmt: Stmt, rw: BlockRewriter) -> Optional[Atom]:
        """Claim a catalog-resident partition as the bucket array of its probes."""
        attrs = stmt.expr.attrs
        if "single" in attrs:
            return None  # already claimed
        if attrs.get("unique") and self.defer_unique:
            return None  # a primary-key map: left for the list-specialization lowering
        lo, hi = int(attrs["key_lo"]), int(attrs["key_hi"])
        array = rw.emit("access_partition", stmt.expr.args,
                        attrs=dict(attrs, single=False), hint="part")
        empty = rw.emit("list_new", [], hint="nobucket")
        self.arrays[array.id] = (array, lo, hi, empty,
                                 not attrs.get("probe_in_range", False))
        return array

    def _mmap_add(self, stmt: Stmt, rw: BlockRewriter) -> Optional[Atom]:
        target = stmt.expr.args[0]
        if not isinstance(target, Sym) or target.id not in self.arrays:
            return None
        array, lo, _, _, _ = self.arrays[target.id]
        _, key, value = stmt.expr.args
        index = self._offset(rw, key, lo)
        bucket = rw.emit("array_get", [array, index], hint="slot")
        rw.emit("list_append", [bucket, value])
        return Const(None)

    def _mmap_get(self, stmt: Stmt, rw: BlockRewriter) -> Optional[Atom]:
        target = stmt.expr.args[0]
        if not isinstance(target, Sym) or target.id not in self.arrays:
            return None
        array, lo, hi, empty, guarded = self.arrays[target.id]
        key = stmt.expr.args[1]
        index = self._offset(rw, key, lo)
        if not guarded:
            # Build and probe keys share a key domain: the index is always valid.
            return rw.emit("array_get", [array, index], hint="bucket")
        above = rw.emit("ge", [key, Const(lo)], tpe=BOOL)
        below = rw.emit("le", [key, Const(hi)], tpe=BOOL)
        in_range = rw.emit("and_", [above, below], tpe=BOOL, hint="inrange")
        hit_block = Block()
        raw = Sym("slot")
        hit_block.stmts.append(Stmt(raw, Expr("array_get", (array, index))))
        hit_block.result = raw
        miss_block = Block(result=empty)
        return rw.emit("if_", [in_range], blocks=(hit_block, miss_block), hint="bucket")

    # ------------------------------------------------------------------
    # Aggregation hash maps
    # ------------------------------------------------------------------
    def _agg_new(self, stmt: Stmt, rw: BlockRewriter) -> Optional[Atom]:
        key_range = self._dense_range(stmt.expr.attrs)
        if key_range is None:
            return None
        lo, hi = key_range
        size = hi - lo + 1
        dense = rw.emit("dense_agg_new", [Const(size)],
                        attrs={"aggs": tuple(stmt.expr.attrs["aggs"])}, hint="dense")
        self.dense_aggs[dense.id] = lo
        return dense

    def _agg_update(self, stmt: Stmt, rw: BlockRewriter) -> Optional[Atom]:
        target = stmt.expr.args[0]
        if not isinstance(target, Sym) or target.id not in self.dense_aggs:
            return None
        lo = self.dense_aggs[target.id]
        key = stmt.expr.args[1]
        values = list(stmt.expr.args[2:])
        index = self._offset(rw, key, lo)
        rw.emit("dense_agg_update", [target, index] + values,
                attrs=dict(stmt.expr.attrs))
        return Const(None)

    def _agg_foreach(self, stmt: Stmt, rw: BlockRewriter) -> Optional[Atom]:
        target = stmt.expr.args[0]
        if not isinstance(target, Sym) or target.id not in self.dense_aggs:
            return None
        lo = self.dense_aggs[target.id]
        body = stmt.expr.blocks[0]
        old_key, old_values = body.params
        new_index = Sym("gidx", INT)
        new_values = Sym("gvals")
        real_key = Sym("gkey", INT)
        substituted = substitute_block(body, {old_key: real_key, old_values: new_values})
        rewritten_inner = rw.rewrite_nested(substituted)
        stmts = [Stmt(real_key, Expr("add", (new_index, Const(lo)), {}, (), INT))]
        stmts.extend(rewritten_inner.stmts)
        new_body = Block(stmts, rewritten_inner.result, (new_index, new_values))
        rw.emit("dense_agg_foreach", [target], attrs=dict(stmt.expr.attrs),
                blocks=(new_body,))
        return Const(None)

    # ------------------------------------------------------------------
    @staticmethod
    def _offset(rw: BlockRewriter, key: Atom, lo: int) -> Atom:
        if lo == 0:
            return key
        return rw.emit("sub", [key, Const(lo)], tpe=INT, hint="idx")
