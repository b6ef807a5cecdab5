"""List specialization: lowering ScaLite[List] to ScaLite (Section 4.4).

Two specialisations are applied on the way down:

* **Primary-key MultiMaps → direct arrays** (Figure 7d of the paper): when the
  hash-table key is a primary key there is at most one row per key, so the
  bucket list disappears entirely — the probe reads a single slot and the
  bucket iteration becomes a null check around the inlined loop body.  (The
  hash-table specialization lowering of the five-level stack leaves such maps
  untouched so that this lowering can claim them.)  When the build was
  replaced by a catalog-resident partition (``access_partition``), the direct
  array is the catalog's own unique-key index: a slot holds the row position.
* **Worst-case-sized buffers**: lists whose cardinality is statically bounded
  (annotated by earlier phases) could be lowered to pre-sized arrays; on the
  Python target the representation is the same object, so only the annotation
  bookkeeping is performed.

Everything else is relabelled into ScaLite unchanged — lists are still
available there as dynamic arrays.
"""
from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..ir.nodes import Atom, Block, Const, Expr, Program, Stmt, Sym
from ..ir.traversal import BlockRewriter, rewrite_program, substitute_block
from ..ir.types import BOOL, INT
from ..stack.context import CompilationContext
from ..stack.language import Language, SCALITE, SCALITE_LIST
from ..stack.transformation import Lowering


class ListSpecialization(Lowering):
    """Lower ScaLite[List] programs to ScaLite, specialising unique-key maps."""

    def __init__(self, source: Language = SCALITE_LIST, target: Language = SCALITE) -> None:
        self.name = "list-specialization"
        super().__init__(source, target)

    def run(self, program: Program, context: CompilationContext) -> Program:
        specializer = _UniqueKeySpecializer(context)
        return rewrite_program(program, specializer.rewrite, language=self.target.name)


class _UniqueKeySpecializer:
    """Rewrites primary-key MultiMaps into single-slot arrays (Figure 7d)."""

    def __init__(self, context: CompilationContext) -> None:
        self.context = context
        #: array sym id -> (array, lo, hi, needs_bounds_guard)
        self.arrays: Dict[int, Tuple[Sym, int, int, bool]] = {}
        #: sym ids holding a single looked-up row (possibly None)
        self.single_rows: Set[int] = set()

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
        if op == "list_foreach":
            return self._foreach(stmt, rw)
        return None

    def _mmap_new(self, stmt: Stmt, rw: BlockRewriter) -> Optional[Atom]:
        attrs = stmt.expr.attrs
        if not attrs.get("unique") or "key_lo" not in attrs:
            return None
        if not attrs.get("build_is_base"):
            return None
        lo, hi = int(attrs["key_lo"]), int(attrs["key_hi"])
        array = rw.emit("array_new", [Const(hi - lo + 1)], attrs={"init": None},
                        hint="slots")
        guarded = not attrs.get("probe_in_range", False)
        self.arrays[array.id] = (array, lo, hi, guarded)
        return array

    def _partition(self, stmt: Stmt, rw: BlockRewriter) -> Optional[Atom]:
        """Claim a primary-key partition: one row position (or None) per slot."""
        attrs = stmt.expr.attrs
        if "single" in attrs or not attrs.get("unique"):
            return None
        array = rw.emit("access_partition", stmt.expr.args,
                        attrs=dict(attrs, single=True), hint="slots")
        self.arrays[array.id] = (array, int(attrs["key_lo"]), int(attrs["key_hi"]),
                                 not attrs.get("probe_in_range", False))
        return array

    def _mmap_add(self, stmt: Stmt, rw: BlockRewriter) -> Optional[Atom]:
        target = stmt.expr.args[0]
        if not isinstance(target, Sym) or target.id not in self.arrays:
            return None
        array, lo, _, _ = self.arrays[target.id]
        _, key, value = stmt.expr.args
        index = key if lo == 0 else rw.emit("sub", [key, Const(lo)], tpe=INT, hint="idx")
        rw.emit("array_set", [array, index, value])
        return Const(None)

    def _mmap_get(self, stmt: Stmt, rw: BlockRewriter) -> Optional[Atom]:
        target = stmt.expr.args[0]
        if not isinstance(target, Sym) or target.id not in self.arrays:
            return None
        array, lo, hi, guarded = self.arrays[target.id]
        key = stmt.expr.args[1]
        index = key if lo == 0 else rw.emit("sub", [key, Const(lo)], tpe=INT, hint="idx")
        if not guarded:
            row = rw.emit("array_get", [array, index], hint="row")
            self.single_rows.add(row.id)
            return row
        above = rw.emit("ge", [key, Const(lo)], tpe=BOOL)
        below = rw.emit("le", [key, Const(hi)], tpe=BOOL)
        in_range = rw.emit("and_", [above, below], tpe=BOOL, hint="inrange")
        hit = Block()
        slot = Sym("slot")
        hit.stmts.append(Stmt(slot, Expr("array_get", (array, index))))
        hit.result = slot
        miss = Block(result=Const(None))
        row = rw.emit("if_", [in_range], blocks=(hit, miss), hint="row")
        self.single_rows.add(row.id)
        return row

    def _foreach(self, stmt: Stmt, rw: BlockRewriter) -> Optional[Atom]:
        target = stmt.expr.args[0]
        if not isinstance(target, Sym) or target.id not in self.single_rows:
            return None
        body = stmt.expr.blocks[0]
        (element,) = body.params
        substituted = substitute_block(body, {element: target})
        inlined = rw.rewrite_nested(substituted)
        present = rw.emit("ne", [target, Const(None)], tpe=BOOL, hint="present")
        rw.emit("if_", [present], blocks=(Block(inlined.stmts, inlined.result, ()), Block()),
                hint="ifrow")
        return Const(None)
