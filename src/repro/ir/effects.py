"""Effect summaries attached to IR operations.

The paper stresses (Section 3.2 and 5.2) that the imperative DSLs of the stack
restrict side effects enough that the compiler can still reason about code:
pure expressions may be CSE'd and dead-code eliminated, reads may be reordered
around other reads, writes pin the statement in place, and I/O is never moved.

Every registered IR op (see :mod:`repro.ir.ops`) carries one of these effect
summaries.  The :class:`~repro.ir.builder.IRBuilder` and the generic
optimizations (CSE, DCE, code motion) consult them instead of re-deriving
data-flow facts for every transformation, exactly the argument made in
Section 3.3 for a canonical ANF representation.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Effect:
    """An effect summary for one operation kind.

    Attributes:
        reads: the op reads mutable state (arrays, lists, maps, variables).
        writes: the op mutates state visible outside the statement.
        allocates: the op allocates a fresh mutable object (its identity matters).
        io: the op performs input/output (printing results, loading data).
        control: the op is a control-flow construct carrying nested blocks.
    """

    reads: bool = False
    writes: bool = False
    allocates: bool = False
    io: bool = False
    control: bool = False

    @property
    def pure(self) -> bool:
        """Pure ops can be freely duplicated, shared (CSE) and removed (DCE)."""
        return not (self.reads or self.writes or self.allocates or self.io or self.control)

    @property
    def removable_if_unused(self) -> bool:
        """Ops whose only observable result is their value may be DCE'd.

        Allocation is removable when the allocated object is never used;
        reads are removable too.  Writes and I/O are never removable.
        """
        return not (self.writes or self.io or self.control)

    @property
    def can_reorder_with_reads(self) -> bool:
        return not (self.writes or self.io or self.control)

    def union(self, other: "Effect") -> "Effect":
        """Combine two effect summaries (used to summarise nested blocks)."""
        return Effect(
            reads=self.reads or other.reads,
            writes=self.writes or other.writes,
            allocates=self.allocates or other.allocates,
            io=self.io or other.io,
            control=self.control or other.control,
        )


#: Commonly used effect summaries.
PURE = Effect()
READ = Effect(reads=True)
WRITE = Effect(writes=True)
READ_WRITE = Effect(reads=True, writes=True)
ALLOC = Effect(allocates=True)
IO = Effect(io=True)
CONTROL = Effect(control=True, reads=True, writes=True)
