"""Lattice-based dataflow analyses over ANF programs.

A small abstract-interpretation framework (:mod:`.framework`: block
walkers and per-program memoization; :mod:`.lattices`: intervals,
nullability and their product) plus three analyses the optimizer and verifier
consume:

* :mod:`.liveness` — backward liveness; drives dead-code elimination.
* :mod:`.values` — forward interval + nullability facts, seeded from the
  catalog's load-time column statistics; drives predicate folding,
  dead-branch elimination and the loop-invariant hoisting safety proof.
* :mod:`.purity` — escape analysis for allocations whose every use is a
  write; lets DCE delete write-only objects together with their writes.

:mod:`.checks` folds the facts back into the verifier: optimization
transitions may not widen intervals or unwrap branches without a recorded
justification.
"""
from .framework import AnalysisCache, use_def, walk_backward, walk_forward
from .lattices import Interval, Nullability, ValueFact
from .liveness import liveness
from .purity import purity
from .values import value_facts

__all__ = [
    "AnalysisCache",
    "Interval",
    "Nullability",
    "ValueFact",
    "liveness",
    "purity",
    "use_def",
    "value_facts",
    "walk_backward",
    "walk_forward",
]
