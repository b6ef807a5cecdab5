"""Lattice-based dataflow analyses over ANF programs.

A small abstract-interpretation framework (:mod:`.framework`: block
walkers and per-program memoization; :mod:`.lattices`: intervals,
nullability and their product) plus four analyses the optimizer and verifier
consume:

* :mod:`.liveness` — backward liveness; drives dead-code elimination.
* :mod:`.values` — forward interval + nullability facts, seeded from the
  catalog's load-time column statistics; drives predicate folding,
  dead-branch elimination and the loop-invariant hoisting safety proof.
* :mod:`.purity` — escape analysis for allocations whose every use is a
  write; lets DCE delete write-only objects together with their writes.
* :mod:`.dependence` — per-loop read/write footprints classifying every
  depth-0 loop as parallelizable or sequential (with a reason), the
  prerequisite for the morsel-driven parallelism roadmap item.

:mod:`.checks` folds the facts back into the verifier: advisory stamps
(``parallel_safety``, ``range``, ``non_null``) are re-proved, and
optimization transitions may not widen intervals, unwrap branches without a
recorded justification, or flip a loop sequential→parallelizable without
one.
"""
from .dependence import (LoopClassification, annotate_parallel_safety,
                         classification_map, classify_loops, top_level_loops)
from .framework import AnalysisCache, use_def, walk_backward, walk_forward
from .lattices import Interval, Nullability, ValueFact
from .liveness import liveness
from .purity import purity
from .values import value_facts

__all__ = [
    "AnalysisCache",
    "Interval",
    "LoopClassification",
    "Nullability",
    "ValueFact",
    "annotate_parallel_safety",
    "classification_map",
    "classify_loops",
    "liveness",
    "purity",
    "top_level_loops",
    "use_def",
    "value_facts",
    "walk_backward",
    "walk_forward",
]
