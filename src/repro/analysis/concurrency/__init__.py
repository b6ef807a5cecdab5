"""Concurrency-safety static analyzer for the repo's own runtime source.

The mirror image of :mod:`repro.analysis.verifier`: instead of checking the
code the compiler *generates*, this checks the code the runtime *is* —
lock discipline over the serving substrate (``server/``, ``robustness/``,
the compiler, the access layer and its derived cache).  See :mod:`repro.concurrency`
for the annotation vocabulary and ``python -m repro.analysis.concurrency``
for the CLI.
"""
from .model import Violation
from .report import DEFAULT_TARGETS, AnalysisReport, analyze_tree, load_sources

__all__ = [
    "AnalysisReport",
    "DEFAULT_TARGETS",
    "Violation",
    "analyze_tree",
    "load_sources",
]
