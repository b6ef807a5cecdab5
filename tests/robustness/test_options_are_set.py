"""The option gate: every option of a covered callable is set by a caller.

An option — a parameter with a default — of a covered class (its
constructor) or function stays only while something outside ``tests/``
passes it by name: a ``.py`` file under ``src/``, ``servebench/``,
``benchmarks/`` or ``examples/``.  A knob only tests turn encodes an
assumption no caller holds; it becomes a module constant instead (the
ladder's retry and breaker settings, the incident ring's
``incidents.CAPACITY``, the fixpoint bound ``transformation.MAX_ITERATIONS``,
the pruning gate ``access._MAX_PRUNE_FRACTION`` and the dense-key slack
``statistics.DENSE_KEY_SLACK`` are).  The ``sleep`` and ``clock`` seams are
exempt: they are how tests substitute fakes for time.

Covered are the hardening layer (:class:`QueryBudget`,
:class:`HardenedExecutor`, :class:`CircuitBreaker`, :class:`IncidentLog`),
the harness, the two direct engines, the two fixpoint drivers, plan pruning
and the access layer's pruning and dense-key tests.  The scan sees keyword
arguments only, so a callable whose option some caller passes by position
stays uncovered (``draw_texts``, whose ``marker`` ``_texts`` passes
positionally).

The scan reads the keyword arguments of the ``ast.Call`` nodes, so a call
spread over lines counts, and so does ``replace(budget,
timeout_seconds=...)``; a tuple assignment (``lo, hi = ...``) or a
parameter default (``def g(a, limit=3)``) passes nothing.
"""
import ast
import functools
import inspect
from pathlib import Path

import pytest

from repro.bench.harness import BenchmarkHarness
from repro.engine.vectorized import VectorizedEngine
from repro.engine.volcano import VolcanoEngine
from repro.planner.pruning import prune_plan
from repro.planner.rewrite import apply_rules_fixpoint
from repro.robustness.fallback import CircuitBreaker, HardenedExecutor
from repro.robustness.governor import QueryBudget
from repro.robustness.incidents import IncidentLog
from repro.stack.transformation import apply_fixpoint
from repro.storage.access import AccessLayer
from repro.storage.statistics import ColumnStatistics

ROOT = Path(__file__).resolve().parents[2]
CALLERS = ("src", "servebench", "benchmarks", "examples")
SEAMS = {"sleep", "clock"}
COVERED = (QueryBudget, HardenedExecutor, CircuitBreaker, IncidentLog,
           BenchmarkHarness, VectorizedEngine, VolcanoEngine, apply_fixpoint,
           apply_rules_fixpoint, prune_plan, AccessLayer.prune_candidates,
           ColumnStatistics.is_dense_key)


def _options(covered):
    return [name for name, parameter in inspect.signature(covered).parameters.items()
            if parameter.default is not inspect.Parameter.empty]


def _keywords(source):
    """The names ``source`` passes as keyword arguments of a call."""
    return {keyword.arg for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            for keyword in node.keywords if keyword.arg is not None}


@functools.lru_cache(maxsize=None)
def _passed_by_name():
    return set().union(*(_keywords(path.read_text()) for top in CALLERS
                         for path in sorted((ROOT / top).rglob("*.py"))))


def test_only_a_call_passes_a_name():
    assert _keywords("lo, hi = f()\ndef g(a, limit=3):\n    return a\n") == set()
    assert _keywords("replace(budget,\n        timeout_seconds=0.5)\n"
                     "f(**options, width=2)\n") == {"timeout_seconds", "width"}


@pytest.mark.parametrize("covered", COVERED, ids=lambda covered: covered.__qualname__)
def test_every_option_is_passed_by_a_caller(covered):
    passed = _passed_by_name()
    unset = [name for name in _options(covered)
             if name not in SEAMS and name not in passed]
    assert unset == [], (
        f"{covered.__qualname__} options no caller outside tests/ sets: {unset}; "
        "make each a module constant or delete it")


def test_the_seams_are_the_only_unset_options():
    options = {covered.__qualname__: _options(covered) for covered in COVERED}
    assert options == {"QueryBudget": ["timeout_seconds", "check_interval"],
                       "HardenedExecutor": ["incidents", "sleep"],
                       "CircuitBreaker": ["clock"],
                       "IncidentLog": ["clock"],
                       "BenchmarkHarness": ["repetitions", "engines"],
                       "VectorizedEngine": [],
                       "VolcanoEngine": [],
                       "apply_fixpoint": ["observer"],
                       "apply_rules_fixpoint": [],
                       "prune_plan": ["prune_projections", "prune_aggregates"],
                       "AccessLayer.prune_candidates": [],
                       "ColumnStatistics.is_dense_key": []}
