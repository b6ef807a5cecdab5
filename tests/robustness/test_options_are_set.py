"""The option gate: every option of the hardening layer is set by a caller.

An option of :class:`QueryBudget`, :class:`HardenedExecutor` or
:class:`CircuitBreaker` — a constructor parameter with a default — stays
only while something outside ``tests/`` passes it by name: a ``.py`` file
under ``src/``, ``servebench/``, ``benchmarks/`` or ``examples/``.  A knob
only tests turn encodes an assumption no caller holds; it becomes a module
constant instead (the ladder's retry and breaker settings are).  The
``sleep`` and ``clock`` seams are exempt: they are how tests substitute
fakes for time.

Like ``tests/test_every_definition_is_referenced.py`` the scan is on text: a
keyword argument is the name right after ``(`` or ``,`` and before a single
``=``, so a call spread over lines counts, and so does ``replace(budget,
timeout_seconds=...)``.
"""
import inspect
import re
from pathlib import Path

import pytest

from repro.robustness.fallback import CircuitBreaker, HardenedExecutor
from repro.robustness.governor import QueryBudget

ROOT = Path(__file__).resolve().parents[2]
CALLERS = ("src", "servebench", "benchmarks", "examples")
SEAMS = {"sleep", "clock"}
HARDENING = (QueryBudget, HardenedExecutor, CircuitBreaker)


def _options(cls):
    return [name for name, parameter in inspect.signature(cls).parameters.items()
            if parameter.default is not inspect.Parameter.empty]


def _passed_by_name():
    text = "\n".join(path.read_text() for top in CALLERS
                     for path in sorted((ROOT / top).rglob("*.py")))
    return set(re.findall(r"[(,]\s*([A-Za-z_]\w*)\s*=(?!=)", text))


@pytest.mark.parametrize("cls", HARDENING, ids=lambda cls: cls.__name__)
def test_every_option_is_passed_by_a_caller(cls):
    passed = _passed_by_name()
    unset = [name for name in _options(cls)
             if name not in SEAMS and name not in passed]
    assert unset == [], (
        f"{cls.__name__} options no caller outside tests/ sets: {unset}; "
        "make each a module constant or delete it")


def test_the_seams_are_the_only_unset_options():
    options = {cls.__name__: _options(cls) for cls in HARDENING}
    assert options == {"QueryBudget": ["timeout_seconds", "check_interval"],
                       "HardenedExecutor": ["incidents", "sleep"],
                       "CircuitBreaker": ["clock"]}
