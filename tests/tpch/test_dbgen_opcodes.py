"""The work ``generate_catalog`` does, counted in interpreted operations.

``sys.settrace`` with ``f_trace_opcodes`` counts every bytecode instruction
``generate_catalog(0.001, 20160626)`` executes — the generator, the catalog's
registration and whatever they call in Python.  The count is the source's
alone (no clock, no hash seed, the same on a first and a later call), so it
must equal the number checked in next to this file, ``dbgen_opcodes.json``.
A change that moves it re-pins the file on purpose and says why.  Opcodes
differ between CPython versions, so the test runs on the version the file
names, which is the one the main CI jobs run.
"""
import gc
import json
import os
import sys

import pytest

from repro.tpch.dbgen import generate_catalog

with open(os.path.join(os.path.dirname(__file__), "dbgen_opcodes.json"),
          encoding="utf-8") as handle:
    PINNED = json.load(handle)


def count_opcodes(function, *args) -> int:
    """The bytecode instructions ``function(*args)`` executes in Python frames."""
    count = 0

    def opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return opcode

    def call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return opcode

    # a collection during the call could run another test's finalizers
    gc.collect()
    gc.disable()
    previous = sys.gettrace()
    sys.settrace(call)
    try:
        function(*args)
    finally:
        sys.settrace(previous)
        gc.enable()
    return count


@pytest.mark.skipif(f"{sys.version_info[0]}.{sys.version_info[1]}" != PINNED["python"],
                    reason="opcodes differ between CPython versions")
def test_generate_catalog_executes_the_pinned_opcodes():
    assert count_opcodes(generate_catalog, PINNED["scale_factor"], PINNED["seed"]) \
        == PINNED["opcodes"]
