"""The aggregate kernel's contract (:mod:`repro.dsl.aggregates`).

Every kind over an empty run, an all-``None`` run, a mixed run and a float
run that cancels only when added left to right; folding a run in two calls
equals folding it in one.  The expected values are literals, so a change of
semantics shows here before any engine comparison.
"""
import pytest

from repro.dsl import qplan
from repro.dsl.aggregates import AGGREGATES
from repro.ir.ops import held_in_slot

RUNS = {
    "empty": [],
    "nulls": [None, None, None],
    "mixed": [3, None, 1.5, 3, -2, None],
    # 1e16 + 1.0 rounds back to 1e16, so the left fold ends at 0.0; a
    # compensated sum (builtin ``sum`` since CPython 3.12) gives 1.0
    "cancelling": [1e16, 1.0, -1e16],
}

#: kind -> run -> the finished value
EXPECTED = {
    "sum": {"empty": 0, "nulls": 0, "mixed": 5.5, "cancelling": 0.0},
    "count": {"empty": 0, "nulls": 0, "mixed": 4, "cancelling": 3},
    "avg": {"empty": None, "nulls": None, "mixed": 1.375, "cancelling": 0.0},
    "min": {"empty": None, "nulls": None, "mixed": -2, "cancelling": -1e16},
    "max": {"empty": None, "nulls": None, "mixed": 3, "cancelling": 1e16},
    "count_distinct": {"empty": 0, "nulls": 0, "mixed": 3, "cancelling": 3},
}

CASES = [(kind, run) for kind in EXPECTED for run in RUNS]


def fold(kind, *runs):
    """Finish one accumulator folded over ``runs``, one call per run; each
    run is handed over as an iterator, as the vectorized engine does."""
    aggregate = AGGREGATES[kind]
    accumulator = aggregate.start()
    for run in runs:
        accumulator = aggregate.fold(accumulator, iter(run))
    return aggregate.finish(accumulator)


def same(actual, expected):
    """Equal, and of the same type: 0 is not 0.0."""
    return type(actual) is type(expected) and actual == expected


def test_the_kinds_are_the_plan_level_kinds():
    assert qplan.AGG_KINDS == ("sum", "count", "avg", "min", "max", "count_distinct")
    assert set(EXPECTED) == set(qplan.AGG_KINDS)


@pytest.mark.parametrize("kind,run", CASES)
def test_one_fold_finishes_to_the_expected_value(kind, run):
    result = fold(kind, RUNS[run])
    assert same(result, EXPECTED[kind][run]), (kind, run, result)


@pytest.mark.parametrize("kind,run", CASES)
def test_a_fold_continued_over_two_calls_equals_one_fold(kind, run):
    values = RUNS[run]
    for split in range(len(values) + 1):
        result = fold(kind, values[:split], values[split:])
        assert same(result, EXPECTED[kind][run]), (kind, run, split, result)


@pytest.mark.parametrize("kind,run", CASES)
def test_one_value_runs_equal_one_fold(kind, run):
    """The interpreter's form: every row is a run of one value."""
    result = fold(kind, *([value] for value in RUNS[run]))
    assert same(result, EXPECTED[kind][run]), (kind, run, result)


def test_count_star_folds_the_constant_one():
    assert same(fold("count", [1] * 4), 4)
    assert same(fold("count", [1], [1, 1]), 3)


def test_min_and_max_keep_the_first_of_equal_values():
    assert same(fold("min", [1.0, 1, None, 2]), 1.0)
    assert same(fold("max", [None, 2, 2.0], [1]), 2)


def test_each_start_is_fresh():
    first, second = AGGREGATES["count_distinct"].start(), AGGREGATES["count_distinct"].start()
    assert first == second == set() and first is not second


def test_the_compiled_record_layout():
    assert {kind: aggregate.slots for kind, aggregate in AGGREGATES.items()} == {
        "sum": (0,), "count": (0,), "avg": (0.0, 0), "min": (None,), "max": (None,),
        "count_distinct": (set,)}
    assert [kind for kind in qplan.AGG_KINDS if held_in_slot([kind])] == \
        ["sum", "count", "min", "max"]
    assert not held_in_slot(["sum", "count"])
    assert not held_in_slot([])
