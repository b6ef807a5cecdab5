"""Unit tests for the expression-to-closure compiler."""
import pytest

from repro.dsl import expr_compile as EC
from repro.dsl.expr import (Col, case, col, in_list, is_null, like,
                            lit, substr, year)
from scalar_oracle import evaluate


ROWS = [
    {"a": 1, "b": 2.5, "s": "FooBar", "d": 9131, "n": None},
    {"a": -3, "b": 0.0, "s": "special requests", "d": 10500, "n": 7},
    {"a": 50, "b": 100.0, "s": "BARRELS", "d": 8766, "n": 0},
]

EXPRESSIONS = [
    col("a") + col("b") * 2 - 1,
    (col("a") > 0) & (col("b") < 50.0),
    (col("a") == 1) | ~(col("b") >= 2.5),
    col("b") / 2 + (0 - col("a")),
    like(col("s"), "Foo%"),
    like(col("s"), "%special%requests%"),
    in_list(col("a"), [1, 50, 99]),
    case([(col("a") > 10, col("b")), (col("a") > 0, lit(0.5))], lit(-1)),
    substr(col("s"), 1, 3),
    year(col("d")),
    is_null(col("n")),
    lit(True) & (col("a") != 2),
]


class TestRowForm:
    @pytest.mark.parametrize("expr", EXPRESSIONS, ids=repr)
    def test_matches_evaluate(self, expr):
        fn = EC.compile_row(expr)
        for row in ROWS:
            assert fn(row) == evaluate(expr, row)

    def test_and_or_return_plain_bools(self):
        # evaluate() coerces connective operands with bool(); the compiled
        # form must not leak truthy operand values.
        expr = col("a") & col("n")
        fn = EC.compile_row(expr)
        row = {"a": 7, "n": 3}
        assert fn(row) is True
        assert fn(row) == evaluate(expr, row)

    def test_closures_are_cached(self):
        first = EC.compile_row(col("a") + 1)
        second = EC.compile_row(col("a") + 1)
        assert first is second

    def test_structurally_different_expressions_compile_separately(self):
        assert EC.compile_row(col("a") + 1) is not EC.compile_row(col("a") + 2)


class TestPairForm:
    def test_sided_columns(self):
        expr = Col("x", "left") < Col("x", "right")
        fn = EC.compile_pair(expr)
        assert fn({"x": 1}, {"x": 2}) is True
        assert fn({"x": 3}, {"x": 2}) is False

    def test_unsided_columns_follow_merged_dict_semantics(self):
        # evaluate() resolves unsided columns against {**left, **right}:
        # the right side shadows the left.
        expr = col("x") + col("y")
        fn = EC.compile_pair(expr)
        left, right = {"x": 1, "y": 10}, {"x": 100}
        assert fn(left, right) == evaluate(expr, {**left, **right})
        assert fn(left, right) == 110


class TestColumnarForms:
    COLS = {"a": [1, -3, 50], "b": [2.5, 0.0, 100.0], "s": ["Foo", "xx", "Fob"],
            "n": [None, 7, 0]}

    @pytest.mark.parametrize("expr", [
        col("a") * 2 + col("b"),
        case([(col("a") > 0, col("b"))], lit(0)),
        is_null(col("n")),
    ], ids=repr)
    def test_values_match_row_at_a_time(self, expr):
        fn = EC.compile_columnar(expr)
        rows = [{k: v[i] for k, v in self.COLS.items()} for i in range(3)]
        assert fn(self.COLS, range(3)) == [evaluate(expr, row) for row in rows]

    def test_predicate_returns_selection_vector(self):
        pred = EC.compile_columnar_predicate((col("a") > 0) & (col("b") < 50.0))
        assert pred(self.COLS, range(3)) == [0]

    def test_predicate_respects_incoming_selection(self):
        pred = EC.compile_columnar_predicate(col("a") != 0)
        assert pred(self.COLS, [2, 0]) == [2, 0]

    def test_predicate_on_empty_selection(self):
        pred = EC.compile_columnar_predicate(col("a") > 0)
        assert pred(self.COLS, []) == []

    def test_columnar_pair_binder(self):
        lcols = {"k": [1, 2, 3], "v": [10, 20, 30]}
        rcols = {"k": [2, 3], "w": [200, 300]}
        expr = Col("v", "left") + Col("w", "right")
        fn = EC.compile_columnar_pair(expr, ("k", "v"), ("k", "w"))(lcols, rcols)
        assert fn(0, 1) == 310
        # unsided column resolves to the right side when both have it
        shadow = EC.compile_columnar_pair(col("k"), ("k", "v"), ("k", "w"))(lcols, rcols)
        assert shadow(0, 1) == 3


class TestFingerprints:
    def test_stable_across_equal_structures(self):
        assert EC.expr_fingerprint(col("a") + 1) == EC.expr_fingerprint(col("a") + 1)

    def test_sensitive_to_literals_ops_and_sides(self):
        prints = {
            EC.expr_fingerprint(col("a") + 1),
            EC.expr_fingerprint(col("a") + 2),
            EC.expr_fingerprint(col("a") - 1),
            EC.expr_fingerprint(col("b") + 1),
            EC.expr_fingerprint(Col("a", "left") + 1),
            EC.expr_fingerprint(lit(1) + col("a")),
        }
        assert len(prints) == 6

    def test_distinguishes_value_types(self):
        assert EC.expr_fingerprint(lit(1)) != EC.expr_fingerprint(lit(1.0))
        assert EC.expr_fingerprint(lit(True)) != EC.expr_fingerprint(lit(1))


class TestSlots:
    def test_expr_nodes_have_no_instance_dict(self):
        for node in (col("a"), lit(1), col("a") + 1, ~col("a"),
                     like(col("a"), "x%"), in_list(col("a"), [1]),
                     substr(col("a"), 1, 2), year(col("a")), is_null(col("a"))):
            assert not hasattr(node, "__dict__"), type(node).__name__
