"""Unit tests for the scalar expression DSL."""
import re

import pytest

from repro.codegen import runtime
from repro.dsl.expr import (BinOp, Col, ExprError, Like, UnaryOp, and_all, case, col,
                            columns_used, date, in_list, is_null, like, lit,
                            substr, wrap, year)
from repro.dsl.expr_compile import compile_row
from scalar_oracle import evaluate


ROW = {"a": 10, "b": 3, "name": "PROMO BRUSHED STEEL", "flag": True,
       "ship": 19950315, "price": 100.0, "disc": 0.05, "null_col": None}


class TestConstruction:
    def test_operator_overloading_builds_binops(self):
        expr = (col("a") + 1) * col("b")
        assert isinstance(expr, BinOp)
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_comparison_builds_expression_not_bool(self):
        expr = col("a") == 10
        assert isinstance(expr, BinOp)
        assert expr.op == "=="

    def test_reverse_operators(self):
        assert evaluate(1 - col("disc"), ROW) == pytest.approx(0.95)
        assert evaluate(2 * col("b"), ROW) == 6
        assert evaluate(1 + col("b"), ROW) == 4

    def test_wrap_rejects_unsupported(self):
        with pytest.raises(ExprError):
            wrap(object())

    def test_invalid_operator_names_rejected(self):
        with pytest.raises(ExprError):
            BinOp("**", lit(1), lit(2))
        with pytest.raises(ExprError):
            UnaryOp("abs", lit(1))

    def test_date_literal_uses_integer_encoding(self):
        assert date("1998-09-02").value == 19980902

    def test_and_all(self):
        assert evaluate(and_all([col("a") > 1, col("b") > 1]), ROW) is True
        assert evaluate(and_all([]), ROW) is True


class TestEvaluation:
    def test_arithmetic(self):
        assert evaluate(col("a") + col("b"), ROW) == 13
        assert evaluate(col("a") - col("b"), ROW) == 7
        assert evaluate(col("a") * col("b"), ROW) == 30
        assert evaluate(col("a") / lit(4), ROW) == 2.5

    def test_comparisons(self):
        assert evaluate(col("a") > col("b"), ROW)
        assert not evaluate(col("a") < col("b"), ROW)
        assert evaluate(col("a") != col("b"), ROW)
        assert evaluate(col("a") >= 10, ROW)
        assert evaluate(col("a") <= 10, ROW)

    def test_boolean_connectives(self):
        assert evaluate((col("a") > 5) & (col("b") < 5), ROW)
        assert evaluate((col("a") > 50) | (col("b") < 5), ROW)
        assert evaluate(~(col("a") > 50), ROW)

    def test_missing_column_raises(self):
        with pytest.raises(ExprError):
            evaluate(col("zzz"), ROW)

    def test_sided_column_references(self):
        left = {"k": 1}
        right = {"k": 2}
        expr = Col("k", "left") != Col("k", "right")
        assert evaluate(expr, {**left, **right}, left=left, right=right)

    def test_like_prefix(self):
        assert evaluate(like(col("name"), "PROMO%"), ROW)
        assert not evaluate(like(col("name"), "ECONOMY%"), ROW)

    def test_like_contains(self):
        assert evaluate(like(col("name"), "%BRUSHED%"), ROW)

    def test_like_suffix(self):
        assert evaluate(like(col("name"), "%STEEL"), ROW)

    def test_like_multi_wildcard(self):
        assert evaluate(like(col("name"), "%PROMO%STEEL%"), ROW)
        assert not evaluate(like(col("name"), "%STEEL%PROMO%"), ROW)

    def test_like_kind_classification(self):
        assert Like(col("x"), "abc%").kind() == ("prefix", "abc")
        assert Like(col("x"), "%abc").kind() == ("suffix", "abc")
        assert Like(col("x"), "%abc%").kind() == ("contains", "abc")
        assert Like(col("x"), "abc").kind() == ("equals", "abc")

    def test_in_list(self):
        assert evaluate(in_list(col("b"), [1, 2, 3]), ROW)
        assert not evaluate(in_list(col("b"), [7, 8]), ROW)

    def test_case(self):
        expr = case([(col("a") > 100, lit("big")), (col("a") > 5, lit("medium"))], lit("small"))
        assert evaluate(expr, ROW) == "medium"

    def test_case_falls_through_to_otherwise(self):
        expr = case([(col("a") > 100, lit(1))], lit(0))
        assert evaluate(expr, ROW) == 0

    def test_substr_is_one_based(self):
        assert evaluate(substr(col("name"), 1, 5), ROW) == "PROMO"
        assert evaluate(substr(col("name"), 7, 7), ROW) == "BRUSHED"

    def test_year_of(self):
        assert evaluate(year(col("ship")), ROW) == 1995

    def test_is_null(self):
        assert evaluate(is_null(col("null_col")), ROW)
        assert not evaluate(is_null(col("a")), ROW)


#: (value, pattern, LIKE answer): the TPC-H multi-wildcard patterns (Q13,
#: Q16), a two-part pattern, anchored ends that may not overlap, and patterns
#: with no wildcard, which must span the whole value.
LIKE_CASES = [
    ("pending special deposits; requests", "%special%requests%", True),
    ("requests are special", "%special%requests%", False),
    ("specialrequests", "%special%requests%", True),
    ("Customer ... Complaints about", "%Customer%Complaints%", True),
    ("Complaints of a Customer", "%Customer%Complaints%", False),
    ("ab", "a%b", True),
    ("axxb", "a%b", True),
    ("abc", "a%b", False),
    ("ba", "a%b", False),
    ("ab", "ab%ab", False),
    ("aba", "ab%ab", False),
    ("abab", "ab%ab", True),
    ("ab-ab", "ab%ab", True),
    ("abc", "abc", True),
    ("abcabc", "abc", False),
    ("xabc", "abc", False),
    ("", "", True),
    ("x", "", False),
    ("", "%", True),
    ("anything", "%", True),
    ("a-b", "a%%b", True),
    ("PROMO BRUSHED", "PROMO%", True),
    ("LARGE BRASS", "%BRASS", True),
    ("dark green", "%green%", True),
    ("forest", "forest%", True),
]


def _reference(value, pattern):
    return re.fullmatch(".*".join(map(re.escape, pattern.split("%"))), value,
                        re.DOTALL) is not None


class TestLikeParity:
    """One LIKE matcher: the interpreter, the compiled row form and generated
    code (``_rt.like``) agree with each other and with a regex reference."""

    @pytest.mark.parametrize("value, pattern, expected", LIKE_CASES)
    def test_every_route_gives_the_like_answer(self, value, pattern, expected):
        assert _reference(value, pattern) is expected
        predicate = like(col("s"), pattern)
        assert predicate.matches(value) is expected
        assert evaluate(predicate, {"s": value}) is expected
        assert compile_row(predicate)({"s": value}) is expected
        assert runtime.like(value, pattern) is expected


class TestAnalysis:
    def test_columns_used_simple(self):
        assert columns_used(col("a") + col("b") * col("a")) == ["a", "b"]

    def test_columns_used_all_node_kinds(self):
        expr = case([(like(col("s"), "x%"), year(col("d")))],
                    in_list(col("e"), [1]) & is_null(substr(col("f"), 1, 2)))
        assert set(columns_used(expr)) == {"s", "d", "e", "f"}

    def test_columns_used_ignores_literals(self):
        assert columns_used(lit(5) + lit(3)) == []
