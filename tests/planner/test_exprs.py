"""Unit tests for the planner's expression analysis and rewriting helpers."""
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dsl.expr import (BINARY, OPERATORS, BinOp, Col, Lit, UnaryOp, case, col,
                            columns_used, in_list, is_null, like, lit,
                            split_conjuncts, substr, year)
from repro.dsl.expr_compile import compile_row
from repro.planner.exprs import (classify_columns, conjoin, flip_sides,
                                 fold_constants, fold_node, is_literal_true,
                                 simplify_predicate, strip_sides,
                                 substitute_columns)
from scalar_oracle import evaluate

SCALARS = st.one_of(st.integers(-30000, 30000), st.floats(allow_nan=False),
                    st.booleans(), st.none(), st.text(max_size=3),
                    st.sampled_from([0, 0.0]))


class TestConjuncts:
    def test_split_flattens_nested_ands(self):
        predicate = (col("a") > 1) & (col("b") > 2) & (col("c") > 3)
        parts = split_conjuncts(predicate)
        assert len(parts) == 3
        assert columns_used(parts[0]) == ["a"]
        assert columns_used(parts[2]) == ["c"]

    def test_split_keeps_disjunctions_whole(self):
        predicate = (col("a") > 1) | (col("b") > 2)
        assert split_conjuncts(predicate) == [predicate]

    def test_conjoin_round_trips(self):
        parts = [col("a") > 1, col("b") > 2]
        rebuilt = conjoin(parts)
        assert split_conjuncts(rebuilt) == parts
        assert conjoin([]) is None


class TestSubstitution:
    def test_substitute_replaces_unsided_references(self):
        mapping = {"revenue": col("price") * (1 - col("discount"))}
        substituted = substitute_columns(col("revenue") > 100.0, mapping)
        assert set(columns_used(substituted)) == {"price", "discount"}

    def test_substitute_preserves_untouched_tree_identity(self):
        predicate = col("other") > 1
        assert substitute_columns(predicate, {"revenue": col("x")}) is predicate

    def test_substitute_skips_sided_references(self):
        predicate = Col("k", "left") == col("k")
        substituted = substitute_columns(predicate, {"k": col("j")})
        assert substituted.left.side == "left" and substituted.left.name == "k"
        assert substituted.right.name == "j"


class TestSides:
    def test_flip_sides(self):
        flipped = flip_sides(Col("a", "left") == Col("b", "right"))
        assert flipped.left.side == "right" and flipped.right.side == "left"

    def test_strip_sides(self):
        stripped = strip_sides(Col("a", "left") == col("b"))
        assert stripped.left.side is None and stripped.right.side is None

    def test_classify_columns(self):
        left, right = ["a", "b"], ["c", "d"]
        assert classify_columns(col("a") > 1, left, right) == "left"
        assert classify_columns(col("c") > 1, left, right) == "right"
        assert classify_columns(col("a") == col("d"), left, right) == "both"
        assert classify_columns(lit(1) == 1, left, right) == "none"
        assert classify_columns(col("zz") > 1, left, right) is None

    def test_classify_resolves_unsided_shadowing_right(self):
        # same name on both inputs: engines resolve right-shadows-left
        assert classify_columns(col("k") > 1, ["k"], ["k"]) == "right"
        assert classify_columns(Col("k", "left") > 1, ["k"], ["k"]) == "left"


class TestConstantFolding:
    def test_folds_pure_arithmetic_and_comparisons(self):
        folded = fold_constants(BinOp("*", lit(6), lit(7)))
        assert isinstance(folded, Lit) and folded.value == 42
        folded = fold_constants(BinOp("<", lit(1), lit(2)))
        assert folded.value is True

    def test_skips_division_by_zero(self):
        expr = BinOp("/", lit(1), lit(0))
        assert fold_constants(expr) is expr

    @pytest.mark.parametrize("expr", [
        BinOp("-", lit("text"), lit(3)),
        UnaryOp("-", lit("a")),
        BinOp("<", lit("a"), lit(1)),
        year(lit(None)),
        substr(lit(None), 1, 2),
        BinOp("/", lit(1), lit(0.0)),
        # ``inf`` has no literal: generated code would raise NameError
        BinOp("*", lit(1e308), lit(10.0)),
    ], ids=repr)
    def test_skips_what_would_raise_or_is_not_a_date(self, expr):
        assert fold_constants(expr) is expr

    def test_folds_inside_larger_trees(self):
        expr = col("x") * BinOp("+", lit(2), lit(3))
        folded = fold_constants(expr)
        assert isinstance(folded.right, Lit) and folded.right.value == 5
        assert folded.left.name == "x"

    @pytest.mark.parametrize("expr", [
        BinOp("and", lit(True), lit(0)),
        BinOp("or", lit(0), lit(3)),
        BinOp("+", lit(1.5), lit(2)),
        BinOp("/", lit(7), lit(2)),
        BinOp("==", lit("a"), lit("a")),
        BinOp("!=", lit(1), lit(2)),
        BinOp(">=", lit(2.0), lit(2)),
        UnaryOp("not", lit(0)),
        UnaryOp("-", lit(4)),
        like(lit("PROMO BRASS"), "PROMO%"),
        in_list(lit(3), [1, 2, 3]),
        substr(lit("abcdef"), 2, 3),
        year(lit(19980902)),
        is_null(lit(None)),
        is_null(lit(0)),
    ], ids=repr)
    def test_folding_matches_evaluate(self, expr):
        folded = fold_constants(expr)
        assert isinstance(folded, Lit)
        assert folded.value == evaluate(expr, {})
        assert type(folded.value) is type(evaluate(expr, {}))

    @settings(max_examples=400, deadline=None)
    @given(operator=st.sampled_from(OPERATORS),
           values=st.lists(SCALARS, min_size=2, max_size=2))
    @example(operator=BINARY["and"], values=[True, 5])
    @example(operator=BINARY["/"], values=[1, 0.0])
    @example(operator=BINARY["*"], values=[1e308, 10.0])
    @example(operator=BINARY["<"], values=[float("-inf"), 1])
    def test_folding_matches_the_oracle_on_every_operator(self, operator, values):
        """``fold_node`` == ``compile_row`` == the oracle, value and type; a
        fold is skipped where running the node raises, divides by a literal
        zero or yields a non-finite float."""
        operands = [lit(value) for value in values[:operator.arity]]
        node = (BinOp if operator.arity == 2 else UnaryOp)(operator.symbol, *operands)
        folded = fold_node(node)
        try:
            expected = evaluate(node, {})
        except (TypeError, ZeroDivisionError, OverflowError) as exc:
            assert folded is None
            with pytest.raises(type(exc)):
                compile_row(node)({})
            return
        value = compile_row(node)({})
        assert value == expected and type(value) is type(expected)
        if folded is not None:
            assert folded.value == expected and type(folded.value) is type(expected)
        else:
            assert (operator.symbol == "/" and values[1] == 0) or (
                isinstance(expected, float) and not math.isfinite(expected))

    def test_untouched_trees_keep_identity(self):
        expr = (col("a") > 1) & (col("b") < 2)
        assert fold_constants(expr) is expr

    def test_case_with_literal_conditions(self):
        expr = case([(lit(False), lit(1)), (lit(True), col("x"))], lit(0))
        folded = fold_constants(expr)
        assert isinstance(folded, Col) and folded.name == "x"


class TestPredicateSimplification:
    def test_drops_literal_true_conjuncts(self):
        predicate = (col("a") > 1) & lit(True)
        simplified = simplify_predicate(predicate)
        assert columns_used(simplified) == ["a"]
        assert not (isinstance(simplified, BinOp) and simplified.op == "and")

    def test_collapses_literal_false(self):
        simplified = simplify_predicate((col("a") > 1) & lit(False))
        assert isinstance(simplified, Lit) and simplified.value is False

    def test_or_with_literal_true_short_circuits(self):
        simplified = simplify_predicate((col("a") > 1) | lit(True))
        assert is_literal_true(simplified)

    def test_fully_constant_predicate(self):
        assert is_literal_true(simplify_predicate(BinOp(">", lit(2), lit(1))))
