"""Every node kind of the scalar language goes through every per-node function.

The kinds are ``Expr.__subclasses__()``: a kind added to ``dsl/expr.py`` and
left out of the child walk, the fingerprint, the engines' closures, the ANF
lowering or constant folding fails here, by name.  Each function's value is
held to the reference evaluator of the tests.
"""
import pytest

from repro.codegen import runtime
from repro.codegen.unparser import PythonUnparser
from repro.dsl import expr as E
from repro.dsl.expr import case, in_list, is_null, like, lit, substr, year
from repro.dsl.expr_compile import compile_row, expr_fingerprint
from repro.ir import IRBuilder, make_program
from repro.ir.nodes import Const, Sym
from repro.planner.exprs import fold_node
from repro.transforms.rowvals import RowVals
from repro.transforms.scalar_compiler import ScalarCompiler
from scalar_oracle import evaluate

#: one node of each kind, its operands literals (a leaf reads ``ROW``)
SAMPLES = {
    E.Col: E.Col("x"),
    E.Lit: lit(7),
    E.BinOp: E.BinOp("+", lit(2), lit(3.5)),
    E.UnaryOp: E.UnaryOp("-", lit(4)),
    E.Like: like(lit("PROMO BRASS"), "PROMO%"),
    E.InList: in_list(lit(3), [1, 2, 3]),
    E.Case: case([(lit(False), lit(1)), (lit(True), lit(2))], lit(3)),
    E.Substr: substr(lit("abcdef"), 2, 3),
    E.YearOf: year(lit(19980902)),
    E.IsNull: is_null(lit(None)),
}
KINDS = E.Expr.__subclasses__()
ROW = {"x": 11}


def _lowered(node):
    """The value of ``node`` on ``ROW`` through the ANF lowering and the
    generated Python."""
    builder = IRBuilder()
    atom = ScalarCompiler(builder).compile(
        node, RowVals.scalars({name: Const(value) for name, value in ROW.items()}))
    program = make_program(builder.finish(atom), [Sym("db")], "ScaLite")
    namespace = {}
    exec(compile(PythonUnparser("kinds").unparse(program), "<kinds>", "exec"), namespace)
    return namespace["query"](None, runtime, namespace["prepare"](None, runtime))


def _same(value, expected):
    return value == expected and type(value) is type(expected)


def test_every_kind_has_a_sample():
    assert set(SAMPLES) == set(KINDS)


@pytest.fixture(params=KINDS, ids=lambda kind: kind.__name__)
def node(request):
    return SAMPLES[request.param]


class TestEveryKind:
    def test_map_children_rebuilds_the_kind(self, node):
        assert E.map_children(node, lambda child: child) is node
        old = E.children(node)
        fresh = [E.Col(f"c{position}") for position in range(len(old))]
        slots = iter(fresh)
        rebuilt = E.map_children(node, lambda child: next(slots))
        assert type(rebuilt) is type(node)
        assert len(E.children(rebuilt)) == len(fresh)
        assert all(new is made for new, made in zip(E.children(rebuilt), fresh))
        back = iter(old)
        restored = E.map_children(rebuilt, lambda child: next(back))
        assert expr_fingerprint(restored) == expr_fingerprint(node)

    def test_fingerprints_tell_the_kinds_apart(self, node):
        others = [expr_fingerprint(SAMPLES[kind]) for kind in KINDS
                  if kind is not type(node)]
        assert expr_fingerprint(node) not in others

    def test_compile_row_is_the_oracle(self, node):
        assert _same(compile_row(node)(ROW), evaluate(node, ROW))

    def test_the_anf_lowering_computes_the_oracle(self, node):
        assert _same(_lowered(node), evaluate(node, ROW))

    def test_fold_node_folds_what_has_operands(self, node):
        folded = fold_node(node)
        if not E.children(node):
            assert folded is None
        else:
            assert _same(compile_row(folded)({}), evaluate(node, {}))
