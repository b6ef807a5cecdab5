"""Unit tests for the Python unparser and the generated-code runtime."""
import warnings

import pytest

from repro.codegen import runtime
from repro.codegen.compiler import QueryCompiler
from repro.codegen.unparser import PythonUnparser, UnparserError
from repro.dsl import qplan as Q
from repro.dsl.expr import is_null, lit
from repro.ir import IRBuilder, Const, make_program
from repro.ir.nodes import Block, Expr, Program, Stmt, Sym
from repro.storage.catalog import Catalog
from repro.storage.layouts import ColumnarTable
from repro.stack.configs import build_config
from repro.storage.schema import TableSchema, string_column


def unparse_and_run(program, db=None):
    source = PythonUnparser("t").unparse(program)
    namespace = {}
    exec(compile(source, "<test>", "exec"), namespace)
    aux = namespace["prepare"](db, runtime)
    return namespace["query"](db, runtime, aux), source


def catalog_dictionary(values):
    """A catalog whose ``T.t_s`` holds ``values`` five times over (so the
    column is not near-unique), and the access layer's dictionary of it; keep
    the catalog, the layer points at it weakly."""
    catalog = Catalog()
    catalog.register(ColumnarTable(TableSchema("T", [string_column("t_s")]),
                                   {"t_s": list(values) * 5}))
    return catalog, catalog.access_layer().dictionary("T", "t_s")


@pytest.mark.parametrize("config", ["dblab-2", "template-expander"])
def test_a_literal_compared_with_none_compiles_without_a_warning(tiny_catalog, config):
    """Neither configuration folds ``IsNull(Lit(5))`` or ``5 != None``, and
    ``5 is None`` in generated source would be a SyntaxWarning: a literal
    on the left keeps ``==`` / ``!=``."""
    plan = Q.Project(Q.Scan("R"), [("null", is_null(lit(5))),
                                   ("not_null", lit(5) != lit(None))])
    stack = build_config(config)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SyntaxWarning)
        compiled = QueryCompiler(stack.stack, stack.flags).compile(
            plan, tiny_catalog, "literal_none")
        rows = compiled.run(tiny_catalog)
    assert "(5 == None)" in compiled.source and "(5 != None)" in compiled.source
    assert rows == [{"null": False, "not_null": True}] * 5


class TestUnparser:
    def test_arithmetic_program(self):
        db = Sym("db")
        b = IRBuilder()
        x = b.emit("add", [4, 5])
        y = b.emit("mul", [x, 3])
        z = b.emit("sub", [y, 7])
        program = make_program(b.finish(z), [db], "C.Py")
        result, source = unparse_and_run(program)
        assert result == 20
        assert "def prepare(" in source and "def query(" in source

    def test_loop_with_mutable_variable(self):
        db = Sym("db")
        b = IRBuilder()
        acc = b.emit("var_new", [0])

        def body(i):
            b.emit("var_write", [acc, b.emit("add", [b.emit("var_read", [acc]), i])])

        b.for_range(0, 10, body)
        program = make_program(b.finish(b.emit("var_read", [acc])), [db], "C.Py")
        result, _ = unparse_and_run(program)
        assert result == sum(range(10))

    def test_if_expression_produces_value_on_both_branches(self):
        db = Sym("db")
        b = IRBuilder()
        cond = b.emit("lt", [3, 2])
        value = b.if_(cond, lambda: Const(1), lambda: Const(2))
        program = make_program(b.finish(value), [db], "C.Py")
        result, source = unparse_and_run(program)
        assert result == 2
        assert "else:" in source

    def test_records_boxed_and_row_layout(self):
        db = Sym("db")
        b = IRBuilder()
        boxed = b.emit("record_new", [1, "a"], attrs={"fields": ("x", "y"), "layout": "boxed"})
        row = b.emit("record_new", [2, "b"], attrs={"fields": ("x", "y"), "layout": "row"})
        bx = b.emit("record_get", [boxed], attrs={"field": "y", "layout": "boxed"})
        rx = b.emit("record_get", [row], attrs={"field": "x", "layout": "row",
                                                "fields": ("x", "y")})
        pair = b.emit("tuple_new", [bx, rx])
        program = make_program(b.finish(pair), [db], "C.Py")
        result, _ = unparse_and_run(program)
        assert result == ("a", 2)

    def test_generic_containers(self):
        db = Sym("db")
        b = IRBuilder()
        table = b.emit("mmap_new", [])
        b.emit("mmap_add", [table, 1, "a"])
        b.emit("mmap_add", [table, 1, "b"])
        bucket = b.emit("mmap_get", [table, 1])
        miss = b.emit("mmap_get", [table, 99])
        program = make_program(b.finish(b.emit("tuple_new", [bucket, miss])), [db], "C.Py")
        result, _ = unparse_and_run(program)
        assert result == (["a", "b"], ())

    def test_groups_are_created_once_per_key_and_slot(self):
        """The group lookups unparse inline: the first lookup of a key (or a
        slot) creates its group from the kinds' starting values — a record,
        or the value itself for a lone sum, count, min or max, which its
        table slot holds and a write puts back — and later ones return it.
        A dense slot still holding ``None`` (a max over NULLs so far) is a
        group already, listed once in first-use order."""
        db = Sym("db")
        b = IRBuilder()
        table = b.emit("hashmap_agg_new", [])
        sums = b.emit("hashmap_agg_new", [])
        slots = b.emit("dense_agg_new", [3])
        for key in ("a", "b", "a"):
            record = b.emit("hashmap_agg_group", [table, key],
                            attrs={"aggs": ("avg", "count_distinct")})
            b.emit("set_add", [b.emit("array_get", [record, 2]), key])
            total = b.emit("hashmap_agg_group", [sums, key], attrs={"aggs": ("sum",)})
            b.emit("hashmap_agg_set", [sums, key, b.emit("add", [total, 1])])
            b.emit("dense_agg_group", [slots, 1], attrs={"aggs": ("max",)})
        b.emit("dense_agg_group", [slots, 2], attrs={"aggs": ("max",)})
        b.emit("dense_agg_set", [slots, 2, "z"])
        size = b.emit("set_size", [b.emit("array_get", [record, 2])])
        program = make_program(b.finish(b.emit("tuple_new", [table, sums, slots, size])),
                               [db], "C.Py")
        result, source = unparse_and_run(program)
        assert result == ({"a": [0.0, 0, {"a"}], "b": [0.0, 0, {"b"}]},
                          {"a": 2, "b": 1}, [..., None, "z", [1, 2]], 1)
        assert "_rt." not in source

    def test_hoisted_block_becomes_prepare(self, tiny_catalog):
        db = Sym("db")
        hoisted = IRBuilder()
        col = hoisted.emit("table_column", [db], attrs={"table": "R", "column": "r_sid"})
        body = IRBuilder()
        value = body.emit("array_get", [col, 2])
        program = Program(body=body.finish(value), params=(db,), language="C.Py",
                          hoisted=hoisted.finish())
        result, source = unparse_and_run(program, tiny_catalog)
        assert result == 30
        assert "aux[" in source

    def test_string_operations(self):
        db = Sym("db")
        b = IRBuilder()
        starts = b.emit("str_startswith", ["PROMO BRUSHED", "PROMO"])
        contains = b.emit("str_contains", ["PROMO BRUSHED", "USH"])
        pattern = b.emit("str_like", ["special packed requests"],
                         attrs={"pattern": "%special%requests%"})
        sub = b.emit("str_substr", ["telephone"], attrs={"start": 1, "length": 4})
        program = make_program(b.finish(b.emit("tuple_new", [starts, contains, pattern, sub])),
                               [db], "C.Py")
        result, _ = unparse_and_run(program)
        assert result == (True, True, True, "tele")

    def test_unknown_op_raises(self):
        db = Sym("db")
        block = Block([Stmt(Sym("x"), Expr("print_", (Const("ok"),)))], Const(None))
        program = Program(body=block, params=(db,), language="C.Py")
        # replace with an unregistered op name to hit the error path
        block.stmts[0] = Stmt(Sym("x"), Expr("quantum_sort", ()))
        with pytest.raises(UnparserError):
            PythonUnparser().unparse(program)

    def test_requires_single_parameter(self):
        program = make_program(Block(), [], "C.Py")
        with pytest.raises(UnparserError):
            PythonUnparser().unparse(program)


class TestRuntime:
    def test_string_dictionary_round_trip(self):
        catalog, dictionary = catalog_dictionary(["b", "a", "c", "a"])
        assert dictionary.code("a") == 0
        assert dictionary.code("missing") is None
        assert dictionary.codes[:4] == [1, 0, 2, 0]
        column = catalog.column("T", "t_s")
        assert [dictionary.values[code] for code in dictionary.codes] == column

    def test_string_dictionary_prefix_range(self):
        values = ["PROMO TIN", "PROMO STEEL", "ECONOMY BRASS", "STANDARD COPPER"]
        _catalog, dictionary = catalog_dictionary(values)
        lo, hi = runtime.catalog_prefix_range(dictionary, "PROMO")
        codes = [dictionary.code(v) for v in values if v.startswith("PROMO")]
        assert all(lo <= c <= hi for c in codes)
        other = [dictionary.code(v) for v in values if not v.startswith("PROMO")]
        assert all(c < lo or c > hi for c in other)

    def test_string_dictionary_empty_prefix_range(self):
        _catalog, dictionary = catalog_dictionary(["alpha", "beta"])
        lo, hi = runtime.catalog_prefix_range(dictionary, "zzz")
        assert lo > hi

    def test_sort_records_boxed_and_row(self):
        boxed = [{"a": 2, "b": "x"}, {"a": 1, "b": "y"}, {"a": 2, "b": "a"}]
        result = runtime.sort_records(boxed, [("a", "asc"), ("b", "desc")], "boxed")
        assert [(r["a"], r["b"]) for r in result] == [(1, "y"), (2, "x"), (2, "a")]
        rows = [(2, "x"), (1, "y")]
        result = runtime.sort_records(rows, [("a", "asc")], "row", ("a", "b"))
        assert result == [(1, "y"), (2, "x")]

    def test_like_multi_wildcard(self):
        assert runtime.like("the special delivery requests arrived", "%special%requests%")
        assert not runtime.like("requests then special", "%special%requests%")
        assert runtime.like("forest green", "forest%")
        assert not runtime.like("green forest", "forest%")


class TestCatalogPartition:
    """``access_partition`` and its runtime companion."""

    ATTRS = {"table": "S", "column": "s_rid", "key_lo": 10, "key_hi": 50}

    def _program(self, **claimed):
        db = Sym("db")
        part = Stmt(Sym("part"), Expr("access_partition", (db,),
                                      dict(self.ATTRS, **claimed)))
        bucket = Stmt(Sym("bucket"), Expr("array_get", (part.sym, Const(0))))
        return Program(body=Block([bucket], bucket.sym), params=(db,),
                       language="C.Py", hoisted=Block([part]))

    def test_claimed_partition_fetches_the_slot_array(self, tiny_catalog):
        result, source = unparse_and_run(self._program(single=False), tiny_catalog)
        assert "_rt.catalog_partition(db" in source
        assert "'S', 's_rid', 10, 41, False)" in source
        assert result == [0, 2]   # rows of S with s_rid == 10

    def test_unclaimed_partition_is_an_unparser_error(self):
        with pytest.raises(UnparserError, match="never claimed"):
            PythonUnparser().unparse(self._program())

    def test_other_key_range_than_compiled_fails_loudly(self, tiny_catalog):
        from repro.storage.access import AccessError
        slots = runtime.catalog_partition(tiny_catalog, "S", "s_rid", 10, 41, False)
        assert slots is tiny_catalog.access_layer().partition("S", "s_rid").slots
        with pytest.raises(AccessError, match="compiled against"):
            runtime.catalog_partition(tiny_catalog, "S", "s_rid", 10, 40, False)
        with pytest.raises(AccessError, match="compiled against"):
            runtime.catalog_partition(tiny_catalog, "R", "r_name", 0, 5, False)

    def test_single_slots_come_from_the_unique_key_index(self, tiny_catalog):
        from repro.storage.access import AccessError
        slots = runtime.catalog_partition(tiny_catalog, "R", "r_id", 1, 5, True)
        assert slots is tiny_catalog.access_layer().key_index("R", "r_id").slots
        assert slots == [0, 1, 2, 3, 4]
        with pytest.raises(AccessError):   # s_rid is not unique
            runtime.catalog_partition(tiny_catalog, "S", "s_rid", 10, 41, True)
