"""Unit tests for the Python unparser and the generated-code runtime."""
import pytest

from repro.codegen import runtime
from repro.codegen.unparser import PythonUnparser, UnparserError
from repro.ir import IRBuilder, Const, make_program
from repro.ir.nodes import Block, Expr, Program, Stmt, Sym


def unparse_and_run(program, db=None):
    source = PythonUnparser("t").unparse(program)
    namespace = {}
    exec(compile(source, "<test>", "exec"), namespace)
    aux = namespace["prepare"](db, runtime)
    return namespace["query"](db, runtime, aux), source


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

    def test_while_loop(self):
        db = Sym("db")
        b = IRBuilder()
        counter = b.emit("var_new", [0])
        b.while_(lambda: b.emit("lt", [b.emit("var_read", [counter]), 5]),
                 lambda: b.emit("var_write", [counter,
                                              b.emit("add", [b.emit("var_read", [counter]), 1])]))
        program = make_program(b.finish(b.emit("var_read", [counter])), [db], "C.Py")
        result, _ = unparse_and_run(program)
        assert result == 5

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
    @pytest.mark.parametrize("make", [
        runtime.AggTable, lambda kinds: runtime.DenseAggTable(kinds, size=10)],
        ids=["hash", "dense"])
    def test_agg_tables_fold_all_kinds(self, make):
        table = make(("sum", "count", "min", "max", "avg", "count_distinct"))
        table.update(3, (1.0, 1, 5, 5, 10.0, "a"))
        table.update(3, (2.0, None, 3, 7, 20.0, "b"))
        table.update(3, (None, 1, None, None, None, "a"))
        rows = dict(table.finalised())
        assert rows[3] == (3.0, 2, 3, 7, 15.0, 2)

    def test_agg_table_multiple_groups(self):
        table = runtime.AggTable(("sum",))
        table.update(1, (10,))
        table.update(2, (20,))
        table.update(1, (5,))
        assert dict(table.finalised()) == {1: (15,), 2: (20,)}

    def test_dense_agg_table(self):
        table = runtime.DenseAggTable(("sum", "count"), size=10)
        table.update(3, (2.5, 1))
        table.update(3, (1.5, 1))
        table.update(7, (1.0, 1))
        rows = dict(table.finalised())
        assert rows[3] == (4.0, 2)
        assert rows[7] == (1.0, 1)
        table.reset()
        assert dict(table.finalised()) == {}

    def test_string_dictionary_round_trip(self):
        dictionary = runtime.StringDictionary.build(["b", "a", "c", "a"], ordered=True)
        assert dictionary.code("a") == 0
        assert dictionary.code("missing") == -1
        assert dictionary.encode_column(["c", "a"]) == [2, 0]

    def test_string_dictionary_prefix_range(self):
        values = ["PROMO TIN", "PROMO STEEL", "ECONOMY BRASS", "STANDARD COPPER"]
        dictionary = runtime.StringDictionary.build(values, ordered=True)
        lo, hi = dictionary.prefix_range("PROMO")
        codes = [dictionary.code(v) for v in values if v.startswith("PROMO")]
        assert all(lo <= c <= hi for c in codes)
        other = [dictionary.code(v) for v in values if not v.startswith("PROMO")]
        assert all(c < lo or c > hi for c in other)

    def test_string_dictionary_empty_prefix_range(self):
        dictionary = runtime.StringDictionary.build(["alpha", "beta"], ordered=True)
        lo, hi = dictionary.prefix_range("zzz")
        assert lo > hi

    def test_prefix_range_requires_ordered(self):
        dictionary = runtime.StringDictionary.build(["a"], ordered=False)
        with pytest.raises(ValueError):
            dictionary.prefix_range("a")

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
