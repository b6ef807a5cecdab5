"""Tests for the compiled-query cache and plan fingerprints."""
import gc
import weakref

import pytest

from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan as Q
from repro.dsl.expr import col
from repro.dsl.qmonad import QueryMonad, to_qplan
from repro.stack.configs import build_config
from repro.storage.access import AccessLayer
from repro.storage.catalog import Catalog
from repro.storage.derived import COMPILED, PROBATION
from repro.tpch.dbgen import generate_catalog


def _plan():
    return Q.Agg(
        Q.HashJoin(Q.Select(Q.Scan("R"), col("r_name") == "R1"),
                   Q.Scan("S"), col("r_sid"), col("s_rid")),
        [], [Q.AggSpec("count", None, "n")])


def _entries(catalog):
    """Compiled queries the catalog's derived cache holds now."""
    return AccessLayer.for_catalog(catalog).derived.entry_count(COMPILED)


@pytest.fixture(autouse=True)
def fresh_cache():
    QueryCompiler.clear_cache()
    yield
    QueryCompiler.clear_cache()


class TestPlanFingerprint:
    def test_structurally_equal_plans_share_a_fingerprint(self):
        assert Q.plan_fingerprint(_plan()) == Q.plan_fingerprint(_plan())

    def test_fingerprint_changes_with_any_component(self):
        base = _plan()
        variants = [
            Q.Limit(base, 10),
            Q.Agg(base.child, [], [Q.AggSpec("count", None, "m")]),
            Q.Agg(base.child, [], [Q.AggSpec("sum", col("s_val"), "n")]),
            Q.Agg(Q.HashJoin(Q.Select(Q.Scan("R"), col("r_name") == "R2"),
                             Q.Scan("S"), col("r_sid"), col("s_rid")),
                  [], [Q.AggSpec("count", None, "n")]),
        ]
        prints = {Q.plan_fingerprint(p) for p in [base] + variants}
        assert len(prints) == len(variants) + 1

    def test_scan_field_pruning_changes_fingerprint(self):
        assert Q.plan_fingerprint(Q.Scan("R")) != \
            Q.plan_fingerprint(Q.Scan("R", fields=("r_id",)))

    def test_sort_direction_changes_fingerprint(self):
        asc = Q.Sort(Q.Scan("R"), [(col("r_id"), "asc")])
        desc = Q.Sort(Q.Scan("R"), [(col("r_id"), "desc")])
        assert Q.plan_fingerprint(asc) != Q.plan_fingerprint(desc)


class TestCompiledQueryCache:
    def test_second_compile_skips_the_dsl_stack(self, tiny_catalog):
        config = build_config("dblab-5")
        compiler = QueryCompiler(config.stack, config.flags)
        stack_runs = []
        original = config.stack.compile

        def counting_compile(*args, **kwargs):
            stack_runs.append(1)
            return original(*args, **kwargs)

        config.stack.compile = counting_compile
        try:
            first = compiler.compile(_plan(), tiny_catalog, "q")
            second = compiler.compile(_plan(), tiny_catalog, "q")
        finally:
            config.stack.compile = original

        assert len(stack_runs) == 1
        assert not first.cache_hit and second.cache_hit
        assert QueryCompiler.cache_stats.hits == 1
        assert QueryCompiler.cache_stats.misses == 1
        assert second.source == first.source
        assert second.run(tiny_catalog) == first.run(tiny_catalog)

    def test_a_hit_does_not_validate_the_plan(self, tiny_catalog, monkeypatch):
        """An unplanned tree is validated when it is built, not on each hit."""
        config = build_config("dblab-5")
        compiler = QueryCompiler(config.stack, config.flags)
        calls = []
        validate = Q.validate
        monkeypatch.setattr(Q, "validate", lambda *args: calls.append(1) or validate(*args))
        compiler.compile(_plan(), tiny_catalog, "q")
        assert calls
        del calls[:]
        assert compiler.compile(_plan(), tiny_catalog, "q").cache_hit
        assert calls == []
        bad = Q.Select(Q.Scan("R"), col("not_a_column") == 1)
        with pytest.raises(Q.PlanError):
            compiler.compile(bad, tiny_catalog, "q")

    def test_cached_copy_has_independent_prepared_state(self, tiny_catalog):
        """The stateless contract: every ``prepare`` hands its caller a new
        ``aux`` and nothing prepared stays on the query — neither on the
        object a miss returned (the one the cache holds) nor on a hit."""
        config = build_config("dblab-4")
        compiler = QueryCompiler(config.stack, config.flags)
        first = compiler.compile(_plan(), tiny_catalog, "q")
        prepared = []

        class Sentinel:
            pass

        def tracking_prepare(db, rt, _prepare=first._prepare_fn):
            aux = _prepare(db, rt)
            aux["sentinel"] = Sentinel()
            prepared.append(weakref.ref(aux["sentinel"]))
            return aux

        # the test's probe, not the API: CompiledQuery is frozen
        object.__setattr__(first, "_prepare_fn", tracking_prepare)
        second = compiler.compile(_plan(), tiny_catalog, "q")
        assert second.cache_hit and second._prepare_fn is tracking_prepare
        assert first.prepare(tiny_catalog) is not first.prepare(tiny_catalog)
        assert second.run(tiny_catalog) == first.run(tiny_catalog)
        gc.collect()
        assert len(prepared) == 4
        assert all(ref() is None for ref in prepared), \
            "prepared state outlived the call that prepared it"
        assert compiler.compile(_plan(), tiny_catalog, "q").cache_hit
        assert not any(name.startswith("_aux") for name in vars(first))

    def test_different_configuration_misses(self, tiny_catalog):
        five = build_config("dblab-5")
        compliant = build_config("tpch-compliant")
        QueryCompiler(five.stack, five.flags).compile(_plan(), tiny_catalog, "q")
        other = QueryCompiler(compliant.stack, compliant.flags).compile(
            _plan(), tiny_catalog, "q")
        assert not other.cache_hit
        assert QueryCompiler.cache_stats.misses == 2

    def test_different_plan_misses(self, tiny_catalog):
        config = build_config("dblab-5")
        compiler = QueryCompiler(config.stack, config.flags)
        compiler.compile(_plan(), tiny_catalog, "q")
        other = compiler.compile(Q.Select(Q.Scan("R"), col("r_id") > 1),
                                 tiny_catalog, "q")
        assert not other.cache_hit

    def test_different_catalog_misses(self):
        # Identical plan, config, flags and name: only the catalog differs,
        # so this isolates the catalog component of the cache key.
        config = build_config("dblab-5")
        compiler = QueryCompiler(config.stack, config.flags)
        catalog_a = generate_catalog(scale_factor=0.0005, seed=7)
        catalog_b = generate_catalog(scale_factor=0.0005, seed=7)
        plan = Q.Agg(Q.Scan("lineitem", fields=("l_quantity",)), [],
                     [Q.AggSpec("sum", col("l_quantity"), "total")])
        first = compiler.compile(plan, catalog_a, "q")
        second = compiler.compile(plan, catalog_b, "q")
        assert not first.cache_hit
        assert not second.cache_hit
        assert QueryCompiler.cache_stats.misses == 2

    def test_clear_cache_empties_every_catalogs_cache(self, tiny_catalog):
        config = build_config("dblab-5")
        compiler = QueryCompiler(config.stack, config.flags)
        other = Catalog()
        for name in tiny_catalog.table_names():
            other.register(tiny_catalog.table(name))
        for catalog in (tiny_catalog, other):
            compiler.compile(_plan(), catalog, "q")
        assert (_entries(tiny_catalog), _entries(other)) == (1, 1)
        QueryCompiler.clear_cache()
        assert (_entries(tiny_catalog), _entries(other)) == (0, 0)

    def test_clear_cache_resets(self, tiny_catalog):
        config = build_config("dblab-5")
        compiler = QueryCompiler(config.stack, config.flags)
        compiler.compile(_plan(), tiny_catalog, "q")
        assert _entries(tiny_catalog) == 1
        QueryCompiler.clear_cache()
        assert _entries(tiny_catalog) == 0
        assert QueryCompiler.cache_stats.misses == 0


def _chain():
    """The QMonad spelling of :func:`_plan`."""
    return (QueryMonad.table("R").filter(col("r_name") == "R1")
            .hashJoin(QueryMonad.table("S"), col("r_sid"), col("s_rid"))
            .fold([Q.AggSpec("count", None, "n")]))


class TestQMonadChains:
    """A chain is keyed by the fingerprint of the QPlan tree shortcut fusion
    lowers it through, tagged with its front end."""

    def _compiler(self, verify=False):
        config = build_config("dblab-5")
        return QueryCompiler(config.stack, config.flags, verify=verify)

    def test_second_compile_of_a_chain_is_a_hit(self, tiny_catalog):
        compiler = self._compiler()
        first = compiler.compile(_chain(), tiny_catalog, "chain")
        second = compiler.compile(_chain(), tiny_catalog, "chain")
        assert not first.cache_hit and second.cache_hit
        assert second.source == first.source
        assert second.run(tiny_catalog) == first.run(tiny_catalog)
        assert (QueryCompiler.cache_stats.hits,
                QueryCompiler.cache_stats.misses) == (1, 1)

    def test_a_chain_and_its_qplan_tree_are_separate_entries(self, tiny_catalog):
        compiler = self._compiler()
        tree = to_qplan(_chain())
        compiler.compile(tree, tiny_catalog, "q")
        assert not compiler.compile(_chain(), tiny_catalog, "q").cache_hit
        assert compiler.compile(tree, tiny_catalog, "q").cache_hit
        assert _entries(tiny_catalog) == 2

    def test_verify_bypasses_the_cache_in_both_directions(self, tiny_catalog):
        plain, checked = self._compiler(), self._compiler(verify=True)
        plain.compile(_chain(), tiny_catalog, "chain")
        # a cached unverified compile does not satisfy a verifying one ...
        assert not checked.compile(_chain(), tiny_catalog, "chain").cache_hit
        # ... and a verifying compile stores nothing
        checked.compile(_chain(), tiny_catalog, "other")
        assert _entries(tiny_catalog) == 1
        assert not plain.compile(_chain(), tiny_catalog, "other").cache_hit


class TestAccessLayerGeneration:
    """Re-registering a table must invalidate memoized compiled queries.

    Regression: the cache used to serve a query compiled against the old
    data, whose prepared state (and statistics-derived constants: dense key
    ranges, dictionary availability) closed over stale index objects.
    """

    def _index_plan(self):
        return Q.Agg(
            Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_id"), col("s_rid")),
            [], [Q.AggSpec("count", None, "n")])

    def test_reregister_then_requery_recompiles(self, tiny_catalog):
        from repro.storage.layouts import ColumnarTable
        config = build_config("dblab-5")
        compiler = QueryCompiler(config.stack, config.flags)
        plan = self._index_plan()
        first = compiler.compile(plan, tiny_catalog, "gen")
        assert first.run(tiny_catalog) == [{"n": 0}]  # r_id 1..5, s_rid 10..50

        # reload S so that its rids now hit R's primary keys
        table = tiny_catalog.table("S")
        tiny_catalog.register(ColumnarTable(table.schema, {
            "s_id": [100, 101, 102],
            "s_rid": [1, 3, 3],
            "s_val": [1.0, 2.0, 3.0],
        }))
        second = compiler.compile(plan, tiny_catalog, "gen")
        assert not second.cache_hit
        assert second.run(tiny_catalog) == [{"n": 3}]

        # and the same catalog without further reloads hits the cache again
        third = compiler.compile(plan, tiny_catalog, "gen")
        assert third.cache_hit

    def test_prepared_state_is_invalidated_without_recompiling(self, tiny_catalog):
        """run() on a CompiledQuery held across a reload must not run code
        (or serve aux structures) built against pre-reload data: the stale
        query hands the run to a fresh compile."""
        from repro.storage.layouts import ColumnarTable
        config = build_config("dblab-5")
        compiler = QueryCompiler(config.stack, config.flags)
        compiled = compiler.compile(self._index_plan(), tiny_catalog, "gen2")
        aux = compiled.prepare(tiny_catalog)
        assert compiled.run(tiny_catalog, aux) == [{"n": 0}]

        table = tiny_catalog.table("S")
        tiny_catalog.register(ColumnarTable(table.schema, {
            "s_id": [100, 101, 102],
            "s_rid": [1, 3, 3],
            "s_val": [1.0, 2.0, 3.0],
        }))
        # same CompiledQuery object: stale code and stale aux are detected
        assert compiled.run(tiny_catalog, aux) == [{"n": 3}]
        assert compiled.run(tiny_catalog) == [{"n": 3}]

    def test_generation_counter_tracks_invalidations(self, tiny_catalog):
        from repro.storage.layouts import ColumnarTable
        layer = tiny_catalog.access_layer()
        assert layer.generation == 0
        table = tiny_catalog.table("R")
        tiny_catalog.register(ColumnarTable(table.schema, dict(table.columns)))
        assert layer.generation == 1
        tiny_catalog.register(ColumnarTable(table.schema, dict(table.columns)))
        assert layer.generation == 2


def _distinct_plan(n):
    return Q.Select(Q.Scan("R"), col("r_id") > n)


@pytest.fixture()
def bounded_capacity():
    saved = QueryCompiler.cache_capacity
    yield
    QueryCompiler.set_cache_capacity(saved)


class TestCacheBounds:
    """The compiled-query cache is a bounded, segmented LRU: a long-lived
    process must not grow it without limit, a compile stays resident only if
    it repeats, and recency decides who goes within each segment."""

    def _compiler(self):
        config = build_config("dblab-5")
        return QueryCompiler(config.stack, config.flags)

    def test_capacity_must_be_positive(self, bounded_capacity):
        from repro.codegen.compiler import CompilerError
        with pytest.raises(CompilerError, match="positive"):
            QueryCompiler.set_cache_capacity(0)

    def test_one_shot_compiles_beyond_probation_evict_oldest_first(
            self, tiny_catalog, bounded_capacity):
        compiler = self._compiler()
        for n in range(PROBATION + 1):
            compiler.compile(_distinct_plan(n), tiny_catalog, "q")
        assert _entries(tiny_catalog) == PROBATION
        assert QueryCompiler.cache_stats.evictions == 1
        # plan 0 was the oldest never-hit compile: recompiling it misses
        assert not compiler.compile(_distinct_plan(0), tiny_catalog, "q").cache_hit
        # the newest survived the plan-0 reinsert (which evicted plan 1)
        assert compiler.compile(_distinct_plan(PROBATION), tiny_catalog,
                                "q").cache_hit
        assert not compiler.compile(_distinct_plan(1), tiny_catalog, "q").cache_hit

    def test_a_cache_hit_outlasts_a_burst_of_one_shot_compiles(
            self, tiny_catalog, bounded_capacity):
        compiler = self._compiler()
        compiler.compile(_distinct_plan(0), tiny_catalog, "q")
        assert compiler.compile(_distinct_plan(0), tiny_catalog, "q").cache_hit
        for n in range(1, PROBATION + 2):  # evicts plan 1
            compiler.compile(_distinct_plan(n), tiny_catalog, "q")
        assert compiler.compile(_distinct_plan(0), tiny_catalog, "q").cache_hit
        assert not compiler.compile(_distinct_plan(1), tiny_catalog, "q").cache_hit

    def test_shrinking_capacity_evicts_immediately(self, tiny_catalog,
                                                   bounded_capacity):
        QueryCompiler.set_cache_capacity(4)
        compiler = self._compiler()
        for n in range(4):
            compiler.compile(_distinct_plan(n), tiny_catalog, "q")
        assert compiler.compile(_distinct_plan(1), tiny_catalog, "q").cache_hit
        QueryCompiler.set_cache_capacity(1)
        assert _entries(tiny_catalog) == 1
        assert QueryCompiler.cache_stats.evictions == 3
        # the survivor is the plan that repeated, not the newest insert
        assert compiler.compile(_distinct_plan(1), tiny_catalog, "q").cache_hit

    def test_generation_bump_evicts_stale_entries(self, tiny_catalog,
                                                  bounded_capacity):
        from repro.storage.layouts import ColumnarTable
        compiler = self._compiler()
        for n in range(3):
            compiler.compile(_distinct_plan(n), tiny_catalog, "q")
        assert _entries(tiny_catalog) == 3

        table = tiny_catalog.table("S")
        tiny_catalog.register(ColumnarTable(table.schema, dict(table.columns)))
        # the reload itself drops every pre-reload entry (an invalidation,
        # not an eviction: the counter is for what the bound pushed out)
        assert _entries(tiny_catalog) == 0
        assert not compiler.compile(_distinct_plan(0), tiny_catalog, "q").cache_hit
        assert _entries(tiny_catalog) == 1
        assert QueryCompiler.cache_stats.evictions == 0
