"""Planner parity under the order-contract framework.

Two suites:

* **Exact parity** — ``PlannerOptions.exact_order()`` (pushdown, pruning,
  folding, equi-join conversion, top-k fusion) is order- and value-preserving
  by construction, so optimized plans are compared against raw ones with
  plain ``==`` on the result lists — same rows, same values (bit-for-bit
  floats), same order — across every TPC-H query on the interpreter, the
  vectorized engine and the one-lowering ``template-expander`` stack, and on
  a representative subset through the full compiled stack.

* **Contract parity** — the *default* options additionally enable the
  cost-based join-strategy rules, which preserve the result multiset and the
  plan's sort contract but not tie order or float accumulation order.  All
  22 queries are checked on both direct engines and the one-lowering stack
  with the sort-key-aware multiset comparator
  (:func:`repro.bench.harness.rows_equivalent`) against the raw plan's
  :func:`repro.planner.sort_contract`.
"""
import pytest

from repro.bench.harness import assert_rows_equivalent, rows_equivalent
from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan as Q
from repro.engine.vectorized import VectorizedEngine
from repro.engine.volcano import VolcanoEngine
from repro.planner import Planner, PlannerOptions, sort_contract
from repro.stack.configs import build_config
from repro.tpch.queries import QUERY_NAMES, build_query

#: queries exercised through the (expensive to compile) five-level stack:
#: scans, join pipelines, residuals, outer/semi/anti joins, cross joins
STACK_SUBSET = ("Q1", "Q3", "Q5", "Q9", "Q13", "Q15", "Q19", "Q21")

#: compiled configuration × query cases: the one-lowering baseline takes all
#: 22, the five-level stack the representative subset
COMPILED_CASES = [("template-expander", name) for name in QUERY_NAMES] + \
    [("dblab-5", name) for name in STACK_SUBSET]

#: queries with join chains / residuals for the cost-based strategy check
STRATEGY_SUBSET = ("Q2", "Q5", "Q7", "Q8", "Q9", "Q11", "Q21", "Q22")

#: queries ending in Sort+Limit, which the planner fuses into TopK
TOPK_QUERIES = ("Q2", "Q3", "Q10", "Q18")


@pytest.fixture(scope="module")
def exact_planner(tpch_catalog):
    return Planner(tpch_catalog, PlannerOptions.exact_order())


@pytest.fixture(scope="module")
def default_planner(tpch_catalog):
    return Planner(tpch_catalog)


class TestExactParity:
    """Order-preserving rules: identical rows, values and order."""

    @pytest.mark.parametrize("query_name", QUERY_NAMES)
    def test_interpreter(self, tpch_catalog, exact_planner, query_name):
        raw = build_query(query_name)
        optimized = exact_planner.optimize(build_query(query_name))
        engine = VolcanoEngine(tpch_catalog)
        assert engine.execute(optimized) == engine.execute(raw)

    @pytest.mark.parametrize("query_name", QUERY_NAMES)
    def test_vectorized(self, tpch_catalog, exact_planner, query_name):
        raw = build_query(query_name)
        optimized = exact_planner.optimize(build_query(query_name))
        engine = VectorizedEngine(tpch_catalog)
        assert engine.execute(optimized) == engine.execute(raw)

    @pytest.mark.parametrize("config_name,query_name", COMPILED_CASES)
    def test_compiled_stack(self, tpch_catalog, exact_planner, config_name,
                            query_name):
        config = build_config(config_name)
        compiler = QueryCompiler(config.stack, config.flags)
        raw = compiler.compile(build_query(query_name), tpch_catalog, query_name)
        optimized = compiler.compile(exact_planner.optimize(build_query(query_name)),
                                     tpch_catalog, query_name)
        assert optimized.run(tpch_catalog) == raw.run(tpch_catalog)


class TestContractParity:
    """Default options (cost-based join strategies on): every query on every
    direct engine and the one-lowering stack satisfies the raw plan's sort
    contract, with rows compared as multisets within key ties and floats to
    accumulation tolerance."""

    @pytest.mark.parametrize("query_name", QUERY_NAMES)
    def test_interpreter(self, tpch_catalog, default_planner, query_name):
        self._check(tpch_catalog, default_planner, query_name,
                    VolcanoEngine(tpch_catalog).execute)

    @pytest.mark.parametrize("query_name", QUERY_NAMES)
    def test_vectorized(self, tpch_catalog, default_planner, query_name):
        self._check(tpch_catalog, default_planner, query_name,
                    VectorizedEngine(tpch_catalog).execute)

    @pytest.mark.parametrize("config_name,query_name", COMPILED_CASES)
    def test_compiled_stack(self, tpch_catalog, default_planner, config_name,
                            query_name):
        config = build_config(config_name)
        compiler = QueryCompiler(config.stack, config.flags)
        self._check(tpch_catalog, default_planner, query_name,
                    lambda plan: compiler.compile(plan, tpch_catalog,
                                                  query_name).run(tpch_catalog))

    @staticmethod
    def _check(catalog, planner, query_name, execute):
        raw = build_query(query_name)
        optimized = planner.optimize(build_query(query_name))
        assert_rows_equivalent(execute(raw), execute(optimized),
                               sort_keys=sort_contract(raw),
                               context=query_name)

    def test_strategy_rules_fire_somewhere(self, tpch_catalog, default_planner):
        fired = set()
        for query_name in STRATEGY_SUBSET:
            report = default_planner.explain(build_query(query_name))
            fired.update(a for a in report.applied
                         if a in ("join-reorder", "build-side-swap"))
        assert fired == {"join-reorder", "build-side-swap"}


class TestTopKFusion:
    """Sort+Limit queries fuse into TopK and stay row-identical."""

    @pytest.mark.parametrize("query_name", TOPK_QUERIES)
    def test_fusion_fires_and_is_exact(self, tpch_catalog, exact_planner,
                                       query_name):
        raw = build_query(query_name)
        optimized = exact_planner.optimize(build_query(query_name))
        assert any(isinstance(node, Q.TopK) for node in Q.walk(optimized))
        assert not any(isinstance(node, (Q.Sort, Q.Limit))
                       for node in Q.walk(optimized))
        engine = VolcanoEngine(tpch_catalog)
        assert engine.execute(optimized) == engine.execute(raw)

    def test_comparator_rejects_wrong_key_order(self, tpch_catalog,
                                                default_planner):
        raw = build_query("Q3")
        rows = VolcanoEngine(tpch_catalog).execute(raw)
        assert len(rows) > 1
        contract = sort_contract(raw)
        assert contract is not None
        assert rows_equivalent(rows, rows, sort_keys=contract)
        assert not rows_equivalent(rows, list(reversed(rows)),
                                   sort_keys=contract)


class TestAccessPathsDefaultOn:
    """The physical access-path rules run in the default rule set — every
    contract-parity check above therefore already executes ``PrunedScan`` /
    ``IndexJoin`` plans on both direct engines and the compiled stacks.  This
    class pins the selection itself: the ops are present where expected, on
    by default, and order-preserving (exact ``==`` against the raw plan)."""

    #: queries whose default-optimized plans must carry each op
    INDEX_JOIN_QUERIES = ("Q10", "Q12", "Q14", "Q18")
    PRUNED_SCAN_QUERIES = ("Q1", "Q3", "Q4", "Q6", "Q12", "Q14", "Q19")

    def test_index_joins_selected(self, tpch_catalog, default_planner):
        for query_name in self.INDEX_JOIN_QUERIES:
            optimized = default_planner.optimize(build_query(query_name))
            assert any(isinstance(node, Q.IndexJoin)
                       for node in Q.walk(optimized)), query_name

    def test_pruned_scans_selected(self, tpch_catalog, default_planner):
        for query_name in self.PRUNED_SCAN_QUERIES:
            optimized = default_planner.optimize(build_query(query_name))
            assert any(isinstance(node, Q.PrunedScan)
                       for node in Q.walk(optimized)), query_name

    @pytest.mark.parametrize("query_name", QUERY_NAMES)
    def test_access_ops_preserve_exact_order(self, tpch_catalog, exact_planner,
                                             query_name):
        """Under exact_order() the access rules still fire, and the result is
        ``==``-identical on the engine with the most specialised access-path
        execution (vectorized: pruning, index probing, dictionaries)."""
        raw = build_query(query_name)
        optimized = exact_planner.optimize(build_query(query_name))
        engine = VectorizedEngine(tpch_catalog)
        assert engine.execute(optimized) == engine.execute(raw)


class TestPlannerThroughCompilerFlag:
    def test_cache_is_keyed_on_the_optimized_fingerprint(self, tpch_catalog):
        """Compiling a raw plan and its pre-optimized form shares one entry."""
        config = build_config("dblab-3", planner=True)
        compiler = QueryCompiler(config.stack, config.flags)
        QueryCompiler.clear_cache()
        first = compiler.compile(build_query("Q6"), tpch_catalog, "Q6")
        assert not first.cache_hit
        pre_optimized = Planner(tpch_catalog).optimize(build_query("Q6"))
        second = compiler.compile(pre_optimized, tpch_catalog, "Q6")
        assert second.cache_hit
        assert second.source == first.source
        assert second.run(tpch_catalog) == first.run(tpch_catalog)

    def test_flag_default_off(self):
        assert build_config("dblab-3").flags.logical_plan_optimizer is False
        assert build_config("dblab-3", planner=True).flags.logical_plan_optimizer


class TestExplain:
    def test_report_shows_rules_and_estimates(self, tpch_catalog, default_planner):
        report = default_planner.explain(build_query("Q3"))
        assert report.changed
        assert "field-pruning" in report.applied
        assert "topk-fusion" in report.applied
        assert "Scan(lineitem" in report.before and "Scan(lineitem" in report.after
        assert report.estimated_rows_before > 0
        assert report.reached_fixpoint
        assert "rewrites" in report.summary()
