"""Fallback-ladder tests: tier degradation, plan degradation, retries,
circuit breaking, generation skew, and the cache-hygiene regressions."""
import pytest

from repro.bench.harness import assert_rows_equivalent
from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan as Q
from repro.dsl.expr import col
from repro.engine.vectorized import VectorizedEngine
from repro.engine.volcano import VolcanoEngine
from repro.planner import Planner, sort_contract
from repro.robustness.faults import (DataCorruptionFault, EngineFault,
                                     FaultPlan, FaultSpec, TransientFault,
                                     inject)
from repro.robustness.fallback import (ENGINE_TIERS, CircuitBreaker,
                                       HardenedExecutor, LadderExhausted)
from repro.robustness.governor import BudgetExceeded, QueryBudget
from repro.robustness.incidents import DEFAULT_INCIDENTS, IncidentLog
from repro.stack.configs import build_config
from repro.storage.access import AccessError
from repro.storage.layouts import ColumnarTable
from repro.storage.schema import TableSchema, float_column, int_column
from repro.tpch.queries import build_query


def _select_plan():
    return Q.Select(Q.Scan("S"), col("s_val") > 0.0)


def _join_plan():
    return Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_id"), col("s_rid"))


def _executor(catalog, **overrides):
    kwargs = dict(incidents=IncidentLog(), backoff_seconds=0.001)
    kwargs.update(overrides)
    return HardenedExecutor(catalog, **kwargs)


class TestCircuitBreaker:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)

    def test_opens_after_threshold_failures(self):
        now = [0.0]
        breaker = CircuitBreaker(threshold=2, cooldown_seconds=10.0,
                                 clock=lambda: now[0])
        key = ("fp", "compiled")
        assert breaker.record_failure(key) is False
        assert not breaker.is_open(key)
        assert breaker.record_failure(key) is True
        assert breaker.is_open(key)
        assert not breaker.allow(key)

    def test_cooldown_lets_a_probe_through(self):
        now = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown_seconds=10.0,
                                 clock=lambda: now[0])
        key = ("fp", "compiled")
        breaker.record_failure(key)
        assert not breaker.allow(key)
        now[0] = 10.0
        assert breaker.allow(key)       # half-open probe
        assert breaker.is_open(key)     # still open until a success lands
        assert breaker.record_success(key) is True
        assert breaker.allow(key)
        assert not breaker.is_open(key)

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record_failure(("fp", "compiled"))
        assert not breaker.allow(("fp", "compiled"))
        assert breaker.allow(("fp", "vectorized"))
        assert breaker.allow(("other", "compiled"))


class TestCleanExecution:
    def test_clean_run_uses_the_top_tier(self, tiny_catalog):
        executor = _executor(tiny_catalog)
        report = executor.execute(_select_plan(), "clean_q")
        assert report.tier == "compiled"
        assert report.plan_mode == "access"
        assert report.attempts == []
        assert not report.degraded
        assert_rows_equivalent(
            VolcanoEngine(tiny_catalog).execute(_select_plan()), report.rows)
        assert len(executor.incidents) == 0

    def test_template_expander_as_the_compiled_tier(self, tiny_catalog):
        executor = _executor(tiny_catalog, tiers=("compiled",),
                             compiled_config="template-expander")
        report = executor.execute(_select_plan(), "tmpl_q")
        assert report.tier == "compiled" and not report.degraded
        assert_rows_equivalent(
            VolcanoEngine(tiny_catalog).execute(_select_plan()), report.rows)

    def test_tier_validation(self, tiny_catalog):
        assert ENGINE_TIERS == ("compiled", "vectorized", "interpreter")
        with pytest.raises(ValueError, match="unknown tiers"):
            HardenedExecutor(tiny_catalog, tiers=("template",))
        with pytest.raises(ValueError, match="at least one tier"):
            HardenedExecutor(tiny_catalog, tiers=())
        executor = _executor(tiny_catalog)
        with pytest.raises(ValueError, match="unknown tiers"):
            executor.execute(_select_plan(), "bad_q", tiers=("template",))
        with pytest.raises(ValueError, match="at least one tier"):
            executor.execute(_select_plan(), "bad_q", tiers=())


class TestTierDegradation:
    def test_compiled_failure_falls_to_vectorized(self, tiny_catalog):
        reference = VolcanoEngine(tiny_catalog).execute(_select_plan())
        executor = _executor(tiny_catalog)
        faults = FaultPlan([FaultSpec(site="engine.compiled.run",
                                      error=EngineFault, fires_on=(1,))])
        with inject(faults):
            report = executor.execute(_select_plan(), "deg_q")
        assert report.tier == "vectorized"
        assert report.degraded
        assert [a["tier"] for a in report.attempts] == ["compiled"]
        assert report.attempts[0]["error_type"] == "EngineFault"
        assert_rows_equivalent(reference, report.rows)
        failures = executor.incidents.records(category="tier_failure")
        assert [i.tier for i in failures] == ["compiled"]

    def test_two_failures_fall_to_interpreter(self, tiny_catalog):
        reference = VolcanoEngine(tiny_catalog).execute(_select_plan())
        executor = _executor(tiny_catalog)
        faults = FaultPlan([
            FaultSpec(site="engine.compiled.run", error=EngineFault,
                      fires_on=None),
            FaultSpec(site="engine.vectorized.batch", error=EngineFault,
                      fires_on=(1,)),
        ])
        with inject(faults):
            report = executor.execute(_select_plan(), "deg2_q")
        assert report.tier == "interpreter"
        assert [a["tier"] for a in report.attempts] == ["compiled", "vectorized"]
        assert_rows_equivalent(reference, report.rows)

    def test_ladder_exhausted(self, tiny_catalog):
        executor = _executor(tiny_catalog, tiers=("interpreter",))
        faults = FaultPlan([FaultSpec(site="engine.volcano.operator",
                                      error=EngineFault, fires_on=None)])
        with inject(faults):
            with pytest.raises(LadderExhausted) as info:
                executor.execute(_select_plan(), "doomed_q")
        assert info.value.query == "doomed_q"
        assert [a["tier"] for a in info.value.attempts] == ["interpreter"]
        assert "interpreter" in str(info.value)


class TestPlanDegradation:
    def test_broken_index_degrades_plan_not_engine(self, tiny_catalog):
        reference = VolcanoEngine(tiny_catalog).execute(_join_plan())
        executor = _executor(tiny_catalog)
        faults = FaultPlan([FaultSpec(
            site="access.key_index",
            error=lambda: AccessError("injected: key index missing"),
            fires_on=None)])
        with inject(faults):
            report = executor.execute(_join_plan(), "idx_q")
        # same engine tier, safer plan: the access-path plan was replaced
        assert report.tier == "compiled"
        assert report.plan_mode == "no_access"
        assert_rows_equivalent(reference, report.rows)
        degraded = executor.incidents.records(category="plan_degraded")
        assert len(degraded) == 1
        assert degraded[0].detail["from_mode"] == "access"
        assert degraded[0].detail["to_mode"] == "no_access"

    def test_persistent_corruption_exhausts_plan_modes(self, tiny_catalog):
        executor = _executor(tiny_catalog, tiers=("interpreter",))
        faults = FaultPlan([FaultSpec(site="catalog.table",
                                      error=DataCorruptionFault,
                                      fires_on=None)])
        with inject(faults):
            with pytest.raises(LadderExhausted) as info:
                executor.execute(_select_plan(), "corrupt_q")
        assert [a["plan_mode"] for a in info.value.attempts] == \
            ["access", "no_access", "raw"]
        assert len(executor.incidents.records(category="plan_degraded")) == 2
        assert len(executor.incidents.records(category="tier_failure")) == 1


class TestTransientRetry:
    def test_transient_fault_retries_in_place(self, tiny_catalog):
        sleeps = []
        executor = _executor(tiny_catalog, tiers=("interpreter",),
                             backoff_seconds=0.01, sleep=sleeps.append)
        faults = FaultPlan([FaultSpec(site="catalog.table",
                                      error=TransientFault, fires_on=(1,),
                                      max_fires=1)])
        with inject(faults):
            report = executor.execute(_select_plan(), "flaky_q")
        assert report.tier == "interpreter"
        assert [a["error_type"] for a in report.attempts] == ["TransientFault"]
        assert sleeps == [0.01]
        retry = executor.incidents.last("transient_retry")
        assert retry is not None
        assert retry.detail["attempt"] == 1
        assert retry.detail["backoff_seconds"] == 0.01

    def test_backoff_doubles_per_retry(self, tiny_catalog):
        sleeps = []
        executor = _executor(tiny_catalog, tiers=("interpreter",),
                             max_retries=2, backoff_seconds=0.01,
                             sleep=sleeps.append)
        faults = FaultPlan([FaultSpec(site="catalog.table",
                                      error=TransientFault, fires_on=(1, 2))])
        with inject(faults):
            report = executor.execute(_select_plan(), "flaky2_q")
        assert report.tier == "interpreter"
        assert sleeps == [0.01, 0.02]

    def test_retries_exhausted_moves_to_next_tier(self, tiny_catalog):
        sleeps = []
        executor = _executor(tiny_catalog, tiers=("interpreter",),
                             max_retries=1, backoff_seconds=0.01,
                             sleep=sleeps.append)
        faults = FaultPlan([FaultSpec(site="catalog.table",
                                      error=TransientFault, fires_on=None)])
        with inject(faults):
            with pytest.raises(LadderExhausted) as info:
                executor.execute(_select_plan(), "hopeless_q")
        assert len(sleeps) == 1  # one retry, then the tier is given up
        assert len(info.value.attempts) == 2


class TestCircuitBreakerIntegration:
    def test_open_breaker_skips_the_tier(self, tiny_catalog):
        executor = _executor(tiny_catalog, breaker_threshold=1,
                             breaker_cooldown_seconds=300.0)
        faults = FaultPlan([FaultSpec(site="engine.compiled.run",
                                      error=EngineFault, fires_on=(1,))])
        with inject(faults):
            first = executor.execute(_select_plan(), "cb_q")
        assert first.tier == "vectorized"
        assert executor.incidents.last("circuit_open") is not None
        # second run: no fault installed, but the breaker skips compiled
        second = executor.execute(_select_plan(), "cb_q")
        assert second.tier == "vectorized"
        assert second.attempts[0]["error_type"] == "CircuitOpen"

    def test_breaker_closes_after_successful_probe(self, tiny_catalog):
        executor = _executor(tiny_catalog, breaker_threshold=1,
                             breaker_cooldown_seconds=0.0)
        faults = FaultPlan([FaultSpec(site="engine.compiled.run",
                                      error=EngineFault, fires_on=(1,))])
        with inject(faults):
            executor.execute(_select_plan(), "probe_q")
        report = executor.execute(_select_plan(), "probe_q")
        assert report.tier == "compiled"
        assert executor.incidents.last("circuit_close") is not None


class TestBudgets:
    def test_final_budget_trip_reraises(self, tiny_catalog):
        executor = _executor(tiny_catalog, tiers=("interpreter",))
        with pytest.raises(BudgetExceeded) as info:
            executor.execute(_select_plan(), "over_q",
                             budget=QueryBudget(max_intermediate_rows=2))
        assert info.value.kind == "rows"
        trip = executor.incidents.last("budget_trip")
        assert trip is not None
        assert trip.cause == "budget:rows"
        assert trip.detail["stats"]["rows_processed"] == 3

    def test_compile_budget_trip_degrades_to_direct_tier(self, tiny_catalog):
        QueryCompiler.clear_cache()
        reference = VolcanoEngine(tiny_catalog).execute(_select_plan())
        executor = _executor(tiny_catalog,
                             budget=QueryBudget(max_compile_seconds=0.0))
        report = executor.execute(_select_plan(), "slow_compile_q")
        assert report.tier == "vectorized"
        assert report.attempts[0]["error_type"] == "BudgetExceeded"
        assert_rows_equivalent(reference, report.rows)
        trip = executor.incidents.last("budget_trip")
        assert trip.cause == "budget:compile"
        assert executor.incidents.last("tier_failure").tier == "compiled"

    def test_injected_slow_compile_trips_a_finite_budget(self, tiny_catalog):
        QueryCompiler.clear_cache()
        executor = _executor(tiny_catalog,
                             budget=QueryBudget(max_compile_seconds=5.0))
        faults = FaultPlan([FaultSpec(site="compiler.slow_compile",
                                      value=10.0, fires_on=(1,))])
        with inject(faults):
            report = executor.execute(_select_plan(), "molasses_q")
        assert report.tier == "vectorized"
        assert executor.incidents.last("budget_trip").cause == "budget:compile"


def _bigger_s_table():
    schema = TableSchema("S", [int_column("s_id"), int_column("s_rid"),
                               float_column("s_val")], primary_key=("s_id",))
    return ColumnarTable(schema, {
        "s_id": [100, 101, 102, 103, 104, 105, 106],
        "s_rid": [10, 30, 10, 50, 30, 40, 10],
        "s_val": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
    })


class TestGenerationHandling:
    def test_reregistration_between_queries_is_replanned(self, tiny_catalog):
        executor = _executor(tiny_catalog)
        first = executor.execute(Q.Scan("S"), "gen_q")
        assert len(first.rows) == 6
        tiny_catalog.register(_bigger_s_table())
        second = executor.execute(Q.Scan("S"), "gen_q")
        assert len(second.rows) == 7
        assert second.attempts == []
        # the stale memo is caught at planning time: no skew incident needed
        assert executor.incidents.records(category="generation_skew") == []

    def test_skew_inside_the_plan_execute_window(self, tiny_catalog):
        executor = _executor(tiny_catalog)

        def reregister(context):
            context["catalog"].register(_bigger_s_table())

        faults = FaultPlan([FaultSpec(site="executor.pre_execute",
                                      action=reregister, fires_on=(1,),
                                      max_fires=1)])
        with inject(faults):
            report = executor.execute(Q.Scan("S"), "skew_q")
        assert report.tier == "compiled"
        assert report.attempts == []
        assert len(report.rows) == 7  # the re-planned run sees the new data
        skew = executor.incidents.last("generation_skew")
        assert skew is not None
        assert skew.query == "skew_q"


def _shared_plan():
    # the filtered S appears twice: once renamed, once raw — a genuinely
    # shared subtree without duplicate join output columns
    base = Q.Select(Q.Scan("S"), col("s_val") > 0.0)
    renamed = Q.Project(base, [("k_id", col("s_id")), ("k_val", col("s_val"))])
    return Q.HashJoin(renamed, base, col("k_id"), col("s_id"))


class TestSharingCacheHygiene:
    """Regressions for the shared-subplan cache: error paths and re-entrant
    execute() must never leak one execution's materialisation into another."""

    @pytest.mark.parametrize("engine_cls", [VolcanoEngine, VectorizedEngine])
    def test_failed_query_discards_shared_cache(self, tiny_catalog, engine_cls):
        engine = engine_cls(tiny_catalog)
        site = ("engine.volcano.operator" if engine_cls is VolcanoEngine
                else "engine.vectorized.batch")
        faults = FaultPlan([FaultSpec(site=site, error=EngineFault,
                                      fires_on=(2,))])
        with inject(faults):
            with pytest.raises(EngineFault):
                engine.execute(_shared_plan())
        assert engine._shared_ids is None
        assert engine._shared_cache is None
        # a clean rerun on the same engine instance must succeed
        reference = engine_cls(tiny_catalog).execute(_shared_plan())
        assert_rows_equivalent(reference, engine.execute(_shared_plan()))

    def test_nested_execute_does_not_disarm_outer_context(self, tiny_catalog):
        engine = VolcanoEngine(tiny_catalog)
        plan = _shared_plan()
        with engine._sharing_active(plan):
            assert engine._shared_ids is not None  # the plan really shares
            engine.execute(Q.Scan("R"))  # nested, unshared
            assert engine._shared_ids is not None
            engine.execute(_shared_plan())  # nested, shared
            assert engine._shared_ids is not None
            assert engine._shared_ids == Q.shared_subplan_fingerprints(plan)
        assert engine._shared_ids is None

    def test_hardened_executor_reuses_engines_cleanly(self, tiny_catalog):
        """Ladder fallback re-runs on the same engine instances; a fault in
        one attempt must not poison the next query's sharing state."""
        executor = _executor(tiny_catalog, tiers=("interpreter",))
        reference = VolcanoEngine(tiny_catalog).execute(_shared_plan())
        faults = FaultPlan([FaultSpec(site="engine.volcano.operator",
                                      error=TransientFault, fires_on=(2,),
                                      max_fires=1)])
        with inject(faults):
            report = executor.execute(_shared_plan(), "shared_q")
        assert [a["error_type"] for a in report.attempts] == ["TransientFault"]
        assert_rows_equivalent(reference, report.rows)


class TestLeftOuterIndexJoinIsNotADowngrade:
    """A compiled IndexJoin is the hash join it subclasses, so there is no
    weaker lowering to fall back to and nothing to report: Q13's planned
    leftouter IndexJoin compiles without an incident."""

    def test_compiling_q13_reports_no_incident(self, tpch_catalog):
        config = build_config("dblab-5", planner=True)
        raw = build_query("Q13")
        plan = Planner.for_catalog(tpch_catalog).optimize(raw)
        assert any(isinstance(node, Q.IndexJoin) and node.kind == "leftouter"
                   for node in Q.walk(plan))
        reference = VolcanoEngine(tpch_catalog).execute(plan)
        QueryCompiler.clear_cache()
        DEFAULT_INCIDENTS.clear()
        try:
            compiled = QueryCompiler(config.stack, config.flags).compile(
                plan, tpch_catalog, "Q13")
            rows = compiled.run(tpch_catalog)
            reported = DEFAULT_INCIDENTS.snapshot()["total_reported"]
        finally:
            DEFAULT_INCIDENTS.clear()
        assert_rows_equivalent(reference, rows, sort_keys=sort_contract(raw))
        assert reported == 0

    def test_lowering_fallback_is_not_a_category(self):
        with pytest.raises(ValueError):
            IncidentLog().report("lowering_fallback")
