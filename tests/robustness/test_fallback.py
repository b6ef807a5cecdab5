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
from repro.robustness.fallback import (BACKOFF_SECONDS, BREAKER_COOLDOWN_SECONDS,
                                       BREAKER_THRESHOLD, ENGINE_TIERS,
                                       MAX_RETRIES, CircuitBreaker,
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


def _executor(catalog, sleep=lambda seconds: None):
    """An executor with its own incident log that backs off without
    sleeping."""
    return HardenedExecutor(catalog, incidents=IncidentLog(), sleep=sleep)


def _open(breaker, key):
    """Record the failures that open ``key``."""
    return [breaker.record_failure(key) for _ in range(BREAKER_THRESHOLD)]


class TestCircuitBreaker:
    def test_ladder_settings_are_fixed(self):
        assert ENGINE_TIERS == ("compiled", "vectorized", "interpreter")
        assert (BREAKER_THRESHOLD, BREAKER_COOLDOWN_SECONDS) == (3, 30.0)
        assert (MAX_RETRIES, BACKOFF_SECONDS) == (2, 0.01)

    def test_opens_after_threshold_failures(self):
        breaker = CircuitBreaker(clock=lambda: 0.0)
        key = ("fp", "compiled")
        assert _open(breaker, key) == [False, False, True]
        assert key in breaker._opened_at
        assert not breaker.allow(key)

    def test_cooldown_lets_a_probe_through(self):
        now = [0.0]
        breaker = CircuitBreaker(clock=lambda: now[0])
        key = ("fp", "compiled")
        _open(breaker, key)
        assert not breaker.allow(key)
        now[0] = BREAKER_COOLDOWN_SECONDS
        assert breaker.allow(key)       # half-open probe
        assert key in breaker._opened_at     # still open until a success lands
        assert breaker.record_success(key) is True
        assert breaker.allow(key)
        assert key not in breaker._opened_at

    def test_half_open_admits_one_probe_per_cooldown(self):
        now = [0.0]
        breaker = CircuitBreaker(clock=lambda: now[0])
        key = ("fp", "compiled")
        _open(breaker, key)
        now[0] = 31.0
        assert [breaker.allow(key) for _ in range(3)] == [True, False, False]
        now[0] = 31.0 + BREAKER_COOLDOWN_SECONDS - 1.0
        assert not breaker.allow(key)   # the granted probe re-armed the timer
        now[0] = 31.0 + BREAKER_COOLDOWN_SECONDS
        assert breaker.allow(key)

    def test_failed_probe_re_arms_the_cooldown(self):
        now = [0.0]
        breaker = CircuitBreaker(clock=lambda: now[0])
        key = ("fp", "compiled")
        _open(breaker, key)
        now[0] = 40.0
        assert breaker.allow(key)
        now[0] = 45.0
        assert breaker.record_failure(key) is True
        now[0] = 45.0 + BREAKER_COOLDOWN_SECONDS - 1.0
        assert not breaker.allow(key)
        now[0] = 45.0 + BREAKER_COOLDOWN_SECONDS
        assert breaker.allow(key)

    def test_keys_are_independent(self):
        breaker = CircuitBreaker()
        _open(breaker, ("fp", "compiled"))
        assert not breaker.allow(("fp", "compiled"))
        assert breaker.allow(("fp", "vectorized"))
        assert breaker.allow(("other", "compiled"))

    def test_a_success_below_the_threshold_resets_the_count(self):
        breaker = CircuitBreaker(clock=lambda: 0.0)
        key = ("fp", "compiled")
        for _ in range(BREAKER_THRESHOLD - 1):
            assert breaker.record_failure(key) is False
        assert breaker.record_success(key) is False   # it was never open
        assert _open(breaker, key) == [False, False, True]


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

    def test_both_plan_modes_compile_through_dblab5(self, tiny_catalog):
        """The compiled tier is the dblab-5 stack; planning stays with the
        executor, and only the access plan mode touches catalog structures."""
        executor = _executor(tiny_catalog)
        stack = build_config("dblab-5").stack
        for mode, compiler in executor._compilers.items():
            assert compiler.stack.name == stack.name
            assert [p.name for p in compiler.stack.optimizations] == \
                [p.name for p in stack.optimizations]
            assert not compiler.flags.logical_plan_optimizer
            assert compiler.flags.catalog_access_layer == (mode == "access")

    def test_the_ladder_runs_every_tier_in_order(self, tiny_catalog):
        executor = _executor(tiny_catalog)
        faults = FaultPlan([
            FaultSpec(site="engine.compiled.run", error=EngineFault,
                      fires_on=None),
            FaultSpec(site="engine.vectorized.batch", error=EngineFault,
                      fires_on=None),
            FaultSpec(site="engine.volcano.operator", error=EngineFault,
                      fires_on=None)])
        with inject(faults):
            with pytest.raises(LadderExhausted) as info:
                executor.execute(_select_plan(), "every_tier_q")
        assert [a["tier"] for a in info.value.attempts] == list(ENGINE_TIERS)


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

    def test_ladder_exhausted(self, tiny_catalog, ladder_down_to):
        executor = _executor(tiny_catalog)
        faults = FaultPlan(ladder_down_to("interpreter") + [
            FaultSpec(site="engine.volcano.operator", error=EngineFault,
                      fires_on=None)])
        with inject(faults):
            with pytest.raises(LadderExhausted) as info:
                executor.execute(_select_plan(), "doomed_q")
        assert info.value.query == "doomed_q"
        assert info.value.attempts[-1]["tier"] == "interpreter"
        assert "interpreter" in str(info.value)
        assert executor.incidents.count("tier_failure") == 3


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
        executor = _executor(tiny_catalog)
        faults = FaultPlan([FaultSpec(site="catalog.table",
                                      error=DataCorruptionFault,
                                      fires_on=None)])
        with inject(faults):
            with pytest.raises(LadderExhausted) as info:
                executor.execute(_select_plan(), "corrupt_q")
        # the plan degrades once, on the first tier; the tiers below keep
        # the degraded plan
        assert [(a["tier"], a["plan_mode"]) for a in info.value.attempts] == \
            [("compiled", "access"), ("compiled", "no_access"),
             ("vectorized", "no_access"), ("interpreter", "no_access")]
        assert len(executor.incidents.records(category="plan_degraded")) == 1
        assert len(executor.incidents.records(category="tier_failure")) == 3


class TestTransientRetry:
    def test_transient_fault_retries_in_place(self, tiny_catalog):
        sleeps = []
        executor = _executor(tiny_catalog, sleep=sleeps.append)
        faults = FaultPlan([FaultSpec(site="catalog.table",
                                      error=TransientFault, fires_on=(1,),
                                      max_fires=1)])
        with inject(faults):
            report = executor.execute(_select_plan(), "flaky_q")
        assert report.tier == "compiled"
        assert [a["error_type"] for a in report.attempts] == ["TransientFault"]
        assert sleeps == [BACKOFF_SECONDS]
        retry = executor.incidents.last("transient_retry")
        assert retry is not None
        assert retry.detail["attempt"] == 1
        assert retry.detail["backoff_seconds"] == BACKOFF_SECONDS

    def test_backoff_doubles_per_retry(self, tiny_catalog):
        sleeps = []
        executor = _executor(tiny_catalog, sleep=sleeps.append)
        faults = FaultPlan([FaultSpec(site="catalog.table",
                                      error=TransientFault, fires_on=(1, 2))])
        with inject(faults):
            report = executor.execute(_select_plan(), "flaky2_q")
        assert report.tier == "compiled"
        assert sleeps == [BACKOFF_SECONDS, 2 * BACKOFF_SECONDS]

    def test_retries_exhausted_moves_to_next_tier(self, tiny_catalog):
        sleeps = []
        executor = _executor(tiny_catalog, sleep=sleeps.append)
        faults = FaultPlan([FaultSpec(site="catalog.table",
                                      error=TransientFault, fires_on=None)])
        with inject(faults):
            with pytest.raises(LadderExhausted) as info:
                executor.execute(_select_plan(), "hopeless_q")
        # MAX_RETRIES retries per tier, then the tier is given up; the
        # breaker counts every attempt, so each tier's last one opens it
        assert sleeps == [BACKOFF_SECONDS, 2 * BACKOFF_SECONDS] * 3
        assert [a["tier"] for a in info.value.attempts] == \
            [tier for tier in ENGINE_TIERS for _ in range(MAX_RETRIES + 1)]
        assert [i.tier for i in executor.incidents.records(
            category="circuit_open")] == list(ENGINE_TIERS)


def _fail_compiled(executor, times, plan=_select_plan):
    """Run ``plan()`` ``times`` times with the compiled tier failing."""
    faults = FaultPlan([FaultSpec(site="engine.compiled.run",
                                  error=EngineFault, fires_on=None)])
    with inject(faults):
        return [executor.execute(plan(), "cb_q") for _ in range(times)]


class TestCircuitBreakerIntegration:
    def test_open_breaker_skips_the_tier(self, tiny_catalog):
        executor = _executor(tiny_catalog)
        reports = _fail_compiled(executor, BREAKER_THRESHOLD)
        assert [r.tier for r in reports] == ["vectorized"] * BREAKER_THRESHOLD
        # reported once, by the failure that opened it
        opened = executor.incidents.records(category="circuit_open")
        assert [i.tier for i in opened] == ["compiled"]
        # next run: no fault installed, but the breaker skips compiled
        skipped = executor.execute(_select_plan(), "cb_q")
        assert skipped.tier == "vectorized"
        assert skipped.attempts[0]["error_type"] == "CircuitOpen"

    def test_breaker_closes_after_successful_probe(self, tiny_catalog):
        now = [0.0]
        executor = _executor(tiny_catalog)
        executor.breaker = CircuitBreaker(clock=lambda: now[0])
        _fail_compiled(executor, BREAKER_THRESHOLD)
        now[0] = BREAKER_COOLDOWN_SECONDS
        report = executor.execute(_select_plan(), "cb_q")
        assert report.tier == "compiled"
        assert report.attempts == []
        assert executor.incidents.last("circuit_close") is not None
        assert executor.execute(_select_plan(), "cb_q").tier == "compiled"

    def test_a_probe_keeps_its_plan_degradation(self, tiny_catalog):
        """The half-open probe is the tier's whole visit: a broken index
        met by the probe degrades the plan on the same tier, which then
        answers and closes the breaker."""
        now = [0.0]
        executor = _executor(tiny_catalog)
        executor.breaker = CircuitBreaker(clock=lambda: now[0])
        _fail_compiled(executor, BREAKER_THRESHOLD, plan=_join_plan)
        now[0] = BREAKER_COOLDOWN_SECONDS
        faults = FaultPlan([FaultSpec(
            site="access.key_index",
            error=lambda: AccessError("injected: key index missing"),
            fires_on=None)])
        with inject(faults):
            report = executor.execute(_join_plan(), "cb_q")
        assert (report.tier, report.plan_mode) == ("compiled", "no_access")
        assert executor.incidents.last("circuit_close") is not None

    def test_a_probe_in_flight_keeps_other_callers_off_the_tier(
            self, tiny_catalog):
        """Once the cooldown has passed, the first caller's probe re-arms the
        breaker: a second caller skips the tier instead of probing it too."""
        now = [0.0]
        executor = _executor(tiny_catalog)
        executor.breaker = CircuitBreaker(clock=lambda: now[0])
        _fail_compiled(executor, BREAKER_THRESHOLD)
        now[0] = BREAKER_COOLDOWN_SECONDS + 1.0
        key = (Q.plan_fingerprint(_select_plan()), "compiled")
        assert executor.breaker.allow(key)  # another worker's probe
        report = executor.execute(_select_plan(), "cb_q")
        assert report.tier == "vectorized"
        assert report.attempts[0]["error_type"] == "CircuitOpen"


class TestBudgets:
    def test_final_budget_trip_reraises(self, tiny_catalog):
        executor = _executor(tiny_catalog)
        with pytest.raises(BudgetExceeded):
            executor.execute(_select_plan(), "over_q",
                             budget=QueryBudget(timeout_seconds=0.0,
                                                check_interval=3))
        trip = executor.incidents.last("budget_trip")
        assert trip is not None
        assert (trip.tier, trip.cause) == ("compiled", "budget:timeout")
        assert trip.detail["stats"]["rows_processed"] == 3
        assert executor.incidents.count("tier_failure") == 0

    def test_a_budget_without_timeout_runs_to_completion(self, tiny_catalog):
        QueryCompiler.clear_cache()
        reference = VolcanoEngine(tiny_catalog).execute(_select_plan())
        executor = _executor(tiny_catalog)
        report = executor.execute(_select_plan(), "unbounded_q",
                                  budget=QueryBudget(check_interval=1))
        assert (report.tier, report.attempts) == ("compiled", [])
        assert_rows_equivalent(reference, report.rows)
        assert executor.incidents.count("budget_trip") == 0


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
    """Regressions for the vectorized engine's shared-subplan cache (the
    interpreter has none): error paths and re-entrant execute() must never
    leak one execution's materialisation into another."""

    @pytest.mark.parametrize("engine_cls", [VectorizedEngine])
    def test_failed_query_discards_shared_cache(self, tiny_catalog, engine_cls):
        engine = engine_cls(tiny_catalog)
        faults = FaultPlan([FaultSpec(site="engine.vectorized.batch",
                                      error=EngineFault, fires_on=(2,))])
        with inject(faults):
            with pytest.raises(EngineFault):
                engine.execute(_shared_plan())
        assert engine._shared_ids is None
        assert engine._shared_cache is None
        # a clean rerun on the same engine instance must succeed
        reference = engine_cls(tiny_catalog).execute(_shared_plan())
        assert_rows_equivalent(reference, engine.execute(_shared_plan()))

    def test_nested_execute_does_not_disarm_outer_context(self, tiny_catalog):
        engine = VectorizedEngine(tiny_catalog)
        plan = _shared_plan()
        with engine._sharing_active(plan):
            assert engine._shared_ids is not None  # the plan really shares
            engine.execute(Q.Scan("R"))  # nested, unshared
            assert engine._shared_ids is not None
            engine.execute(_shared_plan())  # nested, shared
            assert engine._shared_ids is not None
            assert engine._shared_ids == Q.shared_subplan_fingerprints(plan)
        assert engine._shared_ids is None

    def test_hardened_executor_reuses_engines_cleanly(self, tiny_catalog,
                                                     ladder_down_to):
        """Ladder fallback re-runs on the same engine instances; a fault in
        one attempt must not poison the next query's sharing state."""
        executor = _executor(tiny_catalog)
        reference = VolcanoEngine(tiny_catalog).execute(_shared_plan())
        faults = FaultPlan(ladder_down_to("interpreter") + [
            FaultSpec(site="engine.volcano.operator", error=TransientFault,
                      fires_on=(2,), max_fires=1)])
        with inject(faults):
            report = executor.execute(_shared_plan(), "shared_q")
        assert [a["error_type"] for a in report.attempts] == \
            ["EngineFault", "EngineFault", "TransientFault"]
        assert report.tier == "interpreter"
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
