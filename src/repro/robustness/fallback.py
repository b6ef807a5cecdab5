"""The engine-fallback ladder: degrade instead of dying.

:class:`HardenedExecutor` runs one query against the redundant engine lineup
this repository already has, degrading on failure along two axes:

* **engine tier** — compiled dblab-5 stack → vectorized → Volcano
  interpreter (``ENGINE_TIERS``, always all three).  Any engine failure
  moves to the next tier.
* **plan mode** — access-path plan → re-planned without ``access_rules``.
  Access-layer failures (missing index, corrupted zone map —
  :class:`~repro.storage.access.AccessError` and
  :class:`~repro.robustness.faults.DataCorruptionFault`) degrade the plan
  instead of the engine: the same tier retries on a plan that no longer
  touches the broken structure.  A failure that survives that is not the
  plan's, and moves to the next tier.

Transient faults (:class:`~repro.robustness.faults.TransientFault`) are
retried in place with exponential backoff.  A per-(fingerprint, tier)
circuit breaker disables a repeatedly failing tier until a cooldown expires.
Retry and breaker settings are module constants.  Every degradation is
recorded in a structured :class:`~repro.robustness.incidents.IncidentLog`;
a deadline trip is final and re-raises
:class:`~repro.robustness.governor.BudgetExceeded` to the caller.

The executor detects access-layer generation skew: if a table is
re-registered between planning and execution (or mid-ladder), the stale plan
is thrown away and re-planned against the new data, with a
``generation_skew`` incident — never silently serving stale indices.
"""
from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from ..codegen.compiler import QueryCompiler

from ..dsl import qplan as Q
from ..engine.vectorized import VectorizedEngine
from ..engine.volcano import VolcanoEngine
from ..planner import Planner, PlannerOptions
from ..storage.access import AccessError, AccessLayer
from ..storage.catalog import Catalog
from ..storage.derived import repeat_traffic
from .faults import DataCorruptionFault, TransientFault, fault_point
from .governor import BudgetExceeded, QueryBudget, governed
from .incidents import DEFAULT_INCIDENTS, IncidentLog

ENGINE_TIERS = ("compiled", "vectorized", "interpreter")
PLAN_MODES = ("access", "no_access")

#: the ladder's fixed settings: a (fingerprint, tier) breaker opens after
#: ``BREAKER_THRESHOLD`` failures and lets one probe through per
#: ``BREAKER_COOLDOWN_SECONDS``; a transient fault is retried in place
#: ``MAX_RETRIES`` times, the backoff starting at ``BACKOFF_SECONDS`` and
#: doubling per retry
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN_SECONDS = 30.0
MAX_RETRIES = 2
BACKOFF_SECONDS = 0.01

#: errors that indicate a broken physical access structure: degrade the plan
#: (drop access paths), not the engine
ACCESS_ERRORS = (AccessError, DataCorruptionFault)


class LadderExhausted(RuntimeError):
    """Every configured tier failed; ``attempts`` records each failure."""

    def __init__(self, query: str, attempts: List[dict]) -> None:
        self.query = query
        self.attempts = attempts
        causes = ", ".join(f"{a['tier']}/{a['plan_mode']}: {a['error']}"
                           for a in attempts)
        super().__init__(f"all execution tiers failed for {query!r} ({causes})")


class CircuitBreaker:
    """Per-key failure counter with open/cooldown/half-open states.

    A key opens after ``BREAKER_THRESHOLD`` failures with no success between
    them.  Once ``BREAKER_COOLDOWN_SECONDS`` have passed, :meth:`allow`
    grants one probe and re-arms the cooldown, so the next probe waits
    another cooldown; the probe's success closes the key.

    State transitions are serialised by a lock: the serving front door runs
    ladder attempts on a thread pool, so concurrent failures on the same
    (fingerprint, tier) key must not lose counter increments or double-open
    the breaker, and concurrent callers of a cooled key must not all probe.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.RLock()
        self._failures: Dict[Tuple, int] = {}
        self._opened_at: Dict[Tuple, float] = {}

    def allow(self, key: Tuple) -> bool:
        """Whether an attempt may run: the key is closed, or open and cooled
        (half-open: this call is the one probe let through, and re-arms the
        cooldown; the probe's outcome closes or keeps the key open)."""
        with self._lock:
            opened = self._opened_at.get(key)
            if opened is None:
                return True
            now = self._clock()
            if now - opened < BREAKER_COOLDOWN_SECONDS:
                return False
            self._opened_at[key] = now
            return True

    def record_failure(self, key: Tuple) -> bool:
        """Count a failure; returns True when this opens (or re-arms) the
        breaker."""
        with self._lock:
            count = self._failures.get(key, 0) + 1
            self._failures[key] = count
            if count >= BREAKER_THRESHOLD:
                self._opened_at[key] = self._clock()
                return True
            return False

    def record_success(self, key: Tuple) -> bool:
        """Reset the key; returns True when this closed an open breaker."""
        with self._lock:
            was_open = self._opened_at.pop(key, None) is not None
            self._failures.pop(key, None)
            return was_open


@dataclass
class ExecutionReport:
    """The outcome of one hardened execution."""

    query: str
    rows: List[dict]
    tier: str
    plan_mode: str
    #: every failed attempt before the successful one, in order:
    #: {tier, plan_mode, error, error_type, elapsed_seconds}
    attempts: List[dict] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.attempts)


class HardenedExecutor:
    """Runs queries through the fallback ladder against one catalog.

    The executor is safe to share across the serving layer's thread pool and
    keeps no per-query state: a direct engine carries per-execution state
    (the vectorized engine's subplan-sharing cache) and is constructed for
    the attempt that uses it, planned trees and compiled queries live in the
    catalog's derived cache (:class:`~repro.storage.derived.DerivedCache`),
    and the circuit breaker and incident log are thread-safe themselves.
    """

    def __init__(self, catalog: Catalog, *,
                 incidents: Optional[IncidentLog] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.catalog = catalog
        self.incidents = incidents if incidents is not None else DEFAULT_INCIDENTS
        self.breaker = CircuitBreaker()
        self._sleep = sleep
        from ..codegen.compiler import QueryCompiler
        from ..stack.configs import build_config
        config = build_config("dblab-5")
        #: one compiler per plan mode, both on the dblab-5 stack.  Planning
        #: is the executor's job (it owns the mode axis), so the compiler's
        #: own logical optimizer stays off; the access-layer flag follows the
        #: plan mode so a degraded plan also stops the generated code from
        #: touching catalog-resident structures.
        # concurrency: init-only
        self._compilers: Dict[str, QueryCompiler] = {
            mode: QueryCompiler(config.stack, config.flags.copy_with(
                logical_plan_optimizer=False,
                catalog_access_layer=(mode == "access"),
                subplan_sharing=True))
            for mode in PLAN_MODES}

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _plan(self, plan: Q.Operator, mode: str) -> Q.Operator:
        """The tree the tiers run in ``mode``, planned through the catalog's
        cached planner."""
        options = PlannerOptions.all_rules() if mode == "access" \
            else PlannerOptions.no_access_paths()
        return Planner.for_catalog(self.catalog, options).optimize(plan)

    # ------------------------------------------------------------------
    # Tier runners
    # ------------------------------------------------------------------
    def _run_tier(self, tier: str, planned: Q.Operator, query_name: str,
                  compiler: QueryCompiler) -> List[dict]:
        if tier == "compiled":
            return compiler.compile(planned, self.catalog,
                                    query_name).run(self.catalog)
        if tier == "vectorized":
            return VectorizedEngine(self.catalog).execute(planned)
        return VolcanoEngine(self.catalog).execute(planned)

    # ------------------------------------------------------------------
    # The ladder
    # ------------------------------------------------------------------
    def execute(self, plan: Q.Operator, query_name: str = "query",
                budget: Optional[QueryBudget] = None) -> ExecutionReport:
        """Run ``plan`` down the ladder, under ``budget``'s deadline when one
        is given; raises :class:`BudgetExceeded` when the deadline passes,
        :class:`LadderExhausted` when every tier fails."""
        fingerprint = Q.plan_fingerprint(plan)
        attempts: List[dict] = []
        mode_index = 0
        for tier in ENGINE_TIERS:
            breaker_key = (fingerprint, tier)
            # asked once per tier: a half-open probe is the whole visit, its
            # retries and plan degradation included
            if not self.breaker.allow(breaker_key):
                attempts.append({"tier": tier,
                                 "plan_mode": PLAN_MODES[mode_index],
                                 "error": "circuit breaker open",
                                 "error_type": "CircuitOpen",
                                 "elapsed_seconds": 0.0})
                continue
            retries = 0
            while True:
                mode = PLAN_MODES[mode_index]
                started = time.perf_counter()
                try:
                    rows = self._attempt(plan, tier, mode, query_name, budget)
                except BudgetExceeded as error:
                    self.incidents.report(
                        "budget_trip", query=query_name, tier=tier,
                        cause="budget:timeout", message=str(error),
                        elapsed_seconds=time.perf_counter() - started,
                        plan_mode=mode, stats=error.stats.as_dict())
                    raise
                except TransientFault as error:
                    elapsed = time.perf_counter() - started
                    attempts.append(self._attempt_record(tier, mode, error, elapsed))
                    opened = self.breaker.record_failure(breaker_key)
                    if retries < MAX_RETRIES:
                        delay = BACKOFF_SECONDS * (2 ** retries)
                        retries += 1
                        self.incidents.report(
                            "transient_retry", query=query_name, tier=tier,
                            cause=type(error).__name__, message=str(error),
                            elapsed_seconds=elapsed, plan_mode=mode,
                            attempt=retries, backoff_seconds=delay)
                        self._sleep(delay)
                        continue
                    self._give_up_tier(query_name, tier, error, elapsed, mode,
                                       opened)
                    break
                except ACCESS_ERRORS as error:
                    elapsed = time.perf_counter() - started
                    attempts.append(self._attempt_record(tier, mode, error, elapsed))
                    if mode_index + 1 < len(PLAN_MODES):
                        mode_index += 1
                        self.incidents.report(
                            "plan_degraded", query=query_name, tier=tier,
                            cause=type(error).__name__, message=str(error),
                            elapsed_seconds=elapsed, from_mode=mode,
                            to_mode=PLAN_MODES[mode_index])
                        retries = 0
                        continue  # same tier, safer plan
                    self._give_up_tier(query_name, tier, error, elapsed, mode,
                                       self.breaker.record_failure(breaker_key))
                    break
                except Exception as error:  # noqa: BLE001 - the ladder's purpose
                    elapsed = time.perf_counter() - started
                    attempts.append(self._attempt_record(tier, mode, error, elapsed))
                    self._give_up_tier(query_name, tier, error, elapsed, mode,
                                       self.breaker.record_failure(breaker_key))
                    break

                if self.breaker.record_success(breaker_key):
                    self.incidents.report(
                        "circuit_close", query=query_name, tier=tier,
                        cause="probe_succeeded",
                        message=f"half-open probe succeeded, {tier} re-enabled")
                return ExecutionReport(query=query_name, rows=rows, tier=tier,
                                       plan_mode=mode, attempts=attempts)

        raise LadderExhausted(query_name, attempts)

    # ------------------------------------------------------------------
    def _attempt(self, plan: Q.Operator, tier: str, mode: str,
                 query_name: str, budget: Optional[QueryBudget]) -> List[dict]:
        layer = AccessLayer.for_catalog(self.catalog)
        generation = layer.generation
        planned = self._plan(plan, mode)
        # the plan→execute window: a concurrent re-registration (simulated by
        # the executor.pre_execute fault site) lands here
        fault_point("executor.pre_execute", query=query_name, tier=tier,
                    catalog=self.catalog)
        if layer.generation != generation:
            self.incidents.report(
                "generation_skew", query=query_name, tier=tier,
                cause="access_layer_generation",
                message=(f"access-layer generation moved {generation} -> "
                         f"{layer.generation} between plan and execute; "
                         "re-planning"),
                plan_mode=mode)
            planned = self._plan(plan, mode)
        scope = governed(budget) if budget is not None else nullcontext()
        with scope:
            return self._run_tier(tier, planned, query_name,
                                  self._compilers[mode])

    # ------------------------------------------------------------------
    def warm(self, plan: Q.Operator, query_name: str = "query") -> float:
        """Pre-plan and pre-compile ``plan`` for the compiled tier.

        Plans in ``access`` mode, compiles through the compiled-tier stack
        (populating the catalog's derived cache) and runs ``prepare`` so the
        catalog-resident access structures the query needs are built before
        traffic arrives.  Returns the compile seconds spent (0.0 on a cache
        hit).  Used by the serving front door's warm-up, which declares its
        queries repeat traffic: the planned tree and the compiled entry go
        to the protected segments, where one-shot plans cannot evict them.
        """
        with repeat_traffic():
            compiled = self._compilers["access"].compile(
                self._plan(plan, "access"), self.catalog, query_name)
        compiled.prepare(self.catalog)
        return 0.0 if compiled.cache_hit else compiled.compile_seconds

    def _attempt_record(self, tier: str, mode: str, error: BaseException,
                        elapsed: float) -> dict:
        return {"tier": tier, "plan_mode": mode, "error": str(error),
                "error_type": type(error).__name__,
                "elapsed_seconds": elapsed}

    def _give_up_tier(self, query_name: str, tier: str, error: BaseException,
                      elapsed: float, mode: str, opened: bool) -> None:
        """Report that ``tier`` failed, and that its breaker opened when the
        failure's ``record_failure`` said so."""
        self.incidents.report(
            "tier_failure", query=query_name, tier=tier,
            cause=type(error).__name__, message=str(error),
            elapsed_seconds=elapsed, plan_mode=mode)
        if opened:
            self.incidents.report(
                "circuit_open", query=query_name, tier=tier,
                cause="failure_threshold",
                message=(f"{tier} disabled for this plan fingerprint for "
                         f"{BREAKER_COOLDOWN_SECONDS}s"))
