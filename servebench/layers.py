"""The traced run: per-layer metrics from a replay, one call at a time.

Spans are recorded here, around calls into each layer's public functions;
nothing inside ``src/`` is instrumented (that is a later issue).  A span is
``{name, start, end, parent, request_id}`` with raw ``perf_counter``
readings; spans are kept in memory and written out once at exit.

The run has five parts:

1. set-up, one span per stage;
2. the same timed window as the end-to-end run, tracing off — it yields the
   client-side metrics that are declared per-layer (see README);
3. the *server replay* — a few more cycles through ``QueryServer.submit``
   with a span per request; its latency against the window's is the
   tracing overhead;
4. the *layer replay* — each distinct plan of the workload through
   fingerprint, planner, stack, Python compile, ``prepare``, ``run`` and the
   hardened executor, ``REPETITIONS`` times each, medians kept;
5. the *ladder* — Table 3 of the paper on the planned plans: every engine,
   minimum of ``LADDER_REPETITIONS``.

Every window and replay is a fixed count of cycles, so every count repeats
exactly.  Timings are medians per query kind, combined over kinds by
geometric mean, so every kind weighs the same; counts are sums over kinds.
"""
from __future__ import annotations

import gc
import json
import re
import statistics
import time
from itertools import count, islice
from statistics import geometric_mean
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import ENGINE_NAMES, BenchmarkHarness
from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan as Q
from repro.planner import Planner
from repro.robustness.fallback import HardenedExecutor
from repro.robustness.governor import QueryBudget
from repro.stack.configs import CONFIG_NAMES, build_config, config_flags
from repro.storage.access import AccessLayer

from loadgen import (Checker, Sample, Window, failed_operations, run_window,
                     set_up, timed_window, window_metrics)
from measure import MachineSpeed
from workloads import Workload

REPETITIONS = 3
LADDER_REPETITIONS = 5
#: dblab-(n+1) may be this much slower than dblab-n and still count as
#: "an extra level never hurts"
MONOTONE_TOLERANCE = 1.05

STACK_LEVELS = ("dblab-2", "dblab-3", "dblab-4", "dblab-5")


class Tracer:
    """Span recorder: every measured call becomes one span."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        #: spans of one request — a served one or a replayed plan — share an id
        self.request_ids = count()

    def span(self, name: str, start: float, end: float,
             parent: Optional[int] = None, request_id: Optional[int] = None) -> int:
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": parent, "request_id": request_id})
        return len(self.spans) - 1

    def call(self, name: str, parent: Optional[int], fn: Callable, *args):
        """Measure ``fn(*args)`` under a span; returns ``(result, seconds)``."""
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        self.span(name, start, end, parent,
                  None if parent is None else self.spans[parent]["request_id"])
        return result, end - start

    def request(self, sample: Sample) -> None:
        """One ``server.submit`` span with the two parts the response
        accounts for as children; the rest is the span's self time."""
        request_id = next(self.request_ids)
        parent = self.span("server.submit", sample.started, sample.ended,
                           None, request_id)
        dispatched = sample.started + sample.queue_seconds
        self.span("server.queue_wait", sample.started, dispatched,
                  parent, request_id)
        self.span("server.execute", dispatched,
                  dispatched + sample.execute_seconds, parent, request_id)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _slug(phase_name: str) -> str:
    """``optimize[ScaLite[Map, List]]`` -> ``optimize-scalite-map-list``."""
    return re.sub(r"[^a-z0-9]+", "-", phase_name.lower().replace(".", "")).strip("-")


class _PerKind(dict):
    """``metric -> kind -> samples`` (seconds, or a ratio)."""

    def add(self, metric: str, kind: str, value: float) -> None:
        self.setdefault(metric, {}).setdefault(kind, []).append(value)

    def medians(self, metric: str) -> Dict[str, float]:
        return {kind: statistics.median(values)
                for kind, values in self[metric].items()}

    def over_kinds(self, metric: str) -> float:
        """Geometric mean over kinds of the per-kind median."""
        return geometric_mean(self.medians(metric).values())


# ---------------------------------------------------------------------------
async def traced_run(workload: Workload, seed: int, seconds: float,
                     trace_path: str) -> Tuple[Dict[str, float], int, int, dict]:
    """Returns ``(metrics, attempted, failed, notes)``."""
    machine = MachineSpeed()
    machine.sample()
    tracer = Tracer()
    metrics: Dict[str, float] = {}

    setup = await set_up(workload, seed)
    stages = setup.stages
    root = tracer.span("setup", stages["dbgen"][0], stages["start"][1])
    for name, (start, end) in stages.items():
        tracer.span(f"setup.{name}", start, end, root)
    catalog, server = setup.catalog, setup.server
    layer = AccessLayer.for_catalog(catalog)
    metrics["tpch.dbgen_s"] = setup.stage_seconds("dbgen")
    metrics["storage.access_build_ms"] = setup.stage_seconds("access") * 1000.0
    metrics["storage.access_builds"] = sum(layer.build_counts.values())
    metrics["storage.catalog_bytes"] = catalog.memory_footprint()
    metrics["server.warmup_compile_s"] = sum(
        server.stats()["warmup_compile_seconds"].values())

    # -- the timed window, tracing off, then the server replay with spans ---
    window, cycles = await timed_window(setup, workload, seed, seconds)
    traced = await run_window(setup, islice(cycles, workload.replay_cycles),
                              on_sample=tracer.request)
    stats = server.stats()
    await server.drain()
    checker = Checker(catalog)
    attempted = window.attempted + traced.attempted
    failed_in_window = failed_operations(window, checker)
    failed = failed_in_window + failed_operations(traced, checker)
    metrics.update(window_metrics(window, failed_in_window))
    metrics.update(_server_metrics(traced, stats))
    metrics["trace.overhead_share"] = geometric_mean(
        with_spans / without for with_spans, without in zip(
            traced.median_by_kind().values(),
            window.median_by_kind().values())) - 1.0
    metrics["storage.generation_final"] = layer.generation
    cache = QueryCompiler.cache_stats
    metrics["codegen.cache_hits"] = cache.hits
    metrics["codegen.cache_misses"] = cache.misses
    metrics["codegen.cache_evictions"] = cache.evictions

    # -- layer replay and ladder ------------------------------------------
    plans = workload.plans(seed)
    layer_metrics, planned, wrong, per_kind_ms = _layer_replay(
        tracer, catalog, plans, checker)
    metrics.update(layer_metrics)
    attempted += len(plans)
    failed += wrong
    ladder_metrics, access_modes = _ladder(tracer, catalog, planned)
    metrics.update(ladder_metrics)
    _, register_seconds = tracer.call(
        "storage.register", None, catalog.register, catalog.table("lineitem"))
    metrics["storage.register_ms"] = register_seconds * 1000.0
    metrics["failed_share"] = failed / attempted
    machine.sample()
    metrics["machine.kernel_ms"] = machine.kernel_ms

    tracer.write(trace_path)
    return metrics, attempted, failed, {
        "exec.access_mode": access_modes, "spans": len(tracer.spans),
        "window_requests": window.attempted, "window_seconds": window.seconds,
        "server_latency_ms": {kind: 1000.0 * seconds for kind, seconds
                              in traced.median_by_kind().items()},
        "per_kind_ms": per_kind_ms}


def _server_metrics(window: Window, stats: dict) -> Dict[str, float]:
    per_kind = _PerKind()
    for s in window.samples:
        per_kind.add("server.queue_wait_ms", s.kind, s.queue_seconds)
        per_kind.add("server.execute_ms", s.kind, s.execute_seconds)
        per_kind.add("server.overhead_ms", s.kind,
                     s.seconds - s.queue_seconds - s.execute_seconds)
    metrics = {name: 1000.0 * per_kind.over_kinds(name) for name in per_kind}
    metrics["server.shed_count"] = sum(
        s.status in ("overloaded", "deadline_exceeded") for s in window.samples)
    metrics["server.downgrade_count"] = sum(
        s.tier_policy != "full" for s in window.samples)
    metrics["server.limiter_limit_final"] = stats["limiter"]["limit"]
    metrics["robustness.degraded_attempts"] = sum(s.attempts for s in window.samples)
    metrics["robustness.incidents_total"] = stats["incidents"]["total_reported"]
    return metrics


# ---------------------------------------------------------------------------
def _replay_compiler(verify: bool = False) -> QueryCompiler:
    """The compiler the layer replay times: dblab-5 with the flags
    ``HardenedExecutor`` gives its first tier in ``access`` plan mode.  The
    replay checks, plan by plan, that the executor's own compiler hits the
    cache entry this one made (see :func:`_layer_replay`), so if ``src/``
    changes what serving compiles with, the traced run fails instead of
    measuring a compiler the server no longer uses."""
    config = build_config("dblab-5")
    return QueryCompiler(config.stack, config.flags.copy_with(
        logical_plan_optimizer=False, catalog_access_layer=True,
        subplan_sharing=True), verify=verify)


def _layer_replay(tracer: Tracer, catalog, plans: Sequence[Tuple[str, Q.Operator]],
                  checker: Checker):
    """Returns ``(metrics, [(kind, planned plan)], wrong row-sets, median ms
    per metric and kind)`` — the last goes into the result file, because a
    geometric mean over kinds hides a cost only two kinds pay (``prepare``
    is 53 ms of Q21's 62 and under 0.2 ms for most others)."""
    per_kind = _PerKind()
    counts = {"planner.rules_applied": 0, "planner.iterations": 0,
              "codegen.source_lines": 0, "codegen.rows_out": 0}
    planned_plans: List[Tuple[str, Q.Operator]] = []
    wrong = 0
    compiler, verifying = _replay_compiler(), _replay_compiler(verify=True)
    executor = HardenedExecutor(catalog)
    governed = QueryBudget(check_interval=64)
    shared_planner = Planner.for_catalog(catalog)

    for kind, raw in plans:
        parent = tracer.span(f"plan:{kind}", 0.0, 0.0, None,
                             next(tracer.request_ids))

        def timed(metric: str, fn: Callable, *args, kind=kind, parent=parent):
            """``fn(*args)`` ``REPETITIONS`` times; the last result."""
            result = None
            for _ in range(REPETITIONS):
                result, seconds = tracer.call(metric, parent, fn, *args)
                per_kind.add(metric, kind, seconds)
            return result

        timed("dsl.fingerprint", Q.plan_fingerprint, raw)
        planned = timed("planner.optimize",
                        lambda raw=raw: Planner(catalog).optimize(raw))
        planned_plans.append((kind, planned))
        report = Planner(catalog).explain(raw)
        counts["planner.rules_applied"] += len(report.applied)
        counts["planner.iterations"] += report.iterations
        shared_planner.optimize(raw)
        timed("planner.memo_hit", shared_planner.optimize, raw)

        for _ in range(REPETITIONS):
            QueryCompiler.clear_cache()
            compiled, seconds = tracer.call(
                "codegen.compile", parent, compiler.compile, planned, catalog, kind)
            per_kind.add("codegen.compile", kind, seconds)
            per_kind.add("stack.generation", kind, compiled.generation_seconds)
            per_kind.add("codegen.python_compile", kind,
                         compiled.python_compile_seconds)
            for phase in compiled.phases:
                per_kind.add(f"stack.phase.{_slug(phase.name)}", kind, phase.seconds)
        counts["codegen.source_lines"] += compiled.source_lines
        # ``warm`` plans and compiles the way serving does and returns 0.0
        # only when that hit the entry the replay compiler just cached
        if executor.warm(raw, kind) != 0.0:
            raise RuntimeError(
                f"{kind}: HardenedExecutor compiled anew what the layer replay "
                "had cached — the replay no longer uses the serving compiler")
        timed("codegen.cache_hit", compiler.compile, planned, catalog, kind)
        aux = timed("codegen.prepare", compiled.prepare, catalog)
        rows = timed("codegen.run", compiled.run, catalog, aux)
        counts["codegen.rows_out"] += len(rows)
        wrong += not checker.matches(raw, rows)
        estimated, actual = max(report.estimated_rows_after, 1.0), max(len(rows), 1)
        per_kind.add("planner.root_qerror", kind,
                     max(estimated / actual, actual / estimated))

        timed("robustness.execute", executor.execute, raw, kind)
        timed("robustness.execute_governed", executor.execute, raw, kind, governed)
        _, verify_seconds = tracer.call(
            "analysis.verify_compile", parent, verifying.compile, planned,
            catalog, kind)
        per_kind.add("analysis.verify_compile_ratio", kind, verify_seconds
                     / statistics.median(per_kind["codegen.compile"][kind]))
        span = tracer.spans[parent]
        span["start"] = tracer.spans[parent + 1]["start"]
        span["end"] = tracer.spans[-1]["end"]

    ratios = ("planner.root_qerror", "analysis.verify_compile_ratio")
    metrics: Dict[str, float] = dict(counts)
    for name in ratios:
        metrics[name] = per_kind.over_kinds(name)
    for name in per_kind:
        if name.startswith("stack.phase.") or name in (
                "dsl.fingerprint", "planner.optimize", "planner.memo_hit",
                "stack.generation", "codegen.python_compile",
                "codegen.cache_hit", "codegen.prepare", "codegen.run",
                "robustness.execute"):
            metrics[f"{name}_ms"] = 1000.0 * per_kind.over_kinds(name)
    execute, governed_execute, prepare, run = (per_kind.medians(name) for name in (
        "robustness.execute", "robustness.execute_governed",
        "codegen.prepare", "codegen.run"))
    # a difference, not a ratio: it can dip below zero on a long query, so
    # it is averaged over kinds arithmetically
    metrics["robustness.ladder_self_ms"] = 1000.0 * statistics.mean(
        execute[kind] - prepare[kind] - run[kind] for kind in execute)
    metrics["robustness.governor_overhead_share"] = geometric_mean(
        governed_execute[kind] / execute[kind] for kind in execute) - 1.0
    per_kind_ms = {
        name: {kind: 1000.0 * seconds
               for kind, seconds in per_kind.medians(name).items()}
        for name in per_kind if name not in ratios}
    return metrics, planned_plans, wrong, per_kind_ms


# ---------------------------------------------------------------------------
def _ladder(tracer: Tracer, catalog, planned: Sequence[Tuple[str, Q.Operator]]):
    """Table 3 on the planned plans, minimum of ``LADDER_REPETITIONS``.
    Returns ``(metrics, access mode per engine)`` — dblab-2 and
    tpch-compliant do not consume the catalog access layer by design, so
    their cells must not be read against the others."""
    harness = BenchmarkHarness(catalog, repetitions=LADDER_REPETITIONS)
    # the harness collects before every repetition; with the catalog frozen
    # out of the collector's sight that costs microseconds, not 10 ms
    gc.freeze()
    parent = tracer.span("ladder", 0.0, 0.0)
    opened = time.perf_counter()
    best: Dict[str, Dict[str, float]] = {}
    for engine in ENGINE_NAMES:
        best[engine] = {}
        for kind, plan in planned:
            measurement, _ = tracer.call(
                f"exec.{engine}", parent,
                lambda: harness.measure(kind, engine, plan, optimize=False))
            best[engine][kind] = measurement.run_seconds
    tracer.spans[parent].update(start=opened, end=time.perf_counter())

    metrics: Dict[str, float] = {
        f"exec.{engine}_ms": 1000.0 * geometric_mean(best[engine].values())
        for engine in ENGINE_NAMES}
    kinds = [kind for kind, _ in planned]
    metrics["exec.stack_wins"] = sum(
        best["dblab-5"][kind] <= best["vectorized"][kind] for kind in kinds)
    metrics["exec.levels_monotone"] = sum(
        all(best[lower][kind] <= MONOTONE_TOLERANCE * best[upper][kind]
            for upper, lower in zip(STACK_LEVELS, STACK_LEVELS[1:]))
        for kind in kinds)
    access_modes = {
        engine: "access" if engine not in CONFIG_NAMES
        or config_flags(engine).catalog_access_layer else "no_access"
        for engine in ENGINE_NAMES}
    return metrics, access_modes
