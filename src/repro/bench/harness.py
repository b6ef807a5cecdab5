"""Benchmark harness regenerating the paper's evaluation (Section 7).

The harness runs TPC-H queries under every engine configuration and collects
the measurements behind the paper's tables and figures:

* **Table 3** — query execution time per configuration (interpreter,
  vectorized, and the stack configurations: the one-lowering template
  expander, DBLAB/LB with 2..5 levels, TPC-H compliant),
* **Figure 8** — peak memory consumption of the generated code,
* **Figure 9** — compilation time split into DSL-stack code generation and
  Python compilation (the CLang stand-in).

A *planner mode* extends the Table-3 grid with an optimized-vs-raw plan
dimension: ``use_planner=True`` times logically-optimized plans everywhere,
and :meth:`BenchmarkHarness.table3_planner` measures both variants side by
side (``format_planner_table`` / ``write_planner_json`` report them).

The module also hosts the **order-contract result comparator** the parity
suites and smoke drivers share: :func:`rows_equivalent` checks multiset
equality with float-accumulation tolerance and, when a plan carries a sort
contract (:func:`repro.planner.sort_contract`), additionally enforces the
guaranteed key order position by position.  This comparator is what allows
the cost-based join-strategy rules to be enabled by default.

Absolute numbers are not comparable to the paper's C implementation on a Xeon
server; the claims being reproduced are the *relative* ones (who wins, the
size of the jump when the data-structure-aware level is added, and that extra
levels never hurt).
"""
from __future__ import annotations

import json
import math
import time
import tracemalloc
from collections import Counter
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..codegen.compiler import CompiledQuery, QueryCompiler
from ..dsl.expr_compile import compile_row
from ..planner import Planner
from ..stack.configs import (CONFIG_NAMES, DIRECT_ENGINE_NAMES, StackConfig,
                             build_config, build_direct_engine)
from ..storage.catalog import Catalog
from ..tpch.queries import QUERY_NAMES, build_query

#: every engine the harness knows how to run, in reporting order
ENGINE_NAMES = DIRECT_ENGINE_NAMES + CONFIG_NAMES

#: the two plan modes of the planner comparison benchmarks
PLAN_MODES = ("raw", "planned")

#: significant digits floats are canonicalised to before comparison — wide
#: enough to distinguish genuinely different values, tolerant to the
#: accumulation-order perturbations of the cost-based join rules
FLOAT_DIGITS = 9


# ---------------------------------------------------------------------------
# Result comparison under order contracts
# ---------------------------------------------------------------------------
def canonical_value(value: Any, digits: int = FLOAT_DIGITS) -> Any:
    """A hashable, tolerance-normalised form of one result value.

    Floats are formatted to ``digits`` significant digits so that two sums
    accumulated in different orders (the only value difference a
    multiset-preserving rewrite can introduce) canonicalise identically.
    """
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return value


def canonical_rows(rows: Sequence[Dict[str, Any]],
                   digits: int = FLOAT_DIGITS) -> List[Tuple]:
    """Rows as hashable tuples with canonicalised values (order kept)."""
    return [tuple(sorted((name, canonical_value(value, digits))
                         for name, value in row.items()))
            for row in rows]


def _value_close(left: Any, right: Any, digits: int) -> bool:
    """Tolerant scalar equality: floats to ~``digits`` significant digits."""
    if isinstance(left, float) and isinstance(right, float):
        tolerance = 10.0 ** (1 - digits)
        return math.isclose(left, right, rel_tol=tolerance, abs_tol=tolerance)
    return left == right


def _rows_multiset_equal(expected: Sequence[Dict[str, Any]],
                         actual: Sequence[Dict[str, Any]],
                         digits: int) -> bool:
    """Order-insensitive row comparison with float tolerance.

    The fast path hashes canonicalised rows into counters.  Canonicalisation
    rounds, and rounding is bucketing, not a tolerance: two floats within
    accumulation tolerance can land in adjacent buckets and defeat the
    counter comparison.  The fallback therefore sorts both sides by their
    canonical form and compares rows pairwise with a real epsilon
    (:func:`_value_close`), so boundary-straddling values cannot cause a
    spurious mismatch.
    """
    if Counter(canonical_rows(expected, digits)) == \
            Counter(canonical_rows(actual, digits)):
        return True

    def ordered(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        return sorted(rows, key=lambda row: tuple(
            sorted((name, repr(canonical_value(value, digits)))
                   for name, value in row.items())))

    for left, right in zip(ordered(expected), ordered(actual)):
        if left.keys() != right.keys():
            return False
        if not all(_value_close(left[name], right[name], digits) for name in left):
            return False
    return True


def rows_equivalent(expected: Sequence[Dict[str, Any]],
                    actual: Sequence[Dict[str, Any]],
                    sort_keys=None, digits: int = FLOAT_DIGITS) -> bool:
    """Compare two result sets under an order contract.

    Without ``sort_keys`` the two row lists must be equal as **multisets**
    (float values compared to ``digits`` significant digits).  With
    ``sort_keys`` — a plan's :func:`repro.planner.sort_contract`, a tuple of
    ``(key_expr, order)`` pairs over the output columns — the comparison is
    sort-key aware and strictly stronger: the sequences of key tuples must
    match position by position, and rows may be permuted only *within* runs
    of equal keys (the ties the contract leaves unspecified).
    """
    if len(expected) != len(actual):
        return False
    if not sort_keys:
        return _rows_multiset_equal(expected, actual, digits)
    key_fns = [compile_row(expr) for expr, _ in sort_keys]

    def raw_keys_of(rows: Sequence[Dict[str, Any]]) -> List[Tuple]:
        return [tuple(fn(row) for fn in key_fns) for row in rows]

    expected_keys, actual_keys = raw_keys_of(expected), raw_keys_of(actual)
    for left, right in zip(expected_keys, actual_keys):
        if not all(_value_close(a, b, digits) for a, b in zip(left, right)):
            return False
    # Compare rows within each maximal run of equal (canonicalised) sort
    # keys: ties are the only positions a multiset-preserving rewrite may
    # permute.
    canonical_keys = [tuple(canonical_value(v, digits) for v in key)
                      for key in expected_keys]
    start = 0
    for stop in range(1, len(expected) + 1):
        if stop == len(expected) or canonical_keys[stop] != canonical_keys[start]:
            if not _rows_multiset_equal(expected[start:stop],
                                        actual[start:stop], digits):
                return False
            start = stop
    return True


def assert_rows_equivalent(expected: Sequence[Dict[str, Any]],
                           actual: Sequence[Dict[str, Any]],
                           sort_keys=None, digits: int = FLOAT_DIGITS,
                           context: str = "") -> None:
    """``rows_equivalent`` with a diagnostic ``AssertionError`` on mismatch."""
    if rows_equivalent(expected, actual, sort_keys=sort_keys, digits=digits):
        return
    prefix = f"{context}: " if context else ""
    if len(expected) != len(actual):
        raise AssertionError(
            f"{prefix}row count mismatch: expected {len(expected)}, "
            f"got {len(actual)}")
    missing = Counter(canonical_rows(expected, digits))
    missing.subtract(canonical_rows(actual, digits))
    diff = [f"{'-' if count > 0 else '+'} {row}"
            for row, count in missing.items() if count != 0]
    detail = "\n".join(diff[:10]) if diff else "(multisets equal; order contract violated)"
    raise AssertionError(f"{prefix}results differ under the order contract:\n{detail}")


@dataclass
class Measurement:
    """One engine's measurements for one query."""

    query: str
    engine: str
    run_seconds: float
    rows: int
    generation_seconds: float = 0.0
    compile_seconds: float = 0.0
    prepare_seconds: float = 0.0
    peak_memory_bytes: int = 0
    plan_mode: str = "raw"

    @property
    def run_millis(self) -> float:
        return self.run_seconds * 1000.0


class BenchmarkHarness:
    """Runs queries under the different engines and collects measurements."""

    def __init__(self, catalog: Catalog, repetitions: int = 3,
                 engines: Sequence[str] = ENGINE_NAMES,
                 use_planner: bool = False) -> None:
        self.catalog = catalog
        self.repetitions = max(1, repetitions)
        self.engines = tuple(engines)
        self.use_planner = use_planner
        self.planner = Planner.for_catalog(catalog)
        self._configs: Dict[str, StackConfig] = {
            name: build_config(name) for name in self.engines if name in CONFIG_NAMES}

    # ------------------------------------------------------------------
    # Single measurements
    # ------------------------------------------------------------------
    def measure(self, query_name: str, engine: str, plan=None,
                measure_memory: bool = False,
                optimize: Optional[bool] = None) -> Measurement:
        """Run one query under one engine and return its measurement.

        ``optimize`` runs the logical planner over the plan first (defaults
        to the harness-wide ``use_planner`` setting); the measurement's
        ``plan_mode`` records which plan was timed.
        """
        plan = plan if plan is not None else build_query(query_name)
        optimize = self.use_planner if optimize is None else optimize
        if optimize:
            plan = self.planner.optimize(plan)
        plan_mode = "planned" if optimize else "raw"
        run, timings = self.runner(query_name, engine, plan)
        measurement = self._measure_callable(query_name, engine, run,
                                             measure_memory=measure_memory)
        return replace(measurement, plan_mode=plan_mode, **timings)

    def runner(self, query_name: str, engine: str, plan
               ) -> Tuple[Callable[[], list], Dict[str, float]]:
        """Resolve an engine name to ``(run, timings)`` for one plan.

        The one place that knows the two shapes an engine name can take: a
        direct engine executes the plan as it stands; a stack configuration
        compiles it (through the compiled-query cache) and prepares once, so
        ``run`` times execution only.  ``timings`` carries the compile-side
        seconds in :class:`Measurement` field names, empty for direct
        engines.
        """
        if engine in DIRECT_ENGINE_NAMES:
            direct = build_direct_engine(engine, self.catalog)
            return (lambda: direct.execute(plan)), {}
        if engine not in self._configs:
            raise KeyError(f"unknown engine {engine!r}; known: {ENGINE_NAMES}")
        compiled = self._compiled(query_name, engine, plan)
        start = time.perf_counter()
        aux = compiled.prepare(self.catalog)
        prepare_seconds = time.perf_counter() - start
        return (lambda: compiled.run(self.catalog, aux)), {
            "generation_seconds": compiled.generation_seconds,
            "compile_seconds": compiled.compile_seconds,
            "prepare_seconds": prepare_seconds}

    def run_once(self, query_name: str, engine: str, plan) -> list:
        """Execute one plan on one engine outside the timed path and return
        its rows — the warm-up / verification counterpart of :meth:`measure`,
        routed exactly like it (compiled stacks go through the compiled-query
        cache, so a later ``measure`` reuses what this call built)."""
        run, _ = self.runner(query_name, engine, plan)
        return run()

    def _compiled(self, query_name: str, engine: str, plan) -> CompiledQuery:
        # Served by the compiled-query cache, whose key includes the plan
        # fingerprint: raw and planner-optimized variants compile separately.
        config = self._configs[engine]
        return QueryCompiler(config.stack, config.flags).compile(
            plan, self.catalog, query_name)

    def _measure_callable(self, query_name: str, engine: str, fn: Callable[[], list],
                          measure_memory: bool) -> Measurement:
        import gc
        rows: list = []
        best = float("inf")
        peak = 0
        for _ in range(self.repetitions):
            if measure_memory:
                tracemalloc.start()
            gc.collect()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.perf_counter()
                rows = fn()
                elapsed = time.perf_counter() - start
            finally:
                if gc_was_enabled:
                    gc.enable()
            if measure_memory:
                _, run_peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                peak = max(peak, run_peak)
            best = min(best, elapsed)
        return Measurement(query=query_name, engine=engine, run_seconds=best,
                           rows=len(rows), peak_memory_bytes=peak)

    # ------------------------------------------------------------------
    # Experiment drivers
    # ------------------------------------------------------------------
    def table3(self, queries: Optional[Sequence[str]] = None,
               engines: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, Measurement]]:
        """Per-query, per-engine execution times (the data behind Table 3)."""
        queries = list(queries) if queries is not None else list(QUERY_NAMES)
        engines = list(engines) if engines is not None else list(self.engines)
        results: Dict[str, Dict[str, Measurement]] = {}
        for query_name in queries:
            plan = build_query(query_name)
            results[query_name] = {}
            for engine in engines:
                results[query_name][engine] = self.measure(query_name, engine, plan)
        return results

    def table3_planner(self, queries: Optional[Sequence[str]] = None,
                       engines: Optional[Sequence[str]] = None
                       ) -> Dict[str, Dict[str, Dict[str, Measurement]]]:
        """Optimized-vs-raw execution times for every engine.

        Returns ``{query: {engine: {"raw": Measurement, "planned":
        Measurement}}}`` — the Table-3 grid with one extra dimension, showing
        what the logical planner buys each engine on each query.
        """
        queries = list(queries) if queries is not None else list(QUERY_NAMES)
        engines = list(engines) if engines is not None else list(self.engines)
        results: Dict[str, Dict[str, Dict[str, Measurement]]] = {}
        for query_name in queries:
            raw_plan = build_query(query_name)
            planned_plan = self.planner.optimize(build_query(query_name))
            results[query_name] = {}
            for engine in engines:
                results[query_name][engine] = {
                    "raw": self.measure(query_name, engine, raw_plan,
                                        optimize=False),
                    "planned": self.measure(query_name, engine, planned_plan,
                                            optimize=False),
                }
                results[query_name][engine]["planned"].plan_mode = "planned"
        return results

    @staticmethod
    def format_planner_table(results: Dict[str, Dict[str, Dict[str, Measurement]]]) -> str:
        """Render the planner comparison as fixed-width text (ms + speedup)."""
        if not results:
            return "(no results)"
        engines = list(next(iter(results.values())).keys())
        header = ["Query"] + [f"{e} raw/planned" for e in engines]
        widths = [max(8, len(h) + 2) for h in header]
        lines = ["".join(h.ljust(w) for h, w in zip(header, widths))]
        for query_name, per_engine in results.items():
            cells = [query_name]
            for engine in engines:
                pair = per_engine[engine]
                raw, planned = pair["raw"], pair["planned"]
                speedup = (raw.run_seconds / planned.run_seconds
                           if planned.run_seconds else float("inf"))
                cells.append(f"{raw.run_millis:.1f}/{planned.run_millis:.1f} "
                             f"({speedup:.2f}x)")
            lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)

    @staticmethod
    def planner_results_to_json(results: Dict[str, Dict[str, Dict[str, Measurement]]],
                                **meta: Any) -> Dict[str, Any]:
        """JSON-serializable form of a ``table3_planner`` result grid."""
        payload: Dict[str, Any] = {"meta": dict(meta), "queries": {}}
        for query_name, per_engine in results.items():
            payload["queries"][query_name] = {}
            for engine, pair in per_engine.items():
                raw, planned = pair["raw"], pair["planned"]
                payload["queries"][query_name][engine] = {
                    "raw": asdict(raw),
                    "planned": asdict(planned),
                    "speedup": (raw.run_seconds / planned.run_seconds
                                if planned.run_seconds else None),
                }
        return payload

    @classmethod
    def write_planner_json(cls, results, path: str, **meta: Any) -> None:
        """Write a ``table3_planner`` result grid to a JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(cls.planner_results_to_json(results, **meta), handle,
                      indent=2, sort_keys=True)

    def figure8_memory(self, queries: Optional[Sequence[str]] = None,
                       engine: str = "dblab-5") -> Dict[str, Measurement]:
        """Peak memory of the generated code per query (Figure 8)."""
        queries = list(queries) if queries is not None else list(QUERY_NAMES)
        return {name: self.measure(name, engine, measure_memory=True) for name in queries}

    def figure9_compilation(self, queries: Optional[Sequence[str]] = None,
                            engine: str = "dblab-5") -> Dict[str, Dict[str, float]]:
        """Compilation time split per query (Figure 9).

        ``generation`` is the DSL-stack side (optimizations, lowerings,
        unparsing); ``target_compile`` is Python bytecode compilation, the
        stand-in for the CLang half of the paper's figure.
        """
        queries = list(queries) if queries is not None else list(QUERY_NAMES)
        results: Dict[str, Dict[str, float]] = {}
        for query_name in queries:
            compiled = self._compiled(query_name, engine, build_query(query_name))
            results[query_name] = {
                "generation": compiled.generation_seconds,
                "target_compile": compiled.python_compile_seconds,
                "total": compiled.compile_seconds,
                "source_lines": compiled.source_lines,
            }
        return results

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    @staticmethod
    def format_table3(results: Dict[str, Dict[str, Measurement]],
                      engines: Optional[Sequence[str]] = None) -> str:
        """Render Table 3 as fixed-width text (times in milliseconds)."""
        if not results:
            return "(no results)"
        engines = list(engines) if engines is not None else \
            list(next(iter(results.values())).keys())
        header = ["Query"] + list(engines)
        widths = [max(6, len(h) + 2) for h in header]
        lines = ["".join(h.ljust(w) for h, w in zip(header, widths))]
        for query_name, per_engine in results.items():
            cells = [query_name]
            for engine in engines:
                measurement = per_engine.get(engine)
                cells.append("-" if measurement is None else f"{measurement.run_millis:.1f}")
            lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)

    @staticmethod
    def speedups(results: Dict[str, Dict[str, Measurement]], baseline: str,
                 target: str) -> Dict[str, float]:
        """Per-query speed-up of ``target`` over ``baseline``."""
        speedups = {}
        for query_name, per_engine in results.items():
            base = per_engine.get(baseline)
            other = per_engine.get(target)
            if base is None or other is None or other.run_seconds == 0:
                continue
            speedups[query_name] = base.run_seconds / other.run_seconds
        return speedups

    @staticmethod
    def geometric_mean(values: Iterable[float]) -> float:
        values = [v for v in values if v > 0]
        if not values:
            return 0.0
        product = 1.0
        for value in values:
            product *= value
        return product ** (1.0 / len(values))
