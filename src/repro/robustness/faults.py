"""Seeded, deterministic fault injection for the chaos parity suite.

Production code is instrumented with named *fault points*::

    from repro.robustness.faults import fault_point
    ...
    fault_point("access.key_index", table=name, column=column)

With no plan installed (the default, and the only state tier-1 tests ever
see) a fault point is a module-global ``None`` check — effectively free.
Tests install a :class:`FaultPlan` with :func:`inject`; the plan decides,
deterministically from its seed and per-site hit counters, whether a given
hit fires.  A firing spec raises its configured exception, runs a side
effect (e.g. bump an access-layer generation to simulate skew), or hands an
injected value back to the call site (:func:`fault_value`, used for the
``server.*`` stall, slowdown and skew seconds).

Registered sites (kept here as the single source of truth):

===============================  ================================================
site                             planted in
===============================  ================================================
``access.key_index``             ``storage/access.py`` — missing/broken key index
``access.partition``             ``storage/access.py`` — broken partition index
``access.zone_map``              ``storage/access.py`` — corrupted candidate list
``catalog.table``                ``storage/catalog.py`` — transient catalog fault
``compiler.compile``             ``codegen/compiler.py`` — compile-time exception
``engine.volcano.operator``      ``engine/volcano.py`` — mid-query operator error
``engine.vectorized.batch``      ``engine/vectorized.py`` — truncated batch
``engine.compiled.run``          ``codegen/compiler.py`` — generated-code error
``executor.pre_execute``         ``robustness/fallback.py`` — plan/run skew window
``server.queue_stall``           ``server/server.py`` — value: dispatcher stall s
``server.executor_slow``         ``server/server.py`` — value: extra execute s
``server.deadline_skew``         ``server/server.py`` — value: s shaved off the
                                 remaining deadline at budget translation
===============================  ================================================

The three ``server.*`` sites drive the overload chaos suite: a stalled
dispatcher burns queued requests' deadlines, a slow executor holds window
slots (so requests wait in the queue), and deadline skew admits queries with
a tighter budget than their real remaining deadline.

:class:`FaultPlan` is lock-guarded: the serving layer hits fault points from
thread-pool workers and the event loop concurrently, and the per-site hit
counters must not lose updates (seeded determinism is per-site ordering).
"""
from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..concurrency import guarded_by

KNOWN_SITES = frozenset({
    "access.key_index",
    "access.partition",
    "access.zone_map",
    "catalog.table",
    "compiler.compile",
    "engine.volcano.operator",
    "engine.vectorized.batch",
    "engine.compiled.run",
    "executor.pre_execute",
    "server.queue_stall",
    "server.executor_slow",
    "server.deadline_skew",
})


class InjectedFault(RuntimeError):
    """Base class for exceptions raised by fault injection."""


class TransientFault(InjectedFault):
    """A fault that is expected to clear on retry (catalog/load hiccup)."""


class EngineFault(InjectedFault):
    """A mid-query engine failure (operator blew up, batch truncated)."""


class DataCorruptionFault(InjectedFault):
    """An access structure (candidate list, index) found in a corrupted state."""


@dataclass
class FaultSpec:
    """One injection rule for one site.

    ``fires_on`` lists the 1-based hit numbers that fire (``None`` = every
    hit); ``probability`` replaces ``fires_on`` with a seeded coin flip.
    Exactly one of ``error``/``action``/``value`` should be set: ``error``
    is an exception factory (or class) raised at the call site, ``action``
    is a side effect run with the site's context kwargs, and ``value`` is
    returned to :func:`fault_value` callers.  ``max_fires`` caps total
    firings so a transient fault clears after N hits.
    """

    site: str
    error: Optional[Callable[[], BaseException]] = None
    action: Optional[Callable[[Dict[str, Any]], None]] = None
    value: Any = None
    fires_on: Optional[Tuple[int, ...]] = (1,)
    probability: Optional[float] = None
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ValueError(f"unknown fault site: {self.site!r} "
                             f"(known: {sorted(KNOWN_SITES)})")
        if self.probability is not None and not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must be in [0, 1]")


class FaultPlan:
    """A seeded set of :class:`FaultSpec` rules with per-site hit counters."""

    def __init__(self, specs: List[FaultSpec], seed: int = 0) -> None:
        self._specs: Dict[str, List[FaultSpec]] = {}
        for spec in specs:
            self._specs.setdefault(spec.site, []).append(spec)
        self.seed = seed
        self._rng = random.Random(seed)
        #: hit counters, firing decisions and the fired journal are shared
        #: mutable state; the serving layer hits sites from many threads
        self._lock = threading.RLock()
        self.hits: Dict[str, int] = {}
        self.fired: List[Tuple[str, int]] = []
        self._fire_counts: Dict[int, int] = {}

    @guarded_by("_lock")
    def _should_fire(self, spec: FaultSpec, hit: int) -> bool:
        if spec.max_fires is not None and \
                self._fire_counts.get(id(spec), 0) >= spec.max_fires:
            return False
        if spec.probability is not None:
            return self._rng.random() < spec.probability
        return spec.fires_on is None or hit in spec.fires_on

    def hit(self, site: str, context: Dict[str, Any]) -> None:
        # decide under the lock, fire outside it: actions may block (chaos
        # tests use them to park a thread mid-phase), and holding the plan
        # lock through a blocking action would stall every other fault site
        firing: List[FaultSpec] = []
        with self._lock:
            hit = self.hits.get(site, 0) + 1
            self.hits[site] = hit
            for spec in self._specs.get(site, ()):
                if not self._should_fire(spec, hit):
                    continue
                self._fire_counts[id(spec)] = \
                    self._fire_counts.get(id(spec), 0) + 1
                self.fired.append((site, hit))
                firing.append(spec)
        for spec in firing:
            if spec.action is not None:
                spec.action(context)
            if spec.error is not None:
                raise spec.error()

    def value_at(self, site: str, default: Any) -> Any:
        with self._lock:
            hit = self.hits.get(site, 0) + 1
            self.hits[site] = hit
            for spec in self._specs.get(site, ()):
                if spec.value is None or not self._should_fire(spec, hit):
                    continue
                self._fire_counts[id(spec)] = \
                    self._fire_counts.get(id(spec), 0) + 1
                self.fired.append((site, hit))
                return spec.value
            return default


_PLAN: Optional[FaultPlan] = None


def fault_point(site: str, **context: Any) -> None:
    """Hit a fault site; raises/acts if the installed plan says so."""
    if _PLAN is None:
        return
    _PLAN.hit(site, context)


def fault_value(site: str, default: Any) -> Any:
    """Hit a value-style fault site, returning the injected or default value."""
    if _PLAN is None:
        return default
    return _PLAN.value_at(site, default)


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` process-wide for the duration of the block."""
    global _PLAN
    if _PLAN is not None:
        raise RuntimeError("a FaultPlan is already installed")
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = None
