"""Execution hardening: resource governor, fallback ladder, fault injection.

The engine lineup (Volcano interpreter, vectorized engine, compiled DSL
stacks) is wrapped by three cooperating layers:

* :mod:`repro.robustness.governor` — per-query :class:`QueryBudget` limits
  (wall-clock timeout, intermediate/output row caps, compile-time cap)
  enforced at cooperative cancellation checkpoints inside every engine;
  a trip raises a typed :class:`BudgetExceeded` carrying progress stats.
* :mod:`repro.robustness.fallback` — :class:`HardenedExecutor`, the
  degradation ladder: compiled stack → vectorized → Volcano, access-path
  plan → no-access plan, with a per-fingerprint circuit breaker,
  exponential-backoff retry for transient faults, and a structured incident
  log (:mod:`repro.robustness.incidents`).
* :mod:`repro.robustness.faults` — a seeded, deterministic fault-injection
  registry with sites planted in the storage access layer, the query
  compiler and every engine; the chaos parity suite drives it.

``fallback`` imports the engines, so it is exposed lazily to keep
``engine → robustness.faults`` imports cycle-free.
"""
from .governor import (BudgetExceeded, QueryBudget, ResourceGovernor,  # noqa: F401
                       current_governor, governed)
from .incidents import DEFAULT_INCIDENTS, Incident, IncidentLog  # noqa: F401
from .faults import (FaultPlan, FaultSpec, TransientFault,  # noqa: F401
                     fault_point, fault_value, inject)

__all__ = [
    "BudgetExceeded", "QueryBudget", "ResourceGovernor", "current_governor",
    "governed", "DEFAULT_INCIDENTS", "Incident", "IncidentLog", "FaultPlan",
    "FaultSpec", "TransientFault", "fault_point", "fault_value", "inject",
    "HardenedExecutor", "LadderExhausted", "ExecutionReport",
]


def __getattr__(name: str) -> object:
    if name in ("HardenedExecutor", "LadderExhausted", "ExecutionReport"):
        from . import fallback
        return getattr(fallback, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
