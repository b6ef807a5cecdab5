"""Per-query deadlines with cooperative cancellation.

A :class:`ResourceGovernor` owns one :class:`QueryBudget` for the duration of
one query execution.  Engines do not poll the wall clock themselves; they
call cheap checkpoint hooks — ``tick(rows)`` per row, ``checkpoint(rows)``
per operator/batch boundary — and the governor trips a typed
:class:`BudgetExceeded` carrying the progress made so far once the
deadline has passed.

The governor is installed with the :func:`governed` context manager, which
stores it in a :class:`contextvars.ContextVar`.  Everything is built so the
*inactive* path costs nothing measurable: engines look the governor up once
per operator (not per row), and the compiled-code hooks in
``codegen/runtime.py`` return native ``range``/iterables when no governor is
active, so fused loops run unwrapped.

Wall-clock reads are amortised: ``tick`` only consults ``perf_counter`` every
``check_interval`` rows.  A budget without a timeout still installs a
ticking governor; it counts progress and never trips.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional


@dataclass(frozen=True)
class QueryBudget:
    """The deadline of one query execution: ``timeout_seconds`` of wall
    clock (``None``: no deadline), read every ``check_interval`` rows."""

    timeout_seconds: Optional[float] = None
    check_interval: int = 256

    def __post_init__(self) -> None:
        if self.check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        if self.timeout_seconds is not None and self.timeout_seconds < 0:
            raise ValueError("timeout_seconds must be non-negative")

    @classmethod
    def unlimited(cls) -> "QueryBudget":
        return cls()


@dataclass
class ProgressStats:
    """Partial progress carried by a :class:`BudgetExceeded`."""

    rows_processed: int = 0
    checkpoints: int = 0
    elapsed_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "rows_processed": self.rows_processed,
            "checkpoints": self.checkpoints,
            "elapsed_seconds": self.elapsed_seconds,
        }


class BudgetExceeded(RuntimeError):
    """A query ran past its :class:`QueryBudget` deadline.

    ``limit`` is the timeout in seconds; ``stats`` is a
    :class:`ProgressStats` snapshot taken at the tripping checkpoint.
    """

    def __init__(self, limit: float, stats: ProgressStats) -> None:
        self.limit = limit
        self.stats = stats
        super().__init__(
            f"query budget exceeded (timeout: limit={limit}, "
            f"rows={stats.rows_processed}, elapsed={stats.elapsed_seconds:.3f}s)")


_ACTIVE: ContextVar[Optional["ResourceGovernor"]] = ContextVar(
    "repro_active_governor", default=None)


def current_governor() -> Optional["ResourceGovernor"]:
    """The governor installed for the current context, or ``None``."""
    return _ACTIVE.get()


@contextmanager
def governed(budget: QueryBudget) -> Iterator[ResourceGovernor]:
    """Install a fresh :class:`ResourceGovernor` for the enclosed execution."""
    governor = ResourceGovernor(budget)
    token = _ACTIVE.set(governor)
    try:
        yield governor
    finally:
        _ACTIVE.reset(token)


@dataclass
class ResourceGovernor:
    """Enforces one :class:`QueryBudget` via cooperative checkpoints."""

    budget: QueryBudget
    stats: ProgressStats = field(default_factory=ProgressStats)

    def __post_init__(self) -> None:
        self._started = time.perf_counter()
        self._since_clock_check = 0

    # -- checkpoint hooks ---------------------------------------------------

    def tick(self, rows: int = 1) -> None:
        """Charge ``rows`` of intermediate work; cheap enough to call per row."""
        self.stats.rows_processed += rows
        self._since_clock_check += rows
        if self._since_clock_check >= self.budget.check_interval:
            self._since_clock_check = 0
            self._check_clock()

    def checkpoint(self, rows: int = 0) -> None:
        """Operator/batch boundary: always consults the wall clock."""
        self.stats.checkpoints += 1
        self.stats.rows_processed += rows
        self._since_clock_check = 0
        self._check_clock()

    # -- iterator guards ----------------------------------------------------

    def guard_rows(self, rows: Iterable) -> Iterator:
        """Wrap a row iterator, ticking once per row."""
        tick = self.tick
        for row in rows:
            tick()
            yield row

    def guard_batches(self, batches: Iterable,
                      num_rows: Callable[[Any], int]) -> Iterator:
        """Wrap a batch iterator; ``num_rows(batch)`` sizes each checkpoint."""
        checkpoint = self.checkpoint
        for batch in batches:
            checkpoint(num_rows(batch))
            yield batch

    # -- internals ----------------------------------------------------------

    def elapsed(self) -> float:
        return time.perf_counter() - self._started

    def _check_clock(self) -> None:
        limit = self.budget.timeout_seconds
        if limit is None:
            return
        elapsed = self.elapsed()
        if elapsed > limit:
            self.stats.elapsed_seconds = elapsed
            raise BudgetExceeded(limit, self.stats)
