"""Seeded discipline breaks the concurrency analyzer must catch.

Each test takes the real runtime source, applies one surgical mutation —
the kinds of regressions a refactor actually introduces (a dedented
``with``, a blocking call moved under a lock, a dropped governor install, a
deleted confinement directive) — and re-analyzes the tree via the
``overrides`` hook, asserting the analyzer reports the *expected* rule.
The working copy is never touched.  Together with the clean-tree test this
proves the analyzer detects breaks rather than merely blessing healthy
code.
"""
from repro.analysis.concurrency import analyze_tree, load_sources

INCIDENTS = "src/repro/robustness/incidents.py"
ACCESS = "src/repro/storage/access.py"
FAULTS = "src/repro/robustness/faults.py"
FALLBACK = "src/repro/robustness/fallback.py"
SERVER = "src/repro/server/server.py"
ADMISSION = "src/repro/server/admission.py"
DERIVED = "src/repro/storage/derived.py"


def mutate(path, old, new):
    """Re-analyze the tree with ``old`` replaced by ``new`` in ``path``."""
    sources = load_sources()
    assert old in sources[path], f"mutation anchor missing from {path}"
    mutated = sources[path].replace(old, new)
    assert mutated != sources[path]
    return analyze_tree(overrides={path: mutated})


def matching(report, rule, fragment=""):
    return [v for v in report.violations
            if v.rule == rule and fragment in (v.where + v.message)]


class TestSeededMutations:
    def test_clean_baseline(self):
        assert analyze_tree().ok

    def test_removed_with_guard_in_incident_log(self):
        """Dedenting IncidentLog.report's lock block → unguarded-access."""
        report = mutate(
            INCIDENTS,
            """        with self._lock:
            self._records.append(incident)
            self._counters[category] = self._counters.get(category, 0) + 1
            self._total += 1
""",
            """        self._records.append(incident)
        self._counters[category] = self._counters.get(category, 0) + 1
        self._total += 1
""")
        assert matching(report, "unguarded-access", "IncidentLog.report")

    def test_reordered_acquisition_creates_a_cycle(self):
        """The derived cache calling back into the access layer while it
        holds its own lock reverses the one legitimate acquired-before edge
        (layer lock, then cache lock) → lock-order-cycle."""
        report = mutate(
            DERIVED,
            """            self._invalidations += 1
            self._probation.clear()""",
            """            self._invalidations += 1
            self.layer.invalidate_table("lineitem")
            self._probation.clear()""")
        assert matching(report, "lock-order-cycle")

    def test_blocking_fault_action_moved_under_the_plan_lock(self):
        """FaultPlan.hit firing inside ``with self._lock`` →
        blocking-under-lock (chaos actions park threads by design)."""
        report = mutate(
            FAULTS,
            """                firing.append(spec)
        for spec in firing:
            if spec.action is not None:
                spec.action(context)
            if spec.error is not None:
                raise spec.error()""",
            """                firing.append(spec)
            for spec in firing:
                if spec.action is not None:
                    spec.action(context)
                if spec.error is not None:
                    raise spec.error()""")
        assert matching(report, "blocking-under-lock", "FaultPlan.hit")

    def test_dropped_governor_install(self):
        """Removing ``governed(budget)`` from the ladder attempt leaves
        worker threads unbudgeted → governor-install."""
        report = mutate(
            FALLBACK,
            "scope = governed(budget) if budget is not None else nullcontext()",
            "scope = nullcontext()")
        assert matching(report, "governor-install", "HardenedExecutor")

    def test_sync_sleep_in_the_dispatch_loop(self):
        """``await asyncio.sleep`` downgraded to ``time.sleep`` inside the
        dispatcher coroutine → async-blocking."""
        report = mutate(
            SERVER,
            "await asyncio.sleep(stall)",
            "time.sleep(stall)")
        assert matching(report, "async-blocking", "QueryServer._dispatch_loop")

    def test_deleted_confinement_directive(self):
        """Stripping the ``confined(event-loop)`` declaration from
        ``_in_flight`` leaves a counter written outside ``__init__`` with no
        discipline in a class that owns no lock → unguarded-access."""
        report = mutate(
            SERVER,
            """        # concurrency: confined(event-loop): counters touched only by loop tasks
        self._in_flight = 0
""",
            """        self._in_flight = 0
""")
        assert matching(report, "unguarded-access", "_in_flight")

    def test_executor_work_run_inline_on_the_loop(self):
        """Calling ``self._execute`` directly from the coroutine instead of
        through the thread pool → async-blocking (transitive: the ladder
        bottoms out in retry backoff sleeps)."""
        report = mutate(
            SERVER,
            """            response = await loop.run_in_executor(
                pool, self._execute, request, queue_seconds)""",
            """            response = self._execute(request, queue_seconds)""")
        assert matching(report, "async-blocking", "QueryServer._run_request")

    def test_admission_counter_moved_outside_the_lock(self):
        """``accepted`` bumped after leaving the admission lock →
        unguarded-access."""
        report = mutate(
            ADMISSION,
            """            self._queue.append(request)
            self.accepted += 1
            return request""",
            """            self._queue.append(request)
        self.accepted += 1
        return request""")
        assert matching(report, "unguarded-access", "accepted")

    def test_stripped_guarded_by_decorator_on_cache_pruning(self):
        """Deleting ``@guarded_by("_lock")`` from ``DerivedCache._trim``
        analyzes its eviction loop without the lock → unguarded-access."""
        report = mutate(
            DERIVED,
            """    @guarded_by("_lock")
    def _trim(self, kind: str) -> None:""",
            """    def _trim(self, kind: str) -> None:""")
        assert matching(report, "unguarded-access", "DerivedCache._trim")

    def test_promotion_moved_outside_the_cache_lock(self):
        """A probation hit promoted after the lookup's lock block (a race
        with a concurrent invalidation could re-insert a dropped entry) →
        unguarded-access on both segments."""
        report = mutate(
            DERIVED,
            """            if key in probation:
                value = protected[key] = probation.pop(key)
                self._trim(kind)
                self.stats[kind].hits += 1
                return value, True
            started_at = self._invalidations
""",
            """            promote = key in probation
            started_at = self._invalidations
        if promote:
            value = self._protected[kind][key] = self._probation[kind].pop(key)
            with self._lock:
                self._trim(kind)
                self.stats[kind].hits += 1
            return value, True
""")
        assert matching(report, "unguarded-access", "DerivedCache._protected")
        assert matching(report, "unguarded-access", "DerivedCache._probation")
