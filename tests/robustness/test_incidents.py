"""Structured incident-log tests: schema, validation, ring-buffer bound."""
from dataclasses import asdict

import pytest

from repro.robustness.incidents import CAPACITY, CATEGORIES, Incident, IncidentLog


class TestReporting:
    def test_report_returns_a_schema_complete_incident(self):
        log = IncidentLog(clock=lambda: 123.5)
        incident = log.report("tier_failure", query="q1", tier="compiled",
                              cause="EngineFault", message="operator blew up",
                              elapsed_seconds=0.25, operator="HashJoin")
        assert isinstance(incident, Incident)
        assert incident.category == "tier_failure"
        assert incident.query == "q1"
        assert incident.tier == "compiled"
        assert incident.cause == "EngineFault"
        assert incident.timestamp == 123.5
        assert incident.detail == {"operator": "HashJoin"}
        record = asdict(incident)
        for field in ("seq", "timestamp", "category", "query", "tier",
                      "cause", "message", "elapsed_seconds", "detail"):
            assert field in record

    def test_unknown_category_is_rejected(self):
        log = IncidentLog()
        with pytest.raises(ValueError, match="unknown incident category"):
            log.report("spontaneous_combustion", query="q1")

    def test_sequence_numbers_are_monotonic(self):
        log = IncidentLog()
        first = log.report("budget_trip", query="a")
        second = log.report("budget_trip", query="b")
        assert second.seq > first.seq

    def test_every_category_is_reportable(self):
        log = IncidentLog()
        for category in CATEGORIES:
            log.report(category, query="q")
        assert len(log) == len(CATEGORIES)


class TestQuerying:
    def _seeded(self):
        log = IncidentLog()
        log.report("tier_failure", query="q1", tier="compiled")
        log.report("plan_degraded", query="q1", tier="compiled")
        log.report("tier_failure", query="q2", tier="vectorized")
        return log

    def test_records_filter_by_category(self):
        log = self._seeded()
        assert len(log.records(category="tier_failure")) == 2
        assert len(log.records(category="plan_degraded")) == 1

    def test_records_filter_by_query(self):
        log = self._seeded()
        assert len(log.records(query="q1")) == 2
        assert [i.tier for i in log.records(category="tier_failure",
                                            query="q2")] == ["vectorized"]

    def test_last(self):
        log = self._seeded()
        assert log.last("tier_failure").query == "q2"
        assert log.last("circuit_open") is None

    def test_queries_see_the_ring_and_counts_see_every_report(self):
        log = IncidentLog()
        log.report("circuit_open", query="first")
        for n in range(CAPACITY):
            log.report("tier_failure", query=f"q{n}")
        assert log.records(category="circuit_open") == []
        assert log.last("circuit_open") is None
        assert log.count("circuit_open") == 1
        assert log.last().query == f"q{CAPACITY - 1}"

    def test_clear(self):
        log = self._seeded()
        log.clear()
        assert len(log) == 0
        assert list(log) == []


class TestRingBuffer:
    def test_the_ring_keeps_the_newest_capacity_records(self):
        log = IncidentLog()
        for n in range(CAPACITY + 3):
            log.report("budget_trip", query=f"q{n}")
        assert len(log) == CAPACITY
        assert [i.query for i in log] == [f"q{n}" for n in range(3, CAPACITY + 3)]


class TestSnapshot:
    """Per-category counters survive ring eviction; the snapshot is the
    serving stats endpoint's view of the log."""

    def test_snapshot_counts_by_category(self):
        log = IncidentLog()
        log.report("tier_failure", query="q1")
        log.report("tier_failure", query="q2")
        log.report("admission_reject", query="q3")
        snapshot = log.snapshot()
        assert snapshot["total_reported"] == 3
        assert snapshot["buffered"] == 3
        assert snapshot["evicted"] == 0
        assert snapshot["capacity"] == CAPACITY
        assert snapshot["by_category"] == {"tier_failure": 2,
                                           "admission_reject": 1}

    def test_counters_survive_ring_eviction(self):
        log = IncidentLog()
        for n in range(CAPACITY + 48):
            log.report(CATEGORIES[n % 3], query=f"q{n}")
        snapshot = log.snapshot()
        assert snapshot["total_reported"] == CAPACITY + 48
        assert snapshot["buffered"] == CAPACITY
        assert snapshot["evicted"] == 48
        assert sum(snapshot["by_category"].values()) == CAPACITY + 48
        assert log.count(CATEGORIES[0]) == snapshot["by_category"][CATEGORIES[0]]

    def test_count_for_unreported_category_is_zero(self):
        log = IncidentLog()
        assert log.count("circuit_open") == 0

    def test_clear_resets_counters(self):
        log = IncidentLog()
        log.report("budget_trip")
        log.clear()
        snapshot = log.snapshot()
        assert snapshot["total_reported"] == 0
        assert snapshot["by_category"] == {}

    def test_serving_categories_exist(self):
        for category in ("admission_reject", "deadline_expired"):
            assert category in CATEGORIES
