"""Unit tests for the admission-control pieces: the AIMD limiter, the
occupancy-driven shedding policy, and the bounded priority queue with its
typed rejections.  Everything here is synchronous — these are the parts of
the front door that must be reasoned about without an event loop."""
import pytest

from repro.server.admission import (POLICY_TIERS, TIER_POLICIES,
                                    AdaptiveLimiter, AdmissionController,
                                    AdmittedRequest, SheddingPolicy)
from repro.server.responses import DeadlineExceeded, Overloaded


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestAdaptiveLimiter:
    def test_initial_limit(self):
        assert AdaptiveLimiter(initial=8).limit == 8

    @pytest.mark.parametrize("kwargs", [
        {"initial": 0},
        {"initial": 4, "min_limit": 5},
        {"initial": 100, "max_limit": 64},
        {"initial": 8, "increase": 0.0},
        {"initial": 8, "decrease": 1.0},
        {"initial": 8, "decrease": 0.0},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveLimiter(**kwargs)

    def test_additive_increase_one_slot_per_window(self):
        limiter = AdaptiveLimiter(initial=4, max_limit=64)
        # ~`limit` successes buy one extra slot (congestion avoidance)
        for _ in range(5):
            limiter.on_success()
        assert limiter.limit == 5
        assert limiter.snapshot()["successes"] == 5

    def test_multiplicative_decrease_halves(self):
        limiter = AdaptiveLimiter(initial=16)
        limiter.on_overload()
        assert limiter.limit == 8
        limiter.on_overload()
        assert limiter.limit == 4

    def test_floor_and_ceiling(self):
        limiter = AdaptiveLimiter(initial=2, min_limit=1, max_limit=4)
        for _ in range(20):
            limiter.on_overload()
        assert limiter.limit == 1
        for _ in range(200):
            limiter.on_success()
        assert limiter.limit == 4

    def test_recovers_after_backoff(self):
        limiter = AdaptiveLimiter(initial=8)
        limiter.on_overload()  # -> 4
        for _ in range(5):
            limiter.on_success()
        assert limiter.limit == 5


class TestSheddingPolicy:
    def test_thresholds(self):
        policy = SheddingPolicy()
        assert policy.tier_policy(0.0) == "full"
        assert policy.tier_policy(0.49) == "full"
        assert policy.tier_policy(0.5) == "cached_only"
        assert policy.tier_policy(0.84) == "cached_only"
        assert policy.tier_policy(0.85) == "no_compile"
        assert policy.tier_policy(1.0) == "no_compile"

    def test_every_policy_is_known(self):
        policy = SheddingPolicy()
        for occupancy in (0.0, 0.5, 0.9):
            assert policy.tier_policy(occupancy) in TIER_POLICIES

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError):
            SheddingPolicy(elevated_fraction=0.9, severe_fraction=0.5)
        with pytest.raises(ValueError):
            SheddingPolicy(elevated_fraction=0.0)

    def test_policy_ladders_are_subsets_of_the_engine_ladder(self):
        from repro.robustness.fallback import ENGINE_TIERS
        for tiers in POLICY_TIERS.values():
            assert set(tiers) <= set(ENGINE_TIERS)
        assert len(POLICY_TIERS) == 3
        # the severe rung never compiles, and starts at the fastest engine
        # that needs no compile
        assert POLICY_TIERS["no_compile"] == ("vectorized", "interpreter")


class TestAdmittedRequest:
    def test_remaining_and_expiry(self):
        request = AdmittedRequest(name="q", plan=None, priority=0,
                                  deadline=110.0, enqueued_at=100.0,
                                  tier_policy="full")
        assert request.remaining(104.0) == pytest.approx(6.0)
        assert not request.expired(109.9)
        assert request.expired(110.0)

    def test_no_deadline_never_expires(self):
        request = AdmittedRequest(name="q", plan=None, priority=0,
                                  deadline=None, enqueued_at=100.0,
                                  tier_policy="full")
        assert request.remaining(1e9) is None
        assert not request.expired(1e9)


class TestAdmissionController:
    def test_fifo_within_priority(self):
        controller = AdmissionController(max_depth=8, clock=FakeClock())
        for name in ("a", "b", "c"):
            controller.offer(name, plan=None)
        assert [controller.pop().name for _ in range(3)] == ["a", "b", "c"]
        assert controller.pop() is None

    def test_lower_priority_value_dispatches_first(self):
        controller = AdmissionController(max_depth=8, clock=FakeClock())
        controller.offer("bulk", plan=None, priority=10)
        controller.offer("interactive", plan=None, priority=0)
        controller.offer("batch", plan=None, priority=5)
        assert [controller.pop().name for _ in range(3)] == \
            ["interactive", "batch", "bulk"]

    def test_queue_full_is_a_typed_overloaded(self):
        controller = AdmissionController(max_depth=2, clock=FakeClock())
        controller.offer("a", plan=None)
        controller.offer("b", plan=None)
        with pytest.raises(Overloaded) as info:
            controller.offer("c", plan=None)
        assert info.value.reason == "queue_full"
        snapshot = controller.snapshot()
        assert snapshot["accepted"] == 2
        assert snapshot["rejected_queue_full"] == 1

    def test_zero_remaining_deadline_is_dead_on_arrival(self):
        clock = FakeClock()
        controller = AdmissionController(max_depth=8, clock=clock)
        with pytest.raises(DeadlineExceeded) as info:
            controller.offer("q", plan=None, deadline=clock.now)
        assert info.value.reason == "dead_on_arrival"
        assert controller.snapshot()["rejected_dead_on_arrival"] == 1

    def test_near_zero_remaining_deadline_is_admitted(self):
        clock = FakeClock()
        controller = AdmissionController(max_depth=8, clock=clock)
        request = controller.offer("q", plan=None, deadline=clock.now + 1e-9)
        assert request.remaining(clock.now) == pytest.approx(1e-9)
        clock.advance(0.001)
        assert request.expired(clock())

    def test_stop_accepting_rejects_new_but_keeps_queued(self):
        controller = AdmissionController(max_depth=8, clock=FakeClock())
        controller.offer("queued", plan=None)
        controller.stop_accepting("draining")
        with pytest.raises(Overloaded) as info:
            controller.offer("late", plan=None)
        assert info.value.reason == "draining"
        assert not controller.accepting
        assert len(controller) == 1
        assert controller.pop().name == "queued"

    def test_drain_queue_empties_everything(self):
        controller = AdmissionController(max_depth=8, clock=FakeClock())
        for name in ("a", "b"):
            controller.offer(name, plan=None)
        drained = controller.drain_queue()
        assert sorted(request.name for request in drained) == ["a", "b"]
        assert len(controller) == 0

    def test_occupancy_drives_tier_policy(self):
        controller = AdmissionController(max_depth=4, clock=FakeClock())
        policies = [controller.offer(f"q{n}", plan=None).tier_policy
                    for n in range(4)]
        # occupancy seen at arrival: 0/4, 1/4, 2/4 (elevated), 3/4
        assert policies == ["full", "full", "cached_only", "cached_only"]
        assert controller.snapshot()["downgraded"] == 2

    def test_severe_occupancy_forbids_compiling(self):
        controller = AdmissionController(max_depth=8, clock=FakeClock())
        policies = [controller.offer(f"q{n}", plan=None).tier_policy
                    for n in range(8)]
        assert policies[-1] == "no_compile"  # arrived at 7/8 = 0.875
        assert policies[4] == "cached_only"

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            AdmissionController(max_depth=0)
