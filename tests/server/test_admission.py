"""Unit tests for admission control: the bounded FIFO queue with its typed
rejections.  Everything here is synchronous — this is the part of the front
door that must be reasoned about without an event loop."""
import pytest

from repro.server.admission import AdmissionController, AdmittedRequest
from repro.server.responses import DeadlineExceeded, Overloaded


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestAdmittedRequest:
    def test_remaining_and_expiry(self):
        request = AdmittedRequest(name="q", plan=None,
                                  deadline=110.0, enqueued_at=100.0)
        assert request.remaining(104.0) == pytest.approx(6.0)
        assert not request.expired(109.9)
        assert request.expired(110.0)

    def test_no_deadline_never_expires(self):
        request = AdmittedRequest(name="q", plan=None,
                                  deadline=None, enqueued_at=100.0)
        assert request.remaining(1e9) is None
        assert not request.expired(1e9)


class TestAdmissionController:
    def test_fifo(self):
        controller = AdmissionController(max_depth=8, clock=FakeClock())
        for name in ("a", "b", "c"):
            controller.offer(name, plan=None)
        assert [controller.pop().name for _ in range(3)] == ["a", "b", "c"]
        assert controller.pop() is None

    def test_fifo_across_deadlines(self):
        """A nearer deadline does not jump the queue: arrival order only."""
        clock = FakeClock()
        controller = AdmissionController(max_depth=8, clock=clock)
        for name, deadline in (("late", clock.now + 30.0),
                               ("soon", clock.now + 1.0),
                               ("none", None),
                               ("mid", clock.now + 10.0)):
            controller.offer(name, plan=None, deadline=deadline)
        assert [controller.pop().name for _ in range(4)] == \
            ["late", "soon", "none", "mid"]

    def test_fifo_with_offers_between_pops(self):
        controller = AdmissionController(max_depth=8, clock=FakeClock())
        controller.offer("a", plan=None)
        controller.offer("b", plan=None)
        assert controller.pop().name == "a"
        controller.offer("c", plan=None)
        assert [controller.pop().name for _ in range(2)] == ["b", "c"]
        assert controller.pop() is None

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

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            AdmissionController(max_depth=0)
