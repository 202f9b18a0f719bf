"""Unit tests for the simulator event loop."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestScheduling:
    def test_time_advances_to_scheduled(self, sim):
        fired = []
        sim.schedule(2.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.5]
        assert sim.now == 2.5

    def test_fifo_at_equal_time(self, sim):
        order = []
        for label in "abc":
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_time_ordering(self, sim):
        order = []
        sim.schedule(3.0, order.append, "late")
        sim.schedule(1.0, order.append, "early")
        sim.schedule(2.0, order.append, "mid")
        sim.run()
        assert order == ["early", "mid", "late"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute(self, sim):
        fired = []
        sim.schedule(1.0, lambda: sim.schedule_at(5.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [5.0]

    def test_schedule_at_past_runs_now(self, sim):
        fired = []
        sim.schedule(2.0, lambda: sim.schedule_at(1.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [2.0]

    def test_nested_scheduling(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(1.0, lambda: order.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 2.0


class TestRun:
    def test_run_until_stops_time(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0
        assert sim.events_executed == 1
        sim.run()
        assert fired == ["a", "b"]

    def test_run_empty_with_until_advances_clock(self, sim):
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_max_events_guard(self, sim):
        def loop():
            sim.schedule(0.001, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError, match="exceeded max_events=100; likely a livelock"):
            sim.run(max_events=100)
        assert sim.events_executed == 100

    def test_not_reentrant(self, sim):
        def recurse():
            sim.run()

        sim.schedule(0.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_until_triggered_inside_run_rejected(self, sim):
        event = sim.timeout(1.0)

        def nested():
            sim.run_until_triggered(event)

        sim.schedule(0.1, nested)
        with pytest.raises(SimulationError, match="not reentrant"):
            sim.run()
        # The nested call dispatched nothing: the timeout is still queued.
        assert not event.triggered
        assert sim.pending_events == 1

    def test_run_inside_run_until_triggered_rejected(self, sim):
        event = sim.event()
        sim.schedule(0.1, lambda: sim.run(until=5.0))
        sim.schedule(0.2, event.succeed, "done")
        with pytest.raises(SimulationError, match="not reentrant"):
            sim.run_until_triggered(event)
        assert sim.now == pytest.approx(0.1)
        # The guard resets, so the simulator stays usable afterwards.
        assert sim.run_until_triggered(event) == "done"
        assert sim.now == pytest.approx(0.2)

    def test_events_executed_counter(self, sim):
        for _ in range(5):
            sim.schedule(0.1, lambda: None)
        sim.run()
        assert sim.events_executed == 5


class TestRunUntilTriggered:
    def test_returns_value(self, sim):
        event = sim.timeout(3.0, "payload")
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        sim.schedule(5.0, lambda: None)
        assert sim.run_until_triggered(event) == "payload"
        assert sim.now == pytest.approx(3.0)
        # Waiters ran before the return; later entries stay queued.
        assert seen == ["payload"]
        assert sim.events_executed == 2
        assert sim.pending_events == 1

    def test_raises_on_failure(self, sim):
        event = sim.event()
        sim.schedule(1.0, lambda: event.fail(ValueError("bad")))
        with pytest.raises(ValueError):
            sim.run_until_triggered(event)

    def test_drained_queue_is_error(self, sim):
        event = sim.event()  # never triggered
        with pytest.raises(SimulationError, match="event queue drained before event triggered"):
            sim.run_until_triggered(event)

    def test_limit_enforced(self, sim):
        event = sim.timeout(10.0)
        sim.timeout(20.0)
        with pytest.raises(SimulationError, match=r"event not triggered before t=5\.0"):
            sim.run_until_triggered(event, limit=5.0)

    def test_max_events_guard(self, sim):
        event = sim.event()  # never triggered

        def loop():
            sim.schedule(0.001, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError, match="max_events=50"):
            sim.run_until_triggered(event, max_events=50)
        assert sim.events_executed == 50

    def test_already_processed_event_returns_without_dispatch(self, sim):
        event = sim.timeout(1.0, "v")
        sim.run()
        sim.schedule(1.0, lambda: None)
        executed = sim.events_executed
        assert sim.run_until_triggered(event) == "v"
        assert sim.events_executed == executed
        assert sim.pending_events == 1


class TestBulkScheduling:
    def test_schedule_many_preserves_fifo(self, sim):
        order = []
        sim.schedule(1.0, order.append, "before")
        sim.schedule_many(
            None, 1.0, [(order.append, ("x",)), (order.append, ("y",))]
        )
        sim.schedule(1.0, order.append, "after")
        sim.run()
        assert order == ["before", "x", "y", "after"]

    def test_schedule_many_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_many(None, -0.5, [(lambda: None, ())])


class TestClampCounter:
    def test_schedule_at_past_is_counted(self, sim):
        fired = []
        sim.schedule(2.0, lambda: sim.schedule_at(1.0, fired.append, "late"))
        sim.run()
        assert fired == ["late"]
        assert sim.schedule_at_clamped == 1

    def test_schedule_at_future_is_not_counted(self, sim):
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        assert sim.schedule_at_clamped == 0
