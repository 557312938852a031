"""Unit tests for the discrete-event simulator core."""

import pytest

from repro.engine import EventHandle, Simulator
from repro.errors import SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.at(2.0, lambda: log.append("b"))
        sim.at(1.0, lambda: log.append("a"))
        sim.run_until(3.0)
        assert log == ["a", "b"]

    def test_simultaneous_events_fire_in_scheduling_order(self):
        sim = Simulator()
        log = []
        sim.at(1.0, lambda: log.append(1))
        sim.at(1.0, lambda: log.append(2))
        sim.run_until(1.0)
        assert log == [1, 2]

    def test_priority_breaks_ties(self):
        sim = Simulator()
        log = []
        sim.at(1.0, lambda: log.append("late"), priority=1)
        sim.at(1.0, lambda: log.append("early"), priority=-1)
        sim.run_until(1.0)
        assert log == ["early", "late"]

    def test_after_is_relative_to_now(self):
        sim = Simulator()
        times = []
        sim.at(5.0, lambda: sim.after(2.0, lambda: times.append(sim.now)))
        sim.run_until(10.0)
        assert times == [7.0]

    def test_clock_advances_to_run_until_bound(self):
        sim = Simulator()
        sim.run_until(4.2)
        assert sim.now == 4.2

    def test_events_beyond_bound_stay_queued(self):
        sim = Simulator()
        log = []
        sim.at(5.0, lambda: log.append("x"))
        sim.run_until(4.0)
        assert log == []
        sim.run_until(5.0)
        assert log == ["x"]

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.run_until(2.0)
        with pytest.raises(SimulationError):
            sim.at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().after(-1.0, lambda: None)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"),
                                      float("-inf")])
    def test_non_finite_time_rejected(self, time):
        """Regression: ``at(nan)`` fired at the current time and ``at(inf)``
        let ``drain()`` move the clock to infinity."""
        sim = Simulator()
        fired = []
        with pytest.raises(SimulationError, match=repr(time)):
            sim.at(time, lambda: fired.append(True))
        sim.drain()
        assert fired == [] and sim.now == 0.0

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, delay):
        sim = Simulator()
        fired = []
        with pytest.raises(SimulationError, match=f"delay.*{delay!r}"):
            sim.after(delay, lambda: fired.append(True))
        sim.drain()
        assert fired == [] and sim.now == 0.0

    def test_past_time_still_named_as_past(self):
        sim = Simulator()
        sim.run_until(2.0)
        with pytest.raises(SimulationError, match="in the past"):
            sim.at(-1.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        log = []
        handle = sim.at(1.0, lambda: log.append("x"))
        handle.cancel()
        sim.run_until(2.0)
        assert log == []

    def test_handle_reports_time(self):
        sim = Simulator()
        assert sim.at(3.5, lambda: None).time == 3.5

    def test_handle_is_the_queued_event(self):
        """``at()`` pushes and returns one cell: no wrapper per event."""
        sim = Simulator()
        handle = sim.at(1.0, print, args=("x",))
        assert isinstance(handle, EventHandle)
        assert sim._queue[0][3] is handle
        assert (handle.fn, handle.args, handle.cancelled) == (print, ("x",),
                                                              False)
        handle.cancel()
        handle.cancel()  # idempotent, and safe after firing
        assert handle.cancelled


class TestDrain:
    def test_drain_runs_everything(self):
        sim = Simulator()
        log = []
        sim.at(1.0, lambda: sim.after(1.0, lambda: log.append("chained")))
        sim.drain()
        assert log == ["chained"]
        assert sim.now == 2.0

    def test_drain_detects_runaway_chains(self):
        sim = Simulator()

        def reschedule():
            sim.after(0.1, reschedule)

        sim.after(0.1, reschedule)
        with pytest.raises(SimulationError):
            sim.drain(max_events=100)

    def test_processed_event_count(self):
        sim = Simulator()
        for t in (1.0, 2.0):
            sim.at(t, lambda: None)
        sim.run_until(5.0)
        assert sim.processed_events == 2

    def test_drain_allows_exactly_max_events(self):
        """Regression: draining an emptying queue of exactly ``max_events``
        events must succeed — the budget only applies while events remain."""
        sim = Simulator()
        log = []
        for t in (1.0, 2.0, 3.0):
            sim.at(t, lambda: log.append(sim.now))
        sim.drain(max_events=3)
        assert log == [1.0, 2.0, 3.0]

    def test_drain_raises_only_when_live_events_remain(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.at(t, lambda: None)
        with pytest.raises(SimulationError):
            sim.drain(max_events=3)

    def test_drain_budget_ignores_cancelled_events(self):
        sim = Simulator()
        executed = []
        handles = [sim.at(float(t), lambda: None) for t in range(1, 4)]
        for handle in handles:
            handle.cancel()
        sim.at(5.0, lambda: executed.append(True))
        sim.drain(max_events=1)  # three cancelled + one live event
        assert executed == [True]


class TestCallbackArgs:
    def test_at_passes_args(self):
        sim = Simulator()
        log = []
        sim.at(1.0, log.append, args=("payload",))
        sim.run_until(1.0)
        assert log == ["payload"]

    def test_after_passes_args(self):
        sim = Simulator()
        log = []
        sim.after(0.5, lambda a, b: log.append(a + b), args=(1, 2))
        sim.drain()
        assert log == [3]
