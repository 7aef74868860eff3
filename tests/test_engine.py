"""Tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        log = []
        sim.schedule_at(30.0, lambda: log.append("c"))
        sim.schedule_at(10.0, lambda: log.append("a"))
        sim.schedule_at(20.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self, sim):
        log = []
        for name in "abcd":
            sim.schedule_at(5.0, lambda n=name: log.append(n))
        sim.run()
        assert log == list("abcd")

    def test_now_advances_to_event_time(self, sim):
        seen = []
        sim.schedule_at(42.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42.0]

    def test_schedule_after_is_relative(self, sim):
        seen = []
        sim.schedule_at(10.0, lambda: sim.schedule_after(5.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [15.0]

    def test_past_scheduling_rejected(self, sim):
        sim.schedule_at(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_after(-1.0, lambda: None)

    def test_events_processed_counter(self, sim):
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: None)
        sim.run()
        assert sim.events_processed == 3


class TestCallbackArgs:
    def test_schedule_at_passes_args(self, sim):
        log = []
        sim.schedule_at(5.0, lambda *args: log.append(args), "a", 2)
        sim.schedule_at(6.0, log.append, ("b",))
        sim.run()
        assert log == [("a", 2), ("b",)]

    def test_schedule_after_passes_args(self, sim):
        log = []
        sim.schedule_at(
            10.0, lambda: sim.schedule_after(5.0, log.append, (sim.now, "x"))
        )
        sim.schedule_after(1.0, lambda *args: log.append(args), "a", 2)
        sim.run()
        assert log == [("a", 2), (10.0, "x")]


class TestRunBounds:
    def test_until_excludes_later_events(self, sim):
        log = []
        sim.schedule_at(10.0, lambda: log.append(1))
        sim.schedule_at(100.0, lambda: log.append(2))
        sim.run(until=50.0)
        assert log == [1]

    def test_until_advances_clock_even_if_idle(self, sim):
        sim.run(until=77.0)
        assert sim.now == 77.0

    def test_remaining_events_fire_on_next_run(self, sim):
        log = []
        sim.schedule_at(100.0, lambda: log.append(2))
        sim.run(until=50.0)
        sim.run()
        assert log == [2]

    def test_max_events_bound(self, sim):
        log = []
        for t in range(10):
            sim.schedule_at(float(t + 1), lambda: log.append(1))
        sim.run(max_events=4)
        assert len(log) == 4

    def test_max_events_stop_leaves_clock_at_last_event(self, sim):
        log = []
        sim.schedule_at(10.0, log.append, 10.0)
        sim.schedule_at(20.0, log.append, 20.0)
        assert sim.run(until=100.0, max_events=1) == 10.0
        # The event at 20 is still pending, so time must not pass it.
        assert sim.now == 10.0
        sim.run()
        assert log == [10.0, 20.0]
        assert sim.now == 20.0

    def test_max_events_stop_advances_when_next_event_is_past_until(self, sim):
        sim.schedule_at(10.0, lambda: None)
        sim.schedule_at(200.0, lambda: None)
        sim.run(until=100.0, max_events=1)
        assert sim.now == 100.0

    def test_stop_ends_run(self, sim):
        log = []
        sim.schedule_at(1.0, lambda: (log.append(1), sim.stop()))
        sim.schedule_at(2.0, lambda: log.append(2))
        sim.run()
        assert log == [1]
        sim.run()
        assert log == [1, 2]

    def test_run_not_reentrant(self, sim):
        def nested():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule_at(1.0, nested)
        sim.run()


class TestCancellation:
    def test_cancelled_event_skipped(self, sim):
        log = []
        event = sim.schedule_at(1.0, lambda: log.append("x"))
        sim.cancel(event)
        sim.run()
        assert log == []

    def test_cancel_handle_with_args(self, sim):
        log = []
        event = sim.schedule_at(1.0, log.append, "x")
        sim.schedule_at(1.0, log.append, "y")
        sim.cancel(event)
        assert sim.pending_events == 1
        sim.run()
        assert log == ["y"]
        assert sim.events_processed == 1
        assert sim.events_cancelled == 1

    def test_cancelled_tie_never_compares_callbacks(self, sim):
        # Bound methods do not order: a heap comparison that reached the
        # callback slot would raise TypeError. Ties break on ``seq``.
        class Sink:
            def __init__(self):
                self.log = []

            def take(self, item):
                self.log.append(item)

        first, second = Sink(), Sink()
        doomed = sim.schedule_at(5.0, first.take, "x")
        sim.cancel(doomed)
        for n in range(4):
            sim.schedule_at(5.0, second.take, n)
            sim.schedule_at(5.0, first.take, -n)
        sim.run()
        assert first.log == [0, -1, -2, -3]
        assert second.log == [0, 1, 2, 3]
        assert sim.events_scheduled == 9
        assert sim.events_processed == 8
        assert sim.events_cancelled == 1

    def test_tombstones_do_not_count_toward_max_events(self, sim):
        log = []
        for t in range(1, 7):
            event = sim.schedule_at(float(t), log.append, t)
            if t % 2:
                sim.cancel(event)
        sim.run(max_events=2)
        assert log == [2, 4]
        # Tombstones at t=1, 3 and 5 are discarded as they reach the head,
        # t=5 before the cap ends the run.
        assert sim.events_processed == 2
        assert sim.events_cancelled == 3
        sim.run(max_events=2)
        assert log == [2, 4, 6]
        assert sim.events_cancelled == 3

    def test_pending_events_ignores_cancelled(self, sim):
        event = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.cancel(event)
        assert sim.pending_events == 1


class TestPeriodic:
    def test_periodic_fires_repeatedly(self, sim):
        ticks = []
        sim.schedule_periodic(10.0, lambda: ticks.append(sim.now))
        sim.run(until=45.0)
        assert ticks == [10.0, 20.0, 30.0, 40.0]

    def test_periodic_with_explicit_start(self, sim):
        ticks = []
        sim.schedule_periodic(10.0, lambda: ticks.append(sim.now), start=5.0)
        sim.run(until=30.0)
        assert ticks == [5.0, 15.0, 25.0]

    def test_periodic_stops_on_stopiteration(self, sim):
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 3:
                raise StopIteration

        sim.schedule_periodic(1.0, tick)
        sim.run(until=100.0)
        assert len(ticks) == 3

    def test_counters_are_current_inside_periodic_tick(self, sim):
        seen = []
        sim.schedule_periodic(
            10.0,
            lambda: seen.append(
                (sim.now, sim.events_processed, sim.events_cancelled)
            ),
        )
        for t in (5.0, 15.0, 25.0):
            sim.schedule_at(t, lambda: None)
        sim.cancel(sim.schedule_at(12.0, lambda: None))
        sim.run(until=30.0)
        # Each tick sees every earlier dispatch and discarded tombstone;
        # its own dispatch is counted once it returns.
        assert seen == [(10.0, 1, 0), (20.0, 3, 1), (30.0, 5, 1)]

    def test_zero_period_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_periodic(0.0, lambda: None)
