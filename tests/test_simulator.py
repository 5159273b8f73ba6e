"""Tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.simulator import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        fired = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_schedule_from_within_event(self):
        sim = Simulator()
        fired = []
        def outer():
            fired.append("outer")
            sim.schedule(1.0, lambda: fired.append("inner"))
        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending == 1


class TestRunUntil:
    def test_stops_at_deadline(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        count = sim.run_until(3.0)
        assert count == 1
        assert fired == [1]
        assert sim.now == 3.0
        sim.run()
        assert fired == [1, 5]

    def test_deadline_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run_until(1.0)

    def test_event_exactly_at_deadline_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run_until(3.0)
        assert fired == [3]


class TestRecurring:
    def test_every_fires_repeatedly(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), until=5.0)
        sim.run()
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_every_cancel_stops(self):
        sim = Simulator()
        ticks = []
        cancel = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run_until(3.0)
        cancel()
        sim.run_until(10.0)
        assert ticks == [1.0, 2.0, 3.0]

    def test_non_positive_interval_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().every(0.0, lambda: None)


class TestResetRecurringInteraction:
    """Regression tests: reset() must fully disarm recurring timers."""

    def test_recurring_timer_never_fires_after_reset(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run_until(3.0)
        assert ticks == [1.0, 2.0, 3.0]
        sim.reset()
        sim.schedule(10.0, lambda: None)  # give the queue something to drain
        sim.run()
        assert ticks == [1.0, 2.0, 3.0]

    def test_cancelled_then_reset_timer_stays_dead(self):
        sim = Simulator()
        ticks = []
        cancel = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run_until(2.0)
        cancel()
        sim.reset()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert ticks == [1.0, 2.0]

    def test_stale_tick_closure_cannot_rearm_post_reset(self):
        # Even if the armed tick event itself somehow survived (it is
        # epoch-fenced, not just cancelled), re-entering it must not
        # re-arm the recurrence on the new timeline.
        sim = Simulator()
        ticks = []
        armed = []
        schedule = sim.schedule

        def recording_schedule(*args, **kwargs):
            armed.append(schedule(*args, **kwargs))
            return armed[-1]

        sim.schedule = recording_schedule
        sim.every(1.0, lambda: ticks.append(sim.now))
        assert sim.pending == len(armed) == 1
        sim.reset()
        for event in armed:  # resurrect the pre-reset tick by hand
            event.cancelled = False
            event.callback()
        sim.run()
        assert ticks == []
        assert sim.pending == 0

    def test_timers_armed_after_reset_work_normally(self):
        sim = Simulator()
        sim.every(1.0, lambda: None)
        sim.reset()
        ticks = []
        sim.every(2.0, lambda: ticks.append(sim.now), until=6.0)
        sim.run()
        assert ticks == [2.0, 4.0, 6.0]

    def test_reset_restarts_tie_breaking_sequence(self):
        # Post-reset runs must be bit-for-bit identical to a fresh
        # simulator: same-time events fire in (re)scheduling order.
        def collect(sim):
            fired = []
            for name in "abc":
                sim.schedule(1.0, lambda n=name: fired.append(n))
            sim.run()
            return fired

        sim = Simulator()
        collect(sim)
        sim.reset()
        assert collect(sim) == collect(Simulator())


class TestRunUntilInclusive:
    """Regression tests: the deadline is consistently inclusive."""

    def test_chained_events_at_exact_deadline_fire(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(0.0, lambda: fired.append("second"))

        sim.schedule(3.0, first)
        count = sim.run_until(3.0)
        assert fired == ["first", "second"]
        assert count == 2
        assert sim.now == 3.0

    def test_repeated_run_until_same_deadline_is_noop(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(sim.now))
        assert sim.run_until(3.0) == 1
        assert sim.run_until(3.0) == 0
        assert fired == [3.0]
        assert sim.now == 3.0

    def test_recurring_tick_at_deadline_fires_once(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run_until(3.0)
        assert ticks == [1.0, 2.0, 3.0]
        # The next tick (armed at t=4) stays queued, not lost.
        sim.run_until(4.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0]


class TestBookkeeping:
    def test_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.processed == 4

    def test_run_max_events(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.pending == 2

    def test_reset(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.schedule(1.0, lambda: None)
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending == 0
        assert sim.processed == 0

    def test_step_on_empty_queue(self):
        assert Simulator().step() is False


# -- the heap order, against a sorted((time, sequence)) reference -----------

#: few distinct delays, so equal fire times are common
_delays = st.sampled_from([0.0, 0.5, 1.0, 2.5])
#: (delay, cancel at once, children scheduled from inside the callback,
#: each (delay, cancel at once))
_schedules = st.lists(
    st.tuples(
        _delays,
        st.booleans(),
        st.lists(st.tuples(_delays, st.booleans()), max_size=3),
    ),
    max_size=20,
)


def _arm(sim, schedule, fired, live):
    """Schedule ``schedule`` on ``sim``.  Each firing appends its
    ``(time, sequence)`` to ``fired``; ``live`` collects the key of every
    event scheduled and not cancelled, children included once armed."""

    def arm(delay, cancel, children):
        def callback():
            fired.append(key)
            for child_delay, child_cancel in children:
                arm(child_delay, child_cancel, [])

        event = sim.schedule(delay, callback)
        key = (event.time, event.sequence)
        if cancel:
            event.cancel()
        else:
            live.append(key)

    for delay, cancel, children in schedule:
        arm(delay, cancel, children)


class TestHeapOrderProperty:
    @given(_schedules)
    @settings(max_examples=200, deadline=None)
    def test_fires_in_sorted_time_sequence_order(self, schedule):
        sim = Simulator()
        fired, live = [], []
        _arm(sim, schedule, fired, live)
        assert sim.pending == len(live)
        sim.run()
        assert fired == sorted(live)
        assert sim.pending == 0

    @given(_schedules, _schedules, _delays)
    @settings(max_examples=100, deadline=None)
    def test_reset_restarts_the_order_of_a_fresh_simulator(self, before, after, cut):
        sim = Simulator()
        fired_before, live_before = [], []
        _arm(sim, before, fired_before, live_before)
        sim.run_until(cut)
        assert fired_before == sorted(live_before)[: len(fired_before)]
        stale = list(fired_before)
        sim.reset()
        assert sim.pending == 0
        fired, live = [], []
        _arm(sim, after, fired, live)
        sim.run()
        fresh_fired, fresh_live = [], []
        fresh = Simulator()
        _arm(fresh, after, fresh_fired, fresh_live)
        fresh.run()
        assert fired == sorted(live) == fresh_fired
        assert fired_before == stale
