"""Deterministic discrete-event simulation kernel.

Every dynamic aspect of the reproduction — message latency, device
crashes, heartbeat clocks — runs on this kernel.  The design is
intentionally small: a priority queue of :class:`Event` records ordered
by ``(time, sequence)``.  The sequence number breaks ties so that two
events at the same virtual instant fire in scheduling order, which makes
whole executions reproducible bit-for-bit given a seed.  The heap holds
``(time, sequence, event)`` tuples, so every comparison is a C-level
tuple compare that never reaches the event itself.

The kernel is instrumented through :mod:`repro.telemetry`: events
scheduled/processed/cancelled are counted, the queue depth is tracked as
a gauge, and the ``run``/``run_until`` loops are wall-clock-profiled so
simulator overhead can be separated from modeled time.  Telemetry never
influences scheduling order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(Exception):
    """Raised on kernel misuse (e.g. scheduling into the past)."""


@dataclass
class Event:
    """A scheduled callback.

    The kernel orders events by ``(time, sequence)``; the callback and
    its description take no part in that order.
    """

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    description: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when it pops."""
        self.cancelled = True


class Simulator:
    """A virtual clock plus an event queue.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fires at t=1.5"))
        sim.run_until(10.0)

    Args:
        telemetry: the :class:`repro.telemetry.Telemetry` to record
            into; defaults to the process-wide instance.
    """

    def __init__(self, telemetry: Any = None) -> None:
        if telemetry is None:
            from repro.telemetry import get_telemetry

            telemetry = get_telemetry()
        self.telemetry = telemetry
        self._now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._processed = 0
        # epoch fences recurring timers: ticks armed before a reset()
        # must never re-arm after it (see `every`)
        self._epoch = 0
        metrics = telemetry.metrics
        self._m_scheduled = metrics.counter("sim.events_scheduled")
        self._m_processed = metrics.counter("sim.events_processed")
        self._m_cancelled = metrics.counter("sim.events_cancelled_skipped")
        self._g_queue = metrics.gauge("sim.queue_depth")
        self._prof_loop = telemetry.profiler.section("sim.event_loop")

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def epoch(self) -> int:
        """Reset generation counter.  Incremented by :meth:`reset`;
        one-shot timers that must not survive a reset can capture it at
        arm time and compare on fire (the fence :meth:`every` uses)."""
        return self._epoch

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events."""
        return sum(1 for _, _, event in self._queue if not event.cancelled)

    @property
    def processed(self) -> int:
        """Total number of events that have fired."""
        return self._processed

    def schedule(
        self, delay: float, callback: Callable[[], None], description: str = ""
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        sequence = next(self._sequence)
        event = Event(time, sequence, callback, description)
        heapq.heappush(self._queue, (time, sequence, event))
        self._m_scheduled.inc()
        self._g_queue.set(len(self._queue))
        return event

    def schedule_at(
        self, time: float, callback: Callable[[], None], description: str = ""
    ) -> Event:
        """Schedule ``callback`` at an absolute virtual time."""
        return self.schedule(time - self._now, callback, description)

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        description: str = "",
        until: float | None = None,
    ) -> Callable[[], None]:
        """Fire ``callback`` every ``interval`` units, starting one
        interval from now, optionally stopping after virtual time
        ``until``.  Returns a function that cancels the recurrence.

        The recurrence is fenced to the current epoch: a
        :meth:`reset` both drops the armed event *and* poisons the
        tick closure, so a stale recurring timer can never fire or
        re-arm itself on the post-reset timeline.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive (got {interval})")
        state = {"stopped": False, "event": None}
        epoch = self._epoch

        def tick() -> None:
            if state["stopped"] or self._epoch != epoch:
                return
            callback()
            if until is not None and self._now + interval > until:
                return
            state["event"] = self.schedule(interval, tick, description)

        state["event"] = self.schedule(interval, tick, description)

        def cancel() -> None:
            state["stopped"] = True
            event = state["event"]
            if event is not None:
                event.cancel()

        return cancel

    def step(self) -> bool:
        """Fire the earliest pending event.  Returns ``False`` if the
        queue is empty."""
        while self._queue:
            time, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                self._m_cancelled.inc()
                continue
            self._now = time
            event.callback()
            self._processed += 1
            self._m_processed.inc()
            self._g_queue.set(len(self._queue))
            return True
        return False

    def run(self, max_events: int | None = None) -> int:
        """Run until the queue drains (or ``max_events`` fire).

        Returns the number of events fired by this call.
        """
        fired = 0
        with self._prof_loop:
            while max_events is None or fired < max_events:
                if not self.step():
                    break
                fired += 1
        return fired

    def run_until(self, deadline: float) -> int:
        """Run events with ``time <= deadline`` and advance the clock to
        exactly ``deadline``.  Returns the number of events fired.

        The deadline is inclusive, consistently: an event scheduled at
        exactly ``deadline`` fires — including one scheduled *during*
        this call by another deadline-time event — and a subsequent
        ``run_until(deadline)`` is a legal no-op.
        """
        if deadline < self._now:
            raise SimulationError(
                f"deadline {deadline} is before current time {self._now}"
            )
        fired = 0
        with self._prof_loop:
            while self._queue:
                time, _, head = self._queue[0]
                if head.cancelled:
                    heapq.heappop(self._queue)
                    self._m_cancelled.inc()
                    continue
                if time > deadline:
                    break
                self.step()
                fired += 1
            self._now = deadline
        return fired

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero.

        Also restarts the tie-breaking sequence (so post-reset runs are
        bit-for-bit identical to a fresh simulator) and advances the
        epoch fence that disarms any live :meth:`every` recurrence.
        """
        for _, _, event in self._queue:
            event.cancel()
        self._queue.clear()
        self._now = 0.0
        self._processed = 0
        self._sequence = itertools.count()
        self._epoch += 1
        self._g_queue.set(0)
