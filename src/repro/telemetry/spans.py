"""Span-based tracing on the *simulated* clock.

Spans record named intervals of virtual time — scenario → phase →
operator → message — with parent/child nesting.  Unlike lexical tracing
(``with span(...)``), the Edgelet executor is event-driven: a phase
opens in one simulator callback and closes in another, so spans support
both styles:

* explicit: ``span = tracer.start("phase:collection", at=sim.now)`` …
  later … ``span.finish(at=sim.now)``;
* lexical: ``with tracer.span("operator.merge"):`` (uses the tracer's
  clock and the implicit parent stack).

The tracer also records point-in-time *marks* (first-occurrence named
timestamps, e.g. ``computation_start``) and *events* (repeatable
annotations) for the telemetry export.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["Span", "TraceEvent", "Tracer", "NullTracer"]


@dataclass
class Span:
    """One named interval of virtual time."""

    name: str
    span_id: int
    start: float
    end: float | None = None
    parent_id: int | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        """Virtual-time extent, or ``None`` while the span is open."""
        if self.end is None:
            return None
        return self.end - self.start

    def finish(self, at: float | None = None) -> "Span":
        """Close the span (idempotent: the first close wins)."""
        if self.end is None:
            self.end = self.start if at is None else at
        return self

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "attributes": dict(self.attributes),
        }


@dataclass(frozen=True)
class TraceEvent:
    """A repeatable point-in-time annotation."""

    name: str
    time: float
    attributes: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": "event",
            "name": self.name,
            "time": self.time,
            "attributes": dict(self.attributes),
        }


class Tracer:
    """Records spans, marks, and events against a virtual clock.

    Args:
        clock: callable returning the current virtual time; defaults to
            a constant ``0.0`` until :meth:`use_clock` binds a
            simulator.  Call sites may always pass explicit ``at=``
            times instead (the executor does, for determinism).
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock or (lambda: 0.0)
        self._ids = itertools.count(1)
        self._stack: list[Span] = []
        self.spans: list[Span] = []
        self.events: list[TraceEvent] = []
        self.marks: dict[str, float] = {}

    def use_clock(self, clock: Callable[[], float]) -> None:
        """Bind the clock (typically ``lambda: simulator.now``)."""
        self._clock = clock

    def now(self) -> float:
        return self._clock()

    # -- spans -------------------------------------------------------------

    def start(
        self,
        name: str,
        at: float | None = None,
        parent: Span | None = None,
        **attributes: Any,
    ) -> Span:
        """Open a span.  ``parent`` defaults to the innermost span
        opened lexically (the stack top), if any."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = Span(
            name=name,
            span_id=next(self._ids),
            start=self._clock() if at is None else at,
            parent_id=None if parent is None else parent.span_id,
            attributes=attributes,
        )
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Lexical span on the tracer's clock, with implicit nesting."""
        opened = self.start(name, **attributes)
        self._stack.append(opened)
        try:
            yield opened
        finally:
            self._stack.pop()
            opened.finish(at=self._clock())

    def push(self, span: Span) -> Span:
        """Make ``span`` the implicit parent for subsequent ``start``
        calls (event-driven nesting; pair with :meth:`pop`)."""
        self._stack.append(span)
        return span

    def pop(self, span: Span, at: float | None = None) -> Span:
        """Unwind the implicit-parent stack down to (and including)
        ``span``, finishing it."""
        while self._stack:
            top = self._stack.pop()
            if top.span_id == span.span_id:
                break
        return span.finish(at=self._clock() if at is None else at)

    # -- marks and events --------------------------------------------------

    def mark(self, name: str, at: float | None = None) -> float:
        """Record the *first* occurrence of a named instant; later calls
        return the original timestamp unchanged."""
        time = self._clock() if at is None else at
        return self.marks.setdefault(name, time)

    def event(self, name: str, at: float | None = None, **attributes: Any) -> TraceEvent:
        record = TraceEvent(
            name=name,
            time=self._clock() if at is None else at,
            attributes=attributes,
        )
        self.events.append(record)
        return record

    # -- queries -----------------------------------------------------------

    def find(self, name: str) -> list[Span]:
        """All spans with the given name, in start order."""
        return [span for span in self.spans if span.name == name]

    def first(self, name: str) -> Span | None:
        for span in self.spans:
            if span.name == name:
                return span
        return None

    def children_of(self, parent: Span) -> list[Span]:
        return [span for span in self.spans if span.parent_id == parent.span_id]

    def finish_open(self, at: float | None = None) -> int:
        """Close every still-open span (end-of-run cleanup).  Returns
        the number of spans closed."""
        time = self._clock() if at is None else at
        closed = 0
        for span in self.spans:
            if span.end is None:
                span.finish(at=time)
                closed += 1
        return closed

    def reset(self) -> None:
        self._stack.clear()
        self.spans.clear()
        self.events.clear()
        self.marks.clear()


class _NullSpan(Span):
    """Shared inert span handed out by :class:`NullTracer`."""

    def finish(self, at: float | None = None) -> "Span":  # noqa: ARG002
        return self


class NullTracer(Tracer):
    """No-op tracer: records nothing, hands out one shared span."""

    def __init__(self) -> None:
        super().__init__()
        self._null_span = _NullSpan("null", span_id=0, start=0.0, end=0.0)

    def start(
        self,
        name: str,
        at: float | None = None,
        parent: Span | None = None,
        **attributes: Any,
    ) -> Span:  # noqa: ARG002
        return self._null_span

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:  # noqa: ARG002
        yield self._null_span

    def mark(self, name: str, at: float | None = None) -> float:  # noqa: ARG002
        return 0.0

    def event(self, name: str, at: float | None = None, **attributes: Any) -> TraceEvent:  # noqa: ARG002
        return TraceEvent(name="null", time=0.0)
