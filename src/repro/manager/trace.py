"""Step-by-step trace rendering.

The demonstration platform "allows the attendees to visualize, step by
step, the query execution".  Without the Dash GUI we render the same
information as text: a time-ordered event log and a phase timeline.
"""

from __future__ import annotations

from repro.core.runtime import ExecutionReport
from repro.core.runtime.events import EventKind

__all__ = ["format_trace", "phase_timeline"]


def format_trace(report: ExecutionReport, limit: int | None = None) -> str:
    """Render the executor's event log as aligned text lines."""
    trace = report.trace
    events = trace if limit is None else trace[:limit]
    lines = [f"t={time:10.3f}  {message}" for time, message in events]
    if limit is not None and len(trace) > limit:
        lines.append(f"... {len(trace) - limit} more events")
    return "\n".join(lines)


def phase_timeline(report: ExecutionReport) -> dict[str, float | None]:
    """Extract phase boundary times from an execution report.

    Returns the first snapshot-freeze time (collection → computation),
    the first partial result sent or lost or K-Means initialization,
    and completion; a phase that never happened is ``None``.
    """
    return {
        "collection_end": _first(report, EventKind.SNAPSHOT_FROZEN),
        "computation_start": _first(
            report,
            EventKind.PARTIAL_SENT, EventKind.PARTIAL_LOST, EventKind.KMEANS_INIT,
        ),
        "completion": report.completion_time,
    }


def _first(report: ExecutionReport, *kinds: EventKind) -> float | None:
    return next(
        (event.time for event in report.events if event.kind in kinds), None
    )
