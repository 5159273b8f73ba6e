"""Step-by-step trace rendering.

The demonstration platform "allows the attendees to visualize, step by
step, the query execution".  Without the Dash GUI we render the same
information as text: a time-ordered event log and a phase timeline
(:func:`phase_timeline` lives with the report, whose boundaries the
execution's published phase spans follow).
"""

from __future__ import annotations

from repro.core.runtime import ExecutionReport
from repro.core.runtime.report import phase_timeline

__all__ = ["format_trace", "phase_timeline"]


def format_trace(report: ExecutionReport, limit: int | None = None) -> str:
    """Render the executor's event log as aligned text lines."""
    trace = report.trace
    events = trace if limit is None else trace[:limit]
    lines = [f"t={time:10.3f}  {message}" for time, message in events]
    if limit is not None and len(trace) > limit:
        lines.append(f"... {len(trace) - limit} more events")
    return "\n".join(lines)

