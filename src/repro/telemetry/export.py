"""Telemetry export: JSONL event stream plus text/CSV summaries.

The JSONL export is the machine-readable record of one run — every
metric sample, span, mark, event, and profile section as one JSON
object per line, prefixed by a header line carrying schema metadata.
``read_jsonl`` round-trips the stream back into plain dictionaries for
analysis scripts and tests.

``render_summary`` is the human surface: the counter/gauge scoreboard,
the phase spans, and the profiler's wall-clock vs simulated-time
separation, consumed by ``repro.cli`` and the benchmark harness.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Any, Iterator, TextIO

from repro.telemetry.metrics import _flat_name
from repro.telemetry.runtime import Telemetry

__all__ = [
    "telemetry_records",
    "write_jsonl",
    "read_jsonl",
    "render_summary",
    "metrics_csv",
]

SCHEMA_VERSION = 1


def telemetry_records(telemetry: Telemetry) -> Iterator[dict[str, Any]]:
    """Yield every recorded observation as a JSON-serializable dict."""
    yield {"type": "header", "schema_version": SCHEMA_VERSION}
    for counter in telemetry.metrics.counters():
        yield {
            "type": "metric",
            "kind": "counter",
            "name": counter.name,
            "labels": dict(counter.labels),
            "value": counter.value,
        }
    for gauge in telemetry.metrics.gauges():
        yield {
            "type": "metric",
            "kind": "gauge",
            "name": gauge.name,
            "labels": dict(gauge.labels),
            "value": gauge.value,
            "max_value": gauge.max_value,
        }
    for histogram in telemetry.metrics.histograms():
        yield {
            "type": "metric",
            "kind": "histogram",
            "name": histogram.name,
            "labels": dict(histogram.labels),
            "buckets": list(histogram.buckets),
            "counts": list(histogram.counts),
            "count": histogram.count,
            "sum": histogram.total,
        }
    for span in telemetry.tracer.spans:
        yield span.as_dict()
    for name, time in sorted(telemetry.tracer.marks.items()):
        yield {"type": "mark", "name": name, "time": time}
    for event in telemetry.tracer.events:
        yield event.as_dict()
    for section in telemetry.profiler.sections():
        yield section.as_dict()


def write_jsonl(telemetry: Telemetry, target: str | Path | TextIO) -> int:
    """Write the JSONL export; returns the number of lines written."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fp:
            return write_jsonl(telemetry, fp)
    lines = 0
    for record in telemetry_records(telemetry):
        target.write(json.dumps(record, separators=(",", ":"), sort_keys=True))
        target.write("\n")
        lines += 1
    return lines


def read_jsonl(source: str | Path | TextIO) -> list[dict[str, Any]]:
    """Parse a JSONL export back into a list of record dicts."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fp:
            return read_jsonl(fp)
    return [json.loads(line) for line in source if line.strip()]


def metrics_csv(telemetry: Telemetry) -> str:
    """Counters and gauges as a two-column CSV (name, value)."""
    out = io.StringIO()
    out.write("metric,value\n")
    for name, value in sorted(telemetry.metrics.as_dict().items()):
        escaped = f'"{name}"' if "," in name else name
        out.write(f"{escaped},{value:g}\n")
    return out.getvalue()


def render_summary(
    telemetry: Telemetry,
    max_rows: int = 20,
    simulated_time: float | None = None,
) -> str:
    """Human-readable scoreboard of one run's telemetry.

    Shows the top counters/gauges, the phase spans in start order, and
    the profiler table; when ``simulated_time`` is given (or derivable
    from the execution spans: the earliest start to the latest end, so
    a multi-query run counts every execution) the header separates
    modeled virtual time from the wall-clock the event loop actually
    burned.
    """
    lines = ["telemetry summary"]
    spans = sorted(telemetry.tracer.spans, key=lambda s: s.start)
    if simulated_time is None:
        executions = [
            s for s in spans
            if s.name.startswith("execution") and s.end is not None
        ]
        if executions:
            last_end = max(s.end for s in executions)
            simulated_time = last_end - executions[0].start
    loop_wall = telemetry.profiler.total("sim.event_loop")
    if simulated_time is not None:
        lines.append(
            f"  time: {simulated_time:.1f}s simulated, "
            f"{loop_wall:.3f}s wall in event loop"
            + (
                f" ({simulated_time / loop_wall:.0f}x real time)"
                if loop_wall > 0
                else ""
            )
        )
    counters = sorted(
        telemetry.metrics.counters(), key=lambda c: (-c.value, c.name, c.labels)
    )
    if counters:
        lines.append("  counters:")
        for counter in counters[:max_rows]:
            lines.append(
                f"    {_flat_name(counter.name, counter.labels):<48} "
                f"{counter.value:>12g}"
            )
        if len(counters) > max_rows:
            lines.append(f"    ... and {len(counters) - max_rows} more")
    gauges = sorted(telemetry.metrics.gauges(), key=lambda g: g.name)
    if gauges:
        lines.append("  gauges (current / high-water):")
        for gauge in gauges[:max_rows]:
            lines.append(
                f"    {_flat_name(gauge.name, gauge.labels):<48} "
                f"{gauge.value:>8g} / {gauge.max_value:g}"
            )
    phases = [s for s in spans if s.name.startswith("phase:")]
    if phases:
        lines.append("  phases:")
        for span in phases:
            end = f"{span.end:.1f}" if span.end is not None else "open"
            lines.append(
                f"    {span.name:<28} t={span.start:.1f} .. {end}"
            )
    sections = telemetry.profiler.sections()
    if sections:
        lines.append("  profiler (wall-clock):")
        lines.append(
            f"    {'section':<28} {'calls':>8} {'total s':>10} {'mean ms':>10}"
        )
        for section in sections[:max_rows]:
            lines.append(
                f"    {section.name:<28} {section.calls:>8d} "
                f"{section.total:>10.4f} {section.mean * 1e3:>10.3f}"
            )
    return "\n".join(lines)
