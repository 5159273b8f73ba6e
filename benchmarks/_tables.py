"""Shared table rendering for the benchmark harness.

Every benchmark prints the series/rows of the figure or demonstration
measurement it reproduces, in addition to timing the core operation with
pytest-benchmark.  Run with ``pytest benchmarks/ --benchmark-only -s``
to see the tables.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["print_table", "print_telemetry_table"]


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    """Print one experiment table with aligned columns."""
    rendered = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in rendered)) if rendered else len(header)
        for i, header in enumerate(headers)
    ]
    print(f"\n== {title} ==")
    print("  ".join(header.ljust(width) for header, width in zip(headers, widths)))
    print("  ".join("-" * width for width in widths))
    for row in rendered:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))


def _instrument_label(instrument: Any) -> str:
    if not instrument.labels:
        return instrument.name
    rendered = ",".join(f"{k}={v}" for k, v in instrument.labels)
    return f"{instrument.name}{{{rendered}}}"


def print_telemetry_table(title: str, telemetry: Any, max_rows: int = 12) -> None:
    """Print one run's telemetry as benchmark tables.

    Three views of the :class:`repro.telemetry.Telemetry` instance: the
    top counters (message/phase tallies), the phase spans on the
    simulated clock, and the profiler sections (host wall-clock spent in
    the event loop and hot operators) — keeping virtual time and real
    time visibly separate.
    """
    counters = sorted(
        telemetry.metrics.counters(), key=lambda c: (-c.value, c.name, c.labels)
    )
    if counters:
        print_table(
            f"{title}: top counters",
            ["counter", "value"],
            [
                [_instrument_label(counter), counter.value]
                for counter in counters[:max_rows]
            ],
        )
    phase_spans = sorted(
        (span for span in telemetry.tracer.spans if span.name.startswith("phase:")),
        key=lambda span: span.start,
    )
    if phase_spans:
        print_table(
            f"{title}: phase spans (virtual time)",
            ["span", "start (s)", "end (s)", "duration (s)"],
            [
                [span.name, span.start, span.end, span.duration]
                for span in phase_spans[:max_rows]
            ],
        )
    sections = telemetry.profiler.sections()
    if sections:
        print_table(
            f"{title}: profiler (host wall-clock)",
            ["section", "calls", "total (s)", "mean (s)"],
            [
                [section.name, section.calls, section.total, section.mean]
                for section in sections[:max_rows]
            ],
        )
