"""Unified observability: metrics, tracing, and profiling.

The measurement substrate of the reproduction.  Three planes, one
facade:

* **metrics** (:mod:`repro.telemetry.metrics`) — named counters,
  gauges, and fixed-bucket histograms with bounded label dimensions;
* **spans** (:mod:`repro.telemetry.spans`) — scenario → phase →
  operator span tracing on the *simulated* clock, plus first-occurrence
  marks;
* **profiler** (:mod:`repro.telemetry.profiler`) — ``perf_counter``
  wall-clock sections, separating simulator overhead from modeled time.

:mod:`repro.telemetry.export` renders all three as JSONL, CSV, or a
text scoreboard.  Instrumented components (simulator, opportunistic
network, executors, scenarios) take an optional ``telemetry`` argument
and default to the process-wide recording instance; swap in
:func:`null_telemetry` to measure the cost of measuring.
"""

from repro.telemetry.export import (
    metrics_csv,
    read_jsonl,
    render_summary,
    telemetry_records,
    write_jsonl,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.telemetry.profiler import NullProfiler, Profiler, ProfileSection
from repro.telemetry.runtime import (
    Telemetry,
    get_telemetry,
    null_telemetry,
    set_telemetry,
    use_telemetry,
)
from repro.telemetry.spans import NullTracer, Span, TraceEvent, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NullProfiler",
    "NullTracer",
    "Profiler",
    "ProfileSection",
    "Span",
    "Telemetry",
    "TraceEvent",
    "Tracer",
    "get_telemetry",
    "metrics_csv",
    "null_telemetry",
    "read_jsonl",
    "render_summary",
    "set_telemetry",
    "telemetry_records",
    "use_telemetry",
    "write_jsonl",
]
