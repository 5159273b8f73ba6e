"""Unit tests for the telemetry subsystem (metrics, spans, profiler,
export)."""

from __future__ import annotations

import io
import time

import pytest

from repro.network.simulator import Simulator
from repro.telemetry import (
    MetricsRegistry,
    NullMetricsRegistry,
    NullProfiler,
    NullTracer,
    Profiler,
    Telemetry,
    Tracer,
    get_telemetry,
    metrics_csv,
    null_telemetry,
    read_jsonl,
    render_summary,
    telemetry_records,
    use_telemetry,
    write_jsonl,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("messages")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("messages")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_same_name_and_labels_memoized(self):
        registry = MetricsRegistry()
        a = registry.counter("sent", kind="partial")
        b = registry.counter("sent", kind="partial")
        assert a is b

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.counter("sent", kind="x", device="d1")
        b = registry.counter("sent", device="d1", kind="x")
        assert a is b

    def test_distinct_labels_make_distinct_children(self):
        registry = MetricsRegistry()
        registry.counter("sent", kind="partial").inc(3)
        registry.counter("sent", kind="snapshot").inc(4)
        assert registry.value("sent", kind="partial") == 3
        assert registry.value("sent", kind="snapshot") == 4
        assert registry.total("sent") == 7


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("queue_depth")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value == 3

    def test_tracks_high_water_mark(self):
        gauge = MetricsRegistry().gauge("buffered")
        gauge.set(10)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.max_value == 10


class TestHistogram:
    def test_bucket_assignment(self):
        histogram = MetricsRegistry().histogram(
            "latency", buckets=(1.0, 5.0, 10.0)
        )
        for value in (0.5, 1.0, 3.0, 100.0):
            histogram.observe(value)
        # 0.5 and 1.0 land in <=1.0; 3.0 in <=5.0; 100.0 overflows.
        assert histogram.counts == [2, 1, 0, 1]
        assert histogram.count == 4
        assert histogram.total == pytest.approx(104.5)
        assert histogram.mean == pytest.approx(104.5 / 4)

    def test_buckets_must_strictly_increase(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", buckets=(1.0, 1.0, 2.0))

    def test_quantile_estimate(self):
        histogram = MetricsRegistry().histogram("q", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.6, 1.5, 3.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 1.0
        assert histogram.quantile(1.0) == 4.0
        assert histogram.quantile(0.0) == 1.0

    def test_empty_histogram(self):
        histogram = MetricsRegistry().histogram("empty")
        assert histogram.mean == 0.0
        assert histogram.quantile(0.5) == 0.0


class TestRegistry:
    def test_as_dict_flattens_labels(self):
        registry = MetricsRegistry()
        registry.counter("sent", kind="partial").inc()
        registry.gauge("depth").set(2)
        snapshot = registry.as_dict()
        assert snapshot["sent{kind=partial}"] == 1
        assert snapshot["depth"] == 2

    def test_reset_drops_instruments(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.reset()
        assert registry.value("a") == 0.0
        assert list(registry.counters()) == []


class TestSpans:
    def test_spans_on_simulated_clock(self):
        sim = Simulator(telemetry=null_telemetry())
        tracer = Tracer(clock=lambda: sim.now)
        spans = []
        sim.schedule(2.0, lambda: spans.append(tracer.start("phase")))
        sim.schedule(7.0, lambda: spans[0].finish(at=sim.now))
        sim.run()
        (span,) = spans
        assert span.start == 2.0
        assert span.end == 7.0
        assert span.duration == 5.0

    def test_explicit_parent_nesting(self):
        tracer = Tracer()
        root = tracer.start("execution", at=0.0)
        child = tracer.start("phase:collection", at=0.0, parent=root)
        assert child.parent_id == root.span_id

    def test_lexical_nesting_sets_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.end is not None
        assert inner.end is not None

    def test_push_pop_event_driven_nesting(self):
        clock = {"now": 0.0}
        tracer = Tracer(clock=lambda: clock["now"])
        scenario = tracer.push(tracer.start("scenario", at=0.0))
        execution = tracer.start("execution", at=1.0)
        assert execution.parent_id == scenario.span_id
        clock["now"] = 9.0
        tracer.pop(scenario)
        assert scenario.end == 9.0

    def test_finish_is_idempotent(self):
        span = Tracer().start("once", at=1.0)
        span.finish(at=5.0)
        span.finish(at=99.0)
        assert span.end == 5.0

    def test_mark_keeps_first_occurrence(self):
        tracer = Tracer()
        assert tracer.mark("collection_end", at=3.0) == 3.0
        assert tracer.mark("collection_end", at=8.0) == 3.0
        assert tracer.marks["collection_end"] == 3.0

    def test_events_are_repeatable(self):
        tracer = Tracer()
        tracer.event("heartbeat", at=1.0, beat=1)
        tracer.event("heartbeat", at=2.0, beat=2)
        assert [e.time for e in tracer.events] == [1.0, 2.0]



class TestProfiler:
    def test_section_accumulates(self):
        profiler = Profiler()
        section = profiler.section("work")
        for _ in range(3):
            with section:
                time.sleep(0.001)
        assert section.calls == 3
        assert section.total > 0.0
        assert section.min <= section.mean <= section.max

    def test_sections_memoized_and_sorted(self):
        profiler = Profiler()
        assert profiler.section("a") is profiler.section("a")
        with profiler.section("slow"):
            time.sleep(0.002)
        with profiler.section("fast"):
            pass
        assert profiler.sections()[0].name == "slow"
        assert profiler.total("missing") == 0.0


class TestNullImplementations:
    def test_null_metrics_record_nothing(self):
        registry = NullMetricsRegistry()
        registry.counter("a", kind="x").inc(5)
        registry.gauge("g").set(3)
        registry.histogram("h").observe(1.0)
        assert registry.as_dict() == {}
        assert registry.total("a") == 0.0

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        span = tracer.start("phase", at=1.0)
        span.finish(at=2.0)
        tracer.mark("m", at=3.0)
        tracer.event("e", at=4.0)
        assert tracer.spans == []
        assert tracer.marks == {}
        assert tracer.events == []

    def test_null_profiler_records_nothing(self):
        profiler = NullProfiler()
        with profiler.section("loop"):
            pass
        assert profiler.sections() == []

    def test_null_telemetry_is_disabled(self):
        assert null_telemetry().enabled is False
        assert Telemetry().enabled is True


class TestDefaultRegistry:
    def test_use_telemetry_swaps_and_restores(self):
        original = get_telemetry()
        replacement = null_telemetry()
        with use_telemetry(replacement):
            assert get_telemetry() is replacement
        assert get_telemetry() is original

    def test_simulator_uses_installed_default(self):
        scoped = Telemetry()
        with use_telemetry(scoped):
            sim = Simulator()
        assert sim.telemetry is scoped
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert scoped.metrics.value("sim.events_processed") == 1


class TestExport:
    def _sample_telemetry(self) -> Telemetry:
        telemetry = Telemetry()
        telemetry.metrics.counter("sent", kind="partial").inc(3)
        telemetry.metrics.gauge("depth").set(2)
        telemetry.metrics.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
        root = telemetry.tracer.start("execution", at=0.0, query_id="q")
        telemetry.tracer.start(
            "phase:collection", at=0.0, parent=root
        ).finish(at=4.0)
        root.finish(at=9.0)
        telemetry.tracer.mark("collection_end", at=4.0)
        telemetry.tracer.event("heartbeat", at=5.0, beat=1)
        with telemetry.profiler.section("loop"):
            pass
        return telemetry

    def test_jsonl_round_trip(self, tmp_path):
        telemetry = self._sample_telemetry()
        path = tmp_path / "metrics.jsonl"
        lines = write_jsonl(telemetry, path)
        records = read_jsonl(path)
        assert len(records) == lines
        assert records[0] == {"type": "header", "schema_version": 1}
        by_type = {}
        for record in records:
            by_type.setdefault(record["type"], []).append(record)
        counters = [
            r for r in by_type["metric"] if r["kind"] == "counter"
        ]
        assert counters == [
            {
                "type": "metric",
                "kind": "counter",
                "name": "sent",
                "labels": {"kind": "partial"},
                "value": 3.0,
            }
        ]
        span_names = {r["name"] for r in by_type["span"]}
        assert span_names == {"execution", "phase:collection"}
        assert by_type["mark"] == [
            {"type": "mark", "name": "collection_end", "time": 4.0}
        ]
        assert by_type["event"][0]["attributes"] == {"beat": 1}
        assert by_type["profile"][0]["section"] == "loop"

    def test_write_jsonl_to_stream(self):
        buffer = io.StringIO()
        lines = write_jsonl(self._sample_telemetry(), buffer)
        buffer.seek(0)
        assert len(read_jsonl(buffer)) == lines

    def test_records_count_matches_instruments(self):
        telemetry = self._sample_telemetry()
        records = list(telemetry_records(telemetry))
        # header + 1 counter + 1 gauge + 1 histogram + 2 spans + 1 mark
        # + 1 event + 1 profile section
        assert len(records) == 9

    def test_metrics_csv(self):
        csv = metrics_csv(self._sample_telemetry())
        lines = csv.strip().splitlines()
        assert lines[0] == "metric,value"
        assert "depth,2" in lines
        assert "sent{kind=partial},3" in lines

    def test_render_summary_mentions_key_sections(self):
        summary = render_summary(self._sample_telemetry())
        assert "counters:" in summary
        assert "phase:collection" in summary
        assert "simulated" in summary
        assert "profiler" in summary

    def test_render_summary_spans_every_execution(self):
        # a multi-query run: simulated time runs from the earliest
        # execution start to the latest execution end
        telemetry = Telemetry()
        telemetry.tracer.start("execution", at=1.0, query_id="a").finish(at=6.0)
        telemetry.tracer.start("execution", at=2.0, query_id="b").finish(at=36.0)
        telemetry.tracer.start("execution", at=3.0, query_id="c").finish(at=8.0)
        summary = render_summary(telemetry)
        assert "time: 35.0s simulated" in summary
        one = render_summary(self._sample_telemetry())
        assert "time: 9.0s simulated" in one
