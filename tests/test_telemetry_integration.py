"""End-to-end telemetry: a full scenario run must populate the metric,
span, and profiler planes, and the structured phase boundaries must
agree with the legacy text-trace heuristics they replace."""

from __future__ import annotations

import pytest

from repro.core.planner import PrivacyParameters, QuerySpec, ResiliencyParameters
from repro.core.resiliency import replicas_for
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.manager.scenario import Scenario, ScenarioConfig
from repro.manager.trace import phase_timeline
from repro.query.sql import parse_query
from repro.telemetry import Telemetry, read_jsonl, render_summary, write_jsonl

SQL = "SELECT count(*), avg(age) FROM health GROUP BY region"


def _run_scenario(telemetry: Telemetry, strategy: str = "overcollection"):
    """A bench_part2-style aggregate execution on a small swarm."""
    config = ScenarioConfig(
        n_contributors=60,
        n_processors=20,
        rows=generate_health_rows(120, seed=7),
        schema=HEALTH_SCHEMA,
        device_mix=(1.0, 0.0, 0.0),
        collection_window=20.0,
        deadline=70.0,
        secure_channels=False,
        seed=7,
    )
    scenario = Scenario(config, telemetry=telemetry)
    spec = QuerySpec(
        query_id="telemetry-it",
        kind="aggregate",
        snapshot_cardinality=100,
        group_by=parse_query(SQL).query,
    )
    result = scenario.run_query(
        spec,
        privacy=PrivacyParameters(max_raw_per_edgelet=40),
        resiliency=ResiliencyParameters(
            fault_rate=0.1, replicas=replicas_for(strategy)
        ),
    )
    return scenario, result


def _legacy_timeline(report):
    """The pre-telemetry substring heuristics, reimplemented verbatim."""
    collection_end = None
    computation_start = None
    for time, message in report.trace:
        if collection_end is None and "snapshot frozen" in message:
            collection_end = time
        if computation_start is None and (
            "initialized K-Means" in message or "partial" in message
        ):
            computation_start = time
    return {
        "collection_end": collection_end,
        "computation_start": computation_start,
        "completion": report.completion_time,
    }


@pytest.fixture(scope="module")
def scenario_run():
    telemetry = Telemetry()
    scenario, result = _run_scenario(telemetry)
    assert result.report.success
    return telemetry, scenario, result


class TestMetricsPlane:
    def test_message_counters_match_network_stats(self, scenario_run):
        telemetry, scenario, _ = scenario_run
        metrics = telemetry.metrics
        stats = scenario.network.stats
        assert stats.delivered > 0
        assert metrics.value("net.messages_delivered") == stats.delivered
        assert metrics.total("net.messages_sent") == stats.sent
        assert metrics.value("net.bytes_delivered") == stats.bytes_delivered

    def test_sent_counter_is_labeled_by_kind(self, scenario_run):
        telemetry, scenario, _ = scenario_run
        for kind, count in scenario.network.stats.by_kind.items():
            assert telemetry.metrics.value("net.messages_sent", kind=kind) == count

    def test_phase_counters_are_nonzero(self, scenario_run):
        telemetry, _, result = scenario_run
        query = result.report.query_id
        metrics = telemetry.metrics
        assert metrics.value("exec.contributions_accepted", query=query) > 0
        assert metrics.value("exec.snapshots_frozen", query=query) > 0
        assert metrics.value("exec.partials_recorded", query=query) > 0
        assert metrics.value("exec.final_results", query=query) == 1
        assert metrics.value("scenario.queries_succeeded") == 1

    def test_simulator_counters_are_nonzero(self, scenario_run):
        telemetry, scenario, _ = scenario_run
        processed = telemetry.metrics.value("sim.events_processed")
        assert processed == scenario.simulator.processed > 0


class TestTracePlane:
    def test_structured_timeline_matches_legacy_heuristics(self, scenario_run):
        _, _, result = scenario_run
        report = result.report
        assert report.phase_spans
        assert phase_timeline(report) == _legacy_timeline(report)

    def test_span_nesting_scenario_to_phase(self, scenario_run):
        telemetry, _, _ = scenario_run
        tracer = telemetry.tracer
        scenario_span = tracer.first("scenario")
        execution = tracer.first("execution")
        collection = tracer.first("phase:collection")
        assert execution.parent_id == scenario_span.span_id
        assert collection.parent_id == execution.span_id
        assert collection.start == execution.start
        assert collection.end <= execution.end

    def test_backup_strategy_also_records_phases(self):
        telemetry = Telemetry()
        _, result = _run_scenario(telemetry, strategy="backup")
        assert result.report.success
        assert phase_timeline(result.report) == _legacy_timeline(result.report)


class TestProfilerPlane:
    def test_wall_clock_separated_from_simulated_time(self, scenario_run):
        telemetry, scenario, _ = scenario_run
        loop_wall = telemetry.profiler.total("sim.event_loop")
        assert loop_wall > 0.0
        # The modeled timeline is tens of virtual seconds; the event loop
        # burns far less host wall-clock than that.
        assert scenario.simulator.now > 1.0
        assert loop_wall < scenario.simulator.now

    def test_operator_sections_recorded(self, scenario_run):
        telemetry, _, _ = scenario_run
        aggregate = telemetry.profiler.section("operator.aggregate")
        assert aggregate.calls > 0


class TestExportSurface:
    def test_jsonl_export_contains_phase_spans(self, scenario_run, tmp_path):
        telemetry, _, _ = scenario_run
        path = tmp_path / "run.jsonl"
        write_jsonl(telemetry, path)
        records = read_jsonl(path)
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert {"scenario", "execution", "phase:collection",
                "phase:computation", "phase:combination"} <= span_names
        kinds = {r["kind"] for r in records if r["type"] == "metric"}
        assert {"counter", "gauge", "histogram"} <= kinds
        assert any(r["type"] == "profile" for r in records)

    def test_render_summary_on_real_run(self, scenario_run):
        telemetry, _, _ = scenario_run
        summary = render_summary(telemetry)
        assert "simulated" in summary
        assert "net.messages_delivered" in summary
        assert "phase:collection" in summary
