"""Golden renderings of seeded executions' step-by-step records.

For each seeded run below, the full rendered ``report.trace``, the
``report.reprovisions`` history, the takeover / fire / arrival evidence
records, ``phase_timeline`` and the report fingerprint are compared
against ``tests/golden/execution_events.json``.  Together the runs reach
every trace line a scenario can produce in a few seconds: a plain
Overcollection run (also run without telemetry), sealed channels with
corrupted envelopes, reliable transport with the failure detector and
watchdog reprovisions, Backup with takeovers and a rank dead at the end
of collection, reliable transport under disconnections (a combiner with
nothing to finalize), k-means with cluster statistics, and a small
swarm whose partitions collect no rows.

Regenerate with ``PYTHONPATH=src python -m tests.test_event_golden``
only when a change to what an execution records is intentional.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.chaos.campaign import RunSpec, TopologySpec, run_single
from repro.core.planner import PrivacyParameters, QuerySpec, ResiliencyParameters
from repro.core.resiliency import replicas_for
from repro.core.runtime.events import EventKind, of_kind
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.manager.scenario import Scenario, ScenarioConfig
from repro.manager.trace import phase_timeline
from repro.network.faults import FaultSpec
from repro.network.outages import OutageSpec
from repro.query.aggregates import AggregateSpec
from repro.query.groupby import GroupByQuery
from repro.telemetry import Telemetry, null_telemetry
from repro.workload.fingerprint import report_fingerprint
from tests.evidence_logs import arrivals, fires, takeovers

GOLDEN_PATH = Path(__file__).parent / "golden" / "execution_events.json"

SPECS = {
    "plain": RunSpec(seed=2, tag="gold-plain"),
    "sealed-corrupted": RunSpec(
        seed=0, tag="gold-sealed", secure_channels=True,
        fault_specs=(FaultSpec(kinds=("contribution",), corrupt_probability=0.3),),
    ),
    "reliable-detector": RunSpec(
        seed=21, tag="gold-det", reliability=True, detector=True,
        topology=TopologySpec(n_contributors=24, n_processors=14, n_rows=48),
        outage_spec=OutageSpec(
            partition_probability=0.5, gray_probability=0.3,
            region_crash_probability=0.3,
        ),
    ),
    "backup": RunSpec(
        seed=2, tag="gold-bk", replicas=replicas_for("backup"),
        reliability=True, crash_probability=0.004,
    ),
    "reliable-disconnects": RunSpec(
        seed=0, tag="gold-disc", reliability=True,
        disconnect_probability=0.2, disconnect_duration=30.0,
    ),
    "small-swarm": RunSpec(
        seed=0, tag="gold-small",
        topology=TopologySpec(n_contributors=4, n_processors=12, n_rows=6),
    ),
}


def _kmeans_result():
    """A k-means execution whose combiner also groups by cluster."""
    scenario = Scenario(
        ScenarioConfig(
            n_contributors=40,
            n_processors=15,
            rows=generate_health_rows(80, seed=6),
            schema=HEALTH_SCHEMA,
            device_mix=(1.0, 0.0, 0.0),
            seed=6,
            scenario_tag="gold-km",
        ),
        telemetry=Telemetry(),
    )
    spec = QuerySpec(
        query_id="gold-km-q",
        kind="kmeans",
        snapshot_cardinality=60,
        kmeans_k=2,
        feature_columns=("bmi", "systolic_bp", "glucose"),
        heartbeats=3,
        group_by=GroupByQuery(
            grouping_sets=((),),
            aggregates=(AggregateSpec("count"), AggregateSpec("avg", "age")),
        ),
    )
    return scenario.run_query(
        spec,
        privacy=PrivacyParameters(max_raw_per_edgelet=30),
        resiliency=ResiliencyParameters(fault_rate=0.15),
    )


RUNS = {
    **{
        name: (lambda spec=spec: run_single(spec).result)
        for name, spec in SPECS.items()
    },
    "plain-untraced": lambda: run_single(
        SPECS["plain"], telemetry=null_telemetry()
    ).result,
    "kmeans-cluster-stats": _kmeans_result,
}


def renderings(result) -> dict:
    """Everything pinned of one concluded execution, JSON-shaped."""
    report, evidence = result.report, result.evidence
    document = {
        "fingerprint": report_fingerprint(report, base_time=evidence.start_time),
        "trace": report.trace,
        "reprovisions": report.reprovisions,
        "takeovers": takeovers(evidence),
        "fires": fires(evidence),
        "arrivals": arrivals(evidence),
        "phase_timeline": phase_timeline(report),
    }
    return json.loads(json.dumps(document))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_run_is_pinned(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_renderings_match_golden(name, golden):
    assert renderings(RUNS[name]()) == golden[name]


def test_untraced_run_renders_like_the_traced_one(golden):
    assert golden["plain-untraced"] == golden["plain"]


def test_an_unrecoverable_cell_is_given_up_once():
    # every watchdog pass runs after collection ends, so a partition
    # with no retained rows stays unrecoverable: one check says so
    events = RUNS["reliable-disconnects"]().report.events
    given_up = [
        event.op for event in of_kind(events, EventKind.NO_RETAINED_PARTITION)
    ]
    assert given_up
    assert len(given_up) == len(set(given_up))
    fired = [event.op for event in of_kind(events, EventKind.WATCHDOG_FIRED)]
    assert all(fired.count(op) == 1 for op in given_up)


if __name__ == "__main__":
    document = {name: renderings(run()) for name, run in sorted(RUNS.items())}
    GOLDEN_PATH.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    sys.exit(0)
