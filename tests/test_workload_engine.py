"""Tests for the concurrent workload engine.

Covers the tentpole guarantees: bounded concurrency with queue/shed
accounting, exclusive device leasing across interleaved executions,
deterministic replays (same seed ⇒ byte-identical per-query report
fingerprints), serial equivalence of a 25-query fully-concurrent
workload over a 200+-device swarm (the acceptance bar), and cumulative
Crowd Liability over the whole set of queries.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.liability import measure_liability
from repro.data.health import generate_health_rows
from repro.telemetry import Telemetry
from repro.workload import (
    WorkloadEngine,
    WorkloadSpec,
    serial_fingerprints,
)


def _run(spec: WorkloadSpec, **engine_kwargs):
    engine_kwargs.setdefault("n_contributors", 24)
    engine_kwargs.setdefault("n_processors", 40)
    engine_kwargs.setdefault("telemetry", Telemetry())
    engine = WorkloadEngine(spec, **engine_kwargs)
    return engine, engine.run()


def _overlap_bound(records) -> int:
    """Max number of executions simultaneously running."""
    events = []
    for record in records:
        if record.outcome != "completed":
            continue
        events.append((record.started_at, 1))
        events.append((record.finished_at, -1))
    worst = current = 0
    for _, delta in sorted(events):
        current += delta
        worst = max(worst, current)
    return worst


class TestOpenLoop:
    def test_poisson_workload_completes(self):
        spec = WorkloadSpec(
            n_queries=8, arrival_process="poisson", arrival_rate=2.0,
            max_concurrent=4, queue_capacity=8, seed=11,
        )
        engine, result = _run(spec)
        assert result.completed == 8
        assert result.succeeded == 8
        assert result.shed == 0
        assert result.shed + result.completed == result.arrivals
        assert result.latency_percentiles["p50"] > 0
        assert (
            result.latency_percentiles["p50"]
            <= result.latency_percentiles["p95"]
            <= result.latency_percentiles["p99"]
        )
        assert 0 < result.utilization <= 1

    def test_concurrency_cap_is_respected(self):
        spec = WorkloadSpec(
            n_queries=10, arrival_process="uniform", arrival_rate=4.0,
            max_concurrent=3, queue_capacity=10, seed=5,
        )
        engine, result = _run(spec)
        assert result.completed == 10
        assert _overlap_bound(result.records) <= 3

    def test_overload_sheds_and_conserves(self):
        spec = WorkloadSpec(
            n_queries=10, arrival_process="uniform", arrival_rate=50.0,
            max_concurrent=2, queue_capacity=1, seed=5,
        )
        engine, result = _run(spec)
        assert result.shed > 0
        assert result.shed + result.completed == result.arrivals
        for record in result.records:
            assert record.outcome in ("completed", "shed")

    def test_resource_exhaustion_sheds_instead_of_deadlocking(self):
        # pool of 10 processors, each query needs ~8: the second
        # concurrent query cannot be placed and must be shed
        spec = WorkloadSpec(
            n_queries=4, arrival_process="uniform", arrival_rate=20.0,
            max_concurrent=4, queue_capacity=0, seed=5,
        )
        engine, result = _run(spec, n_processors=10)
        assert result.completed >= 1
        assert result.shed >= 1
        assert result.shed + result.completed == result.arrivals


class TestClosedLoop:
    def test_keeps_target_in_flight(self):
        spec = WorkloadSpec(
            n_queries=9, arrival_process="closed", target_in_flight=3,
            max_concurrent=4, queue_capacity=4, seed=6,
        )
        engine, result = _run(spec)
        assert result.completed == 9
        assert _overlap_bound(result.records) == 3


class TestIsolation:
    def test_no_device_holds_two_exclusive_roles_at_once(self):
        spec = WorkloadSpec(
            n_queries=8, arrival_process="uniform", arrival_rate=4.0,
            max_concurrent=4, queue_capacity=8, seed=13,
        )
        engine, result = _run(spec)
        completed = [r for r in result.records if r.outcome == "completed"]
        for i, a in enumerate(completed):
            for b in completed[i + 1 :]:
                overlap = (
                    a.started_at < b.finished_at
                    and b.started_at < a.finished_at
                )
                if overlap:
                    shared = set(a.leased) & set(b.leased)
                    assert not shared, (
                        f"{a.arrival.query_id} and {b.arrival.query_id} "
                        f"shared exclusive devices {shared}"
                    )

    def test_stale_traffic_never_reaches_other_queries(self):
        spec = WorkloadSpec(
            n_queries=8, arrival_process="poisson", arrival_rate=2.0,
            max_concurrent=4, queue_capacity=8, seed=11,
        )
        engine, result = _run(spec)
        # a clean fully-delivered workload routes everything it delivers
        # while queries are live; whatever straggles past a detach is
        # counted, never delivered across queries — and reports stay
        # per-query correct (every one succeeded on its own data)
        assert result.succeeded == result.completed
        for record in result.records:
            assert record.report.query_id == record.arrival.query_id

    def test_per_query_telemetry_labels(self):
        telemetry = Telemetry()
        spec = WorkloadSpec(
            n_queries=4, arrival_process="poisson", arrival_rate=2.0,
            max_concurrent=4, queue_capacity=4, seed=3,
        )
        engine, result = _run(spec, telemetry=telemetry)
        metrics = telemetry.metrics
        # unlabelled aggregate kept for compatibility...
        assert metrics.value("scenario.queries_run") == 4
        # ...and a query-labelled sibling identifies each execution
        for record in result.records:
            qid = record.arrival.query_id
            assert metrics.value("scenario.queries_run", query=qid) == 1
            assert metrics.value("scenario.queries_succeeded", query=qid) == 1
        assert metrics.value("workload.arrivals") == 4
        assert metrics.value("workload.completed") == 4


class TestDeterminism:
    def test_same_seed_byte_identical_fingerprints(self):
        spec = WorkloadSpec(
            n_queries=8, arrival_process="poisson", arrival_rate=2.0,
            max_concurrent=4, queue_capacity=8, seed=17,
        )
        _, first = _run(spec)
        _, second = _run(spec)
        assert first.fingerprints() == second.fingerprints()
        assert list(first.fingerprints()) == list(second.fingerprints())
        assert first.summary() == second.summary()

    def test_different_seed_changes_the_workload(self):
        base = dict(
            n_queries=8, arrival_process="poisson", arrival_rate=2.0,
            max_concurrent=4, queue_capacity=8,
        )
        _, first = _run(WorkloadSpec(seed=17, **base))
        _, second = _run(WorkloadSpec(seed=18, **base))
        assert first.fingerprints() != second.fingerprints()


class TestSerialEquivalence:
    def test_small_mixed_strategy_workload(self):
        spec = WorkloadSpec(
            n_queries=6, arrival_process="poisson", arrival_rate=2.0,
            max_concurrent=4, queue_capacity=8, backup_fraction=0.5, seed=7,
        )
        engine, result = _run(spec)
        workload = result.fingerprints()
        solo = serial_fingerprints(engine, result)
        assert workload == solo

    def test_reliability_workload_matches_serial(self):
        spec = WorkloadSpec(
            n_queries=5, arrival_process="poisson", arrival_rate=2.0,
            max_concurrent=3, queue_capacity=8, reliability=True, seed=9,
        )
        engine, result = _run(spec, standby_count=2)
        assert result.completed == 5
        workload = result.fingerprints()
        solo = serial_fingerprints(engine, result)
        assert workload == solo

    def test_acceptance_25_concurrent_queries_over_200_devices(self):
        """ISSUE 5 acceptance bar: >= 25 genuinely concurrent queries
        on a >= 200-device swarm, each byte-equal to its solo run."""
        spec = WorkloadSpec(
            n_queries=25, arrival_process="closed", target_in_flight=25,
            max_concurrent=25, queue_capacity=0, seed=42,
        )
        engine = WorkloadEngine(
            spec, n_contributors=30, n_processors=210, telemetry=Telemetry()
        )
        result = engine.run()
        assert len(engine.scenario.devices) >= 200
        assert result.completed == 25
        assert result.succeeded == 25
        # genuinely concurrent: all 25 in flight at once
        assert _overlap_bound(result.records) == 25
        workload = result.fingerprints()
        solo = serial_fingerprints(engine, result)
        assert workload == solo


def _survey(n_queries: int, in_flight: int, n_processors: int = 40):
    """Health-survey queries, ``in_flight`` at a time, over one swarm."""
    spec = WorkloadSpec(
        n_queries=n_queries, arrival_process="closed",
        target_in_flight=in_flight, max_concurrent=in_flight,
        queue_capacity=0, seed=13, snapshot_cardinality=60,
        max_raw_per_edgelet=30, collection_window=15.0, deadline=50.0,
    )
    return _run(
        spec, n_contributors=40, n_processors=n_processors,
        rows=generate_health_rows(80, seed=13),
    )[1]


def _roles(record) -> dict[str, str]:
    """Data-processor operator -> the device it ran on, as the concluded
    unit's evidence kept it."""
    return dict(record.evidence.processors)


class TestCumulativeLiability:
    """Crowd Liability is a property of a *set* of queries."""

    def test_sequential_queries_succeed(self):
        result = _survey(n_queries=3, in_flight=1)
        assert result.completed == 3
        assert result.succeeded == 3
        assert result.liability.operators_per_device

    def test_assignment_reshuffles_across_queries(self):
        # one query at a time leases the same free devices, and the
        # hash-ranked assignment deals the roles anew per query id
        result = _survey(n_queries=3, in_flight=1)
        roles = [_roles(record) for record in result.records]
        assert roles[0] != roles[1] or roles[1] != roles[2]

    def test_cumulative_liability_spreads(self, launched_plans):
        result = _survey(n_queries=4, in_flight=4, n_processors=60)
        # over 4 queries, many distinct devices carry the processing
        summary = result.summary()
        assert summary["liability_participants"] > 10
        assert summary["liability_max_share"] < 0.2
        # the counts summed at conclusion are the plans' own
        assert len(launched_plans) == result.completed == 4
        assert result.liability == measure_liability(*launched_plans)

    def test_empty_run_carries_no_liability(self):
        liability = measure_liability()
        assert liability.operators_per_device == {}
        assert liability.gini_operators == 0.0
        assert liability.max_share == 0.0


def _digest(mapping: dict) -> str:
    document = "\n".join(f"{k}:{v}" for k, v in sorted(mapping.items()))
    return hashlib.sha256(document.encode()).hexdigest()[:16]


class TestConcludedUnits:
    """A concluded query keeps its report and evidence, and its
    execution and plan are freed by reference counting alone when it
    concludes: the engine's heap follows the queries in flight, not the
    queries served.  What the run reports is unchanged (pinned values)."""

    # (liability participants, gini, max share, operators digest,
    #  fingerprints digest), per leg
    PINS = {
        "plain": (32, 0.0, 0.03125, "22a8bef011547dfd", "3b5ba11d36cf0bdd"),
        "reliable": (32, 0.0, 0.03125, "96063d9023b9d65e", "13f097d72cf5a3ff"),
    }

    @pytest.mark.parametrize("leg", ["plain", "reliable"])
    def test_no_concluded_execution_stays_reachable(
        self, leg, launched_executors
    ):
        reliable = leg == "reliable"
        spec = WorkloadSpec(
            n_queries=8, arrival_process="closed", target_in_flight=4,
            max_concurrent=4, queue_capacity=0, seed=13,
            snapshot_cardinality=60, max_raw_per_edgelet=30,
            collection_window=15.0, deadline=50.0, reliability=reliable,
        )
        engine, result = _run(
            spec, n_contributors=40, n_processors=60,
            rows=generate_health_rows(80, seed=13),
            **(dict(standby_count=1, detector=True) if reliable else {}),
        )
        assert result.completed == len(launched_executors) == 8
        assert launched_executors.plans_alive() == 0
        assert launched_executors.alive() == 0
        assert all(
            record.result is None and record.evidence is not None
            for record in result.records
        )
        liability = result.liability
        assert (
            len(liability.operators_per_device),
            liability.gini_operators,
            liability.max_share,
            _digest(liability.operators_per_device),
            _digest(result.fingerprints()),
        ) == self.PINS[leg]

        launched_executors.clear()
        solo = serial_fingerprints(engine, result)
        assert len(launched_executors) == 8
        assert launched_executors.plans_alive() == 0
        assert launched_executors.alive() == 0
        assert solo == result.fingerprints()
