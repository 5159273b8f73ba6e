"""The multi-query workload engine.

Runs a :class:`~repro.workload.spec.WorkloadSpec` — many concurrent
query executions — over **one** shared device population on one virtual
clock.  The pieces:

* a :class:`~repro.manager.scenario.Scenario` provides the swarm, the
  data deal-out, and the shared opportunistic network (switched into
  per-query RNG streams so each query's loss/latency draws are
  independent of interleaving) — and wires, concludes and
  chaos-instruments every execution (``launch`` / ``conclude`` /
  ``install_chaos``); the engine owns only admission, leasing, the mux
  endpoint, the per-query seed and completion scheduling;
* a :class:`~repro.network.mux.QueryMux` gives every execution a
  query-scoped endpoint, so dispatches, dedup tables, watchdogs, and
  retransmissions of interleaved queries never touch each other;
* an :class:`~repro.manager.admission.AdmissionController` bounds
  concurrency (queue, then shed) and a
  :class:`~repro.manager.admission.DeviceLeaseRegistry` guarantees no
  device holds two exclusive data-processor roles at once — a device
  contributes to many queries but computes/combines for at most one;
* every completed query is fingerprinted
  (:func:`~repro.workload.fingerprint.report_fingerprint`), which is
  what :func:`serial_fingerprints` compares against solo replays to
  certify that concurrency changed *nothing* about any single query.

Determinism: arrival times, strategy choices, per-query seeds, leases
(drawn from a deterministic free list), and every simulator event are
pure functions of the spec and swarm parameters — two runs of the same
workload produce byte-identical per-query report fingerprints.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.core.planner import (
    PrivacyParameters,
    ResiliencyParameters,
)
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.manager.admission import (
    ADMITTED,
    QUEUED,
    AdmissionController,
    DeviceLeaseRegistry,
)
from repro.manager.scenario import Scenario, ScenarioConfig
from repro.network.mux import QueryMux
from repro.plan.compile import CompiledQuery, compile_query
from repro.plan.logical import LogicalPlan
from repro.plan.rules import apply_rules
from repro.workload.fingerprint import report_fingerprint
from repro.workload.spec import QueryArrival, WorkloadSpec

__all__ = [
    "QueryRecord",
    "WorkloadResult",
    "WorkloadEngine",
    "serial_fingerprints",
]

COMPLETED = "completed"
SHED = "shed"


@dataclass
class QueryRecord:
    """Lifecycle record of one arrival, from offer to terminal state.

    ``outcome`` ends as ``"completed"`` (the execution ran to its
    horizon; inspect ``report.success``/``report.degraded`` for the
    query-level verdict) or ``"shed"`` (rejected at admission, or
    admitted but unplaceable on the leased-out swarm).
    """

    arrival: QueryArrival
    outcome: str = "pending"
    arrived_at: float | None = None
    started_at: float | None = None
    finished_at: float | None = None
    leased: list[str] = field(default_factory=list)
    standbys: list[str] = field(default_factory=list)
    report: Any = None
    fingerprint: str | None = None
    #: the launched execution
    #: (:class:`~repro.manager.scenario.ScenarioResult`)
    result: Any = None

    @property
    def latency(self) -> float | None:
        """Arrival-to-result-delivery virtual latency (queue included)."""
        if self.arrived_at is None:
            return None
        end = None
        if self.report is not None and self.report.completion_time is not None:
            end = self.report.completion_time
        elif self.finished_at is not None:
            end = self.finished_at
        if end is None:
            return None
        return end - self.arrived_at


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of a pre-sorted non-empty list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class WorkloadResult:
    """Outcome of one workload run."""

    spec: WorkloadSpec
    records: list[QueryRecord]
    elapsed: float
    arrivals: int
    admitted: int
    queued: int
    shed: int
    completed: int
    succeeded: int
    degraded: int
    latency_percentiles: dict[str, float]
    utilization: float

    @property
    def throughput(self) -> float:
        """Completed queries per virtual second."""
        return self.completed / self.elapsed if self.elapsed > 0 else 0.0

    def fingerprints(self) -> dict[str, str]:
        """query_id -> canonical report fingerprint, completed only."""
        return {
            r.arrival.query_id: r.fingerprint
            for r in self.records
            if r.fingerprint is not None
        }

    def summary(self) -> dict[str, Any]:
        return {
            "arrivals": self.arrivals,
            "admitted": self.admitted,
            "queued": self.queued,
            "shed": self.shed,
            "completed": self.completed,
            "succeeded": self.succeeded,
            "degraded": self.degraded,
            "elapsed": self.elapsed,
            "throughput": self.throughput,
            "utilization": self.utilization,
            **{f"latency_{k}": v for k, v in self.latency_percentiles.items()},
        }


class WorkloadEngine:
    """Drives one workload over one shared swarm.

    Args:
        spec: the workload description.
        n_contributors / n_processors: swarm sizing.
        rows / schema: the shared dataset; defaults to synthetic health
            rows sized to the contributor pool.
        telemetry: recording target; defaults to the process instance.
        scenario_tag: device-identity prefix (defaults to
            ``wl{spec.seed}``, making identities a pure function of the
            spec — required for serial replays).
        standby_count: extra devices leased per reliable query as the
            recovery watchdog's re-recruitment pool.
        **scenario: any other :class:`ScenarioConfig` field, forwarded
            verbatim — fault sources (installed once over the whole
            workload, see :mod:`repro.chaos.workload`) and execution
            options (``secure_channels``, ``detector``, ``fencing``,
            ``phase_deadline``).  The fields this engine derives from
            ``spec`` (``reliability``, ``collection_window``,
            ``deadline``, ``seed``) raise ``TypeError`` if passed again.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        n_contributors: int = 30,
        n_processors: int = 60,
        rows: list[dict[str, Any]] | None = None,
        schema: Any = None,
        telemetry: Any = None,
        scenario_tag: str | None = None,
        standby_count: int = 0,
        **scenario: Any,
    ):
        if telemetry is None:
            from repro.telemetry import get_telemetry

            telemetry = get_telemetry()
        self.telemetry = telemetry
        self.spec = spec
        self.standby_count = standby_count if spec.reliability else 0
        if rows is None:
            rows = generate_health_rows(2 * n_contributors, seed=spec.seed)
        if schema is None:
            schema = HEALTH_SCHEMA
        self.scenario_config = ScenarioConfig(
            n_contributors=n_contributors,
            n_processors=n_processors,
            rows=rows,
            schema=schema,
            device_mix=(1.0, 0.0, 0.0),
            collection_window=spec.collection_window,
            deadline=spec.deadline,
            seed=spec.seed,
            scenario_tag=scenario_tag or f"wl{spec.seed}",
            reliability=spec.reliability,
            **scenario,
        )
        self.scenario = Scenario(self.scenario_config, telemetry=telemetry)
        self.scenario.network.per_query_rng = True
        self.mux = QueryMux(self.scenario.network)
        self.registry = DeviceLeaseRegistry(
            clock=lambda: self.scenario.simulator.now
        )
        self.admission = AdmissionController(
            spec.max_concurrent, spec.queue_capacity, telemetry=telemetry
        )
        self.logical, _ = apply_rules(LogicalPlan.from_sql(spec.sql))
        self.group_by = self.logical.to_group_by()
        self.processor_pool = self.scenario.eligible_processor_ids()
        self._records: dict[str, QueryRecord] = {}
        self._pending: deque[QueryArrival] = deque()
        self._g_in_flight = telemetry.metrics.gauge("workload.in_flight")
        self._h_latency = telemetry.metrics.histogram("workload.query_latency")

    # -- the run --------------------------------------------------------------

    def run(self) -> WorkloadResult:
        """Execute the whole workload; returns once the swarm is idle."""
        sim = self.scenario.simulator
        start = sim.now
        arrivals = self.spec.arrivals()
        self._records = {a.query_id: QueryRecord(arrival=a) for a in arrivals}
        open_loop_span = max(
            (a.at for a in arrivals if a.at is not None), default=0.0
        )
        # kept for the shrinker: it carries the atoms an outage_spec
        # resolved to, which the event log alone cannot express
        self.installed_plan = self.scenario.install_chaos(
            until=open_loop_span + 3 * self.spec.deadline
        )
        if self.spec.arrival_process == "closed":
            self._pending = deque(arrivals)
            prime = min(self.spec.target_in_flight, len(arrivals))
            for _ in range(prime):
                arrival = self._pending.popleft()
                sim.schedule_at(
                    start,
                    lambda a=arrival: self._on_arrival(a),
                    f"workload-arrival:{arrival.query_id}",
                )
        else:
            for arrival in arrivals:
                sim.schedule_at(
                    start + arrival.at,
                    lambda a=arrival: self._on_arrival(a),
                    f"workload-arrival:{arrival.query_id}",
                )
        sim.run()
        return self._finalize(start)

    # -- arrival / launch / completion ---------------------------------------

    def _on_arrival(self, arrival: QueryArrival) -> None:
        record = self._records[arrival.query_id]
        record.arrived_at = self.scenario.simulator.now
        decision = self.admission.offer(arrival.query_id)
        if decision == ADMITTED:
            self._launch(record)
        elif decision == QUEUED:
            record.outcome = "queued"
        else:
            record.outcome = SHED

    def compile(self, query_id: str, strategy: str) -> CompiledQuery:
        """Compile one arrival through the shared plan pipeline (the
        workload's logical plan is parsed and rewritten once)."""
        return compile_query(
            self.logical,
            query_id=query_id,
            snapshot_cardinality=self.spec.snapshot_cardinality,
            privacy=PrivacyParameters(
                max_raw_per_edgelet=self.spec.max_raw_per_edgelet
            ),
            resiliency=ResiliencyParameters(
                fault_rate=self.spec.fault_rate,
                target_success=self.spec.target_success,
                strategy=strategy,
            ),
        )

    def _launch(self, record: QueryRecord) -> None:
        sim = self.scenario.simulator
        arrival = record.arrival
        query_id = arrival.query_id
        compiled = self.compile(query_id, arrival.strategy)
        plan = compiled.build_qep(
            contributor_ids=[
                d.device_id for d in self.scenario.contributors
            ]
        )
        lease = self.registry.lease_plan(
            query_id, plan, self.processor_pool, self.standby_count
        )
        if lease is None:
            # the swarm is leased out: convert the admission into a shed
            record.outcome = SHED
            self._after_slot_freed(self.admission.abort(query_id))
            return
        record.leased, record.standbys = lease
        record.result = self.scenario.launch(
            compiled,
            plan,
            processor_ids=record.leased,
            standbys=record.standbys,
            network=self.mux.endpoint(query_id),
            seed=arrival.seed,
        )
        record.started_at = sim.now
        record.outcome = "running"
        horizon = record.result.executor.start()
        sim.schedule_at(
            horizon,
            lambda: self._on_complete(record),
            f"workload-finish:{query_id}",
        )
        self._g_in_flight.set(self.admission.in_flight)

    def _on_complete(self, record: QueryRecord) -> None:
        sim = self.scenario.simulator
        query_id = record.arrival.query_id
        report = self.scenario.conclude(record.result)
        self.mux.detach_query(query_id)
        self.registry.release(query_id)
        record.report = report
        record.finished_at = sim.now
        record.outcome = COMPLETED
        record.fingerprint = report_fingerprint(
            report, base_time=record.result.executor.start_time
        )
        latency = record.latency
        if latency is not None:
            self._h_latency.observe(latency)
        self._after_slot_freed(self.admission.complete(query_id))
        self._g_in_flight.set(self.admission.in_flight)

    def _after_slot_freed(self, drained_query_id: str | None) -> None:
        """A slot opened: launch the drained queued query, then feed the
        closed loop one more arrival."""
        if drained_query_id is not None:
            self._launch(self._records[drained_query_id])
        if self._pending and self.admission.in_flight < self.spec.target_in_flight:
            arrival = self._pending.popleft()
            self._on_arrival(arrival)

    # -- wrap-up --------------------------------------------------------------

    def _finalize(self, start: float) -> WorkloadResult:
        records = [self._records[a.query_id] for a in self.spec.arrivals()]
        stuck = [
            r.arrival.query_id
            for r in records
            if r.outcome not in (COMPLETED, SHED)
        ]
        if stuck:
            raise RuntimeError(
                f"workload ended with non-terminal queries: {stuck}"
            )
        elapsed = self.scenario.simulator.now - start
        latencies = sorted(
            r.latency
            for r in records
            if r.outcome == COMPLETED and r.latency is not None
        )
        percentiles = (
            {
                "p50": _percentile(latencies, 0.50),
                "p95": _percentile(latencies, 0.95),
                "p99": _percentile(latencies, 0.99),
            }
            if latencies
            else {}
        )
        utilization = self.registry.utilization(self.processor_pool, elapsed)
        self.telemetry.metrics.gauge("workload.device_utilization").set(
            utilization
        )
        completed = [r for r in records if r.outcome == COMPLETED]
        return WorkloadResult(
            spec=self.spec,
            records=records,
            elapsed=elapsed,
            arrivals=self.admission.arrivals,
            admitted=self.admission.admitted,
            queued=self.admission.queued,
            shed=self.admission.shed,
            completed=self.admission.completed,
            succeeded=sum(1 for r in completed if r.report.success),
            degraded=sum(1 for r in completed if r.report.degraded),
            latency_percentiles=percentiles,
            utilization=utilization,
        )


def serial_fingerprints(
    engine: WorkloadEngine, result: WorkloadResult, telemetry: Any = None
) -> dict[str, str]:
    """Replay every completed query *alone* and fingerprint each replay.

    Builds a fresh scenario from the engine's config — device identities
    are a pure function of ``(scenario_tag, seed)``, so the solo swarm
    is the workload swarm — and runs each completed query on an
    otherwise idle clock with its recorded leased devices, plan seed,
    and (under reliability) transport seed.  The returned map is
    directly comparable to ``result.fingerprints()``: equality means
    concurrency changed nothing about that query.

    Only meaningful for chaos-free workloads — under injected faults the
    solo run sees a different fault schedule and equality is not
    expected.
    """
    if telemetry is None:
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
    scenario = Scenario(engine.scenario_config, telemetry=telemetry)
    scenario.network.per_query_rng = True
    sim = scenario.simulator
    fingerprints: dict[str, str] = {}
    for record in result.records:
        if record.outcome != COMPLETED:
            continue
        sim.reset()
        scenario.network.reset()
        mux = QueryMux(scenario.network)
        arrival = record.arrival
        compiled = engine.compile(arrival.query_id, arrival.strategy)
        plan = compiled.build_qep(
            contributor_ids=[d.device_id for d in scenario.contributors]
        )
        solo = scenario.launch(
            compiled,
            plan,
            processor_ids=record.leased,
            standbys=record.standbys,
            network=mux.endpoint(arrival.query_id),
            seed=arrival.seed,
        )
        sim.run_until(solo.executor.start())
        fingerprints[arrival.query_id] = report_fingerprint(
            scenario.conclude(solo), base_time=solo.executor.start_time
        )
    return fingerprints
