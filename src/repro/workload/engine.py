"""The one multi-query driver, and the workload engine on it.

Every multi-query run — a workload of query arrivals
(:class:`WorkloadEngine`), a standing query whose arrivals are windows
at fixed times (:class:`repro.continuous.engine.ContinuousEngine`), and
the solo replays of :func:`serial_fingerprints` — is a
:class:`MultiQueryEngine`: one :class:`~repro.manager.scenario.Scenario`
(the swarm, the data, the shared network in per-query RNG streams), a
:class:`~repro.network.mux.QueryMux` giving every execution a
query-scoped endpoint, an :class:`~repro.manager.admission.
AdmissionController` bounding concurrency, a
:class:`~repro.manager.admission.DeviceLeaseRegistry` guaranteeing no
device holds two exclusive data-processor roles at once, and the SQL
parsed and rewritten once.  Each unit goes through one lifecycle —
``compile`` → ``launch`` (``build_qep`` → ``lease_plan`` →
``Scenario.launch``) → ``start`` → ``conclude`` (``Scenario.conclude``
→ ``mux.detach_query`` → ``registry.release``) — and every run ends in
one tally, cumulative Crowd Liability included.  What an arrival does
is the engine's own: a workload query queues past the admission cap
and sheds past the queue.

Every completed query is fingerprinted
(:func:`~repro.workload.fingerprint.report_fingerprint`), which is what
:func:`serial_fingerprints` compares against solo replays to certify
that concurrency changed *nothing* about any single query.

Determinism: arrival times, strategy choices, per-query seeds, leases
(drawn from a deterministic free list), and every simulator event are
pure functions of the spec and swarm parameters — two runs of the same
workload produce byte-identical per-query report fingerprints.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.liability import LiabilityReport, measure_liability
from repro.core.planner import (
    PrivacyParameters,
    ResiliencyParameters,
)
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.errors import SpecError
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
from repro.workload.spec import QueryArrival, QueryShape, WorkloadSpec

__all__ = [
    "MultiQueryEngine",
    "QueryRecord",
    "UnitRecord",
    "WorkloadResult",
    "WorkloadEngine",
    "serial_fingerprints",
]

COMPLETED = "completed"
SHED = "shed"


@dataclass(kw_only=True)
class UnitRecord:
    """What :class:`MultiQueryEngine` records of one unit — a workload
    query or a standing-query window — from launch to conclusion.

    A subclass names the unit through a ``unit_id`` property.
    """

    outcome: str = "pending"
    started_at: float | None = None
    finished_at: float | None = None
    leased: list[str] = field(default_factory=list)
    standbys: list[str] = field(default_factory=list)
    report: Any = None
    #: the launched execution
    #: (:class:`~repro.manager.scenario.ScenarioResult`)
    result: Any = None
    fingerprint: str | None = None


class MultiQueryEngine:
    """One shared swarm and the one lifecycle every unit goes through.

    Args:
        spec: the run's :class:`~repro.workload.spec.QueryShape`.
        config: the one :class:`ScenarioConfig` (see :meth:`configure`).
        telemetry: recording target; defaults to the process instance.
        standby_count: extra devices leased per reliable unit as the
            recovery watchdog's re-recruitment pool (non-negative; 0
            when the spec is not reliable).
        max_concurrent / queue_capacity: the admission bounds.
    """

    def __init__(
        self,
        spec: QueryShape,
        config: ScenarioConfig,
        telemetry: Any = None,
        standby_count: int = 0,
        max_concurrent: int = 1,
        queue_capacity: int = 0,
    ):
        if standby_count < 0:
            raise SpecError("standby_count must be non-negative")
        if telemetry is None:
            from repro.telemetry import get_telemetry

            telemetry = get_telemetry()
        self.telemetry = telemetry
        self.spec = spec
        self.standby_count = standby_count if spec.reliability else 0
        self.scenario_config = config
        self.scenario = Scenario(config, telemetry=telemetry)
        self.mux = QueryMux(self.scenario.network)
        self.registry = DeviceLeaseRegistry(
            clock=lambda: self.scenario.simulator.now
        )
        self.admission = AdmissionController(
            max_concurrent, queue_capacity, telemetry=telemetry
        )
        self.logical, _ = apply_rules(LogicalPlan.from_sql(spec.sql))
        self.group_by = self.logical.to_group_by()
        self.processor_pool = self.scenario.eligible_processor_ids()
        # the one plan install_chaos applied, kept for the shrinker:
        # every atom the run's seeded fault sources resolved to
        self.installed_plan = None

    @staticmethod
    def configure(spec: QueryShape, **fields: Any) -> ScenarioConfig:
        """The :class:`ScenarioConfig` of a run over ``spec``: a PC-only
        swarm whose per-execution timing, seed and reliability the spec
        owns — naming one of those in ``fields`` is Python's
        duplicate-keyword ``TypeError``."""
        return ScenarioConfig(
            device_mix=(1.0, 0.0, 0.0),
            collection_window=spec.collection_window,
            deadline=spec.deadline,
            seed=spec.seed,
            reliability=spec.reliability,
            **fields,
        )

    # -- the one lifecycle ----------------------------------------------------

    def compile(
        self, query_id: str, replicas: int, placement_key: str | None = None
    ) -> CompiledQuery:
        """Compile one unit from the run's once-parsed logical plan."""
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
                replicas=replicas,
            ),
            placement_key=placement_key,
        )

    def launch(
        self,
        record: Any,
        replicas: int,
        contributor_ids: list[str],
        seed: int,
        placement_key: str | None = None,
        contribution_cache: Any = None,
    ) -> bool:
        """Compile, plan over ``contributor_ids``, lease and wire one unit
        (not yet started).  ``False`` — nothing leased — when the pool
        cannot cover the plan's roles."""
        unit_id = record.unit_id
        compiled = self.compile(unit_id, replicas, placement_key)
        plan = compiled.build_qep(contributor_ids=contributor_ids)
        lease = self.registry.lease_plan(
            unit_id, plan, self.processor_pool, self.standby_count
        )
        if lease is None:
            return False
        record.leased, record.standbys = lease
        record.result = self.scenario.launch(
            plan,
            processor_ids=record.leased,
            standbys=record.standbys,
            network=self.mux.endpoint(unit_id),
            seed=seed,
            contribution_cache=contribution_cache,
        )
        return True

    def start(self, record: Any) -> None:
        """Start a launched unit; it concludes at its horizon
        (``_on_complete``)."""
        record.outcome = "running"
        horizon = record.result.executor.start()
        self.scenario.simulator.schedule_at(
            horizon,
            lambda: self._on_complete(record),
            f"finish:{record.unit_id}",
        )

    def conclude(self, record: Any) -> None:
        """Seal a unit whose horizon has passed and free its devices."""
        record.report = self.scenario.conclude(record.result)
        self.mux.detach_query(record.unit_id)
        self.registry.release(record.unit_id)
        record.finished_at = self.scenario.simulator.now
        record.outcome = COMPLETED

    def _drive(self, until: float, arrivals: Iterable[tuple[float, Any]]) -> None:
        """Install every fault source up to ``until``, schedule each
        ``(time, record)`` arrival (``_on_arrival``), run the clock dry.

        Chaos goes in before the first arrival is scheduled: same-time
        events fire in scheduling order, so this order is the
        fingerprint.
        """
        sim = self.scenario.simulator
        self.installed_plan = self.scenario.install_chaos(until=until)
        for at, record in arrivals:
            sim.schedule_at(
                at,
                lambda r=record: self._on_arrival(r),
                f"arrival:{record.unit_id}",
            )
        sim.run()

    def _tally(
        self,
        records: list[Any],
        start: float,
        terminal: tuple[str, ...],
        stuck_message: str,
    ) -> dict[str, Any]:
        """The result fields every run reports, once every unit reached
        one of its ``terminal`` states: elapsed virtual time, completed /
        succeeded / degraded counts, and the cumulative Crowd Liability
        of every completed plan — the paper's liability is a property of
        a *set* of queries."""
        stuck = [r.unit_id for r in records if r.outcome not in terminal]
        if stuck:
            raise RuntimeError(f"{stuck_message}: {stuck}")
        completed = [r for r in records if r.outcome == COMPLETED]
        return dict(
            elapsed=self.scenario.simulator.now - start,
            completed=len(completed),
            succeeded=sum(1 for r in completed if r.report.success),
            degraded=sum(1 for r in completed if r.report.degraded),
            liability=measure_liability(*(r.result.plan for r in completed)),
        )


@dataclass
class QueryRecord(UnitRecord):
    """Lifecycle record of one arrival, from offer to terminal state.

    ``outcome`` ends as ``"completed"`` (the execution ran to its
    horizon; inspect ``report.success``/``report.degraded`` for the
    query-level verdict) or ``"shed"`` (rejected at admission, or
    admitted but unplaceable on the leased-out swarm).
    """

    arrival: QueryArrival
    arrived_at: float | None = None

    @property
    def unit_id(self) -> str:
        return self.arrival.query_id

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
    """Outcome of one workload run.

    ``liability`` is the cumulative Crowd Liability over every completed
    query's plan.
    """

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
    liability: LiabilityReport = field(default_factory=measure_liability)

    @property
    def throughput(self) -> float:
        """Completed queries per virtual second."""
        return self.completed / self.elapsed if self.elapsed > 0 else 0.0

    def fingerprints(self) -> dict[str, str]:
        """query_id -> canonical report fingerprint, completed only."""
        return {
            r.unit_id: r.fingerprint
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
            **{f"liability_{k}": v for k, v in self.liability.summary().items()},
        }


class WorkloadEngine(MultiQueryEngine):
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
            verbatim (the :class:`~repro.manager.scenario.RunOptions`);
            a field derived from ``spec`` (``reliability``,
            ``collection_window``, ``deadline``, ``seed``) raises
            ``TypeError`` if passed again.
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
        if rows is None:
            rows = generate_health_rows(2 * n_contributors, seed=spec.seed)
        super().__init__(
            spec,
            self.configure(
                spec,
                n_contributors=n_contributors,
                n_processors=n_processors,
                rows=rows,
                schema=HEALTH_SCHEMA if schema is None else schema,
                scenario_tag=scenario_tag or f"wl{spec.seed}",
                **scenario,
            ),
            telemetry,
            standby_count,
            spec.max_concurrent,
            spec.queue_capacity,
        )
        self._records: dict[str, QueryRecord] = {}
        self._pending: deque[QueryRecord] = deque()
        self._g_in_flight = self.telemetry.metrics.gauge("workload.in_flight")
        self._h_latency = self.telemetry.metrics.histogram(
            "workload.query_latency"
        )

    # -- the run --------------------------------------------------------------

    def run(self) -> WorkloadResult:
        """Execute the whole workload; returns once the swarm is idle."""
        start = self.scenario.simulator.now
        records = [QueryRecord(arrival=a) for a in self.spec.arrivals()]
        self._records = {r.unit_id: r for r in records}
        open_loop_span = max(
            (r.arrival.at for r in records if r.arrival.at is not None),
            default=0.0,
        )
        if self.spec.arrival_process == "closed":
            prime = min(self.spec.target_in_flight, len(records))
            self._pending = deque(records[prime:])
            arrivals = [(start, r) for r in records[:prime]]
        else:
            arrivals = [(start + r.arrival.at, r) for r in records]
        self._drive(open_loop_span + 3 * self.spec.deadline, arrivals)
        return self._finalize(start)

    # -- arrival / launch / completion ---------------------------------------

    def _on_arrival(self, record: QueryRecord) -> None:
        record.arrived_at = self.scenario.simulator.now
        decision = self.admission.offer(record.unit_id)
        if decision == ADMITTED:
            self._launch(record)
        elif decision == QUEUED:
            record.outcome = "queued"
        else:
            record.outcome = SHED

    def _launch(self, record: QueryRecord) -> None:
        arrival = record.arrival
        contributor_ids = [d.device_id for d in self.scenario.contributors]
        if not self.launch(record, arrival.replicas, contributor_ids, arrival.seed):
            # the swarm is leased out: convert the admission into a shed
            record.outcome = SHED
            self._after_slot_freed(self.admission.abort(record.unit_id))
            return
        record.started_at = self.scenario.simulator.now
        self.start(record)
        self._g_in_flight.set(self.admission.in_flight)

    def _on_complete(self, record: QueryRecord) -> None:
        self.conclude(record)
        record.fingerprint = report_fingerprint(
            record.report, base_time=record.result.executor.start_time
        )
        latency = record.latency
        if latency is not None:
            self._h_latency.observe(latency)
        self._after_slot_freed(self.admission.complete(record.unit_id))
        self._g_in_flight.set(self.admission.in_flight)

    def _after_slot_freed(self, drained_query_id: str | None) -> None:
        """A slot opened: launch the drained queued query, then feed the
        closed loop one more arrival."""
        if drained_query_id is not None:
            self._launch(self._records[drained_query_id])
        if self._pending and self.admission.in_flight < self.spec.target_in_flight:
            self._on_arrival(self._pending.popleft())

    # -- wrap-up --------------------------------------------------------------

    def _finalize(self, start: float) -> WorkloadResult:
        records = list(self._records.values())
        tally = self._tally(
            records, start, (COMPLETED, SHED),
            "workload ended with non-terminal queries",
        )
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
        utilization = self.registry.utilization(
            self.processor_pool, tally["elapsed"]
        )
        self.telemetry.metrics.gauge("workload.device_utilization").set(
            utilization
        )
        return WorkloadResult(
            spec=self.spec,
            records=records,
            arrivals=self.admission.arrivals,
            admitted=self.admission.admitted,
            queued=self.admission.queued,
            shed=self.admission.shed,
            latency_percentiles=percentiles,
            utilization=utilization,
            **tally,
        )


def serial_fingerprints(
    engine: WorkloadEngine, result: WorkloadResult, telemetry: Any = None
) -> dict[str, str]:
    """Replay every completed query *alone* and fingerprint each replay.

    Builds a fresh engine from the workload engine's config — device
    identities are a pure function of ``(scenario_tag, seed)``, so the
    solo swarm is the workload swarm — and runs each completed query
    through the same lifecycle on an otherwise idle clock, its recorded
    lease (roles, then standbys) as the whole pool, with its plan seed
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
    replay = MultiQueryEngine(
        engine.spec, engine.scenario_config, telemetry, engine.standby_count
    )
    scenario = replay.scenario
    contributor_ids = [d.device_id for d in scenario.contributors]
    fingerprints: dict[str, str] = {}
    for record in result.records:
        if record.outcome != COMPLETED:
            continue
        scenario.simulator.reset()
        scenario.network.reset()
        replay.processor_pool = record.leased + record.standbys
        solo = QueryRecord(arrival=record.arrival)
        replay.launch(
            solo, record.arrival.replicas, contributor_ids, record.arrival.seed
        )
        scenario.simulator.run_until(solo.result.executor.start())
        replay.conclude(solo)
        fingerprints[solo.unit_id] = report_fingerprint(
            solo.report, base_time=solo.result.executor.start_time
        )
    return fingerprints
