"""End-to-end scenario orchestration.

A :class:`Scenario` assembles every substrate — devices, network,
failures, data — and runs Edgelet queries over it, mirroring the
demonstration flow: configure, plan, execute, observe, verify.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any

from repro.core.assignment import assign_operators
from repro.core.liability import LiabilityReport, measure_liability
from repro.core.planner import (
    EdgeletPlanner,
    PrivacyParameters,
    QuerySpec,
    ResiliencyParameters,
)
from repro.core.privacy import ExposureReport, measure_exposure
from repro.core.qep import OperatorRole, QueryExecutionPlan
from repro.core.runtime import ExecutionCoordinator, ExecutionReport
from repro.devices.attestation import AttestationAuthority, AttestationError
from repro.devices.edgelet import Edgelet
from repro.devices.profiles import DeviceProfile, HOME_BOX, PC_SGX, SMARTPHONE
from repro.devices.tee import SealedGlassObserver
from repro.data.generators import distribute_rows_to_devices
from repro.network.failures import FailureInjector
from repro.network.mobility import CaregiverRounds
from repro.network.opnet import NetworkConfig, OpportunisticNetwork
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph
from repro.plan.compile import CompiledQuery, compile_query
from repro.plan.substrate import SubstrateProfile
from repro.query.engine import CentralizedEngine
from repro.query.relation import Relation
from repro.query.schema import Schema

__all__ = ["ScenarioConfig", "Scenario", "ScenarioResult"]

_scenario_ids = itertools.count(1)


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of one demonstration scenario.

    Attributes:
        n_contributors: simulated Data Contributor devices.
        n_processors: extra devices eligible for Data Processor roles.
        device_mix: (pc, smartphone, home_box) proportions.
        rows: the synthetic dataset dealt out to contributors.
        schema: common schema of the shared database.
        rows_per_device: (min, max) owner records per device.
        crash_probability: per-tick crash probability (failure slider).
        disconnect_probability: per-tick disconnection probability.
        disconnect_duration: offline window length in virtual seconds.
        message_loss: extra i.i.d. message-loss probability.
        collection_window: virtual seconds for the collection phase.
        deadline: virtual query deadline.
        secure_channels: seal payloads in authenticated envelopes.
        compromised_processors: number of processing TEEs degraded to
            sealed-glass mode (privacy experiments).
        rogue_processors: number of processing devices running a
            *non-genuine* runtime (their TEE measurement differs);
            attestation-gated scenarios must exclude them.
        require_attestation: attest every processor before assignment
            and exclude devices that fail.
        caregiver_period: when set, contributors follow a DomYcile-style
            caregiver-rounds schedule (online only during visits of
            ``caregiver_visit`` seconds every ``caregiver_period``).
        caregiver_visit: visit duration for the rounds schedule.
        seed: master randomness seed.
        scenario_tag: override for the auto-numbered device-ID prefix.
            Device identities (and the keys derived from them) are a
            pure function of ``(scenario_tag, seed)``, so a chaos repro
            artifact replayed in a fresh process rebuilds the exact same
            swarm regardless of how many scenarios ran before it.
        failure_plan: optional scripted
            :class:`~repro.network.failures.FailurePlan` installed at
            query start (chaos replay path).
        fault_specs: optional tuple of
            :class:`~repro.network.faults.FaultSpec` message-fault rules
            installed on the network (seeded with ``seed + 3``).
        outage_spec: optional
            :class:`~repro.network.outages.OutageSpec`; when set, a
            topology-level outage plan (partitions, correlated regional
            crashes, gray failures) is generated over the processor
            pool with ``seed + 5`` and installed at query start.
        outage_plan: optional pre-resolved
            :class:`~repro.network.outages.OutagePlan` installed
            verbatim (chaos replay path); overrides ``outage_spec``.
        detector: feed transport delivery observations into a φ-accrual
            failure detector and let the recovery watchdog reprovision
            *suspected* (partitioned/gray, nominally online) Computers;
            only meaningful with ``reliability``.
        fencing: stamp generation-numbered fencing tokens on
            reprovisioned partitions so a stale predecessor's partial
            loses at the combiner (split-brain-safe takeover).
        reliability: wire the
            :class:`~repro.network.reliable.ReliableTransport` overlay
            (ACK/retransmission, adaptive timeouts, circuit breakers —
            jitter RNG derived from ``seed + 4``) plus the query-level
            :class:`~repro.core.runtime.recovery.RecoveryConfig`
            (phase watchdogs, standby reprovisioning, graceful
            degradation).
        phase_deadline: computation-phase deadline offset forwarded to
            the recovery layer (``None`` = 85% of the query deadline);
            only meaningful with ``reliability``.
    """

    n_contributors: int
    n_processors: int
    rows: list[dict[str, Any]]
    schema: Schema
    device_mix: tuple[float, float, float] = (0.3, 0.4, 0.3)
    rows_per_device: tuple[int, int] = (1, 3)
    crash_probability: float = 0.0
    disconnect_probability: float = 0.0
    disconnect_duration: float = 10.0
    message_loss: float = 0.0
    collection_window: float = 30.0
    deadline: float = 100.0
    secure_channels: bool = False
    compromised_processors: int = 0
    rogue_processors: int = 0
    require_attestation: bool = False
    caregiver_period: float | None = None
    caregiver_visit: float = 10.0
    seed: int = 0
    scenario_tag: str | None = None
    failure_plan: Any = None
    fault_specs: Any = None
    reliability: bool = False
    phase_deadline: float | None = None
    outage_spec: Any = None
    outage_plan: Any = None
    detector: bool = False
    fencing: bool = False

    def __post_init__(self) -> None:
        if self.phase_deadline is not None and self.phase_deadline <= 0:
            raise ValueError("phase_deadline must be positive")
        if self.n_contributors <= 0:
            raise ValueError("n_contributors must be positive")
        if self.n_processors <= 0:
            raise ValueError("n_processors must be positive")
        if len(self.device_mix) != 3 or sum(self.device_mix) <= 0:
            raise ValueError("device_mix must be 3 non-negative weights")
        if self.compromised_processors < 0:
            raise ValueError("compromised_processors must be non-negative")
        if not 0 <= self.rogue_processors <= self.n_processors:
            raise ValueError("rogue_processors must be within the processor pool")
        if self.caregiver_period is not None:
            if self.caregiver_period <= 0:
                raise ValueError("caregiver_period must be positive")
            if not 0 < self.caregiver_visit <= self.caregiver_period:
                raise ValueError(
                    "caregiver_visit must be in (0, caregiver_period]"
                )


@dataclass
class ScenarioResult:
    """Outcome of one scenario execution.

    Attributes:
        report: the executor's detailed report.
        plan: the executed plan.
        exposure: plan-level privacy exposure bounds.
        liability: crowd-liability distribution.
        verification: filled by
            :func:`repro.manager.verification.verify_against_centralized`.
        executor: the executor instance (chaos invariants inspect its
            combiner runtimes and takeover log post-run).
        failure_events: log filled by the scripted failure plan and/or
            the stochastic injector, in firing order.
        fault_injector: the message-fault injector, if one was
            installed (its decision log feeds the shrinker).
        transport: the reliability overlay, when the scenario enabled
            one (its receipts and stats feed tests and benches).
    """

    report: ExecutionReport
    plan: QueryExecutionPlan
    exposure: ExposureReport | None = None
    liability: LiabilityReport | None = None
    verification: Any = None
    executor: Any = None
    failure_events: list[Any] = field(default_factory=list)
    fault_injector: Any = None
    transport: Any = None
    outage_plan: Any = None


class Scenario:
    """A configured swarm ready to run Edgelet queries.

    Args:
        config: the declarative scenario description.
        telemetry: the :class:`repro.telemetry.Telemetry` every
            substrate (simulator, network, executor) records into;
            defaults to the process-wide instance.  Pass
            :func:`repro.telemetry.null_telemetry` to turn measurement
            off for wall-clock-sensitive sweeps.
    """

    def __init__(self, config: ScenarioConfig, telemetry: Any = None):
        if telemetry is None:
            from repro.telemetry import get_telemetry

            telemetry = get_telemetry()
        self.telemetry = telemetry
        self.config = config
        self.scenario_id = next(_scenario_ids)
        self.tag = config.scenario_tag or f"s{self.scenario_id}"
        self._rng = random.Random(config.seed)
        self.simulator = Simulator(telemetry=telemetry)
        telemetry.tracer.use_clock(lambda: self.simulator.now)
        self.observer = SealedGlassObserver()
        self.authority = AttestationAuthority()
        self.contributors: list[Edgelet] = []
        self.processors: list[Edgelet] = []
        self.querier_device: Edgelet | None = None
        self.devices: dict[str, Edgelet] = {}
        self._build_swarm()
        self._deal_data()
        self.network = self._build_network()
        self.injector: FailureInjector | None = None
        self.engine = CentralizedEngine()
        self.engine.register("data", Relation(config.schema, config.rows))

    # -- construction ----------------------------------------------------------

    def _pick_profile(self, rng: random.Random | None = None) -> DeviceProfile:
        pc, phone, box = self.config.device_mix
        total = pc + phone + box
        roll = (rng or self._rng).random() * total
        if roll < pc:
            return PC_SGX
        if roll < pc + phone:
            return SMARTPHONE
        return HOME_BOX

    def _build_swarm(self) -> None:
        config = self.config
        for index in range(config.n_contributors):
            device = Edgelet(
                self._pick_profile(),
                device_id=f"{self.tag}-contrib-{index:05d}",
                seed=f"{self.tag}-contrib-{index}-{config.seed}".encode(),
            )
            self.contributors.append(device)
        for index in range(config.n_processors):
            rogue = index < config.rogue_processors
            device = Edgelet(
                self._pick_profile(),
                device_id=f"{self.tag}-proc-{index:05d}",
                seed=f"{self.tag}-proc-{index}-{config.seed}".encode(),
                code_identity="rogue-runtime" if rogue else "edgelet-runtime-v1",
            )
            self.processors.append(device)
        self.querier_device = Edgelet(
            PC_SGX,
            device_id=f"{self.tag}-querier",
            seed=f"{self.tag}-querier-{config.seed}".encode(),
        )
        # only the genuine runtime's measurement is trusted; rogue
        # runtimes have genuine *hardware* (registered keys) but fail
        # the measurement check — exactly the attestation threat model
        self.authority.trust_measurement(self.querier_device.tee.measurement)
        for device in [*self.contributors, *self.processors, self.querier_device]:
            self.devices[device.device_id] = device
            self.authority.register_device(device.tee)
        compromised = self.processors[: config.compromised_processors]
        for device in compromised:
            device.compromise(self.observer)

    def _deal_data(self) -> None:
        allocations = distribute_rows_to_devices(
            self.config.rows,
            len(self.contributors),
            self.config.rows_per_device,
            seed=self.config.seed,
        )
        for device, rows in zip(self.contributors, allocations):
            for row in rows:
                self.config.schema.validate_row(row)
            device.datastore.insert_many(rows)

    def _build_network(self) -> OpportunisticNetwork:
        # Star topology through the querier's venue infrastructure would
        # be unrealistic; devices are pairwise reachable by default.  Each
        # joins the contact graph's implicit clique with its own radio's
        # link, and a pair talks at the worse of its two links.
        topology = ContactGraph()
        for device_id, device in self.devices.items():
            topology.add_device(device_id, device.profile.link)
        network_config = NetworkConfig(
            allow_relay=True,
            buffer_timeout=self.config.deadline,
            global_loss_probability=self.config.message_loss,
        )
        return OpportunisticNetwork(
            self.simulator, topology, network_config, seed=self.config.seed,
            telemetry=self.telemetry,
        )

    # -- dynamic membership (standing-query churn) -----------------------------

    def _spawn(self, kind: str, index: int) -> Edgelet:
        """Mint one device mid-run under the canonical identity scheme.

        The id and key seed follow exactly the construction-time pattern
        (``{tag}-{kind}-{index:05d}``), and the profile draw comes from a
        private stream keyed by ``(tag, kind, index, seed)`` — so a
        device spawned at window 7 of one run is bit-identical to the
        same index spawned at window 7 of a replay, independent of what
        else the scenario RNG was used for in between.
        """
        device_id = f"{self.tag}-{kind}-{index:05d}"
        if device_id in self.devices:
            raise ValueError(f"device {device_id} already exists")
        rng = random.Random(f"{self.tag}-spawn-{kind}-{index}-{self.config.seed}")
        device = Edgelet(
            self._pick_profile(rng),
            device_id=device_id,
            seed=f"{self.tag}-{kind}-{index}-{self.config.seed}".encode(),
        )
        self.devices[device_id] = device
        self.authority.register_device(device.tee)
        self.network.topology.add_device(device_id, device.profile.link)
        return device

    def spawn_contributor(self, index: int) -> Edgelet:
        """Add a new Data Contributor device to the live swarm."""
        device = self._spawn("contrib", index)
        self.contributors.append(device)
        return device

    def spawn_processor(self, index: int) -> Edgelet:
        """Add a new processor-eligible device to the live swarm."""
        device = self._spawn("proc", index)
        self.processors.append(device)
        return device

    def retire_device(self, device_id: str) -> None:
        """Drop a departed device from the contributor/processor pools.

        The :class:`Edgelet` stays resolvable in :attr:`devices` — an
        in-flight execution still needs to look the operator's device up
        to discover it is gone — but no future plan will include it.
        """
        self.contributors = [
            d for d in self.contributors if d.device_id != device_id
        ]
        self.processors = [
            d for d in self.processors if d.device_id != device_id
        ]

    # -- execution ------------------------------------------------------------

    def attest_processors(self) -> list[Edgelet]:
        """Run the attestation round over every processing edgelet.

        Returns the devices that attested successfully; devices running
        a non-genuine runtime fail the measurement check and are
        excluded (the demo would refuse them a Data Processor role).
        """
        attested = []
        for device in self.processors:
            try:
                self.authority.attest(device.tee)
            except AttestationError:
                continue
            attested.append(device)
        return attested

    def eligible_processor_ids(self) -> list[str]:
        """Processor device ids allowed to hold data-processor roles
        (the attested subset when the scenario requires attestation)."""
        eligible = (
            self.attest_processors()
            if self.config.require_attestation
            else self.processors
        )
        return [d.device_id for d in eligible]

    def plan_query(
        self,
        spec: QuerySpec,
        privacy: PrivacyParameters | None = None,
        resiliency: ResiliencyParameters | None = None,
        contributor_ids: list[str] | None = None,
    ) -> QueryExecutionPlan:
        """Plan one query over this scenario's contributors (unassigned).

        ``contributor_ids`` overrides the contributor set — the
        continuous engine passes each window's live (and, for sliding
        windows, fresh-data) subset of a churning population.
        """
        planner = EdgeletPlanner(privacy=privacy, resiliency=resiliency)
        if contributor_ids is None:
            contributor_ids = [d.device_id for d in self.contributors]
        return planner.plan(spec, contributor_ids=contributor_ids)

    def assign_query(
        self, plan: QueryExecutionPlan, processor_ids: list[str] | None = None
    ) -> None:
        """Assign the plan's operators from a processor pool.

        ``processor_ids`` defaults to every eligible processor; the
        workload engine passes the subset it leased for this query.
        The hash-ranked assignment is a pure function of the pool *set*,
        so a query assigned from its leased devices replays identically
        when run alone over the same set.
        """
        if processor_ids is None:
            processor_ids = self.eligible_processor_ids()
        assign_operators(
            plan,
            processor_ids,
            exclusive=len(processor_ids)
            >= sum(1 for op in plan.operators() if op.role.is_data_processor),
        )
        querier_op = plan.operators(OperatorRole.QUERIER)[0]
        querier_op.assigned_to = self.querier_device.device_id

    def substrate_profile(
        self, fault_rate: float = 0.05
    ) -> SubstrateProfile:
        """This scenario's swarm as a planner-visible substrate profile.

        ``fault_rate`` is the baseline per-partition fault presumption
        (the Part-1 slider); the profile folds the scenario's measured
        churn and message-loss telemetry on top of it.
        """
        config = self.config
        outage = config.outage_spec
        return SubstrateProfile(
            name=f"scenario-{self.tag}",
            n_contributors=max(len(self.contributors), 1),
            n_processors=max(len(self.processors), 1),
            device_mix=tuple(config.device_mix),
            fault_rate=fault_rate,
            message_loss=config.message_loss,
            crash_probability=config.crash_probability,
            disconnect_probability=config.disconnect_probability,
            deadline=config.deadline,
            reliability=config.reliability,
            partition_rate=(
                outage.partition_probability if outage is not None else 0.0
            ),
            gray_rate=(
                outage.gray_probability if outage is not None else 0.0
            ),
        )

    def run_query(
        self,
        spec: QuerySpec,
        privacy: PrivacyParameters | None = None,
        resiliency: ResiliencyParameters | None = None,
        separated_pairs: list[tuple[str, str]] | None = None,
    ) -> ScenarioResult:
        """Plan, assign, and execute one query on this scenario.

        Thin shim over the compile pipeline: the parameters are pinned
        verbatim (legacy behaviour).  Callers wanting cost-based
        physical selection compile themselves — see
        :func:`repro.plan.compile_query` — and pass the result to
        :meth:`run_compiled`.
        """
        compiled = compile_query(spec, privacy=privacy, resiliency=resiliency)
        return self.run_compiled(compiled, separated_pairs=separated_pairs)

    def run_compiled(
        self,
        compiled: CompiledQuery,
        separated_pairs: list[tuple[str, str]] | None = None,
        contributor_ids: list[str] | None = None,
    ) -> ScenarioResult:
        """Assign and execute one compiled query on this scenario."""
        spec = compiled.spec
        if contributor_ids is None:
            contributor_ids = [d.device_id for d in self.contributors]
        plan = compiled.build_qep(contributor_ids=contributor_ids)
        eligible_ids = self.eligible_processor_ids()
        self.assign_query(plan, eligible_ids)

        transport = None
        recovery = None
        standbys: list[str] = []
        if self.config.reliability:
            from repro.core.runtime.recovery import RecoveryConfig
            from repro.network.reliable import ReliableTransport

            transport = ReliableTransport(
                self.network, seed=self.config.seed + 4,
                telemetry=self.telemetry,
            )
            recovery = RecoveryConfig(phase_deadline=self.config.phase_deadline)
            assigned = {
                op.assigned_to for op in plan.operators() if op.assigned_to
            }
            # the re-recruitment pool: eligible processors the assignment
            # pass left unassigned, in their (deterministic) pool order
            standbys = [
                device_id for device_id in eligible_ids
                if device_id not in assigned
            ]

        scenario_span = self.telemetry.tracer.push(
            self.telemetry.tracer.start(
                "scenario", at=self.simulator.now,
                scenario_id=self.scenario_id, query_id=spec.query_id,
            )
        )
        executor = ExecutionCoordinator(
            simulator=self.simulator,
            strategy=compiled.strategy_runtime(),
            network=self.network,
            devices=self.devices,
            plan=plan,
            collection_window=self.config.collection_window,
            deadline=self.config.deadline,
            secure_channels=self.config.secure_channels,
            telemetry=self.telemetry,
            seed=self.config.seed,
            transport=transport,
            recovery=recovery,
            standby_devices=standbys,
            fencing=self.config.fencing,
            detector=self.config.detector,
        )

        if self.config.caregiver_period is not None:
            rounds = CaregiverRounds(
                period=self.config.caregiver_period,
                visit_duration=self.config.caregiver_visit,
                seed=self.config.seed + 2,
            )
            schedule = rounds.schedule(
                [d.device_id for d in self.contributors],
                horizon=self.simulator.now + self.config.deadline,
            )
            schedule.install(self.simulator, self.network)

        if self.config.fault_specs:
            from repro.network.faults import MessageFaultInjector

            self.network.install_faults(
                MessageFaultInjector(self.config.fault_specs, seed=self.config.seed + 3)
            )

        scripted_events: list[Any] = []
        if self.config.failure_plan is not None:
            scripted_events = self.config.failure_plan.apply(
                self.simulator, self.network
            )

        # topology-level outages: a pre-resolved plan replays verbatim;
        # a spec resolves over the processor pool with its own seed
        # stream (seed + 5) so legacy runs draw nothing from it
        outage_plan = self.config.outage_plan
        if outage_plan is None and self.config.outage_spec is not None:
            from repro.network.outages import build_outage_plan

            if not self.config.outage_spec.is_noop():
                outage_plan = build_outage_plan(
                    self.config.outage_spec,
                    [d.device_id for d in self.processors],
                    horizon=self.simulator.now + self.config.deadline,
                    seed=self.config.seed + 5,
                )
        outage_events: list[Any] = []
        if outage_plan is not None and not outage_plan.is_empty():
            # the returned log is live — it fills as scheduled outage
            # events fire during the run, so merge it only afterwards
            outage_events = outage_plan.apply(self.simulator, self.network)

        if self.config.crash_probability > 0 or self.config.disconnect_probability > 0:
            self.injector = FailureInjector(
                self.simulator,
                self.network,
                device_ids=[d.device_id for d in self.processors],
                crash_probability=self.config.crash_probability,
                disconnect_probability=self.config.disconnect_probability,
                disconnect_duration=self.config.disconnect_duration,
                seed=self.config.seed + 1,
            )
            self.injector.start(until=executor.deadline_at)

        report = executor.run()
        self.telemetry.tracer.pop(scenario_span, at=self.simulator.now)
        self.record_query_metrics(report, executor.start_time)
        exposure = measure_exposure(plan, separated_pairs=separated_pairs)
        liability = measure_liability(plan, tuples_per_device=report.tuples_per_device)
        failure_events = list(scripted_events)
        failure_events.extend(outage_events)
        if self.injector is not None:
            failure_events.extend(self.injector.events)
        failure_events.sort(key=lambda e: e.time)
        return ScenarioResult(
            report=report,
            plan=plan,
            exposure=exposure,
            liability=liability,
            executor=executor,
            failure_events=failure_events,
            fault_injector=self.network.faults,
            transport=transport,
            outage_plan=outage_plan,
        )

    def record_query_metrics(
        self, report: ExecutionReport, start_time: float
    ) -> None:
        """Count one finished query under ``scenario.*``.

        Each counter exists twice: the historical unlabelled aggregate,
        and a sibling labelled by ``query`` — without the label,
        concurrent workloads collapse every query into one number and
        per-query outcomes become unrecoverable (the single-query
        assumption this PR's audit flushed out).
        """
        metrics = self.telemetry.metrics
        query_id = report.query_id
        metrics.counter("scenario.queries_run").inc()
        metrics.counter("scenario.queries_run", query=query_id).inc()
        if report.success:
            metrics.counter("scenario.queries_succeeded").inc()
            metrics.counter("scenario.queries_succeeded", query=query_id).inc()
            if report.completion_time is not None:
                latency = report.completion_time - start_time
                metrics.histogram("scenario.completion_time").observe(latency)
                metrics.histogram(
                    "scenario.completion_time", query=query_id
                ).observe(latency)
        if report.degraded:
            metrics.counter("scenario.queries_degraded").inc()
            metrics.counter("scenario.queries_degraded", query=query_id).inc()

    def centralized_result(self, spec: QuerySpec):
        """Run the same logical query on the centralized oracle."""
        if spec.group_by is None:
            raise ValueError("centralized verification needs a group_by query")
        return self.engine.execute_logical("data", spec.group_by)
