"""End-to-end scenario orchestration.

A :class:`Scenario` assembles every substrate — devices, network,
failures, data — and runs Edgelet queries over it, mirroring the
demonstration flow: configure, plan, execute, observe, verify.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.core.assignment import assign_operators
from repro.core.liability import LiabilityReport, measure_liability
from repro.core.planner import (
    PrivacyParameters,
    QuerySpec,
    ResiliencyParameters,
)
from repro.core.privacy import ExposureReport, measure_exposure
from repro.core.qep import OperatorRole, QueryExecutionPlan
from repro.core.runtime import ExecutionCoordinator, ExecutionReport
from repro.devices.attestation import AttestationAuthority, AttestationError
from repro.devices.datastore import DatastoreFullError
from repro.devices.edgelet import Edgelet
from repro.devices.profiles import DeviceProfile, HOME_BOX, PC_SGX, SMARTPHONE
from repro.devices.tee import SealedGlassObserver
from repro.data.generators import distribute_rows_to_devices
from repro.network.failures import FailureInjector
from repro.network.faults import MessageFaultInjector
from repro.network.mobility import CaregiverRounds
from repro.network.opnet import NetworkConfig, OpportunisticNetwork
from repro.network.outages import build_outage_plan
from repro.network.reliable import ReliableTransport
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph
from repro.plan.compile import CompiledQuery, compile_query
from repro.plan.substrate import SubstrateProfile
from repro.query.engine import CentralizedEngine
from repro.query.relation import Relation
from repro.query.schema import Schema

__all__ = [
    "ScenarioConfig",
    "Scenario",
    "ScenarioResult",
    "check_recovery_options",
]

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
            :class:`~repro.network.failures.FailurePlan` — crashes,
            disconnect windows, partitions, regional crashes, gray
            windows — installed at query start (chaos replay path).
        fault_specs: optional tuple of
            :class:`~repro.network.faults.FaultSpec` message-fault rules
            installed on the network (seeded with ``seed + 3``).
        outage_spec: optional
            :class:`~repro.network.outages.OutageSpec`; when set, its
            topology atoms (partitions, correlated regional crashes,
            gray failures) are resolved over the processor pool with
            ``seed + 5`` and appended to ``failure_plan``.  A
            ``failure_plan`` that carries topology atoms already
            excludes a non-no-op spec.
        detector: feed transport delivery observations into a φ-accrual
            failure detector and let the recovery watchdog reprovision
            *suspected* (partitioned/gray, nominally online) Computers;
            requires ``reliability``.
        reliability: wire the
            :class:`~repro.network.reliable.ReliableTransport` overlay
            (ACK/retransmission, adaptive timeouts, circuit breakers —
            jitter RNG derived from ``seed + 4``) plus the query-level
            :class:`~repro.core.runtime.recovery.RecoveryRuntime`
            (phase watchdogs, standby reprovisioning, graceful
            degradation).
        phase_deadline: computation-phase deadline offset forwarded to
            the recovery layer (``None`` = 85% of the query deadline);
            positive, and requires ``reliability``.

    Every execution path — the one-shot path, both engines, the chaos
    harnesses — builds one of these.  Its fault and execution options are
    declared here and on :class:`~repro.chaos.campaign.RunSpec`, their
    serialisable mirror for chaos artifacts, and nowhere else: the
    engines forward them as keywords.
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
    detector: bool = False

    def __post_init__(self) -> None:
        check_recovery_options(vars(self))
        if self.failure_plan is not None and self.failure_plan.has_outages():
            if self.outage_spec is not None and not self.outage_spec.is_noop():
                raise ValueError(
                    "failure_plan already scripts topology outages; "
                    "drop outage_spec or those atoms"
                )
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

    @property
    def any_chaos(self) -> bool:
        """Whether any fault source is configured: stochastic crashes or
        disconnects, message loss, message-fault rules, a scripted plan
        or a non-no-op outage spec (a run's *clean* verdict needs
        this to be false)."""
        return bool(
            self.crash_probability > 0
            or self.disconnect_probability > 0
            or self.message_loss > 0
            or self.fault_specs
            or self.failure_plan is not None
            or (self.outage_spec is not None and not self.outage_spec.is_noop())
        )


def check_recovery_options(options: dict[str, Any]) -> None:
    """Reject a non-positive ``phase_deadline``, and recovery options
    that would be inert: ``detector`` and ``phase_deadline`` act through
    the recovery layer ``reliability`` wires.

    ``options`` maps :class:`ScenarioConfig` field names to values;
    absent names take the field default.  Raises ``ValueError`` naming
    the option.  :class:`ScenarioConfig` and
    :class:`~repro.chaos.campaign.RunSpec` run it on every construction;
    the CLI runs it on its flags before any scenario is built.
    """
    phase_deadline = options.get("phase_deadline")
    if phase_deadline is not None and phase_deadline <= 0:
        raise ValueError("phase_deadline must be positive")
    if options.get("reliability"):
        return
    if options.get("detector"):
        raise ValueError("detector requires reliability")
    if options.get("phase_deadline") is not None:
        raise ValueError("phase_deadline requires reliability")


@dataclass
class ScenarioResult:
    """One execution, from :meth:`Scenario.launch` to its verdicts.

    ``launch`` fills ``report`` / ``plan`` / ``executor`` /
    ``transport``; whoever judges the run adds the rest through
    :meth:`judged` (:meth:`Scenario.run_compiled`, the chaos drivers).

    Attributes:
        report: the executor's detailed report (the live object; final
            once :meth:`Scenario.conclude` sealed it).
        plan: the executed plan.
        exposure: plan-level privacy exposure bounds.
        liability: crowd-liability distribution.
        verification: filled by
            :func:`repro.manager.verification.verify_against_centralized`.
        executor: the executor instance (chaos invariants inspect its
            combiner runtimes and takeover log post-run).
        failure_events: what the scripted failure plan and the
            stochastic injector logged, by time.
        fault_injector: the message-fault injector, if one was
            installed (its decision log feeds the shrinker).
        transport: the reliability overlay, when the scenario enabled
            one (its receipts and stats feed tests and benches).
        failure_plan: the one scripted plan installed — the
            configured plan plus the atoms ``outage_spec`` resolved to,
            if any (the shrinker pins it).
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
    failure_plan: Any = None

    def judged(
        self,
        failure_events: list[Any],
        fault_injector: Any,
        separated_pairs: list[tuple[str, str]] | None = None,
    ) -> "ScenarioResult":
        """A copy carrying what the invariant checks read: exposure and
        liability measured on this plan, plus the substrate's failure
        and message-fault logs (shared by every query of an engine)."""
        return dataclasses.replace(
            self,
            exposure=measure_exposure(self.plan, separated_pairs=separated_pairs),
            liability=measure_liability(
                self.plan, tuples_per_device=self.report.tuples_per_device
            ),
            failure_events=failure_events,
            fault_injector=fault_injector,
        )


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
        # live event logs of the fault sources install_chaos installed
        self._failure_logs: list[list[Any]] = []

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
            self.stock(device, rows)

    def stock(self, device: Edgelet, rows: list[dict[str, Any]]) -> None:
        """Validate ``rows`` against the schema and store them on ``device``.

        Raises :class:`DatastoreFullError` if the device cannot hold
        them all: a row silently left out would be missing from what the
        swarm collects while the centralized oracle still counts it.
        """
        schema = self.config.schema
        for row in rows:
            schema.validate_row(row)
        datastore = device.datastore
        stored = datastore.insert_many(rows)
        if stored < len(rows):
            raise DatastoreFullError(
                f"device {device.device_id} holds at most {datastore.capacity} "
                f"rows; {len(rows)} dealt to it, {stored} stored"
            )

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
        if contributor_ids is None:
            contributor_ids = [d.device_id for d in self.contributors]
        plan = compiled.build_qep(contributor_ids=contributor_ids)
        scenario_span = self.telemetry.tracer.push(
            self.telemetry.tracer.start(
                "scenario", at=self.simulator.now,
                scenario_id=self.scenario_id, query_id=compiled.spec.query_id,
            )
        )
        result = self.launch(plan, processor_ids=self.eligible_processor_ids())
        executor = result.executor
        result.failure_plan = self.install_chaos(until=executor.deadline_at)
        self.simulator.run_until(executor.start())
        self.conclude(result)
        self.telemetry.tracer.pop(scenario_span, at=self.simulator.now)
        return result.judged(
            self.failure_events(), self.network.faults, separated_pairs
        )

    # -- the one launch path --------------------------------------------------

    def launch(
        self,
        plan: QueryExecutionPlan,
        *,
        processor_ids: list[str],
        standbys: list[str] | None = None,
        network: Any = None,
        seed: int | None = None,
        contribution_cache: Any = None,
    ) -> ScenarioResult:
        """Assign ``plan`` and wire one execution of it, not yet started.

        The only construction site of the coordinator and the reliable
        transport: the one-shot path, a workload arrival, a
        standing-query window and a serial replay all come through
        here, and every execution option is read from :attr:`config`.
        The arguments are per-launch data only:

        Args:
            processor_ids: the pool the operators are assigned from
                (every eligible processor, or the devices an engine
                leased for this query).
            standbys: the recovery watchdog's re-recruitment pool;
                defaults to the members of ``processor_ids`` the
                assignment pass left unassigned, in pool order.
            network: the query-scoped mux endpoint of a shared swarm;
                defaults to the scenario's own network.
            seed: the per-query seed (contribution jitter; the
                transport's retransmit jitter derives from ``seed + 4``);
                defaults to the scenario seed.
            contribution_cache: a standing query's cross-window cache.

        Ordering contract: the caller installs chaos (if it has not
        already) *after* this returns and *before* ``executor.start()``
        — the simulator breaks same-time ties by scheduling order, so
        moving either step changes every fingerprint.
        """
        config = self.config
        self.assign_query(plan, processor_ids)
        if network is None:
            network = self.network
        if seed is None:
            seed = config.seed
        transport = None
        if config.reliability:
            transport = ReliableTransport(
                network, seed=seed + 4, telemetry=self.telemetry
            )
            if standbys is None:
                assigned = {op.assigned_to for op in plan.operators()}
                standbys = [d for d in processor_ids if d not in assigned]
        executor = ExecutionCoordinator(
            simulator=self.simulator,
            network=network,
            devices=self.devices,
            plan=plan,
            collection_window=config.collection_window,
            deadline=config.deadline,
            secure_channels=config.secure_channels,
            telemetry=self.telemetry,
            seed=seed,
            transport=transport,
            phase_deadline=config.phase_deadline,
            standby_devices=standbys,
            contribution_cache=contribution_cache,
            detector=config.detector,
        )
        return ScenarioResult(
            report=executor.report,
            plan=plan,
            executor=executor,
            transport=transport,
        )

    def conclude(self, result: ScenarioResult) -> ExecutionReport:
        """Seal one launched execution once its horizon has passed."""
        report = result.executor.finish()
        if result.transport is not None:
            result.transport.close()
        self.record_query_metrics(report, result.executor.start_time)
        return report

    def install_chaos(self, until: float) -> Any:
        """Install every configured fault source, active up to ``until``.

        The only site that turns :attr:`config`'s ``caregiver_period``,
        ``fault_specs``, ``failure_plan`` / ``outage_spec`` and crash /
        disconnect probabilities into
        simulator events.  The one-shot path calls it per query, between
        :meth:`launch` and ``executor.start()``; an engine calls it once
        in ``run()``, before it schedules the first arrival.  Returns
        the one scripted plan it applied (``None`` without one);
        :meth:`failure_events` reads what the sources have logged.
        """
        config = self.config
        if config.caregiver_period is not None:
            rounds = CaregiverRounds(
                period=config.caregiver_period,
                visit_duration=config.caregiver_visit,
                seed=config.seed + 2,
            )
            schedule = rounds.schedule(
                [d.device_id for d in self.contributors], horizon=until
            )
            schedule.install(self.simulator, self.network)

        if config.fault_specs:
            self.network.install_faults(
                MessageFaultInjector(config.fault_specs, seed=config.seed + 3)
            )

        # each source returns a live log that fills as its scheduled
        # events fire, so hold the references and merge only on demand
        self._failure_logs = []
        # an outage spec resolves over the processor pool with its own
        # seed stream (seed + 5), so runs without one draw nothing from
        # it; its atoms join the scripted plan and one apply installs both
        processor_ids = [d.device_id for d in self.processors]
        plan = config.failure_plan
        if config.outage_spec is not None and not config.outage_spec.is_noop():
            resolved = build_outage_plan(
                config.outage_spec, processor_ids,
                horizon=until, seed=config.seed + 5,
            )
            plan = resolved if plan is None else plan.union(resolved)
        if plan is not None:
            self._failure_logs.append(plan.apply(self.simulator, self.network))

        if config.crash_probability > 0 or config.disconnect_probability > 0:
            injector = FailureInjector(
                self.simulator,
                self.network,
                device_ids=processor_ids,
                crash_probability=config.crash_probability,
                disconnect_probability=config.disconnect_probability,
                disconnect_duration=config.disconnect_duration,
                seed=config.seed + 1,
            )
            injector.start(until=until)
            self._failure_logs.append(injector.events)
        return plan

    def failure_events(self) -> list[Any]:
        """What the installed fault sources logged so far, by time."""
        events = [event for log in self._failure_logs for event in log]
        events.sort(key=lambda event: event.time)
        return events

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

    @cached_property
    def engine(self) -> CentralizedEngine:
        """The centralized oracle over :attr:`config`'s dataset.

        Built on first use, from the dataset as it is then.  Every row
        already passed ``validate_row`` when :meth:`_deal_data` dealt it,
        so the table is normalised to the schema without a second check.
        """
        engine = CentralizedEngine()
        engine.register(
            "data", Relation.of_valid(self.config.schema, self.config.rows)
        )
        return engine

    def centralized_result(self, spec: QuerySpec):
        """Run the same logical query on the centralized oracle."""
        if spec.group_by is None:
            raise ValueError("centralized verification needs a group_by query")
        return self.engine.execute_logical("data", spec.group_by)
