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
from repro.core.liability import (
    LiabilityReport,
    count_operators,
    liability_report,
)
from repro.core.planner import (
    PrivacyParameters,
    QuerySpec,
    ResiliencyParameters,
)
from repro.core.privacy import ExposureReport
from repro.core.qep import OperatorRole, QueryExecutionPlan
from repro.core.runtime import (
    ExecutionCoordinator,
    ExecutionEvidence,
    ExecutionReport,
)
from repro.devices.attestation import AttestationAuthority, AttestationError
from repro.devices.datastore import DatastoreFullError
from repro.devices.edgelet import Edgelet
from repro.devices.profiles import DeviceProfile, HOME_BOX, PC_SGX, SMARTPHONE
from repro.devices.tee import SealedGlassObserver
from repro.data.generators import distribute_rows_to_devices
from repro.errors import SpecError
from repro.network.failures import FailurePlan, MessageFault, build_crash_plan
from repro.network.faults import FaultSpec, MessageFaultInjector
from repro.network.mobility import CaregiverRounds
from repro.network.opnet import NetworkConfig, OpportunisticNetwork
from repro.network.outages import OutageSpec, build_outage_plan
from repro.network.reliable import ReliableTransport
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph
from repro.plan.compile import CompiledQuery, compile_query
from repro.plan.substrate import SubstrateProfile
from repro.query.engine import CentralizedEngine
from repro.query.relation import Relation
from repro.query.schema import Schema

__all__ = [
    "RunOptions",
    "ScenarioConfig",
    "Scenario",
    "ScenarioResult",
    "check_timing",
]

_scenario_ids = itertools.count(1)


@dataclass(frozen=True, kw_only=True)
class RunOptions:
    """The fault and execution options of one run, declared and checked
    once: :class:`ScenarioConfig` and its serialisable mirror
    :class:`~repro.chaos.campaign.RunSpec` inherit them, and a bad value
    raises :class:`~repro.errors.SpecError` naming it.

    Attributes:
        crash_probability: per-tick crash probability (failure slider),
            drawn into plan atoms at install (``seed + 1``).
        disconnect_probability: per-tick disconnection probability.
        disconnect_duration: offline window length in virtual seconds.
        message_loss: extra i.i.d. message-loss probability.
        fault_specs: :class:`~repro.network.faults.FaultSpec`
            message-fault rules, one whole-run plan atom each, rolled on
            every send (seeded with ``seed + 3``).
        failure_plan: optional scripted
            :class:`~repro.network.failures.FailurePlan`, installed at
            query start (chaos replay path).
        outage_spec: optional
            :class:`~repro.network.outages.OutageSpec`; its topology
            atoms (partitions, regional crashes, gray windows) are
            resolved over the processor pool with ``seed + 5`` and
            joined to ``failure_plan``, which then must not script
            topology atoms itself.
        secure_channels: seal payloads in authenticated envelopes.
        reliability: wire the
            :class:`~repro.network.reliable.ReliableTransport` overlay
            (ACK/retransmission, jitter RNG from ``seed + 4``) plus the
            query-level :class:`~repro.core.runtime.recovery.RecoveryRuntime`
            (phase watchdogs, standby reprovisioning, degradation).
        phase_deadline: computation-phase deadline offset of the recovery
            layer (``None`` = 85% of the query deadline); positive, and
            requires ``reliability``.
        detector: feed transport delivery observations into a φ-accrual
            failure detector, so the recovery watchdog reprovisions
            *suspected* (partitioned/gray) Computers; requires
            ``reliability``.
    """

    crash_probability: float = 0.0
    disconnect_probability: float = 0.0
    disconnect_duration: float = 10.0
    message_loss: float = 0.0
    fault_specs: tuple[FaultSpec, ...] = ()
    failure_plan: FailurePlan | None = None
    outage_spec: OutageSpec | None = None
    secure_channels: bool = False
    reliability: bool = False
    phase_deadline: float | None = None
    detector: bool = False

    def __post_init__(self) -> None:
        # detector and phase_deadline act through the recovery layer
        # reliability wires: without it they would be silently inert
        if self.phase_deadline is not None and self.phase_deadline <= 0:
            raise SpecError("phase_deadline must be positive")
        if not self.reliability:
            if self.detector:
                raise SpecError("detector requires reliability")
            if self.phase_deadline is not None:
                raise SpecError("phase_deadline requires reliability")
        for name in ("crash_probability", "disconnect_probability", "message_loss"):
            if not 0 <= getattr(self, name) <= 1:
                raise SpecError(f"{name} must be in [0, 1]")
        if self.disconnect_duration <= 0:
            raise SpecError("disconnect_duration must be positive")

    @property
    def any_chaos(self) -> bool:
        """Whether any fault source is configured: failure-slider crashes
        or disconnects, message loss, message-fault rules, a scripted plan
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


def check_timing(collection_window: float, deadline: float) -> None:
    """Reject a non-positive collection window or deadline, and a
    deadline that leaves no time after the collection phase."""
    if collection_window <= 0 or deadline <= 0:
        raise SpecError("collection_window and deadline must be positive")
    if deadline <= collection_window:
        raise SpecError("deadline must exceed the collection window")


@dataclass(frozen=True)
class ScenarioConfig(RunOptions):
    """Declarative description of one demonstration scenario.

    Attributes:
        n_contributors: simulated Data Contributor devices.
        n_processors: extra devices eligible for Data Processor roles.
        device_mix: (pc, smartphone, home_box) proportions.
        rows: the synthetic dataset dealt out to contributors.
        schema: common schema of the shared database.
        rows_per_device: (min, max) owner records per device.
        collection_window: virtual seconds for the collection phase.
        deadline: virtual query deadline; exceeds ``collection_window``.
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

    The fault and execution options are :class:`RunOptions` fields.
    Every execution path — the one-shot path, both engines, the chaos
    harnesses — builds one of these.
    """

    n_contributors: int
    n_processors: int
    rows: list[dict[str, Any]]
    schema: Schema
    device_mix: tuple[float, float, float] = (0.3, 0.4, 0.3)
    rows_per_device: tuple[int, int] = (1, 3)
    collection_window: float = 30.0
    deadline: float = 100.0
    compromised_processors: int = 0
    rogue_processors: int = 0
    require_attestation: bool = False
    caregiver_period: float | None = None
    caregiver_visit: float = 10.0
    seed: int = 0
    scenario_tag: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        check_timing(self.collection_window, self.deadline)
        if self.failure_plan is not None and self.failure_plan.has_outages():
            if self.outage_spec is not None and not self.outage_spec.is_noop():
                raise SpecError(
                    "failure_plan already scripts topology outages; "
                    "drop outage_spec or those atoms"
                )
        if self.n_contributors <= 0:
            raise SpecError("n_contributors must be positive")
        if self.n_processors <= 0:
            raise SpecError("n_processors must be positive")
        if len(self.device_mix) != 3 or sum(self.device_mix) <= 0:
            raise SpecError("device_mix must be 3 non-negative weights")
        if self.compromised_processors < 0:
            raise SpecError("compromised_processors must be non-negative")
        if not 0 <= self.rogue_processors <= self.n_processors:
            raise SpecError("rogue_processors must be within the processor pool")
        if self.caregiver_period is not None:
            if self.caregiver_period <= 0:
                raise SpecError("caregiver_period must be positive")
            if not 0 < self.caregiver_visit <= self.caregiver_period:
                raise SpecError(
                    "caregiver_visit must be in (0, caregiver_period]"
                )


@dataclass
class ScenarioResult:
    """One execution, from :meth:`Scenario.launch` to its verdicts.

    ``launch`` fills ``report`` / ``plan`` / ``executor`` /
    ``transport``; :meth:`Scenario.conclude` adds ``evidence``; whoever
    judges the run adds the rest through :meth:`judged`
    (:meth:`Scenario.run_compiled`, the chaos drivers).

    A concluded execution needs only ``report`` and ``evidence``: they
    are all the invariant checks (:func:`repro.chaos.invariants.
    check_all`) and :meth:`judged` read.  A multi-query engine keeps
    just those per unit and lets the rest go, plan included; the
    one-shot path returns the whole result, whose plan the CLI renders.

    Attributes:
        report: the executor's detailed report (the live object; final
            once :meth:`Scenario.conclude` sealed it).
        plan: the executed plan (``None`` for a concluded engine unit
            being judged).
        exposure: plan-level privacy exposure bounds.
        liability: crowd-liability distribution.
        verification: filled by
            :func:`repro.manager.verification.verify_against_centralized`.
        executor: the live
            :class:`~repro.core.runtime.ExecutionCoordinator`, for
            callers that inspect one run's runtimes (tests, benches); no
            check reads it, and an engine's concluded unit does not
            keep it.
        evidence: the :class:`~repro.core.runtime.ExecutionEvidence`
            :meth:`Scenario.conclude` took from the executor (combiner
            records with their dedup verdicts, the execution's events,
            start time, the
            operator → device map and exposure facts of the plan, the
            network for liveness reads); ``None`` until then.
        failure_events: what the installed failure plan logged, by
            time.
        fault_injector: the message-fault injector, if one was
            installed (its decision log feeds the shrinker).
        transport: the reliability overlay, when the scenario enabled
            one (its receipts and stats feed tests and benches).
        failure_plan: the one plan installed — the configured plan
            plus the atoms every seeded fault source resolved to (the
            shrinker pins it: the run replays from it alone).
    """

    report: ExecutionReport
    plan: QueryExecutionPlan | None = None
    exposure: ExposureReport | None = None
    liability: LiabilityReport | None = None
    verification: Any = None
    executor: Any = None
    evidence: ExecutionEvidence | None = None
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
        """A copy carrying what the invariant checks read beside the
        report and evidence: exposure and liability measured from the
        plan facts the evidence kept, plus the substrate's failure and
        message-fault logs (shared by every query of an engine).  It
        reads only the concluded fields, never the plan, so a concluded
        unit and a one-shot result are judged alike."""
        evidence = self.evidence
        return dataclasses.replace(
            self,
            exposure=evidence.exposure.measure(separated_pairs),
            liability=liability_report(
                count_operators(evidence.processors, {}),
                tuples_per_device=self.report.tuples_per_device,
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
        # the live event log of the plan install_chaos applied
        self._failure_log: list[Any] = []

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
        """Seal one launched execution once its horizon has passed, and
        take its :class:`~repro.core.runtime.ExecutionEvidence` into
        ``result.evidence``: after this, ``report`` and ``evidence`` are
        all any check needs of it."""
        executor = result.executor
        report = executor.finish()
        if result.transport is not None:
            result.transport.close()
        self.record_query_metrics(report, executor.start_time)
        result.evidence = executor.evidence()
        return report

    def install_chaos(self, until: float) -> FailurePlan:
        """Resolve every configured fault source into one plan and
        install it, active up to ``until``.

        The only site that turns :attr:`config`'s ``caregiver_period``,
        ``fault_specs``, ``failure_plan`` / ``outage_spec`` and crash /
        disconnect probabilities into simulator events: the outage spec
        resolves over the processor pool (``seed + 5``), the failure
        slider over the live processors from now (``seed + 1``), each
        message-fault rule into one whole-run atom (rolled from
        ``seed + 3``).  The one-shot path calls it per query, between
        :meth:`launch` and ``executor.start()``; an engine calls it once
        in ``run()``, before it schedules the first arrival.  Returns
        the plan it applied: under
        :func:`~repro.chaos.shrink.plan_only` it replays this run.
        :meth:`failure_events` reads what it has logged.
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

        processor_ids = [d.device_id for d in self.processors]
        plan = config.failure_plan or FailurePlan()
        if config.outage_spec is not None and not config.outage_spec.is_noop():
            plan = plan.union(build_outage_plan(
                config.outage_spec, processor_ids,
                horizon=until, seed=config.seed + 5,
            ))
        if config.crash_probability > 0 or config.disconnect_probability > 0:
            plan = build_crash_plan(
                plan,
                [d for d in processor_ids if not self.network.is_dead(d)],
                crash_probability=config.crash_probability,
                disconnect_probability=config.disconnect_probability,
                disconnect_duration=config.disconnect_duration,
                start=self.simulator.now,
                until=until,
                seed=config.seed + 1,
            )
        if config.fault_specs:
            plan = plan.union(FailurePlan(
                message_faults=[MessageFault(spec) for spec in config.fault_specs]
            ))
        if plan.message_faults:
            self.network.install_faults(MessageFaultInjector(
                plan.message_faults,
                seed=config.seed + 3,
                clock=lambda: self.simulator.now,
            ))
        self._failure_log = plan.apply(self.simulator, self.network)
        return plan

    def failure_events(self) -> list[Any]:
        """What the installed plan logged so far, by time."""
        return sorted(self._failure_log, key=lambda event: event.time)

    def record_query_metrics(
        self, report: ExecutionReport, start_time: float
    ) -> None:
        """Count one finished query under ``scenario.*``.

        Each counter exists twice: the unlabelled aggregate, and a
        sibling labelled by ``query``.  Many queries share one scenario
        (a workload, a standing query's windows), and the aggregate
        alone would fold them into one number: the label keeps each
        query's outcome and latency recoverable.
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
