"""Seeded chaos campaigns over the Edgelet execution strategies.

A campaign sweeps (replica count x failure probability x fault mix x
topology) over a fixed number of runs.  Every run is a pure function of
its derived seed: device identities come from ``(scenario_tag, seed)``,
every fault source resolves into one plan from seed-derived RNGs before
the run starts, and the discrete-event kernel breaks ties
deterministically.  Re-running a :class:`RunSpec`, or the run with
only the plan it installed, reproduces a violation bit-for-bit — the
property the shrinker and the JSON repro artifacts are built on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.network.faults import FaultSpec
from repro.chaos.invariants import (
    RunRecord,
    Violation,
    check_all,
    no_fault_observed,
)
from repro.chaos.shrink import plan_only, shrink_failure_plan
from repro.core.planner import PrivacyParameters, ResiliencyParameters
from repro.core.resiliency import replicas_for, strategy_name
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.errors import SpecError
from repro.manager.scenario import RunOptions
from repro.network.failures import FailurePlan, read_field
from repro.network.outages import OutageSpec
from repro.plan.compile import OPTIMIZER_COST, OPTIMIZER_PINNED, compile_query

__all__ = [
    "TopologySpec",
    "RunSpec",
    "RunOutcome",
    "CampaignConfig",
    "CampaignResult",
    "run_single",
    "run_campaign",
    "DEFAULT_SQL",
]

#: The demo's Grouping Sets query — the campaign workload.
DEFAULT_SQL = (
    "SELECT count(*), avg(age), avg(bmi) FROM health "
    "WHERE age > 65 "
    "GROUP BY GROUPING SETS ((region), (sex), ())"
)

# large prime stride so per-run seeds never collide across campaign
# seeds that are close together
_SEED_STRIDE = 100_003


@dataclass(frozen=True)
class TopologySpec:
    """Swarm shape of one campaign cell."""

    n_contributors: int = 24
    n_processors: int = 20
    n_rows: int = 48
    device_mix: tuple[float, float, float] = (1.0, 0.0, 0.0)

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_contributors": self.n_contributors,
            "n_processors": self.n_processors,
            "n_rows": self.n_rows,
            "device_mix": list(self.device_mix),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TopologySpec":
        read = partial(read_field, data, owner="topology")
        return cls(
            n_contributors=read("n_contributors", int),
            n_processors=read("n_processors", int),
            n_rows=read("n_rows", int),
            device_mix=read("device_mix", tuple, (1.0, 0.0, 0.0)),
        )


@dataclass(frozen=True)
class RunSpec(RunOptions):
    """Fully deterministic description of one chaos run.

    Serializable; :func:`run_single` on an identical spec in any
    process reproduces the identical execution.  The fault and
    execution options are :class:`~repro.manager.scenario.RunOptions`
    fields, checked on construction (so an artifact fails at load).
    """

    seed: int
    tag: str
    #: passive replica ranks per Data Processor operator (``0`` plans
    #: Overcollection)
    replicas: int = 0
    topology: TopologySpec = field(default_factory=TopologySpec)
    sql: str = DEFAULT_SQL
    # C defaults to twice the topology's dataset size: hash-imbalanced
    # partitions then never hit the C/n cap, so a *clean* run is exact
    # against the centralized oracle — the strict validity invariant
    # depends on that
    cardinality: int = 96
    max_raw: int = 12
    planner_fault_rate: float = 0.1
    target_success: float = 0.99
    collection_window: float = 20.0
    deadline: float = 70.0
    validity_tolerance: float = 0.75
    liability_max_share: float = 0.5
    #: ``"pinned"`` replays the legacy hand-assembled physical
    #: parameters byte-for-byte; ``"cost"`` lets the
    #: :class:`~repro.plan.optimizer.PhysicalOptimizer` pick
    #: partitioning and replication over the run's substrate profile.
    optimizer: str = OPTIMIZER_PINNED

    def to_dict(self) -> dict[str, Any]:
        data = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        data["topology"] = self.topology.to_dict()
        data["fault_specs"] = [spec.to_dict() for spec in self.fault_specs]
        for name in ("failure_plan", "outage_spec"):
            if data[name] is not None:
                data[name] = data[name].to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunSpec":
        """Load a spec: absent keys take the field default, keys of
        removed fields are ignored, and a missing, ill-typed or
        out-of-range field raises :class:`~repro.errors.SpecError`
        naming it."""
        read = partial(read_field, data, owner="run spec")
        # artifacts written before the replica count was the one
        # resiliency field spelled it as a strategy name + chain length
        if "strategy" in data and "replicas" not in data:
            spell = partial(
                replicas_for, backup_replicas=read("backup_replicas", int, 1)
            )
            data = {**data, "replicas": read("strategy", spell)}
            read = partial(read_field, data, owner="run spec")
        # artifacts written before topology atoms joined FailurePlan kept
        # them under their own key; the two JSON shapes' keys are disjoint
        legacy = read("outage_plan", _optional(dict), None)
        if legacy:
            plan = read("failure_plan", _optional(dict), None)
            data = {**data, "failure_plan": {**(plan or {}), **legacy}}
            read = partial(read_field, data, owner="run spec")
        return cls(
            **{
                f.name: read(f.name, _READERS[f.type])
                for f in dataclasses.fields(cls)
                if f.name in data or f.name in ("seed", "tag")  # required
            }
        )


def _optional(convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: None if value is None else convert(value)


#: RunSpec field annotation -> its JSON reader
_READERS: dict[str, Callable[[Any], Any]] = {
    "int": int,
    "str": str,
    "float": float,
    "bool": bool,
    "float | None": _optional(float),
    "TopologySpec": TopologySpec.from_dict,
    "tuple[FaultSpec, ...]": lambda specs: tuple(FaultSpec.from_dict(s) for s in specs),
    "FailurePlan | None": _optional(FailurePlan.from_dict),
    "OutageSpec | None": _optional(OutageSpec.from_dict),
}


@dataclass
class RunOutcome:
    """One run's result plus its invariant verdicts."""

    spec: RunSpec
    result: Any
    reference: Any
    violations: list[Violation]
    clean: bool

    @property
    def ok(self) -> bool:
        return not self.violations


def _is_clean(spec: RunSpec, result: Any) -> bool:
    """Whether the run experienced no failure or fault of any kind."""
    return spec.message_loss <= 0 and no_fault_observed(
        result.failure_events,
        result.fault_injector,
        result.report.network_stats or {},
    )


def run_single(spec: RunSpec, telemetry: Any = None) -> RunOutcome:
    """Execute one deterministic chaos run and check every invariant.

    Each run gets its own fresh :class:`~repro.telemetry.Telemetry`
    unless one is passed, keeping the process-wide registry out of the
    determinism equation.
    """
    from repro.manager.scenario import Scenario, ScenarioConfig
    from repro.telemetry import Telemetry

    if telemetry is None:
        telemetry = Telemetry()
    topology = spec.topology
    rows = generate_health_rows(topology.n_rows, seed=spec.seed)
    config = ScenarioConfig(
        n_contributors=topology.n_contributors,
        n_processors=topology.n_processors,
        rows=rows,
        schema=HEALTH_SCHEMA,
        device_mix=topology.device_mix,
        collection_window=spec.collection_window,
        deadline=spec.deadline,
        seed=spec.seed,
        scenario_tag=spec.tag,
        **{f.name: getattr(spec, f.name) for f in dataclasses.fields(RunOptions)},
    )
    scenario = Scenario(config, telemetry=telemetry)
    substrate = (
        scenario.substrate_profile(fault_rate=spec.planner_fault_rate)
        if spec.optimizer == OPTIMIZER_COST
        else None
    )
    compiled = compile_query(
        spec.sql,
        query_id=f"{spec.tag}-q",
        snapshot_cardinality=spec.cardinality,
        privacy=PrivacyParameters(max_raw_per_edgelet=spec.max_raw),
        resiliency=ResiliencyParameters(
            fault_rate=spec.planner_fault_rate,
            target_success=spec.target_success,
            replicas=spec.replicas,
        ),
        optimizer=spec.optimizer,
        substrate=substrate,
    )
    result = scenario.run_compiled(compiled)
    reference = scenario.centralized_result(compiled.spec)
    clean = _is_clean(spec, result)
    record = RunRecord(
        result=result,
        reference=reference,
        clean=clean,
        validity_tolerance=spec.validity_tolerance,
        liability_max_share=spec.liability_max_share,
    )
    violations = check_all(record)
    return RunOutcome(
        spec=spec,
        result=result,
        reference=reference,
        violations=violations,
        clean=clean,
    )


#: the RunSpec fields a campaign's grid axes sweep
_GRID_FIELDS = ("replicas", "crash_probability", "fault_specs", "topology")


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one chaos campaign sweep.

    ``base`` is the template every run's :class:`RunSpec` is stamped
    from: its ``seed`` is the campaign seed and its ``tag`` the prefix
    of every run tag.  The sweep grid is the cross-product of
    ``replicas``, ``crash_probabilities``, ``fault_mixes``, and
    ``topologies``; run ``i`` executes grid cell ``i % len(grid)`` with
    seed ``base.seed + i * 100003`` and tag ``{base.tag}-{base.seed}-{i}``,
    so adding runs extends coverage without changing earlier runs.  The
    grid owns the four RunSpec fields it sweeps: a ``base`` that sets
    one of them raises :class:`~repro.errors.SpecError`.  So does a
    ``base`` with a ``failure_plan`` (a scripted plan names the devices
    of one run's tag, so it belongs to a single run — replay,
    shrinking — never to the whole sweep), fewer than one run, or a
    negative shrink budget.
    """

    base: RunSpec = field(default_factory=lambda: RunSpec(seed=0, tag="chaos"))
    runs: int = 25
    #: replica counts swept: Overcollection, then one-replica Backup
    replicas: tuple[int, ...] = (0, 1)
    crash_probabilities: tuple[float, ...] = (0.0, 0.002)
    fault_mixes: tuple[tuple[FaultSpec, ...], ...] = ((),)
    topologies: tuple[TopologySpec, ...] = (TopologySpec(),)
    shrink: bool = True
    shrink_budget: int = 24

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise SpecError("runs must be positive")
        if self.shrink_budget < 0:
            raise SpecError("shrink_budget must be non-negative")
        untouched = RunSpec(seed=self.base.seed, tag=self.base.tag)
        for name in _GRID_FIELDS:
            if getattr(self.base, name) != getattr(untouched, name):
                raise SpecError(
                    f"base.{name} is swept by the campaign grid; "
                    "set it through the grid axis"
                )
        if self.base.failure_plan is not None:
            raise SpecError(
                "base.failure_plan names one run's devices; scripted plans "
                "are per-run (replay, shrinking), not a campaign template"
            )
        for index in range(len(self.grid())):
            self.spec_for(index)  # every axis value meets RunOptions' checks

    def grid(self) -> list[tuple[int, float, tuple[FaultSpec, ...], TopologySpec]]:
        cells = []
        for replicas in self.replicas:
            for crash_probability in self.crash_probabilities:
                for fault_mix in self.fault_mixes:
                    for topology in self.topologies:
                        cells.append(
                            (replicas, crash_probability, fault_mix, topology)
                        )
        return cells

    def spec_for(self, index: int) -> RunSpec:
        """The deterministic RunSpec of campaign run ``index``."""
        cells = self.grid()
        replicas, crash_probability, fault_mix, topology = cells[index % len(cells)]
        base = self.base
        return dataclasses.replace(
            base,
            seed=base.seed + index * _SEED_STRIDE,
            tag=f"{base.tag}-{base.seed}-{index}",
            replicas=replicas,
            crash_probability=crash_probability,
            fault_specs=fault_mix,
            topology=topology,
        )


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    config: CampaignConfig
    outcomes: list[RunOutcome] = field(default_factory=list)
    artifacts: list[Any] = field(default_factory=list)  # ReproArtifact

    @property
    def violations(self) -> list[tuple[int, Violation]]:
        found = []
        for index, outcome in enumerate(self.outcomes):
            for violation in outcome.violations:
                found.append((index, violation))
        return found

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary_rows(self) -> list[list[Any]]:
        """Per-grid-cell roll-up for the campaign summary table."""
        buckets: dict[tuple[str, float, int], dict[str, Any]] = {}
        for outcome in self.outcomes:
            spec = outcome.spec
            key = (
                strategy_name(spec.replicas),
                spec.crash_probability,
                len(spec.fault_specs),
            )
            bucket = buckets.setdefault(
                key,
                {"runs": 0, "succeeded": 0, "violations": 0, "faults": 0},
            )
            bucket["runs"] += 1
            bucket["succeeded"] += 1 if outcome.result.report.success else 0
            bucket["violations"] += len(outcome.violations)
            injector = outcome.result.fault_injector
            bucket["faults"] += len(injector.decisions) if injector else 0
        rows = []
        for (strategy, crash_probability, n_specs), bucket in sorted(buckets.items()):
            rows.append(
                [
                    strategy,
                    crash_probability,
                    n_specs,
                    bucket["runs"],
                    bucket["succeeded"],
                    bucket["faults"],
                    bucket["violations"],
                ]
            )
        return rows


def _reproduces_with_plan(
    spec: RunSpec, invariant: str, clean: bool
) -> Callable[[FailurePlan], bool]:
    """Build the shrinker's predicate: does this plan alone (see
    :func:`~repro.chaos.shrink.plan_only`) still trigger the same
    invariant in a run as ``clean`` as the original?  (A clean re-run
    meets the exact bar, not the faulty run's one.)"""

    def predicate(plan: FailurePlan) -> bool:
        outcome = run_single(dataclasses.replace(spec, **plan_only(plan)))
        return outcome.clean == clean and any(
            v.invariant == invariant for v in outcome.violations
        )

    return predicate


def run_campaign(config: CampaignConfig, telemetry: Any = None) -> CampaignResult:
    """Run a full campaign; shrink and record an artifact per violation."""
    from repro.chaos.artifact import ReproArtifact
    from repro.telemetry import get_telemetry

    if telemetry is None:
        telemetry = get_telemetry()
    metrics = telemetry.metrics
    m_runs = metrics.counter("chaos.runs")
    campaign_span = telemetry.tracer.start(
        "chaos:campaign", at=0.0, seed=config.base.seed, runs=config.runs
    )
    result = CampaignResult(config=config)
    for index in range(config.runs):
        spec = config.spec_for(index)
        run_span = telemetry.tracer.start(
            f"chaos:run[{index}]",
            at=float(index),
            parent=campaign_span,
            seed=spec.seed,
            strategy=strategy_name(spec.replicas),
        )
        outcome = run_single(spec)
        result.outcomes.append(outcome)
        m_runs.inc()
        for violation in outcome.violations:
            metrics.counter(
                "chaos.invariant_violations", invariant=violation.invariant
            ).inc()
            telemetry.tracer.event(
                "chaos:violation",
                at=float(index),
                run=index,
                invariant=violation.invariant,
            )
            artifact = _build_artifact(
                config, spec, outcome, violation, ReproArtifact
            )
            result.artifacts.append(artifact)
        run_span.finish(at=float(index + 1))
    campaign_span.finish(at=float(config.runs))
    return result


def _build_artifact(
    config: CampaignConfig,
    spec: RunSpec,
    outcome: RunOutcome,
    violation: Violation,
    artifact_cls: Any,
) -> Any:
    """The artifact of one violation: the run with only the plan it
    installed, shrunk by one ddmin pass over every atom kind within
    ``shrink_budget`` re-executions (unless ``config.shrink`` is off).
    """
    plan = outcome.result.failure_plan
    if config.shrink:
        plan = shrink_failure_plan(
            plan,
            _reproduces_with_plan(spec, violation.invariant, outcome.clean),
            max_attempts=config.shrink_budget,
        )
    return artifact_cls.from_violation(
        violation, dataclasses.replace(spec, **plan_only(plan))
    )
