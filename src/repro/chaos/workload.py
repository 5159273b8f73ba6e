"""Chaos campaigns over *concurrent* workloads.

The single-query campaign (:mod:`~repro.chaos.campaign`) answers "does
one execution keep its promises under faults?".  This module asks the
harder multiplexed question: with N queries in flight over one shared
swarm, faults injected into the shared network and device population,
does **every** query still keep them *individually*?

One :func:`run_workload` call drives a
:class:`~repro.workload.engine.WorkloadEngine` with the chaos hooks
installed (scripted :class:`~repro.network.failures.FailurePlan` of
any atom kind, partitions and gray windows included, stochastic
crash/disconnect injector, message-fault injector, plain
message loss), then rebuilds a per-query
:class:`~repro.chaos.invariants.RunRecord` for every completed query —
exposure and liability measured on *that query's* plan, validity
compared against the shared centralized oracle — and runs the full
invariant suite on each.  The workload-level conservation identity
(``shed + completed == arrivals``) is checked as a sixth invariant.

Everything stays a pure function of ``(spec, chaos knobs)``: the same
workload-chaos run reproduces bit-for-bit, which is what
:func:`shrink_workload_plan` leans on to reduce a failing schedule to a
minimal :class:`FailurePlan` by re-running the whole workload.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.network.faults import FaultSpec
from repro.chaos.invariants import (
    RunRecord,
    Violation,
    check_all,
    no_fault_observed,
)
from repro.chaos.shrink import observed_plan, shrink_failure_plan
from repro.network.failures import FailurePlan
from repro.plan.compile import compile_query
from repro.workload.engine import COMPLETED, WorkloadEngine, WorkloadResult
from repro.workload.spec import WorkloadSpec

__all__ = [
    "WorkloadChaosConfig",
    "QueryOutcome",
    "WorkloadChaosOutcome",
    "run_workload",
    "shrink_workload_plan",
    "workload_failure_predicate",
]


@dataclass(frozen=True)
class WorkloadChaosConfig:
    """Chaos knobs layered over one workload run.

    All fields default to "off"; a config with everything off is a
    plain (clean) workload run, and the invariant suite then holds each
    query to the *exact* clean-run bar.
    """

    n_contributors: int = 24
    n_processors: int = 40
    crash_probability: float = 0.0
    disconnect_probability: float = 0.0
    disconnect_duration: float = 10.0
    message_loss: float = 0.0
    fault_specs: tuple[FaultSpec, ...] = ()
    failure_plan: FailurePlan | None = None
    standby_count: int = 0
    validity_tolerance: float = 0.75
    liability_max_share: float = 0.5

    @property
    def any_chaos(self) -> bool:
        return bool(
            self.crash_probability > 0
            or self.disconnect_probability > 0
            or self.message_loss > 0
            or self.fault_specs
            or self.failure_plan is not None
        )


@dataclass
class QueryOutcome:
    """One workload query's invariant verdicts."""

    query_id: str
    outcome: str
    violations: list[Violation] = field(default_factory=list)
    success: bool | None = None
    degraded: bool | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class WorkloadChaosOutcome:
    """Everything one workload-chaos run produced."""

    spec: WorkloadSpec
    config: WorkloadChaosConfig
    result: WorkloadResult
    queries: list[QueryOutcome]
    failure_events: list[Any]
    clean: bool

    @property
    def violations(self) -> list[tuple[str, Violation]]:
        found = []
        for query in self.queries:
            for violation in query.violations:
                found.append((query.query_id, violation))
        return found

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary_rows(self) -> list[list[Any]]:
        """Per-query roll-up for the CLI table."""
        rows = []
        for query in self.queries:
            rows.append(
                [
                    query.query_id,
                    query.outcome,
                    "-" if query.success is None else ("yes" if query.success else "NO"),
                    "-" if query.degraded is None else ("yes" if query.degraded else "no"),
                    len(query.violations),
                ]
            )
        return rows


def run_workload(
    spec: WorkloadSpec,
    config: WorkloadChaosConfig | None = None,
    telemetry: Any = None,
) -> WorkloadChaosOutcome:
    """Run one workload under chaos and check every invariant per query.

    The shared failure-event log and fault injector are attached to
    every query's record: a fault anywhere on the shared substrate can
    legitimately explain any query's degradation, so the one-sided
    invariant checks must see the whole log, not a per-query slice.
    """
    if config is None:
        config = WorkloadChaosConfig()
    if telemetry is None:
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
    # dataset sized to half the snapshot cardinality: hash-imbalanced
    # partitions then never hit the C/n cap, so a *clean* run is exact
    # against the centralized oracle — the strict validity invariant
    # depends on that (same calibration as the single-query campaign)
    from repro.data.health import generate_health_rows

    rows = generate_health_rows(
        max(1, spec.snapshot_cardinality // 2), seed=spec.seed
    )
    engine = WorkloadEngine(
        spec,
        n_contributors=config.n_contributors,
        n_processors=config.n_processors,
        rows=rows,
        telemetry=telemetry,
        standby_count=config.standby_count,
        fault_specs=config.fault_specs or None,
        failure_plan=config.failure_plan,
        crash_probability=config.crash_probability,
        disconnect_probability=config.disconnect_probability,
        disconnect_duration=config.disconnect_duration,
        message_loss=config.message_loss,
    )
    result = engine.run()
    failure_events = engine.scenario.failure_events()
    fault_injector = engine.scenario.network.faults
    # clean is a *post hoc* verdict, like the campaign's: the shared
    # opportunistic network is lossy by design, so any loss anywhere in
    # the workload demotes every query to the tolerance-bound checks
    # (network stats are substrate-wide, not per query)
    clean = not config.any_chaos and no_fault_observed(
        failure_events,
        fault_injector,
        engine.scenario.network.stats.as_dict(),
    )
    oracle = compile_query(
        spec.sql,
        query_id="workload-oracle",
        snapshot_cardinality=spec.snapshot_cardinality,
    )
    reference = engine.scenario.centralized_result(oracle.spec)
    queries: list[QueryOutcome] = []
    for record in result.records:
        query_id = record.arrival.query_id
        if record.outcome != COMPLETED:
            queries.append(QueryOutcome(query_id=query_id, outcome=record.outcome))
            continue
        violations = check_all(
            RunRecord(
                result=record.result.judged(failure_events, fault_injector),
                reference=reference,
                strategy=record.arrival.strategy,
                clean=clean,
                validity_tolerance=config.validity_tolerance,
                liability_max_share=config.liability_max_share,
            )
        )
        queries.append(
            QueryOutcome(
                query_id=query_id,
                outcome=record.outcome,
                violations=violations,
                success=record.report.success,
                degraded=record.report.degraded,
            )
        )
    conservation = _check_conservation(result)
    if conservation is not None:
        queries.append(conservation)
    return WorkloadChaosOutcome(
        spec=spec,
        config=config,
        result=result,
        queries=queries,
        failure_events=failure_events,
        clean=clean,
    )


def _check_conservation(result: WorkloadResult) -> QueryOutcome | None:
    """The workload-level accounting identity, as a pseudo-query."""
    if result.shed + result.completed == result.arrivals:
        return None
    return QueryOutcome(
        query_id="<workload>",
        outcome="accounting",
        violations=[
            Violation(
                "workload_conservation",
                f"shed ({result.shed}) + completed ({result.completed}) "
                f"!= arrivals ({result.arrivals})",
                {
                    "shed": result.shed,
                    "completed": result.completed,
                    "arrivals": result.arrivals,
                },
            )
        ],
    )


def workload_failure_predicate(
    spec: WorkloadSpec,
    config: WorkloadChaosConfig,
    failing: Callable[[WorkloadChaosOutcome], bool] | None = None,
) -> Callable[[FailurePlan], bool]:
    """Build the shrinker's predicate over whole-workload re-runs.

    A candidate plan reproduces when the workload — re-run with *only*
    that scripted plan (stochastic injectors off, so the shrunk
    artifact is self-contained) — still satisfies ``failing``.  The
    default criterion is "some query fails or some invariant fires".
    """
    if failing is None:
        failing = lambda outcome: (  # noqa: E731
            any(q.success is False for q in outcome.queries)
            or bool(outcome.violations)
        )

    def predicate(plan: FailurePlan) -> bool:
        candidate = dataclasses.replace(
            config,
            failure_plan=plan if not plan.is_empty() else None,
            crash_probability=0.0,
            disconnect_probability=0.0,
        )
        return failing(run_workload(spec, candidate))

    return predicate


def shrink_workload_plan(
    spec: WorkloadSpec,
    config: WorkloadChaosConfig,
    outcome: WorkloadChaosOutcome,
    failing: Callable[[WorkloadChaosOutcome], bool] | None = None,
    max_attempts: int = 24,
) -> FailurePlan | None:
    """Reduce a failing workload's schedule to a minimal scripted plan.

    Merges the observed crash/disconnect events with any scripted input
    plan, verifies the merged plan alone still makes the workload fail
    (``failing``, same default as :func:`workload_failure_predicate`),
    then delta-debugs it down.  Returns ``None`` when the scripted
    conversion does not reproduce — the failure needed message-level
    faults or loss, which a FailurePlan cannot express.
    """
    full_plan = observed_plan(outcome.failure_events, config.failure_plan)
    predicate = workload_failure_predicate(spec, config, failing)
    if not predicate(full_plan):
        return None
    return shrink_failure_plan(full_plan, predicate, max_attempts=max_attempts)
