"""Chaos campaigns over *concurrent* workloads.

The single-query campaign (:mod:`~repro.chaos.campaign`) answers "does
one execution keep its promises under faults?".  This module asks the
harder multiplexed question: with N queries in flight over one shared
swarm, faults injected into the shared network and device population,
does **every** query still keep them *individually*?

One :func:`run_workload` call drives a
:class:`~repro.workload.engine.WorkloadEngine` with whatever fault
sources and execution options its keywords forward to the engine's
:class:`~repro.manager.scenario.ScenarioConfig` (scripted
:class:`~repro.network.failures.FailurePlan` of any atom kind, seeded
outage spec, stochastic crash/disconnect injector, message-fault
injector, plain message loss; sealed channels, reliability's detector
and fencing), then rebuilds a per-query
:class:`~repro.chaos.invariants.RunRecord` for every completed query —
exposure and liability measured on *that query's* plan, validity
compared against the shared centralized oracle — and runs the full
invariant suite on each.  The workload-level conservation identity
(``shed + completed == arrivals``) is checked as a sixth invariant.

Everything stays a pure function of ``(spec, keywords)``: the same
workload-chaos run reproduces bit-for-bit, which is what
:func:`shrink_workload_plan` leans on to reduce a failing schedule to a
minimal :class:`FailurePlan` by re-running the whole workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

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
    "QueryOutcome",
    "WorkloadChaosOutcome",
    "run_workload",
    "shrink_workload_plan",
    "workload_failure_predicate",
]


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
    """Everything one workload-chaos run produced.

    ``options`` holds every keyword :func:`run_workload` ran with, so
    ``run_workload(outcome.spec, **outcome.options)`` is the same run.
    ``installed_plan`` is the one scripted plan the run installed: the
    ``failure_plan`` option plus whatever ``outage_spec`` resolved to.
    """

    spec: WorkloadSpec
    options: dict[str, Any]
    result: WorkloadResult
    queries: list[QueryOutcome]
    failure_events: list[Any]
    clean: bool
    installed_plan: FailurePlan | None = None

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
    *,
    telemetry: Any = None,
    validity_tolerance: float = 0.75,
    liability_max_share: float = 0.5,
    n_contributors: int = 24,
    n_processors: int = 40,
    **engine_options: Any,
) -> WorkloadChaosOutcome:
    """Run one workload under chaos and check every invariant per query.

    ``engine_options`` are forwarded to :class:`WorkloadEngine` —
    ``standby_count`` and any
    :class:`~repro.manager.scenario.ScenarioConfig` field it does not
    derive from ``spec``; with no fault source among them the run is a
    plain (clean) workload, and the invariant suite holds each query to
    the *exact* clean-run bar.

    The shared failure-event log and fault injector are attached to
    every query's record: a fault anywhere on the shared substrate can
    legitimately explain any query's degradation, so the one-sided
    invariant checks must see the whole log, not a per-query slice.
    """
    options = dict(
        validity_tolerance=validity_tolerance,
        liability_max_share=liability_max_share,
        n_contributors=n_contributors,
        n_processors=n_processors,
        **engine_options,
    )
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
        n_contributors=n_contributors,
        n_processors=n_processors,
        rows=rows,
        telemetry=telemetry,
        **engine_options,
    )
    result = engine.run()
    failure_events = engine.scenario.failure_events()
    fault_injector = engine.scenario.network.faults
    # clean is a *post hoc* verdict, like the campaign's: the shared
    # opportunistic network is lossy by design, so any loss anywhere in
    # the workload demotes every query to the tolerance-bound checks
    # (network stats are substrate-wide, not per query)
    clean = not engine.scenario_config.any_chaos and no_fault_observed(
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
                validity_tolerance=validity_tolerance,
                liability_max_share=liability_max_share,
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
        options=options,
        result=result,
        queries=queries,
        failure_events=failure_events,
        clean=clean,
        installed_plan=engine.installed_plan,
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
    outcome: WorkloadChaosOutcome,
    failing: Callable[[WorkloadChaosOutcome], bool] | None = None,
) -> Callable[[FailurePlan], bool]:
    """Build the shrinker's predicate over whole-workload re-runs.

    A candidate plan reproduces when the workload — re-run with the
    keywords ``outcome`` ran with, but *only* that scripted plan
    (stochastic injectors off, so the shrunk artifact is
    self-contained) — still satisfies ``failing``.  The default
    criterion is "some query fails or some invariant fires".  When the
    run's installed plan pinned the atoms its ``outage_spec`` resolved
    to, the re-runs drop the spec: the candidate plan alone decides
    which outages happen.
    """
    if failing is None:
        failing = lambda rerun: (  # noqa: E731
            any(q.success is False for q in rerun.queries)
            or bool(rerun.violations)
        )
    options = {
        **outcome.options,
        "crash_probability": 0.0,
        "disconnect_probability": 0.0,
    }
    installed = outcome.installed_plan
    if installed is not None and installed.has_outages():
        options["outage_spec"] = None

    def predicate(plan: FailurePlan) -> bool:
        candidate = {
            **options,
            "failure_plan": plan if not plan.is_empty() else None,
        }
        return failing(run_workload(outcome.spec, **candidate))

    return predicate


def shrink_workload_plan(
    outcome: WorkloadChaosOutcome,
    failing: Callable[[WorkloadChaosOutcome], bool] | None = None,
    max_attempts: int = 24,
) -> FailurePlan | None:
    """Reduce a failing workload's schedule to a minimal scripted plan.

    Merges the observed crash/disconnect events with the plan the run
    installed (scripted input plus resolved outages), verifies the
    merged plan alone still makes the workload fail (``failing``, same
    default as :func:`workload_failure_predicate`), then delta-debugs
    it down.  Returns ``None`` when the scripted conversion does not
    reproduce — the failure needed message-level faults or loss, which
    a FailurePlan cannot express.
    """
    full_plan = observed_plan(outcome.failure_events, outcome.installed_plan)
    predicate = workload_failure_predicate(outcome, failing)
    if not predicate(full_plan):
        return None
    return shrink_failure_plan(full_plan, predicate, max_attempts=max_attempts)
