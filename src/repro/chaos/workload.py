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
outage spec, failure-slider crash/disconnect probabilities,
message-fault rules — all resolved into one plan before the first
arrival — and plain message loss; sealed channels, reliability's
detector), then :func:`judge` rebuilds a per-query
:class:`~repro.chaos.invariants.RunRecord` for every completed query —
exposure and liability measured on *that query's* plan, validity
compared against the centralized oracle over the shared dataset — and
runs the full invariant suite on each.  The workload-level conservation
identity (``shed + completed == arrivals``) is checked as a sixth
invariant.  :func:`judge` and :class:`UnitOutcome` are the one per-unit
judge of every multi-query run: :mod:`~repro.chaos.continuous` judges
standing-query windows with them too.

Everything stays a pure function of ``(spec, keywords)``: the same
workload-chaos run reproduces bit-for-bit, and so does the run with
only the plan it installed — what :func:`shrink_workload_plan` leans on
to reduce a failing schedule to a minimal :class:`FailurePlan` by
re-running the whole workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.chaos.invariants import (
    RunRecord,
    Violation,
    check_all,
    no_fault_observed,
)
from repro.chaos.shrink import plan_only, shrink_failure_plan
from repro.network.failures import FailurePlan
from repro.query.engine import CentralizedEngine
from repro.query.relation import Relation
from repro.workload.engine import COMPLETED, WorkloadEngine, WorkloadResult
from repro.workload.spec import WorkloadSpec

__all__ = [
    "UnitOutcome",
    "WorkloadChaosOutcome",
    "judge",
    "run_workload",
    "shrink_workload_plan",
    "workload_failure_predicate",
]


def _yes_no(flag: bool | None, no: str) -> str:
    return "-" if flag is None else ("yes" if flag else no)


@dataclass
class UnitOutcome:
    """One unit's invariant verdicts: a workload query, a standing-query
    window, or a run-level accounting identity (``outcome ==
    "accounting"``)."""

    unit_id: str
    outcome: str
    violations: list[Violation] = field(default_factory=list)
    success: bool | None = None
    degraded: bool | None = None
    coverage: float | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def row(self) -> list[Any]:
        """The CLI table row: unit, outcome, success, degraded,
        violation count."""
        return [
            self.unit_id,
            self.outcome,
            _yes_no(self.success, "NO"),
            _yes_no(self.degraded, "no"),
            len(self.violations),
        ]


@dataclass
class WorkloadChaosOutcome:
    """Everything one judged multi-query run produced.

    ``options`` holds every keyword the driver ran with, so
    ``run_workload(outcome.spec, **outcome.options)`` is the same run.
    ``installed_plan`` is the one plan the run installed: the
    ``failure_plan`` option plus every atom its seeded fault sources
    resolved to.
    """

    spec: Any
    options: dict[str, Any]
    result: Any
    units: list[UnitOutcome]
    failure_events: list[Any]
    clean: bool
    installed_plan: FailurePlan | None = None

    @property
    def violations(self) -> list[tuple[str, Violation]]:
        return [
            (unit.unit_id, violation)
            for unit in self.units
            for violation in unit.violations
        ]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary_rows(self) -> list[list[Any]]:
        """Per-unit roll-up for the CLI table."""
        return [unit.row() for unit in self.units]


def judge(
    engine: Any,
    units: Iterable[tuple[Any, list[dict[str, Any]]]],
    *,
    churned: bool = False,
    validity_tolerance: float,
    liability_max_share: float,
) -> tuple[list[Any], bool, list[UnitOutcome]]:
    """Hold every completed unit of a finished multi-query run to the
    full invariant suite.

    ``units`` is ``(record, rows)`` per unit, in order: the unit's
    record and the dataset its validity oracle — the engine's
    ``group_by`` on the centralized engine — runs over.  Returns the failure-event log, the run's
    *clean* verdict and one :class:`UnitOutcome` per unit.

    Clean is a *post hoc* verdict, like the campaign's: the shared
    opportunistic network is lossy by design and its stats are not per
    unit, so any loss, fault or (``churned``) population churn anywhere
    in the run demotes every unit to the tolerance-bound checks.  The
    shared failure-event log and fault injector are attached to every
    unit's record for the same reason: a fault anywhere on the shared
    substrate can legitimately explain any unit's degradation.
    """
    scenario = engine.scenario
    failure_events = scenario.failure_events()
    fault_injector = scenario.network.faults
    clean = (
        not engine.scenario_config.any_chaos
        and not churned
        and no_fault_observed(
            failure_events, fault_injector, scenario.network.stats.as_dict()
        )
    )
    verdicts = []
    for record, rows in units:
        verdict = UnitOutcome(unit_id=record.unit_id, outcome=record.outcome)
        if record.outcome == COMPLETED:
            oracle = CentralizedEngine()
            oracle.register("data", Relation(engine.scenario_config.schema, rows))
            verdict.violations = check_all(
                RunRecord(
                    result=record.result.judged(failure_events, fault_injector),
                    reference=oracle.execute_logical("data", engine.group_by),
                    clean=clean,
                    validity_tolerance=validity_tolerance,
                    liability_max_share=liability_max_share,
                )
            )
            verdict.success = record.report.success
            verdict.degraded = record.report.degraded
        verdicts.append(verdict)
    return failure_events, clean, verdicts


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
    the *exact* clean-run bar.  Every query's validity oracle runs over
    the whole shared dataset.
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
    failure_events, clean, units = judge(
        engine,
        [(record, rows) for record in result.records],
        validity_tolerance=validity_tolerance,
        liability_max_share=liability_max_share,
    )
    conservation = _check_conservation(result)
    if conservation is not None:
        units.append(conservation)
    return WorkloadChaosOutcome(
        spec=spec,
        options=options,
        result=result,
        units=units,
        failure_events=failure_events,
        clean=clean,
        installed_plan=engine.installed_plan,
    )


def _check_conservation(result: WorkloadResult) -> UnitOutcome | None:
    """The workload-level accounting identity, as a pseudo-unit."""
    if result.shed + result.completed == result.arrivals:
        return None
    return UnitOutcome(
        unit_id="<workload>",
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
    keywords ``outcome`` ran with, but with the candidate as its only
    fault source (:func:`~repro.chaos.shrink.plan_only`, so the shrunk
    plan is self-contained) — still satisfies ``failing``.  The default
    criterion is "some query fails or some invariant fires".
    """
    if failing is None:
        failing = lambda rerun: (  # noqa: E731
            any(q.success is False for q in rerun.units)
            or bool(rerun.violations)
        )

    def predicate(plan: FailurePlan) -> bool:
        return failing(
            run_workload(outcome.spec, **{**outcome.options, **plan_only(plan)})
        )

    return predicate


def shrink_workload_plan(
    outcome: WorkloadChaosOutcome,
    failing: Callable[[WorkloadChaosOutcome], bool] | None = None,
    max_attempts: int = 24,
) -> FailurePlan:
    """Reduce a failing workload's installed plan to a minimal one
    that still makes the workload fail (``failing``, same default as
    :func:`workload_failure_predicate`)."""
    return shrink_failure_plan(
        outcome.installed_plan,
        workload_failure_predicate(outcome, failing),
        max_attempts=max_attempts,
    )
