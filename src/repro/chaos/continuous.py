"""Long-soak chaos over standing queries: every window keeps every promise.

The workload module (:mod:`~repro.chaos.workload`) asks the concurrency
question over a frozen swarm.  This module asks the *longevity*
question: with a standing query re-executing for dozens of windows
while the population churns underneath **and** message faults gnaw at
the shared network, does every individual window still satisfy the full
invariant suite — Resiliency, Validity, Crowd Liability, dedup,
takeover?

One :func:`run_soak` call drives a
:class:`~repro.continuous.engine.ContinuousEngine` with whatever churn,
fault sources and execution options its keywords forward to the engine,
then rebuilds a per-window
:class:`~repro.chaos.invariants.RunRecord` for every completed window.
The validity oracle is rebuilt *per window* from the window's own
frozen row snapshot (``WindowRecord.rows``) — under churn there is no
single dataset to compare against, each window defines its own ground
truth.  On top of the per-window suite, three conservation identities
are checked once per run:

* window accounting — ``completed + skipped + empty == windows``;
* admission accounting — ``completed + shed == offered``;
* lease conservation — no retired device holds a lease, and every
  forcibly-reclaimed lease is on the flagged audit trail.

Everything is a pure function of ``(spec, keywords)``: the same soak
reproduces bit-for-bit, per-window lineage fingerprints included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.chaos.invariants import (
    RunRecord,
    Violation,
    check_all,
    no_fault_observed,
)
from repro.continuous.engine import (
    COMPLETED,
    ContinuousEngine,
    ContinuousResult,
)
from repro.continuous.spec import StandingQuerySpec
from repro.query.engine import CentralizedEngine
from repro.query.relation import Relation

__all__ = [
    "SoakOutcome",
    "WindowOutcome",
    "run_soak",
]


@dataclass
class WindowOutcome:
    """One window's invariant verdicts."""

    window_id: str
    index: int
    outcome: str
    violations: list[Violation] = field(default_factory=list)
    success: bool | None = None
    degraded: bool | None = None
    coverage: float | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class SoakOutcome:
    """Everything one standing-query soak produced.

    ``options`` holds every keyword :func:`run_soak` ran with, so
    ``run_soak(outcome.spec, **outcome.options)`` is the same soak.
    """

    spec: StandingQuerySpec
    options: dict[str, Any]
    result: ContinuousResult
    windows: list[WindowOutcome]
    failure_events: list[Any]
    clean: bool

    @property
    def violations(self) -> list[tuple[str, Violation]]:
        found = []
        for window in self.windows:
            for violation in window.violations:
                found.append((window.window_id, violation))
        return found

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary_rows(self) -> list[list[Any]]:
        """Per-window roll-up for the CLI table."""
        rows = []
        for window in self.windows:
            rows.append(
                [
                    window.window_id,
                    window.outcome,
                    "-" if window.success is None else ("yes" if window.success else "NO"),
                    "-" if window.degraded is None else ("yes" if window.degraded else "no"),
                    "-" if window.coverage is None else f"{window.coverage:.2f}",
                    len(window.violations),
                ]
            )
        return rows


def _window_reference(engine: ContinuousEngine, rows: list[dict[str, Any]]):
    """The centralized oracle over *this window's* frozen snapshot."""
    oracle = CentralizedEngine()
    oracle.register(
        "data", Relation(engine.scenario_config.schema, rows)
    )
    return oracle.execute_logical("data", engine.group_by)


def run_soak(
    spec: StandingQuerySpec,
    *,
    telemetry: Any = None,
    validity_tolerance: float = 0.75,
    liability_max_share: float = 0.5,
    **engine_options: Any,
) -> SoakOutcome:
    """Run one standing query under churn + chaos; check every window.

    ``engine_options`` are forwarded to :class:`ContinuousEngine` —
    ``churn``, the swarm sizing, ``standby_count`` and any
    :class:`~repro.manager.scenario.ScenarioConfig` field it does not
    derive from ``spec``; with no churn and no fault source among them
    the run is a clean frozen-population run, and the invariant suite
    holds every window to the *exact* clean-run bar.

    The shared failure-event log and fault injector are attached to
    every window's record — a fault anywhere on the shared substrate
    (including a message to a *departed* device) can legitimately
    explain any window's degradation, so the one-sided invariant checks
    must see the whole log, not a per-window slice.
    """
    options = dict(
        validity_tolerance=validity_tolerance,
        liability_max_share=liability_max_share,
        **engine_options,
    )
    if telemetry is None:
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
    engine = ContinuousEngine(spec, telemetry=telemetry, **engine_options)
    result = engine.run()
    failure_events = engine.scenario.failure_events()
    fault_injector = engine.scenario.network.faults
    any_churn_events = any(
        w.churn is not None and w.churn.any_events for w in result.windows
    )
    # clean is a *post hoc* verdict: churn events count as chaos — a
    # departure mid-collection is indistinguishable from a crash to the
    # affected window, so any churn demotes every window to the
    # tolerance-bound checks (the substrate is shared across windows)
    clean = (
        not engine.scenario_config.any_chaos
        and not any_churn_events
        and no_fault_observed(
            failure_events,
            fault_injector,
            engine.scenario.network.stats.as_dict(),
        )
    )
    windows: list[WindowOutcome] = []
    for record in result.windows:
        if record.outcome != COMPLETED:
            windows.append(
                WindowOutcome(
                    window_id=record.window_id,
                    index=record.index,
                    outcome=record.outcome,
                )
            )
            continue
        violations = check_all(
            RunRecord(
                result=record.result.judged(failure_events, fault_injector),
                reference=_window_reference(engine, record.rows),
                strategy=spec.strategy,
                clean=clean,
                validity_tolerance=validity_tolerance,
                liability_max_share=liability_max_share,
            )
        )
        windows.append(
            WindowOutcome(
                window_id=record.window_id,
                index=record.index,
                outcome=record.outcome,
                violations=violations,
                success=record.report.success,
                degraded=record.report.degraded,
                coverage=record.coverage,
            )
        )
    for extra in (
        _check_window_conservation(result),
        _check_lease_conservation(engine),
    ):
        if extra is not None:
            windows.append(extra)
    return SoakOutcome(
        spec=spec,
        options=options,
        result=result,
        windows=windows,
        failure_events=failure_events,
        clean=clean,
    )


def _check_window_conservation(result: ContinuousResult) -> WindowOutcome | None:
    """Every window in the horizon reached exactly one terminal state."""
    total = result.completed + result.skipped + result.empty
    if total == len(result.windows):
        return None
    return WindowOutcome(
        window_id="<windows>",
        index=-1,
        outcome="accounting",
        violations=[
            Violation(
                "window_conservation",
                f"completed ({result.completed}) + skipped ({result.skipped})"
                f" + empty ({result.empty}) != windows ({len(result.windows)})",
                {
                    "completed": result.completed,
                    "skipped": result.skipped,
                    "empty": result.empty,
                    "windows": len(result.windows),
                },
            )
        ],
    )


def _check_lease_conservation(engine: ContinuousEngine) -> WindowOutcome | None:
    """No retired device holds a lease; reclaimed leases are flagged."""
    violations: list[Violation] = []
    registry = engine.registry
    for device_id in registry.retired:
        holder = registry.holder(device_id)
        if holder is not None:
            violations.append(
                Violation(
                    "lease_conservation",
                    f"retired device {device_id} still leased to {holder}",
                    {"device": device_id, "holder": holder},
                )
            )
    for device_id, query_id in registry.flagged:
        if device_id not in registry.retired:
            violations.append(
                Violation(
                    "lease_conservation",
                    f"flagged lease ({device_id}, {query_id}) but the "
                    "device was never retired",
                    {"device": device_id, "query": query_id},
                )
            )
    if not violations:
        return None
    return WindowOutcome(
        window_id="<leases>",
        index=-1,
        outcome="accounting",
        violations=violations,
    )
