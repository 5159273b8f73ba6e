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
then judges every completed window with the workload driver's one
per-unit judge (:func:`repro.chaos.workload.judge`).  The validity
oracle runs *per window* over the window's own frozen row snapshot
(``WindowRecord.rows``) — under churn there is no single dataset to
compare against, each window defines its own ground truth.  On top of
the per-window suite, three conservation identities are checked once
per run:

* window accounting — ``completed + skipped + empty == windows``;
* admission accounting — ``completed + shed == offered``;
* lease conservation — no retired device holds a lease, and every
  forcibly-reclaimed lease is on the flagged audit trail.

Everything is a pure function of ``(spec, keywords)``: the same soak
reproduces bit-for-bit, per-window lineage fingerprints included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.chaos.invariants import (
    Violation,
    check_liability_max_share,
    check_validity_tolerance,
)
from repro.chaos.workload import UnitOutcome, WorkloadChaosOutcome, judge
from repro.continuous.engine import ContinuousEngine, ContinuousResult
from repro.continuous.spec import StandingQuerySpec

__all__ = [
    "SoakOutcome",
    "run_soak",
]


@dataclass
class SoakOutcome(WorkloadChaosOutcome):
    """Everything one standing-query soak produced, one unit per window.

    ``run_soak(outcome.spec, **outcome.options)`` is the same soak.
    """

    def summary_rows(self) -> list[list[Any]]:
        """Per-window roll-up for the CLI table, coverage included."""
        return [
            [
                *row[:4],
                "-" if unit.coverage is None else f"{unit.coverage:.2f}",
                row[4],
            ]
            for unit, row in zip(self.units, super().summary_rows())
        ]


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

    Churn events count as chaos — a departure mid-collection is
    indistinguishable from a crash to the affected window — and each
    window's validity oracle runs over its own frozen row snapshot
    (``WindowRecord.rows``), since under churn there is no single
    dataset to compare against.
    """
    check_validity_tolerance(validity_tolerance)
    check_liability_max_share(liability_max_share)
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
    failure_events, clean, units = judge(
        engine,
        [(window, window.rows) for window in result.windows],
        churned=any(
            w.churn is not None and w.churn.any_events for w in result.windows
        ),
        validity_tolerance=validity_tolerance,
        liability_max_share=liability_max_share,
    )
    for unit, window in zip(units, result.windows):
        unit.coverage = window.coverage
    for extra in (
        _check_window_conservation(result),
        _check_lease_conservation(engine),
    ):
        if extra is not None:
            units.append(extra)
    return SoakOutcome(
        spec=spec,
        options=options,
        result=result,
        units=units,
        failure_events=failure_events,
        clean=clean,
        installed_plan=engine.installed_plan,
    )


def _check_window_conservation(result: ContinuousResult) -> UnitOutcome | None:
    """Every window in the horizon reached exactly one terminal state."""
    total = result.completed + result.skipped + result.empty
    if total == len(result.windows):
        return None
    return UnitOutcome(
        unit_id="<windows>",
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


def _check_lease_conservation(engine: ContinuousEngine) -> UnitOutcome | None:
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
    return UnitOutcome(
        unit_id="<leases>",
        outcome="accounting",
        violations=violations,
    )
