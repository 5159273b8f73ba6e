"""Failure-schedule shrinking (delta debugging over FailurePlans).

When a campaign run violates an invariant, the raw failure schedule is
usually mostly noise: dozens of crashes, offline windows, partitions
and gray windows of which only one or two actually matter.  The
shrinker reduces the schedule to a locally minimal reproducing
:class:`~repro.network.failures.FailurePlan` by re-running the
(deterministic) scenario against ever smaller candidate plans — first
dropping large chunks (classic ddmin halving), then single atoms — and
keeping a candidate only when the *same* invariant still fires.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.network.failures import Atom, FailureEvent, FailurePlan

__all__ = [
    "failure_plan_from_events",
    "observed_plan",
    "shrink_failure_plan",
]


def failure_plan_from_events(events: Iterable[FailureEvent]) -> FailurePlan:
    """Convert a recorded failure-event log into a declarative plan.

    Crashes keep their first firing time per device; disconnect /
    reconnect pairs become explicit windows (an unmatched disconnect —
    the run ended offline — closes just after the last event).  Events
    after a device's crash are dropped: the device was already dead.
    Topology events (partitions, gray windows) are not converted: the
    plan that scheduled them carries them (see :func:`observed_plan`).
    """
    crashes: dict[str, float] = {}
    open_since: dict[str, float] = {}
    windows: dict[str, list[tuple[float, float]]] = {}
    horizon = 0.0
    for event in sorted(events, key=lambda e: e.time):
        horizon = max(horizon, event.time)
        if event.kind == "crash":
            crashes.setdefault(event.device_id, event.time)
        elif event.kind == "disconnect":
            if event.device_id not in crashes:
                open_since.setdefault(event.device_id, event.time)
        elif event.kind == "reconnect":
            start = open_since.pop(event.device_id, None)
            if start is not None and event.time > start:
                windows.setdefault(event.device_id, []).append(
                    (start, event.time)
                )
    for device, start in open_since.items():
        windows.setdefault(device, []).append((start, horizon + 1.0))
    plan = FailurePlan()
    for device, at in crashes.items():
        plan.crash(device, at)
    for device, per_device in windows.items():
        crash_at = crashes.get(device)
        for start, end in per_device:
            if crash_at is not None and start >= crash_at:
                continue
            plan.disconnect(device, start, end)
    return plan


def observed_plan(
    events: Iterable[FailureEvent], plan: FailurePlan | None
) -> FailurePlan:
    """The schedule a run actually experienced: its observed crash /
    disconnect events ∪ the plan it installed.  Idempotent for the
    plan's own crashes and windows (they are in the event log too); the
    plan contributes what the log cannot express — topology atoms."""
    observed = failure_plan_from_events(events)
    return observed if plan is None else observed.union(plan)


def shrink_failure_plan(
    plan: FailurePlan,
    reproduces: Callable[[FailurePlan], bool],
    max_attempts: int = 64,
) -> FailurePlan:
    """Shrink ``plan`` to a locally minimal schedule that still makes
    ``reproduces`` return ``True``.

    The atoms are every kind the plan schedules — one crash, one
    disconnect window, one partition, one regional crash, one gray
    window.  ``reproduces`` must be deterministic (re-running the
    scenario from its seed) and must hold for ``plan`` itself — the
    caller verifies that before shrinking.  ``max_attempts`` caps the
    number of re-executions, so shrinking cost is bounded even for
    large schedules; the result is then minimal only up to the budget.
    """
    atoms = plan.atoms()
    attempts = 0

    def try_plan(candidate_atoms: list[Atom]) -> bool:
        nonlocal attempts
        if attempts >= max_attempts:
            return False
        attempts += 1
        try:
            candidate = FailurePlan.from_atoms(candidate_atoms)
        except ValueError:
            return False  # removal orphaned a disconnect past a crash
        return reproduces(candidate)

    # fast path: the schedule may be pure noise (e.g. a corruption-seeded
    # violation) — try the empty plan before any partial removal
    if atoms and try_plan([]):
        return FailurePlan()

    # phase 1: ddmin-style chunk removal, halving granularity
    chunk = max(len(atoms) // 2, 1)
    while chunk >= 1 and len(atoms) > 1 and attempts < max_attempts:
        removed_any = False
        start = 0
        while start < len(atoms) and attempts < max_attempts:
            candidate = atoms[:start] + atoms[start + chunk:]
            if candidate and len(candidate) < len(atoms) and try_plan(candidate):
                atoms = candidate
                removed_any = True
                # keep scanning from the same offset on the smaller list
            else:
                start += chunk
        if not removed_any:
            chunk //= 2

    # phase 2: single-atom sweep until a fixed point (or budget)
    changed = True
    while changed and len(atoms) > 1 and attempts < max_attempts:
        changed = False
        for index in range(len(atoms) - 1, -1, -1):
            candidate = atoms[:index] + atoms[index + 1:]
            if candidate and try_plan(candidate):
                atoms = candidate
                changed = True
                break
    return FailurePlan.from_atoms(atoms)
