"""Failure-schedule shrinking (delta debugging over FailurePlans).

When a campaign run violates an invariant, the raw failure schedule is
usually mostly noise: dozens of crashes, offline windows, partitions,
gray windows and message-fault rules of which only one or two actually
matter.  The shrinker reduces the schedule to a locally minimal reproducing
:class:`~repro.network.failures.FailurePlan` by re-running the
(deterministic) scenario against ever smaller candidate plans — first
dropping large chunks (classic ddmin halving), then single atoms — and
keeping a candidate only when the *same* invariant still fires.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.network.failures import Atom, FailurePlan

__all__ = [
    "plan_only",
    "shrink_failure_plan",
]


def plan_only(plan: FailurePlan) -> dict[str, Any]:
    """The run options that make a run execute ``plan`` and nothing
    else that is seeded: no failure slider, no outage spec, no
    message-fault rules beyond the plan's own atoms.

    A run's installed plan (``ScenarioResult.failure_plan``, an
    engine's ``installed_plan``) holds every atom those sources
    resolved to, so the same run with these options replays it; every
    shrinker candidate and every artifact is such a run.  Keys are
    :class:`~repro.manager.scenario.ScenarioConfig` /
    :class:`~repro.chaos.campaign.RunSpec` field names.
    """
    return {
        "crash_probability": 0.0,
        "disconnect_probability": 0.0,
        "outage_spec": None,
        "fault_specs": (),
        "failure_plan": None if plan.is_empty() else plan,
    }


def shrink_failure_plan(
    plan: FailurePlan,
    reproduces: Callable[[FailurePlan], bool],
    max_attempts: int = 64,
) -> FailurePlan:
    """Shrink ``plan`` to a locally minimal schedule that still makes
    ``reproduces`` return ``True``.

    The atoms are every kind the plan schedules — one crash, one
    disconnect window, one partition, one regional crash, one gray
    window, one message-fault rule.  ``reproduces`` must be
    deterministic (re-running the scenario from its seed) and must hold
    for ``plan`` itself — true by construction for a run's installed
    plan under :func:`plan_only`.  ``max_attempts`` caps the
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
