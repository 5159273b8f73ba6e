"""Secure assignment of operators to edgelets.

"A secure assignment of these operators is then essential to avoid any
targeted attacks" (Section 2.1).  The danger is an adversary steering a
chosen operator (say, the Snapshot Builder that will see a victim's
data) onto a device it controls.  The defense is determinism nobody
controls: assignments derive from hashing participants' identifiers
together with the query identifier, so they are verifiable by everyone
and predictable by no one who cannot choose an identifier after seeing
the query.

The paper hashes public keys (Figure 2).  Both functions here hash
*device ids* instead, which the simulated swarm fixes before any query
exists.  That is a simulation-grade choice (DESIGN.md, substitutions
table): a device can be assigned a role without computing its public
key.

Two assignments matter:

* :func:`contributor_builder` — which Snapshot Builder a Data
  Contributor sends to;
* :func:`assign_operators` — which processing edgelet runs each Data
  Processor operator of the plan.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.qep import OperatorRole, QueryExecutionPlan

__all__ = ["SecureAssignment", "assign_operators", "contributor_builder", "AssignmentError"]


class AssignmentError(Exception):
    """Raised when there are not enough distinct processors to assign."""


def _digest(*parts: str) -> int:
    payload = "|".join(parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def contributor_builder(
    contributor_id: str, builder_ids: list[str], query_id: str
) -> str:
    """Deterministically route a contributor to one Snapshot Builder.

    The bucket is ``H(contributor_id | query_id) mod len(builders)`` over
    the *sorted* builder list, so every participant computes the same
    routing without coordination.
    """
    if not builder_ids:
        raise AssignmentError("no snapshot builders to route to")
    ordered = sorted(builder_ids)
    index = _digest(contributor_id, query_id) % len(ordered)
    return ordered[index]


@dataclass
class SecureAssignment:
    """The outcome of operator assignment.

    Attributes:
        query_id: the assigned query.
        operator_to_device: op_id -> device id.
        device_load: device -> number of operators it runs.
    """

    query_id: str
    operator_to_device: dict[str, str] = field(default_factory=dict)

    @property
    def device_load(self) -> dict[str, int]:
        """How many operators each device runs."""
        load: dict[str, int] = {}
        for device in self.operator_to_device.values():
            load[device] = load.get(device, 0) + 1
        return load

    def devices(self) -> list[str]:
        """All devices used by this assignment (sorted)."""
        return sorted(set(self.operator_to_device.values()))


def assign_operators(
    plan: QueryExecutionPlan,
    processor_ids: list[str],
    exclusive: bool = True,
) -> SecureAssignment:
    """Assign every Data Processor operator of ``plan`` to a device.

    Candidates are ranked per operator by
    ``H(device | placement_key | op_id)``; the best-ranked *free* device
    wins.  With ``exclusive=True`` (the default, matching the paper's
    crowd-liability goal) a device runs at most one operator; the
    function raises :class:`AssignmentError` when processors run out.

    The placement key defaults to the query id; a standing query plans
    every window with one fixed key (``QuerySpec.placement_key``) so an
    unchanged candidate pool re-derives an unchanged assignment —
    sticky placement, without which incremental partition maintenance
    would re-ship every contribution to a freshly-hashed builder each
    window.

    The assignment is written into ``operator.assigned_to`` and also
    returned as a :class:`SecureAssignment`.
    """
    processors = sorted(set(processor_ids))
    if not processors:
        raise AssignmentError("no processing edgelets available")
    placement_key = plan.metadata.get("placement_key") or plan.query_id
    assignment = SecureAssignment(query_id=plan.query_id)
    taken: set[str] = set()
    data_processors = [
        operator for operator in plan.operators() if operator.role.is_data_processor
    ]
    if exclusive and len(data_processors) > len(processors):
        raise AssignmentError(
            f"{len(data_processors)} data processors but only "
            f"{len(processors)} candidate edgelets"
        )
    for operator in data_processors:
        ranked = sorted(
            processors,
            key=lambda device: _digest(device, placement_key, operator.op_id),
        )
        chosen = None
        for device in ranked:
            if not exclusive or device not in taken:
                chosen = device
                break
        if chosen is None:
            raise AssignmentError(
                f"no free edgelet left for operator {operator.op_id}"
            )
        taken.add(chosen)
        operator.assigned_to = chosen
        assignment.operator_to_device[operator.op_id] = chosen
    return assignment
