"""Admission control and device-role leasing for concurrent queries.

One device population serves many queries at once, but the paper's
liability and isolation arguments assume a device executes *at most one*
data-processing role at a time: a Computer or Combiner holds partial
cleartext state inside its TEE, and time-sharing that enclave between
tenants is exactly the cross-query interference the workload engine
must rule out.  Contributing rows, by contrast, is a read-only
side-effect-free act a device can happily perform for several queries.

Two small pieces enforce this:

* :class:`DeviceLeaseRegistry` — an exclusive lease per device for
  data-processor roles, all-or-nothing per query, with busy-time
  accounting for utilization reporting.  Double-leasing raises
  :class:`LeaseError` — it is a bug, not a load condition.
* :class:`AdmissionController` — bounds how many queries run
  concurrently; past the cap arrivals wait in a bounded FIFO queue and
  past *that* they are shed.  ``shed + completed == arrivals`` is a
  workload-level invariant the property tests assert.

Both are pure book-keeping on the virtual clock: no simulator events,
no randomness — which keeps the admission sequence trivially
deterministic for a fixed arrival sequence.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable

from repro.errors import ReproError

__all__ = [
    "ADMITTED",
    "QUEUED",
    "SHED",
    "LeaseError",
    "DeviceLeaseRegistry",
    "AdmissionController",
]

ADMITTED = "admitted"
QUEUED = "queued"
SHED = "shed"


class LeaseError(ReproError):
    """A device was asked to hold two exclusive roles at once."""


class DeviceLeaseRegistry:
    """Exclusive data-processor leases over the shared swarm.

    The pool may churn mid-run: :meth:`register_device` admits a new
    arrival, :meth:`retire_device` removes a departure and *reclaims*
    any lease it held, flagging the holding query (see :attr:`flagged`).
    The conservation property the tests assert: at no point does a
    retired device hold a lease.

    Args:
        clock: returns the current virtual time (busy-time accounting);
            defaults to a constant 0 clock for tests that only care
            about exclusivity.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock or (lambda: 0.0)
        self._holder: dict[str, str] = {}  # device_id -> query_id
        self._held: dict[str, list[str]] = {}  # query_id -> [device_id]
        self._leased_since: dict[str, float] = {}
        self._busy_time: dict[str, float] = {}
        # dynamic membership (opt-in): None means the legacy untracked
        # mode where any pool id may be leased; once register_device is
        # called, only registered-and-not-retired devices are leasable
        self._members: set[str] | None = None
        self._retired: set[str] = set()
        # (device_id, query_id) pairs whose lease was forcibly reclaimed
        # by retirement while the query was still running — the query
        # must treat the device as crashed (conservation audit trail)
        self.flagged: list[tuple[str, str]] = []

    # -- dynamic membership --------------------------------------------------

    def register_device(self, device_id: str) -> None:
        """Admit a device to the leasable population (mid-run churn).

        Raises:
            LeaseError: the id was previously retired — device ids are
                never recycled, a departed owner does not come back.
        """
        if device_id in self._retired:
            raise LeaseError(f"device {device_id} was retired; ids are not reused")
        if self._members is None:
            self._members = set()
        self._members.add(device_id)

    def retire_device(self, device_id: str) -> str | None:
        """Permanently remove a device from the leasable population.

        If the device is under lease, the lease is reclaimed *now* and
        the holding query is flagged (recorded in :attr:`flagged`) — the
        conservation rule: a retired device's lease is either already
        free or reclaimed-and-flagged, never silently kept.  Returns the
        flagged query id, or ``None`` when the device was idle.
        """
        holder = self._holder.pop(device_id, None)
        if holder is not None:
            held = self._held.get(holder)
            if held is not None and device_id in held:
                held.remove(device_id)
            since = self._leased_since.pop(device_id, None)
            if since is not None:
                self._busy_time[device_id] = (
                    self._busy_time.get(device_id, 0.0) + (self._clock() - since)
                )
            self.flagged.append((device_id, holder))
        if self._members is not None:
            self._members.discard(device_id)
        self._retired.add(device_id)
        return holder

    def is_member(self, device_id: str) -> bool:
        """Leasable right now (registered or legacy-untracked, not retired)."""
        if device_id in self._retired:
            return False
        return self._members is None or device_id in self._members

    @property
    def retired(self) -> frozenset[str]:
        return frozenset(self._retired)

    # -- leasing ------------------------------------------------------------

    def free(self, pool: Iterable[str]) -> list[str]:
        """The subset of ``pool`` not currently leased, in pool order.

        Retired (and, in tracked mode, unregistered) devices are never
        free: they cannot be offered to a new query.
        """
        return [
            d for d in pool if d not in self._holder and self.is_member(d)
        ]

    def lease(self, query_id: str, device_ids: Iterable[str]) -> list[str]:
        """Take an exclusive lease on every device, all-or-nothing.

        Raises:
            LeaseError: some device is already leased (to this query or
                another) — callers must draw from :meth:`free`.
        """
        devices = list(device_ids)
        for device_id in devices:
            holder = self._holder.get(device_id)
            if holder is not None:
                raise LeaseError(
                    f"device {device_id} already leased to {holder} "
                    f"(requested by {query_id})"
                )
            if not self.is_member(device_id):
                raise LeaseError(
                    f"device {device_id} is not a live member "
                    f"(requested by {query_id})"
                )
        now = self._clock()
        held = self._held.setdefault(query_id, [])
        for device_id in devices:
            self._holder[device_id] = query_id
            self._leased_since[device_id] = now
            held.append(device_id)
        return devices

    def lease_plan(
        self, query_id: str, plan: Any, pool: Iterable[str], standby_count: int
    ) -> tuple[list[str], list[str]] | None:
        """Lease one free device per data-processor operator of ``plan``
        plus up to ``standby_count`` spares, drawn in pool order.

        Returns ``(role devices, standbys)``, or ``None`` — nothing
        leased — when the pool cannot cover the roles.
        """
        n_roles = sum(1 for op in plan.operators() if op.role.is_data_processor)
        free = self.free(pool)
        if len(free) < n_roles:
            return None
        extra = min(standby_count, len(free) - n_roles)
        taken = self.lease(query_id, free[: n_roles + extra])
        return taken[:n_roles], taken[n_roles:]

    def release(self, query_id: str) -> list[str]:
        """Return every device the query holds to the free pool."""
        now = self._clock()
        released = self._held.pop(query_id, [])
        for device_id in released:
            del self._holder[device_id]
            since = self._leased_since.pop(device_id)
            self._busy_time[device_id] = (
                self._busy_time.get(device_id, 0.0) + (now - since)
            )
        return released

    # -- introspection ------------------------------------------------------

    def holder(self, device_id: str) -> str | None:
        """The query holding this device, or ``None``."""
        return self._holder.get(device_id)

    def held_by(self, query_id: str) -> list[str]:
        """Devices currently leased to one query (lease order)."""
        return list(self._held.get(query_id, []))

    @property
    def leased_count(self) -> int:
        return len(self._holder)

    def busy_time(self, device_id: str) -> float:
        """Total virtual time the device has spent under lease."""
        total = self._busy_time.get(device_id, 0.0)
        since = self._leased_since.get(device_id)
        if since is not None:
            total += self._clock() - since
        return total

    def utilization(self, pool: Iterable[str], elapsed: float) -> float:
        """Mean fraction of ``elapsed`` the pool spent under lease."""
        devices = list(pool)
        if not devices or elapsed <= 0:
            return 0.0
        busy = sum(self.busy_time(d) for d in devices)
        return busy / (elapsed * len(devices))


class AdmissionController:
    """Bounded-concurrency admission with a FIFO overflow queue.

    Args:
        max_concurrent: queries allowed in flight at once (>= 1).
        queue_capacity: arrivals parked when the cap is reached; an
            arrival past cap *and* queue is shed.  0 = shed immediately
            at the cap (pure loss system).
        telemetry: optional :class:`repro.telemetry.Telemetry`; when
            given, arrivals/admissions/sheds/completions are counted
            under ``workload.*``.
    """

    def __init__(
        self,
        max_concurrent: int,
        queue_capacity: int = 0,
        telemetry: Any = None,
    ):
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if queue_capacity < 0:
            raise ValueError("queue_capacity must be non-negative")
        self.max_concurrent = max_concurrent
        self.queue_capacity = queue_capacity
        self._in_flight: set[str] = set()
        self._queue: deque[str] = deque()
        self.arrivals = 0
        self.admitted = 0
        self.queued = 0
        self.shed = 0
        self.completed = 0
        self._metrics = telemetry.metrics if telemetry is not None else None

    def _count(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(f"workload.{name}").inc()

    # -- arrival side --------------------------------------------------------

    def offer(self, query_id: str) -> str:
        """Decide one arrival: :data:`ADMITTED`, :data:`QUEUED`, or
        :data:`SHED`."""
        self.arrivals += 1
        self._count("arrivals")
        if len(self._in_flight) < self.max_concurrent:
            self._in_flight.add(query_id)
            self.admitted += 1
            self._count("admitted")
            return ADMITTED
        if len(self._queue) < self.queue_capacity:
            self._queue.append(query_id)
            self.queued += 1
            self._count("queued")
            return QUEUED
        self.shed += 1
        self._count("shed")
        return SHED

    # -- completion side -----------------------------------------------------

    def complete(self, query_id: str) -> str | None:
        """Record a completion; returns the next queued query now
        admitted (head of line), or ``None``."""
        self._in_flight.discard(query_id)
        self.completed += 1
        self._count("completed")
        return self._drain()

    def abort(self, query_id: str) -> str | None:
        """An admitted query could not launch (e.g. the swarm has no
        free devices for its roles): convert the admission into a shed,
        free the slot, and admit the next queued arrival if any.

        Keeps ``shed + completed == arrivals`` exact — an aborted query
        never counts as completed.
        """
        self._in_flight.discard(query_id)
        self.shed += 1
        self._count("shed")
        return self._drain()

    def _drain(self) -> str | None:
        if self._queue and len(self._in_flight) < self.max_concurrent:
            admitted = self._queue.popleft()
            self._in_flight.add(admitted)
            self.admitted += 1
            self._count("admitted")
            return admitted
        return None

    # -- introspection -------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def is_in_flight(self, query_id: str) -> bool:
        return query_id in self._in_flight
