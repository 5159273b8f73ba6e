"""Fault injection for the device swarm.

The demonstration lets attendees "intentionally power off some concrete
devices to generate a failure at will" and vary a global failure
probability.  Both end up in :class:`FailurePlan`, the one declarative,
serializable schedule of six atom kinds: device crashes, disconnect
windows, healing network partitions, correlated regional crashes, gray
windows and windowed message-fault rules.  Artifacts replay it
byte-for-byte and ddmin shrinking works on its atoms.

Every seeded fault source resolves into plan atoms before ``t = 0`` of
the run: :func:`build_crash_plan` draws the failure slider's crashes and
disconnect windows, :func:`~repro.network.outages.build_outage_plan`
the topology outages, and message-fault rules become
:class:`MessageFault` atoms.  So a run applies one plan, once.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

from repro.errors import SpecError
from repro.network.faults import FaultSpec
from repro.network.opnet import OpportunisticNetwork
from repro.network.simulator import Simulator

__all__ = [
    "CHECK_INTERVAL",
    "FailurePlan",
    "FailureEvent",
    "GrayWindow",
    "MessageFault",
    "Partition",
    "RegionalCrash",
    "build_crash_plan",
    "read_field",
]

#: virtual seconds between two draws of the failure slider
CHECK_INTERVAL = 1.0

_REQUIRED = object()


def read_field(
    data: Any,
    key: str,
    convert: Callable[[Any], Any],
    default: Any = _REQUIRED,
    *,
    owner: str,
) -> Any:
    """``convert(data[key])`` for a JSON loader: a missing or ill-typed
    field raises :class:`~repro.errors.SpecError` naming it, never a
    bare ``KeyError``."""
    if not isinstance(data, dict):
        raise SpecError(f"{owner} must be a JSON object, got {type(data).__name__}")
    if key not in data:
        if default is _REQUIRED:
            raise SpecError(f"{owner} is missing field {key!r}")
        return default
    try:
        return convert(data[key])
    except KeyError as exc:
        raise SpecError(f"{owner} field {key!r} is missing field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise SpecError(f"{owner} field {key!r}: {exc}") from None


@dataclass(frozen=True)
class FailureEvent:
    """A recorded failure occurrence (for traces and post-mortems)."""

    time: float
    device_id: str
    # "crash", "disconnect", "reconnect", "partition_start",
    # "partition_heal", "gray_start", "gray_end"
    kind: str


def _merge_windows(windows: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge overlapping or touching (start, end) windows into a sorted union."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


@dataclass(frozen=True)
class Partition:
    """One healing network cut: ``islands`` are mutually unreachable
    device groups (and unreachable from the implicit mainland of
    unlisted devices) during ``[start, end)``."""

    start: float
    end: float
    islands: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise SpecError("need 0 <= start < end")
        islands = tuple(tuple(island) for island in self.islands)
        if not islands or any(not island for island in islands):
            raise SpecError("partition needs non-empty islands")
        object.__setattr__(self, "islands", islands)

    def to_dict(self) -> dict[str, Any]:
        return {
            "start": self.start,
            "end": self.end,
            "islands": [sorted(island) for island in self.islands],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Partition":
        read = partial(read_field, data, owner="partition")
        return cls(
            start=read("start", float),
            end=read("end", float),
            islands=read(
                "islands",
                lambda islands: tuple(
                    tuple(str(d) for d in island) for island in islands
                ),
            ),
        )


@dataclass(frozen=True)
class RegionalCrash:
    """One correlated crash event: every device in a region dies at
    once (an AP's whole neighbourhood going dark)."""

    at: float
    region: str
    devices: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.at < 0:
            raise SpecError("crash time must be non-negative")
        if not self.devices:
            raise SpecError("regional crash needs at least one device")
        object.__setattr__(self, "devices", tuple(self.devices))

    def to_dict(self) -> dict[str, Any]:
        return {"at": self.at, "region": self.region, "devices": sorted(self.devices)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RegionalCrash":
        read = partial(read_field, data, owner="regional crash")
        return cls(
            at=read("at", float),
            region=read("region", str),
            devices=read("devices", lambda devices: tuple(str(d) for d in devices)),
        )


@dataclass(frozen=True)
class GrayWindow:
    """One gray-failure window: the device stays alive but its links
    run at ``latency_factor`` × nominal latency with ``extra_loss``
    additional loss during ``[start, end)``."""

    device_id: str
    start: float
    end: float
    latency_factor: float = 4.0
    extra_loss: float = 0.3

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise SpecError("need 0 <= start < end")
        if self.latency_factor < 1.0:
            raise SpecError("latency_factor must be >= 1")
        if not 0 <= self.extra_loss <= 1:
            raise SpecError("extra_loss must be in [0, 1]")

    def to_dict(self) -> dict[str, Any]:
        return {
            "device_id": self.device_id,
            "start": self.start,
            "end": self.end,
            "latency_factor": self.latency_factor,
            "extra_loss": self.extra_loss,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "GrayWindow":
        read = partial(read_field, data, owner="gray window")
        return cls(
            device_id=read("device_id", str),
            start=read("start", float),
            end=read("end", float),
            latency_factor=read("latency_factor", float, 4.0),
            extra_loss=read("extra_loss", float, 0.3),
        )


@dataclass(frozen=True)
class MessageFault:
    """One message-fault rule, rolled on every send during
    ``[start, end)`` (``end`` infinite: to the end of the run)."""

    spec: FaultSpec
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise SpecError("need 0 <= start < end")

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "start": self.start,
            "end": None if self.end == math.inf else self.end,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MessageFault":
        read = partial(read_field, data, owner="message fault")
        return cls(
            spec=read("spec", FaultSpec.from_dict),
            start=read("start", float, 0.0),
            end=read(
                "end", lambda end: math.inf if end is None else float(end), math.inf
            ),
        )


# one schedulable unit: ("crash", device, at), ("disconnect", device,
# start, end), or (kind, event) for "partition" / "region_crash" /
# "gray" / "message_fault"
Atom = tuple


@dataclass
class FailurePlan:
    """Declarative failure schedule of six atom kinds.

    Fully resolved: every atom names concrete device ids, so a plan
    loaded from a JSON artifact replays without recomputing region
    membership.

    Attributes:
        crashes: map device_id -> virtual time of permanent crash.
        disconnections: map device_id -> list of (start, end) offline
            windows.  Windows may overlap as written; they are merged
            into their union before the schedule is installed, so a
            device never receives interleaved offline/online toggles.
        partitions: healing network cuts.
        regional_crashes: correlated crashes of a whole region.
        gray_windows: per-device slow-and-lossy (not dead) windows.
        message_faults: windowed message-fault rules, rolled in list
            order on every send (the order is part of the draw stream).
    """

    crashes: dict[str, float] = field(default_factory=dict)
    disconnections: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    partitions: list[Partition] = field(default_factory=list)
    regional_crashes: list[RegionalCrash] = field(default_factory=list)
    gray_windows: list[GrayWindow] = field(default_factory=list)
    message_faults: list[MessageFault] = field(default_factory=list)

    def crash(self, device_id: str, at: float) -> "FailurePlan":
        """Schedule a permanent crash (fluent)."""
        if at < 0:
            raise SpecError("crash time must be non-negative")
        for start, _end in self.disconnections.get(device_id, ()):
            if start >= at:
                raise SpecError(
                    f"device {device_id!r} has a disconnect window starting at "
                    f"{start} but would already be crashed at {at}"
                )
        self.crashes[device_id] = at
        return self

    def disconnect(self, device_id: str, start: float, end: float) -> "FailurePlan":
        """Schedule an offline window (fluent)."""
        if not 0 <= start < end:
            raise SpecError("need 0 <= start < end")
        crash_at = self.crashes.get(device_id)
        if crash_at is not None and start >= crash_at:
            raise SpecError(
                f"device {device_id!r} crashes at {crash_at}; cannot schedule a "
                f"disconnect starting at {start} after it is dead"
            )
        self.disconnections.setdefault(device_id, []).append((start, end))
        return self

    def has_outages(self) -> bool:
        """Whether the plan carries topology atoms (partitions, regional
        crashes or gray windows)."""
        return bool(self.partitions or self.regional_crashes or self.gray_windows)

    def is_empty(self) -> bool:
        return not (self.crashes or self.disconnections or self.has_outages()
                    or self.message_faults)

    def union(self, other: "FailurePlan") -> "FailurePlan":
        """This plan plus ``other``: ``other``'s crash time and
        disconnect windows fill in only devices this plan leaves
        unscripted; its topology atoms append."""
        crashes = dict(self.crashes)
        for device_id, at in other.crashes.items():
            crashes.setdefault(device_id, at)
        disconnections = {d: list(w) for d, w in self.disconnections.items()}
        for device_id, windows in other.disconnections.items():
            disconnections.setdefault(device_id, list(windows))
        return FailurePlan(
            crashes=crashes,
            disconnections=disconnections,
            partitions=self.partitions + other.partitions,
            regional_crashes=self.regional_crashes + other.regional_crashes,
            gray_windows=self.gray_windows + other.gray_windows,
            message_faults=self.message_faults + other.message_faults,
        )

    def normalized(self) -> "FailurePlan":
        """Return an equivalent plan with each device's windows merged
        into a sorted, non-overlapping union and topology atoms in
        deterministic order (message faults keep theirs: it is their
        draw order)."""
        return FailurePlan(
            crashes=dict(self.crashes),
            disconnections={
                device_id: _merge_windows(windows)
                for device_id, windows in self.disconnections.items()
                if windows
            },
            partitions=sorted(
                self.partitions, key=lambda p: (p.start, p.end, p.islands)
            ),
            regional_crashes=sorted(
                self.regional_crashes, key=lambda c: (c.at, c.region)
            ),
            gray_windows=sorted(
                self.gray_windows, key=lambda g: (g.start, g.end, g.device_id)
            ),
            message_faults=list(self.message_faults),
        )

    def validate(self) -> None:
        """Raise ``SpecError`` if any disconnect starts at or after the
        same device's crash time (the device would already be dead), or
        a device sits in two islands of one partition."""
        for device_id, windows in self.disconnections.items():
            crash_at = self.crashes.get(device_id)
            if crash_at is None:
                continue
            for start, _end in windows:
                if start >= crash_at:
                    raise SpecError(
                        f"device {device_id!r} crashes at {crash_at}; disconnect "
                        f"window starting at {start} can never take effect"
                    )
        for partition in self.partitions:
            seen: set[str] = set()
            for island in partition.islands:
                overlap = seen & set(island)
                if overlap:
                    raise SpecError(
                        f"device(s) {sorted(overlap)} appear in two islands of "
                        f"the partition starting at {partition.start}"
                    )
                seen |= set(island)

    def atoms(self) -> list[Atom]:
        """The plan as a flat list of independently removable atoms."""
        plan = self.normalized()
        atoms: list[Atom] = []
        for device, at in sorted(self.crashes.items()):
            atoms.append(("crash", device, at))
        for device, windows in sorted(self.disconnections.items()):
            for start, end in sorted(windows):
                atoms.append(("disconnect", device, start, end))
        atoms.extend(("partition", p) for p in plan.partitions)
        atoms.extend(("region_crash", c) for c in plan.regional_crashes)
        atoms.extend(("gray", g) for g in plan.gray_windows)
        atoms.extend(("message_fault", m) for m in plan.message_faults)
        return atoms

    @classmethod
    def from_atoms(cls, atoms: list[Atom]) -> "FailurePlan":
        """Rebuild a plan from :meth:`atoms`; raises ``SpecError`` when
        a disconnect would start after its device's crash."""
        plan = cls()
        # crashes first so the disconnect-after-crash validation applies
        for atom in sorted(atoms, key=lambda a: a[0] != "crash"):
            kind = atom[0]
            if kind == "crash":
                plan.crash(atom[1], atom[2])
            elif kind == "disconnect":
                plan.disconnect(atom[1], atom[2], atom[3])
            elif kind == "partition":
                plan.partitions.append(atom[1])
            elif kind == "region_crash":
                plan.regional_crashes.append(atom[1])
            elif kind == "gray":
                plan.gray_windows.append(atom[1])
            else:
                plan.message_faults.append(atom[1])
        return plan

    def to_dict(self) -> dict:
        """JSON-serializable form (stable key order for artifacts; the
        ``message_faults`` key only when the plan has some)."""
        plan = self.normalized()
        data = {
            "crashes": {d: self.crashes[d] for d in sorted(self.crashes)},
            "disconnections": {
                d: [list(w) for w in self.disconnections[d]]
                for d in sorted(self.disconnections)
            },
            "partitions": [p.to_dict() for p in plan.partitions],
            "regional_crashes": [c.to_dict() for c in plan.regional_crashes],
            "gray_windows": [g.to_dict() for g in plan.gray_windows],
        }
        if self.message_faults:
            data["message_faults"] = [m.to_dict() for m in self.message_faults]
        return data

    @classmethod
    def from_dict(cls, payload: dict) -> "FailurePlan":
        """Load a plan; every atom goes through the same checks as one
        built in code, and a bad one raises ``SpecError`` naming its
        field."""
        read = partial(read_field, payload, owner="failure plan")

        def each(kind: type) -> Callable[[Any], list]:
            return lambda items: [kind.from_dict(item) for item in items]

        plan = cls(
            partitions=read("partitions", each(Partition), []),
            regional_crashes=read("regional_crashes", each(RegionalCrash), []),
            gray_windows=read("gray_windows", each(GrayWindow), []),
            message_faults=read("message_faults", each(MessageFault), []),
        )
        read("crashes", lambda crashes: [
            plan.crash(str(d), float(t)) for d, t in crashes.items()
        ], {})
        read("disconnections", lambda disconnections: [
            plan.disconnect(str(d), float(s), float(e))
            for d, windows in disconnections.items()
            for s, e in windows
        ], {})
        try:
            plan.validate()
        except SpecError as exc:
            raise SpecError(f"failure plan: {exc}") from None
        return plan

    def apply(self, simulator: Simulator, network: OpportunisticNetwork) -> list[FailureEvent]:
        """Install the schedule on the simulator.  Returns the shared,
        initially-empty event log that fills as atoms fire.

        Kinds are scheduled in a fixed order — crashes (insertion
        order), disconnect windows, partitions, regional crashes, gray
        windows — and the simulator breaks same-time ties by scheduling
        order, so this order is part of every run's fingerprint.
        Message faults schedule nothing: ``Scenario.install_chaos``
        hands them to the network's message-fault injector.  Every
        timer is fenced to the network epoch: after ``network.reset()``
        none of them fires.
        """
        self.validate()
        plan = self.normalized()
        log: list[FailureEvent] = []
        epoch = network.epoch

        def at(time: float, fire: Callable[[], None], description: str) -> None:
            def fenced() -> None:
                if network.epoch == epoch:
                    fire()

            simulator.schedule_at(time, fenced, description)

        def record(device_id: str, kind: str) -> None:
            log.append(FailureEvent(simulator.now, device_id, kind))

        def crash(device_id: str) -> None:
            network.kill(device_id)
            record(device_id, "crash")

        def toggle(device_id: str, online: bool) -> None:
            if network.is_dead(device_id):
                return
            network.set_online(device_id, online)
            record(device_id, "reconnect" if online else "disconnect")

        def cut(partition: Partition, tokens: list[int]) -> None:
            tokens.append(network.partition(partition.islands))
            for island in partition.islands:
                for device_id in sorted(island):
                    record(device_id, "partition_start")

        def heal(partition: Partition, tokens: list[int]) -> None:
            if not tokens:
                return
            network.heal(tokens.pop())
            for island in partition.islands:
                for device_id in sorted(island):
                    record(device_id, "partition_heal")

        def crash_region(event: RegionalCrash) -> None:
            for device_id in sorted(event.devices):
                if not network.is_dead(device_id):
                    crash(device_id)

        def gray(window: GrayWindow) -> None:
            if network.is_dead(window.device_id):
                return
            network.set_gray(window.device_id, window.latency_factor, window.extra_loss)
            record(window.device_id, "gray_start")

        def ungray(window: GrayWindow) -> None:
            if network.is_gray(window.device_id):
                network.clear_gray(window.device_id)
                record(window.device_id, "gray_end")

        for device_id, time in plan.crashes.items():
            at(time, partial(crash, device_id), f"crash {device_id}")
        for device_id, windows in plan.disconnections.items():
            for start, end in windows:
                at(start, partial(toggle, device_id, False), f"offline {device_id}")
                at(end, partial(toggle, device_id, True), f"online {device_id}")
        for partition in plan.partitions:
            tokens: list[int] = []
            at(partition.start, partial(cut, partition, tokens), "partition start")
            at(partition.end, partial(heal, partition, tokens), "partition heal")
        for event in plan.regional_crashes:
            at(event.at, partial(crash_region, event), f"regional crash {event.region}")
        for window in plan.gray_windows:
            at(window.start, partial(gray, window), f"gray {window.device_id}")
            at(window.end, partial(ungray, window), f"gray end {window.device_id}")
        return log


def build_crash_plan(
    plan: FailurePlan,
    device_ids: Sequence[str],
    *,
    crash_probability: float,
    disconnect_probability: float,
    disconnect_duration: float,
    start: float,
    until: float,
    seed: int,
) -> FailurePlan:
    """``plan`` plus the crashes and disconnect windows the failure
    slider draws over ``device_ids`` — a pure function of its arguments.

    Draws fall every :data:`CHECK_INTERVAL` after ``start`` up to
    ``until`` (the first one even past it), in ``device_ids`` order from
    ``random.Random(seed)``.  At draw time ``t`` a device not yet dead
    (by a crash or regional crash of ``plan`` at or before ``t``, or an
    earlier draw) crashes with ``crash_probability``; if it does not,
    and no window of ``plan`` or of its own draws covers ``t``, it goes
    offline for ``disconnect_duration`` with ``disconnect_probability``.

    A drawn crash replaces a later scripted one and drops the scripted
    windows opening at or after it; drawn windows join the device's
    scripted ones (:meth:`FailurePlan.apply` installs their union).
    """
    if not 0 <= crash_probability <= 1:
        raise SpecError("crash_probability must be in [0, 1]")
    if not 0 <= disconnect_probability <= 1:
        raise SpecError("disconnect_probability must be in [0, 1]")
    if disconnect_duration <= 0:
        raise SpecError("disconnect_duration must be positive")
    rng = random.Random(seed)
    dead_at = dict(plan.crashes)
    for event in plan.regional_crashes:
        for device_id in event.devices:
            dead_at[device_id] = min(event.at, dead_at.get(device_id, math.inf))
    windows = {device_id: list(w) for device_id, w in plan.disconnections.items()}
    crashed: dict[str, float] = {}
    t = start
    while True:
        t += CHECK_INTERVAL
        for device_id in device_ids:
            if dead_at.get(device_id, math.inf) <= t:
                continue
            if rng.random() < crash_probability:
                dead_at[device_id] = crashed[device_id] = t
                continue
            if any(s <= t < e for s, e in windows.get(device_id, ())):
                continue
            if rng.random() < disconnect_probability:
                windows.setdefault(device_id, []).append(
                    (t, t + disconnect_duration)
                )
        if t + CHECK_INTERVAL > until:
            break
    for device_id, at in crashed.items():
        windows[device_id] = [w for w in windows.get(device_id, ()) if w[0] < at]
    return dataclasses.replace(
        plan,
        crashes={**plan.crashes, **crashed},
        disconnections={d: sorted(w) for d, w in windows.items() if w},
    )
