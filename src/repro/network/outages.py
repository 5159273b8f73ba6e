"""Seeded topology outages: partitions, regional crashes, gray failures.

The message-level injector (:mod:`repro.network.faults`) perturbs one
send at a time; real edge deployments also fail at the *topology*
level — a Wi-Fi AP or cell sector drops a whole neighbourhood at once
(correlated crashes), a backhaul cut splits the swarm into components
that heal later (partitions), and an overloaded device turns slow and
lossy without dying (gray failure).  The scripted atoms for those live
in :mod:`repro.network.failures` next to crashes and disconnect
windows; this module is their seeded generator:
:class:`OutageSpec` (region count, per-region partition/crash
probabilities, gray knobs) expands through :func:`build_outage_plan`
into a concrete :class:`~repro.network.failures.FailurePlan` as a pure
function of ``(spec, device_ids, horizon, seed)``.

Region assignment is deterministic: sorted device ids round-robin over
``regions`` groups, modelling devices that share an AP.  Plans carry
resolved device-id tuples so replaying an artifact never recomputes
membership.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.errors import SpecError
from repro.network.failures import (
    FailurePlan,
    GrayWindow,
    Partition,
    RegionalCrash,
    read_field,
)
from repro.network.faults import MESSAGE_KNOBS, parse_knobs

__all__ = [
    "OutageSpec",
    "build_outage_plan",
    "assign_regions",
    "fault_mix_help",
    "parse_outage_mix",
    "OUTAGE_KNOBS",
]


@dataclass(frozen=True)
class OutageSpec:
    """Seeded outage-generation configuration (the campaign-side knob).

    Attributes:
        regions: number of AP/region groups devices round-robin into.
        partition_probability: per-region chance of one partition event
            cutting that region off the mainland for a while.
        partition_duration: (min, max) seconds a partition lasts.
        region_crash_probability: per-region chance the whole region
            crashes at a seeded instant (correlated failure).
        gray_probability: per-device chance of one gray window.
        gray_latency_factor: latency inflation inside a gray window.
        gray_extra_loss: additional loss probability inside a gray window.
        gray_duration: (min, max) seconds a gray window lasts.
    """

    regions: int = 4
    partition_probability: float = 0.0
    partition_duration: tuple[float, float] = (10.0, 30.0)
    region_crash_probability: float = 0.0
    gray_probability: float = 0.0
    gray_latency_factor: float = 4.0
    gray_extra_loss: float = 0.3
    gray_duration: tuple[float, float] = (10.0, 40.0)

    def __post_init__(self) -> None:
        if self.regions < 1:
            raise SpecError("regions must be >= 1")
        for name in (
            "partition_probability",
            "region_crash_probability",
            "gray_probability",
            "gray_extra_loss",
        ):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise SpecError(f"{name} must be in [0, 1], got {value}")
        if self.gray_latency_factor < 1.0:
            raise SpecError("gray_latency_factor must be >= 1")
        for name in ("partition_duration", "gray_duration"):
            low, high = getattr(self, name)
            if not 0 < low <= high:
                raise SpecError(f"need 0 < min <= max for {name}")
        object.__setattr__(
            self, "partition_duration", tuple(self.partition_duration)
        )
        object.__setattr__(self, "gray_duration", tuple(self.gray_duration))

    def is_noop(self) -> bool:
        return (
            self.partition_probability == 0
            and self.region_crash_probability == 0
            and self.gray_probability == 0
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in dataclasses.asdict(self).items()
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "OutageSpec":
        # every field has a default whose type is its JSON reader
        read = partial(read_field, data, owner="outage spec")
        return cls(
            **{
                f.name: read(f.name, type(f.default), f.default)
                for f in dataclasses.fields(cls)
            }
        )


def assign_regions(device_ids: list[str], regions: int) -> dict[str, tuple[str, ...]]:
    """Deterministic AP/region grouping: sorted ids round-robin over
    ``regions`` groups named ``region-0`` … ``region-{n-1}``."""
    groups: dict[str, list[str]] = {f"region-{i}": [] for i in range(max(1, regions))}
    ordered = sorted(device_ids)
    names = sorted(groups)
    for index, device_id in enumerate(ordered):
        groups[names[index % len(names)]].append(device_id)
    return {name: tuple(members) for name, members in groups.items() if members}


def build_outage_plan(
    spec: OutageSpec,
    device_ids: list[str],
    horizon: float,
    seed: int,
) -> FailurePlan:
    """Expand a spec into a concrete plan — a pure function of its
    arguments, so campaign runs replay from (spec, seed) alone."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng = random.Random(f"{seed}:outages")
    plan = FailurePlan()
    regions = assign_regions(device_ids, spec.regions)
    for region_name in sorted(regions):
        members = regions[region_name]
        if rng.random() < spec.partition_probability:
            duration = rng.uniform(*spec.partition_duration)
            start = rng.uniform(0.0, max(horizon - duration, 0.0) or horizon * 0.5)
            plan.partitions.append(
                Partition(
                    start=start,
                    end=start + duration,
                    islands=(members,),
                )
            )
        if rng.random() < spec.region_crash_probability:
            plan.regional_crashes.append(
                RegionalCrash(
                    at=rng.uniform(0.0, horizon),
                    region=region_name,
                    devices=members,
                )
            )
    for device_id in sorted(device_ids):
        if rng.random() < spec.gray_probability:
            duration = rng.uniform(*spec.gray_duration)
            start = rng.uniform(0.0, max(horizon - duration, 0.0) or horizon * 0.5)
            plan.gray_windows.append(
                GrayWindow(
                    device_id=device_id,
                    start=start,
                    end=start + duration,
                    latency_factor=spec.gray_latency_factor,
                    extra_loss=spec.gray_extra_loss,
                )
            )
    return plan.normalized()


# -- CLI fault-mix integration ------------------------------------------------

#: ``--fault-mix`` knob name -> one-line description, for the knobs
#: that configure an :class:`OutageSpec`.
OUTAGE_KNOBS: dict[str, str] = {
    "regions": "number of AP/region groups (default 4)",
    "partition": "per-region P(partition cuts the region off for a while)",
    "partition_min": "min partition duration, seconds",
    "partition_max": "max partition duration, seconds",
    "region_crash": "per-region P(correlated crash of the whole region)",
    "gray": "per-device P(gray window: slow+lossy, not dead)",
    "gray_factor": "latency inflation inside a gray window",
    "gray_loss": "extra loss probability inside a gray window",
    "gray_min": "min gray-window duration, seconds",
    "gray_max": "max gray-window duration, seconds",
}


def fault_mix_help() -> str:
    """The ``--fault-mix`` knobs as CLI help text, grouped by scope."""
    return " | ".join(
        f"{title}: " + "; ".join(f"{n} ({d})" for n, d in sorted(knobs.items()))
        for title, knobs in (
            ("message faults", MESSAGE_KNOBS),
            ("topology outages", OUTAGE_KNOBS),
        )
    )


def parse_outage_mix(text: str) -> OutageSpec | None:
    """Parse the outage-scoped knobs out of a ``--fault-mix`` chunk.

    Accepts one comma-separated knob list (no kind prefix — outages are
    topology-level, not per-message-kind).  Returns ``None`` for an
    empty string.
    """
    knobs = parse_knobs(text, OUTAGE_KNOBS, "outage knob")
    if not knobs:
        return None
    return OutageSpec(
        regions=int(knobs.get("regions", 4)),
        partition_probability=knobs.get("partition", 0.0),
        partition_duration=(
            knobs.get("partition_min", 10.0),
            knobs.get("partition_max", 30.0),
        ),
        region_crash_probability=knobs.get("region_crash", 0.0),
        gray_probability=knobs.get("gray", 0.0),
        gray_latency_factor=knobs.get("gray_factor", 4.0),
        gray_extra_loss=knobs.get("gray_loss", 0.3),
        gray_duration=(knobs.get("gray_min", 10.0), knobs.get("gray_max", 40.0)),
    )


def split_chaos_mix(text: str) -> tuple[str, str]:
    """Split a combined ``--fault-mix`` string into (message part,
    outage part) by classifying each ``;``-separated chunk's knobs
    against :data:`OUTAGE_KNOBS`.  A chunk mixing both scopes is an
    error; kind-prefixed chunks are always message-scoped.
    """
    message_chunks: list[str] = []
    outage_chunks: list[str] = []
    for chunk in text.split(";"):
        stripped = chunk.strip()
        if not stripped:
            continue
        body = stripped.split(":", 1)[1] if ":" in stripped else stripped
        names = {
            knob.split("=", 1)[0].strip()
            for knob in body.split(",")
            if knob.strip()
        }
        outage_names = names & set(OUTAGE_KNOBS)
        if ":" in stripped or not outage_names:
            message_chunks.append(stripped)
        elif outage_names == names:
            outage_chunks.append(stripped)
        else:
            raise SpecError(
                f"fault-mix chunk {stripped!r} mixes message knobs "
                f"{sorted(names - outage_names)} with outage knobs "
                f"{sorted(outage_names)}; separate them with ';'"
            )
    return ";".join(message_chunks), ",".join(outage_chunks)
