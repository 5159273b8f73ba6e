"""Message-level fault model (consumed by chaos campaigns above).

The paper's failure story is device-centric: edgelets crash or
disconnect at will, and the Backup/Overcollection strategies must keep
the three properties.  Real opportunistic networks misbehave at the
*message* level too — relays drop, retransmit, and delay envelopes, and
a compromised relay can tamper with ciphertext at the TEE boundary.
This module injects exactly those faults at the
:class:`~repro.network.opnet.OpportunisticNetwork` send path:

* **drop** — the message silently disappears before routing;
* **duplicate** — extra copies enter the network (each copy then takes
  its own independent loss/latency trials, so duplicates reorder);
* **delay** — an extra latency term is added, reordering the message
  against later sends;
* **corrupt** — the payload is tampered with: sealed
  :class:`~repro.crypto.envelope.Envelope` ciphertext is bit-flipped
  (the receiver's MAC check must reject it), cleartext payloads have
  their numeric data fields scaled (a Byzantine relay fabricating
  values, which only an invariant check can catch).

Faults are described by composable, JSON-serializable
:class:`FaultSpec` records and rolled by a :class:`MessageFaultInjector`
with its own seeded RNG, so a campaign run is a pure function of its
seed and the network's RNG stream is untouched when no injector is
installed.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.crypto.envelope import Envelope
from repro.errors import SpecError
from repro.network.messages import Message

__all__ = [
    "FaultSpec",
    "FaultDecision",
    "MessageFaultInjector",
    "corrupt_payload",
    "parse_fault_mix",
    "parse_knobs",
    "MESSAGE_KNOBS",
]

# payload keys that carry routing/protocol structure rather than data;
# corruption must not touch them or the message stops being routable and
# the fault degenerates into a plain drop
_STRUCTURAL_KEYS = frozenset(
    {
        "op_id",
        "partition_index",
        "group_index",
        "contribution_id",
        "commitment",
        "n_sets",
        "n_aggs",
        "__aggregate__",
        "stats",
        "rank",
        "shipped",
        "base",
        "registers",
        "knowledges_merged",
        "k",
        # fencing token: corrupting it would turn a tamper fault into a
        # bogus promotion/rejection, which is a different failure mode
        "generation",
    }
)


#: ``--fault-mix`` knob name -> one-line description, for the knobs
#: that configure a per-message :class:`FaultSpec` rule (the outage
#: knobs are :data:`repro.network.outages.OUTAGE_KNOBS`).
MESSAGE_KNOBS: dict[str, str] = {
    "drop": "P(message vanishes before routing)",
    "duplicate": "P(one extra copy is injected)",
    "delay": "P(extra latency term)",
    "delay_min": "min extra delay, seconds",
    "delay_max": "max extra delay, seconds",
    "corrupt": "P(payload tampered at the TEE boundary)",
    "corrupt_scale": "factor applied to corrupted numeric leaves",
}


@dataclass(frozen=True)
class FaultSpec:
    """One composable message-fault rule.

    Attributes:
        kinds: message kinds (``MessageKind.value`` strings) the rule
            applies to; ``None`` applies to every kind.
        drop_probability: chance the message vanishes before routing.
        duplicate_probability: chance one extra copy is injected.
        delay_probability: chance of an extra latency term.
        delay_range: (min, max) of the uniform extra delay, seconds.
        corrupt_probability: chance the payload is tampered with.
        corrupt_scale: factor applied to numeric data leaves of
            cleartext payloads when corrupting.
    """

    kinds: tuple[str, ...] | None = None
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    delay_probability: float = 0.0
    delay_range: tuple[float, float] = (1.0, 5.0)
    corrupt_probability: float = 0.0
    corrupt_scale: float = 4.0

    def __post_init__(self) -> None:
        for name in (
            "drop_probability",
            "duplicate_probability",
            "delay_probability",
            "corrupt_probability",
        ):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise SpecError(f"{name} must be in [0, 1], got {value}")
        low, high = self.delay_range
        if low < 0 or high < low:
            raise SpecError(f"need 0 <= min <= max delay, got {self.delay_range}")
        if self.kinds is not None:
            object.__setattr__(self, "kinds", tuple(self.kinds))

    def matches(self, kind_value: str) -> bool:
        """Whether this rule applies to a message of the given kind."""
        return self.kinds is None or kind_value in self.kinds

    def is_noop(self) -> bool:
        """Whether this rule can never alter a message."""
        return (
            self.drop_probability == 0
            and self.duplicate_probability == 0
            and self.delay_probability == 0
            and self.corrupt_probability == 0
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation (artifact serialization)."""
        return {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in dataclasses.asdict(self).items()
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultSpec":
        kinds = data.get("kinds")
        return cls(
            kinds=tuple(kinds) if kinds is not None else None,
            drop_probability=float(data.get("drop_probability", 0.0)),
            duplicate_probability=float(data.get("duplicate_probability", 0.0)),
            delay_probability=float(data.get("delay_probability", 0.0)),
            delay_range=tuple(data.get("delay_range", (1.0, 5.0))),  # type: ignore[arg-type]
            corrupt_probability=float(data.get("corrupt_probability", 0.0)),
            corrupt_scale=float(data.get("corrupt_scale", 4.0)),
        )


@dataclass(frozen=True)
class FaultDecision:
    """The resolved fate of one send attempt (for logs and shrinking)."""

    message_id: int
    kind: str
    drop: bool = False
    copies: int = 1
    extra_delay: float = 0.0
    corrupt: bool = False

    @property
    def is_fault(self) -> bool:
        return self.drop or self.copies != 1 or self.extra_delay > 0 or self.corrupt


_CLEAN = FaultDecision(message_id=0, kind="")


def _corrupt_tree(value: Any, scale: float) -> Any:
    """Deep-copy ``value`` scaling numeric data leaves."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value * scale
    if isinstance(value, dict):
        return {
            key: (val if key in _STRUCTURAL_KEYS else _corrupt_tree(val, scale))
            for key, val in value.items()
        }
    if isinstance(value, (list, tuple)):
        out = [_corrupt_tree(item, scale) for item in value]
        return tuple(out) if isinstance(value, tuple) else out
    return value


def corrupt_payload(payload: Any, scale: float = 4.0) -> Any:
    """Return a tampered copy of a message payload.

    Sealed envelopes get their first ciphertext byte flipped — the
    receiver's encrypt-then-MAC check rejects the envelope, so the
    corruption surfaces as a silent loss (the TEE boundary holds).
    Cleartext dict/list payloads get numeric data leaves multiplied by
    ``scale``, modelling a Byzantine relay that fabricates values —
    only a downstream validity check can catch that.  Other payloads
    are returned unchanged.
    """
    if isinstance(payload, Envelope):
        tampered = bytes([payload.ciphertext[0] ^ 0xFF]) + payload.ciphertext[1:]
        return dataclasses.replace(payload, ciphertext=tampered)
    if isinstance(payload, (dict, list, tuple)):
        return _corrupt_tree(payload, scale)
    return payload


class MessageFaultInjector:
    """Seeded message-fault oracle consulted by the network on send.

    ``rules`` are :class:`FaultSpec` records (always active) or
    :class:`~repro.network.failures.MessageFault` plan atoms (active
    during ``[start, end)`` of ``clock``, time 0 without one); each send
    rolls the active rules in order.

    Owns its own :class:`random.Random` so installing it never perturbs
    the network's loss/latency RNG stream — a campaign run with an
    all-zero fault mix is bit-for-bit identical to one with no injector
    at all.
    """

    def __init__(
        self,
        rules: Iterable[Any],
        seed: int = 0,
        clock: Callable[[], float] | None = None,
    ):
        self.rules: tuple[tuple[FaultSpec, float, float], ...] = tuple(
            (rule, 0.0, math.inf)
            if isinstance(rule, FaultSpec)
            else (rule.spec, rule.start, rule.end)
            for rule in rules
        )
        self.seed = seed
        self._clock = clock
        self._rng = random.Random(seed)
        self.decisions: list[FaultDecision] = []

    def _active(self) -> list[FaultSpec]:
        now = self._clock() if self._clock is not None else 0.0
        return [spec for spec, start, end in self.rules if start <= now < end]

    def on_send(self, message: Message) -> FaultDecision:
        """Roll the fate of one message; faulty decisions are logged."""
        kind = message.kind.value
        drop = False
        copies = 1
        extra_delay = 0.0
        corrupt = False
        rolled = False
        for spec in self._active():
            if not spec.matches(kind) or spec.is_noop():
                continue
            rolled = True
            if self._rng.random() < spec.drop_probability:
                drop = True
            if self._rng.random() < spec.duplicate_probability:
                copies += 1
            if self._rng.random() < spec.delay_probability:
                extra_delay += self._rng.uniform(*spec.delay_range)
            if self._rng.random() < spec.corrupt_probability:
                corrupt = True
        if not rolled:
            return _CLEAN
        decision = FaultDecision(
            message_id=message.message_id,
            kind=kind,
            drop=drop,
            copies=copies,
            extra_delay=extra_delay,
            corrupt=corrupt,
        )
        if decision.is_fault:
            self.decisions.append(decision)
        return decision

    def corrupt_payload(self, payload: Any) -> Any:
        """Tamper a payload using the first active corrupting rule's scale."""
        scale = next(
            (s.corrupt_scale for s in self._active() if s.corrupt_probability > 0),
            4.0,
        )
        return corrupt_payload(payload, scale)

    def fault_counts(self) -> dict[str, int]:
        """Tally of injected faults by category (for summaries)."""
        counts = {"dropped": 0, "duplicated": 0, "delayed": 0, "corrupted": 0}
        for decision in self.decisions:
            if decision.drop:
                counts["dropped"] += 1
            if decision.copies > 1:
                counts["duplicated"] += decision.copies - 1
            if decision.extra_delay > 0:
                counts["delayed"] += 1
            if decision.corrupt:
                counts["corrupted"] += 1
        return counts


def parse_knobs(text: str, known: Iterable[str], label: str) -> dict[str, float]:
    """Parse a ``name=value,…`` knob list; a malformed knob or a name
    not in ``known`` raises :class:`~repro.errors.SpecError` naming it
    as a ``label``."""
    knobs: dict[str, float] = {}
    for knob in text.split(","):
        knob = knob.strip()
        if not knob:
            continue
        if "=" not in knob:
            raise SpecError(f"{label} {knob!r} is not name=value")
        name, value = knob.split("=", 1)
        knobs[name.strip()] = float(value)
    unknown = set(knobs) - set(known)
    if unknown:
        raise SpecError(
            f"unknown {label}(s) {sorted(unknown)}; expected {sorted(known)}"
        )
    return knobs


def parse_fault_mix(text: str) -> tuple[FaultSpec, ...]:
    """Parse a CLI fault-mix string into fault specs.

    Grammar (``;`` separates independent specs)::

        mix   ::= spec (";" spec)*
        spec  ::= [kinds ":"] knob ("," knob)*
        kinds ::= kind ("+" kind)*          # e.g. partition+partial_result
        knob  ::= name "=" float            # drop, duplicate, delay,
                                            # delay_min, delay_max,
                                            # corrupt, corrupt_scale

    Examples::

        drop=0.05,duplicate=0.02
        partition:corrupt=0.5,corrupt_scale=8;delay=0.1,delay_max=10
    """
    specs: list[FaultSpec] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        kinds: tuple[str, ...] | None = None
        if ":" in chunk:
            kinds_part, chunk = chunk.split(":", 1)
            kinds = tuple(k.strip() for k in kinds_part.split("+") if k.strip())
        knobs = parse_knobs(chunk, MESSAGE_KNOBS, "fault-mix knob")
        specs.append(
            FaultSpec(
                kinds=kinds,
                drop_probability=knobs.get("drop", 0.0),
                duplicate_probability=knobs.get("duplicate", 0.0),
                delay_probability=knobs.get("delay", 0.0),
                delay_range=(
                    knobs.get("delay_min", 1.0),
                    knobs.get("delay_max", 5.0),
                ),
                corrupt_probability=knobs.get("corrupt", 0.0),
                corrupt_scale=knobs.get("corrupt_scale", 4.0),
            )
        )
    if not specs:
        raise SpecError("empty fault mix")
    return tuple(specs)
