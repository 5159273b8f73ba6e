"""Adaptive φ-accrual failure detection (Hayashibara et al.).

The fixed watchdog in :mod:`repro.core.runtime.recovery` asks a binary
question — "is the device offline?" — which a network partition or a
gray failure answers wrongly: the device is *online* yet its results
will never arrive (partition) or arrive far too late (gray).  The
φ-accrual detector instead accrues a continuous *suspicion level* from
per-link delivery evidence:

    φ(device) = -log10( P(a new ack would arrive this late) )

where the probability comes from a Normal fit over the device's recent
inter-arrival times of transport acknowledgements.  φ grows without
bound while a device stays silent, so one threshold trades detection
latency against false positives *adaptively*: a slow-but-alive device
stretches its own inter-arrival distribution and is not falsely killed,
while a partitioned or gray device blows past the threshold quickly.

Evidence arrives through observer callbacks registered on
:class:`~repro.network.reliable.ReliableTransport` — this module never
imports the transport (enforced by ``tools/check_layering.py``); the
wiring lives in :class:`~repro.core.runtime.recovery.RecoveryRuntime`.
Explicit negative evidence (timed-out transfers and probes) adds a
per-consecutive-failure suspicion boost, so conclusive silence
escalates faster than a mere gap between acks.
"""

from __future__ import annotations

import math
from collections import deque

__all__ = ["PhiAccrualDetector"]

_SQRT2 = math.sqrt(2.0)

#: suspicion level at which a device is *suspected* (8 ≈ "one false
#: positive per 10^8 arrivals" in the classic parameterisation)
PHI_THRESHOLD = 8.0
#: recent ack inter-arrival samples kept per device
HISTORY_WINDOW = 32
#: floor on the fitted standard deviation, so a burst of identical RTTs
#: cannot make the detector hair-triggered
MIN_STD = 0.5
#: grace added to the expected inter-arrival mean — absorbs scheduling
#: jitter of cadenced traffic
ACCEPTABLE_PAUSE = 2.0
#: suspicion added per *consecutive* failed transfer/probe on the
#: device's links (negative evidence)
FAILURE_BOOST = 3.0
#: inter-arrival samples needed before φ is computed; devices with fewer
#: report suspicion from negative evidence only
MIN_SAMPLES = 2


class _DeviceHistory:
    """Arrival history and failure streak for one monitored device."""

    __slots__ = ("intervals", "last_arrival", "consecutive_failures")

    def __init__(self) -> None:
        self.intervals: deque[float] = deque(maxlen=HISTORY_WINDOW)
        self.last_arrival: float | None = None
        self.consecutive_failures = 0


class PhiAccrualDetector:
    """Accrues per-device suspicion from transport delivery evidence.

    Feed it with :meth:`observe_ack` / :meth:`observe_failure` (wired to
    the transport's link observers) and query :meth:`phi`,
    :meth:`suspicion`, or :meth:`suspect` with the current virtual time.
    Pure bookkeeping — no RNG, no timers, no network imports — so
    enabling it never perturbs any seeded stream.
    """

    def __init__(self) -> None:
        self._histories: dict[str, _DeviceHistory] = {}

    # -- evidence -----------------------------------------------------------

    def on_link_event(
        self, sender: str, recipient: str, outcome: str, rtt: float | None, now: float
    ) -> None:
        """Transport link-observer adapter: fold one terminal transfer
        outcome on ``sender → recipient`` into the recipient's history."""
        if outcome == "acked":
            self.observe_ack(recipient, now)
        elif outcome in ("gave_up", "circuit_open", "peer_dead"):
            self.observe_failure(recipient)
        # budget_exhausted says nothing about *this* peer

    def observe_ack(self, device_id: str, now: float) -> None:
        """The device acknowledged a transfer at virtual time ``now``."""
        history = self._history(device_id)
        if history.last_arrival is not None and now > history.last_arrival:
            history.intervals.append(now - history.last_arrival)
        history.last_arrival = now
        history.consecutive_failures = 0

    def observe_failure(self, device_id: str) -> None:
        """A transfer or probe to the device conclusively failed."""
        self._history(device_id).consecutive_failures += 1

    def forget(self, device_id: str) -> None:
        """Drop a device's history (after reprovisioning replaces it)."""
        self._histories.pop(device_id, None)

    # -- suspicion ----------------------------------------------------------

    def phi(self, device_id: str, now: float) -> float:
        """The classic φ value from arrival history alone."""
        history = self._histories.get(device_id)
        if (
            history is None
            or history.last_arrival is None
            or len(history.intervals) < MIN_SAMPLES
        ):
            return 0.0
        elapsed = now - history.last_arrival
        if elapsed <= 0:
            return 0.0
        intervals = history.intervals
        mean = sum(intervals) / len(intervals) + ACCEPTABLE_PAUSE
        variance = sum((x - mean) ** 2 for x in intervals) / len(intervals)
        std = max(math.sqrt(variance), MIN_STD)
        # P(an inter-arrival gap exceeds `elapsed`) under the Normal fit
        p_later = 0.5 * math.erfc((elapsed - mean) / (std * _SQRT2))
        if p_later <= 0.0:
            return float("inf")
        return -math.log10(p_later)

    def suspicion(self, device_id: str, now: float) -> float:
        """φ plus the negative-evidence boost for consecutive failures."""
        history = self._histories.get(device_id)
        boost = 0.0
        if history is not None:
            boost = FAILURE_BOOST * history.consecutive_failures
        return self.phi(device_id, now) + boost

    def suspect(self, device_id: str, now: float) -> bool:
        """Whether the device's suspicion reaches :data:`PHI_THRESHOLD`."""
        return self.suspicion(device_id, now) >= PHI_THRESHOLD

    def snapshot(self, now: float) -> dict[str, float]:
        """Suspicion level of every monitored device (for reports)."""
        return {
            device_id: self.suspicion(device_id, now)
            for device_id in sorted(self._histories)
        }

    # -- internals ----------------------------------------------------------

    def _history(self, device_id: str) -> _DeviceHistory:
        history = self._histories.get(device_id)
        if history is None:
            history = self._histories[device_id] = _DeviceHistory()
        return history
