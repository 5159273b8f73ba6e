"""Seeded churn over the device population of a standing query.

One-shot Edgelet queries assume a frozen crowd; a *standing* query does
not get that luxury — PrivAgE-style periodic aggregation runs over a
population whose owners join and leave between rounds.  This module is
the renewal-process model of that population:

* **departures** — each live device independently leaves for good with
  probability ``departure_probability`` per window (geometric sojourn,
  the memoryless renewal assumption);
* **arrivals** — new devices appear at ``*_arrival_rate`` expected
  devices per window (Bernoulli-rounded, so non-integer rates work);
* **data changes** — each surviving contributor refreshes its local
  datastore with probability ``data_change_probability`` per window,
  which is what decides whether incremental partition maintenance gets
  to ship a delta stamp or must recollect in full;
* **mobility** — optionally, surviving contributors are only reachable
  during exponential contact windows (the classic OppNet assumption),
  generated through :class:`repro.network.mobility.ContactSchedule`.

Determinism is the design constraint: every decision draws from a
private ``random.Random`` keyed by ``(seed, window, device id)`` or
``(seed, window, pool)``, never from any shared stream.  Two
consequences the tests rely on:

* the same spec and seed replay the exact same churn history,
  regardless of how the surrounding simulation interleaves events;
* a **no-op** churn model (all rates zero) makes *zero* draws that any
  other component can observe, so a run with no-op churn is
  byte-identical to a run with no churn model at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import SpecError
from repro.network.mobility import ContactSchedule

__all__ = ["ChurnSpec", "WindowChurn", "ChurnModel"]


@dataclass(frozen=True)
class ChurnSpec:
    """Knobs of the population renewal process.

    Attributes:
        departure_probability: per-device, per-window probability of a
            permanent departure (applies to contributors and processors
            alike).
        contributor_arrival_rate: expected new contributors per window;
            ``None`` balances departures in expectation (rate =
            ``departure_probability * current pool size``), keeping the
            population stationary.
        processor_arrival_rate: same for the processor pool.
        data_change_probability: per-contributor, per-window probability
            that the owner's datastore gained a fresh row since the last
            window.
        mobility_mean_intercontact: when set, surviving contributors are
            online only during exponential contact windows with this
            mean inter-contact time (virtual seconds).
        mobility_mean_duration: mean contact duration for the above.
        seed: root of every private stream in the model.
    """

    departure_probability: float = 0.0
    contributor_arrival_rate: float | None = None
    processor_arrival_rate: float | None = None
    data_change_probability: float = 0.0
    mobility_mean_intercontact: float | None = None
    mobility_mean_duration: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.departure_probability <= 1:
            raise SpecError("departure_probability must be in [0, 1]")
        if not 0 <= self.data_change_probability <= 1:
            raise SpecError("data_change_probability must be in [0, 1]")
        for rate in (self.contributor_arrival_rate, self.processor_arrival_rate):
            if rate is not None and rate < 0:
                raise SpecError("arrival rates must be non-negative")
        if self.mobility_mean_intercontact is not None:
            if self.mobility_mean_intercontact <= 0:
                raise SpecError("mobility_mean_intercontact must be positive")
            if self.mobility_mean_duration <= 0:
                raise SpecError("mobility_mean_duration must be positive")

    @property
    def any_churn(self) -> bool:
        """Whether this spec can ever perturb the population."""
        return bool(
            self.departure_probability
            or self.contributor_arrival_rate
            or self.processor_arrival_rate
            or self.data_change_probability
            or self.mobility_mean_intercontact is not None
        )


@dataclass
class WindowChurn:
    """Everything that happened to the population before one window."""

    window: int
    contributor_departures: list[str] = field(default_factory=list)
    processor_departures: list[str] = field(default_factory=list)
    contributor_arrivals: int = 0
    processor_arrivals: int = 0
    data_changes: list[str] = field(default_factory=list)

    @property
    def any_events(self) -> bool:
        return bool(
            self.contributor_departures
            or self.processor_departures
            or self.contributor_arrivals
            or self.processor_arrivals
            or self.data_changes
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "window": self.window,
            "contributor_departures": list(self.contributor_departures),
            "processor_departures": list(self.processor_departures),
            "contributor_arrivals": self.contributor_arrivals,
            "processor_arrivals": self.processor_arrivals,
            "data_changes": list(self.data_changes),
        }


class ChurnModel:
    """Draws one :class:`WindowChurn` per window from private streams."""

    def __init__(self, spec: ChurnSpec):
        self.spec = spec

    # -- private streams ----------------------------------------------------

    def _device_rng(self, window: int, device_id: str, what: str) -> random.Random:
        return random.Random(f"{self.spec.seed}:churn:w{window}:{what}:{device_id}")

    def _pool_rng(self, window: int, pool: str) -> random.Random:
        return random.Random(f"{self.spec.seed}:churn:w{window}:arrivals:{pool}")

    # -- the renewal step ---------------------------------------------------

    def _arrival_count(
        self, window: int, pool: str, rate: float | None, pool_size: int
    ) -> int:
        if rate is None:
            # stationary default: replace departures in expectation
            rate = self.spec.departure_probability * pool_size
        if rate <= 0:
            return 0
        base = int(rate)
        extra = 1 if self._pool_rng(window, pool).random() < (rate - base) else 0
        return base + extra

    def step(
        self,
        window: int,
        contributors: Sequence[str],
        processors: Sequence[str],
    ) -> WindowChurn:
        """Churn events to apply before window ``window`` fires.

        Per-device decisions draw from streams keyed by the device id,
        so the outcome for one device never depends on how many other
        devices exist or in which order they are considered.
        """
        spec = self.spec
        churn = WindowChurn(window=window)
        if spec.departure_probability > 0:
            for device_id in contributors:
                rng = self._device_rng(window, device_id, "depart")
                if rng.random() < spec.departure_probability:
                    churn.contributor_departures.append(device_id)
            for device_id in processors:
                rng = self._device_rng(window, device_id, "depart")
                if rng.random() < spec.departure_probability:
                    churn.processor_departures.append(device_id)
        churn.contributor_arrivals = self._arrival_count(
            window,
            "contrib",
            spec.contributor_arrival_rate,
            len(contributors),
        )
        churn.processor_arrivals = self._arrival_count(
            window, "proc", spec.processor_arrival_rate, len(processors)
        )
        if spec.data_change_probability > 0:
            for device_id in contributors:
                if device_id in churn.contributor_departures:
                    continue  # the owner left; nobody refreshed the store
                rng = self._device_rng(window, device_id, "data")
                if rng.random() < spec.data_change_probability:
                    churn.data_changes.append(device_id)
        return churn

    # -- mobility -----------------------------------------------------------

    def contact_schedule(
        self,
        window: int,
        device_ids: Iterable[str],
        start: float,
        end: float,
    ) -> ContactSchedule | None:
        """Exponential contact windows over ``[start, end)`` for one
        execution window, or ``None`` when mobility is disabled.

        Reuses :class:`repro.network.mobility.ContactSchedule` with
        per-device private streams, so the contact pattern of a device
        is a pure function of ``(seed, window, device id)``.
        """
        mean_gap = self.spec.mobility_mean_intercontact
        if mean_gap is None:
            return None
        if not start < end:
            raise ValueError("contact horizon must be non-empty")
        mean_stay = self.spec.mobility_mean_duration
        schedule = ContactSchedule()
        for device_id in sorted(device_ids):
            rng = self._device_rng(window, device_id, "contact")
            # first contact begins the window already underway half the
            # time, so a fresh window never starts with everyone offline
            time = start + rng.expovariate(2.0 / mean_gap)
            while time < end:
                duration = rng.expovariate(1.0 / mean_stay)
                schedule.add_window(device_id, time, min(time + duration, end))
                time += duration + rng.expovariate(1.0 / mean_gap)
        return schedule
