"""Declarative standing-query descriptions.

A :class:`StandingQuerySpec` describes one query that re-executes on a
cadence over a churning population: how often a window fires, how many
windows the horizon holds, the window mode (tumbling vs sliding), and
the shape knobs each per-window execution inherits.  Everything the
engine derives from it — window ids, window seeds, fire times — is a
pure function of ``(name, seed)``, which is what lets a 20-window run
over a churning swarm replay to byte-identical per-window fingerprints.

Window modes
------------

The local datastores carry no row timestamps, so window semantics are
defined over *device update times* (arrival or data refresh), which the
engine tracks on the virtual clock:

* ``"tumbling"`` — every window re-aggregates the full current
  population snapshot (PrivAgE-style periodic re-aggregation; the
  window length equals the cadence and windows partition time);
* ``"sliding"`` — a window of length ``window_length`` covers only the
  contributors whose data changed within ``[fire - window_length,
  fire)``: the standing query aggregates *fresh* data and lets stale
  devices drop out of the snapshot until their owners update again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.workload.spec import QueryShape

__all__ = ["WINDOW_MODES", "StandingQuerySpec"]

WINDOW_MODES = ("tumbling", "sliding")


@dataclass(frozen=True)
class StandingQuerySpec(QueryShape):
    """Seeded description of one standing query.

    Attributes:
        name: id prefix for windows (``{name}{seed}-w{index:03d}``).
        cadence: virtual seconds between window fires; must cover the
            collection window so one window's collection never overlaps
            the next window's churn step (data stays frozen while being
            collected).
        max_windows: the horizon — how many windows fire in total.
        window: one of :data:`WINDOW_MODES`.
        window_length: data-freshness horizon for sliding windows
            (defaults to the cadence, i.e. "changed since the previous
            window"); ignored for tumbling windows.
        max_concurrent_windows: windows allowed in flight at once; with
            ``cadence < deadline`` windows overlap, and a window that
            would exceed the cap is *skipped* (recorded, never queued —
            a standing query has no use for a stale window).
        replicas: passive replica ranks per Data Processor operator for
            every window (``0`` plans Overcollection).
        incremental: ship delta stamps for unchanged contributions
            (see :mod:`repro.core.runtime.incremental`); off = full
            recollection every window.
        seed: master seed for window seeds and the default churn model.

    Every window's shape is a :class:`~repro.workload.spec.QueryShape`
    field; a window's snapshot targets 96 tuples by default.
    """

    name: str = "cont"
    cadence: float = 20.0
    max_windows: int = 10
    window: str = "tumbling"
    window_length: float | None = None
    max_concurrent_windows: int = 2
    snapshot_cardinality: int = field(default=96, kw_only=True)
    replicas: int = 0
    incremental: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("name must be non-empty")
        if self.max_windows <= 0:
            raise ValueError("max_windows must be positive")
        if self.window not in WINDOW_MODES:
            raise ValueError(f"window must be one of {WINDOW_MODES}")
        if self.window_length is not None and self.window_length <= 0:
            raise ValueError("window_length must be positive")
        if self.max_concurrent_windows <= 0:
            raise ValueError("max_concurrent_windows must be positive")
        super().__post_init__()
        if self.cadence < self.collection_window:
            raise ValueError(
                "cadence must cover the collection window (a window's "
                "data must stay frozen while it is being collected)"
            )
        if self.replicas < 0:
            raise ValueError("replicas must be non-negative")

    @property
    def freshness_horizon(self) -> float:
        """The sliding-window data horizon (defaults to the cadence)."""
        return (
            self.window_length if self.window_length is not None else self.cadence
        )

    def window_id(self, index: int) -> str:
        return f"{self.name}{self.seed}-w{index:03d}"

    def window_seed(self, index: int) -> int:
        """Per-window randomness seed (jitter, transport, net streams);
        a pure function of ``(seed, index)``, independent of churn."""
        return random.Random(f"{self.seed}:window:{index}").randrange(2**31)

    def fire_times(self, start: float = 0.0) -> list[float]:
        """Absolute fire time of every window in the horizon."""
        return [start + index * self.cadence for index in range(self.max_windows)]
