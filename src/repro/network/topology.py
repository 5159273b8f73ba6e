"""Contact-graph topology models for a swarm of personal devices.

Opportunistic networks are usually described by *contact graphs*: which
pairs of devices ever come into communication range, and how good those
contacts are.  We model each potential link with a :class:`LinkQuality`
(expected contact latency, loss probability, bandwidth) and provide
generators for the topologies used in the demonstration scenarios:

* ``fully_connected`` — an idealized always-reachable swarm (the demo's
  conference-hall Wi-Fi case);
* ``community`` — devices clustered into communities bridged by a few
  "caregiver" hubs (the DomYcile home-box case, where caregivers carry
  data between homes);
* ``random_geometric`` — devices scattered in a unit square, linked when
  within radio range.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable

__all__ = ["LinkQuality", "ContactGraph"]


@dataclass(frozen=True)
class LinkQuality:
    """Quality parameters of one (potential) contact link.

    Attributes:
        base_latency: expected one-way delay in virtual seconds when the
            contact is up (includes the opportunistic waiting time).
        latency_jitter: multiplicative jitter range; the sampled latency
            is ``base_latency * uniform(1 - j, 1 + j)``.
        loss_probability: probability that any given message on this
            link is silently dropped.
        bandwidth: bytes per virtual second, used for the size-dependent
            component of the delay.
    """

    base_latency: float = 1.0
    latency_jitter: float = 0.3
    loss_probability: float = 0.0
    bandwidth: float = 125_000.0  # 1 Mbit/s

    def __post_init__(self) -> None:
        if self.base_latency < 0:
            raise ValueError("base_latency must be non-negative")
        if not 0 <= self.latency_jitter < 1:
            raise ValueError("latency_jitter must be in [0, 1)")
        if not 0 <= self.loss_probability <= 1:
            raise ValueError("loss_probability must be in [0, 1]")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    def sample_latency(self, size_bytes: int, rng: random.Random) -> float:
        """Sample the one-way delay for a message of ``size_bytes``."""
        jitter = rng.uniform(1 - self.latency_jitter, 1 + self.latency_jitter)
        return self.base_latency * jitter + size_bytes / self.bandwidth

    def scaled(self, loss_probability: float) -> "LinkQuality":
        """Copy of this link with a different loss probability."""
        return LinkQuality(
            base_latency=self.base_latency,
            latency_jitter=self.latency_jitter,
            loss_probability=loss_probability,
            bandwidth=self.bandwidth,
        )


def _severity(link: LinkQuality) -> tuple[float, ...]:
    """Sort key under which the worse of two links is the greater."""
    return (
        link.base_latency, link.loss_probability, link.latency_jitter,
        -link.bandwidth,
    )


class ContactGraph:
    """An undirected contact graph with per-link :class:`LinkQuality`.

    The graph answers two questions for the network layer: *can A talk
    to B at all*, and *with what quality*.  Devices not joined by a
    link can still communicate through store-and-forward relaying if
    ``allow_relay`` is enabled on the network.

    Links come in two kinds, held by the one class:

    * **explicit** links, added pair by pair with :meth:`add_link`
      (what ``community`` and ``random_geometric`` build), are stored;
    * **clique** links are implicit.  A device that joins with its own
      radio's :class:`LinkQuality` (``add_device(device_id, link)``) is
      linked to every other device that joined that way, whenever either
      joined.  Nothing is stored per pair: the quality of a clique pair
      is computed on lookup as the *worse* of the two devices' own
      links, so a full mesh of N devices costs O(N) memory and an O(1)
      join instead of N² stored links.

    *Worse* is a total order that is symmetric in its arguments and
    independent of join order: the link with the higher ``base_latency``
    loses; on a tie the higher ``loss_probability``, then the higher
    ``latency_jitter``, then the lower ``bandwidth``.  Two links tied on
    all four are equal in every field, so ``quality(a, b)`` and
    ``quality(b, a)`` always agree.

    An explicit link between two clique members takes precedence over
    their implicit one.  :meth:`remove_link` drops the explicit link and
    leaves a tombstone on a clique pair, so the pair stays cut (the two
    devices can still relay through a third).  A device never has a link
    to itself: ``quality(a, a)`` is ``None`` and ``path(a, a)`` is
    ``[a]``.
    """

    def __init__(self, default_quality: LinkQuality | None = None):
        self._default = default_quality or LinkQuality()
        # device -> {neighbour: quality} for explicit links; every
        # registered device has an entry
        self._links: dict[str, dict[str, LinkQuality]] = {}
        # clique member -> (severity, own link), in join order
        self._clique: dict[str, tuple[tuple[float, ...], LinkQuality]] = {}
        # clique member -> members its implicit link to was removed
        self._cut: dict[str, set[str]] = {}

    # -- construction ---------------------------------------------------

    def add_device(self, device_id: str, link: LinkQuality | None = None) -> None:
        """Register a device (idempotent).

        With ``link`` — the quality of the device's own radio — the
        device also joins the clique; a member keeps the link it first
        joined with.  Without it the device is only registered, and a
        clique member stays one.
        """
        self._links.setdefault(device_id, {})
        if link is not None:
            self._clique.setdefault(device_id, (_severity(link), link))

    def add_link(
        self, a: str, b: str, quality: LinkQuality | None = None
    ) -> None:
        """Add a bidirectional contact link between ``a`` and ``b``."""
        if a == b:
            raise ValueError("self-links are not allowed")
        quality = quality or self._default
        self._links.setdefault(a, {})[b] = quality
        self._links.setdefault(b, {})[a] = quality

    def remove_link(self, a: str, b: str) -> None:
        """Drop a contact link if it exists."""
        self._links.get(a, {}).pop(b, None)
        self._links.get(b, {}).pop(a, None)
        if a != b and a in self._clique and b in self._clique:
            self._cut.setdefault(a, set()).add(b)
            self._cut.setdefault(b, set()).add(a)

    # -- queries ----------------------------------------------------------

    @property
    def devices(self) -> list[str]:
        """All registered device identifiers (sorted for determinism)."""
        return sorted(self._links)

    def has_device(self, device_id: str) -> bool:
        return device_id in self._links

    def neighbors(self, device_id: str) -> list[str]:
        """Direct contacts of a device (sorted)."""
        if device_id not in self._links:
            return []
        return sorted(self._adjacent(device_id, self._clique))

    def quality(self, a: str, b: str) -> LinkQuality | None:
        """Quality of the direct link a--b, or ``None`` if absent."""
        links = self._links.get(a)
        if links:
            explicit = links.get(b)
            if explicit is not None:
                return explicit
        own = self._clique.get(a)
        other = self._clique.get(b)
        if own is None or other is None or a == b:
            return None
        if self._cut and b in self._cut.get(a, ()):
            return None
        return own[1] if own[0] >= other[0] else other[1]

    def path(self, a: str, b: str) -> list[str] | None:
        """Shortest relay path between two devices, or ``None``."""
        if a not in self._links or b not in self._links:
            return None
        if a == b:
            return [a]
        parents = self._search(a, b)
        if b not in parents:
            return None
        path = [b]
        while path[-1] != a:
            path.append(parents[path[-1]])
        path.reverse()
        return path

    def is_connected(self) -> bool:
        """Whether the whole swarm forms one component."""
        if not self._links:
            return True
        return len(self._search(next(iter(self._links)))) == len(self._links)

    def degree_histogram(self) -> dict[int, int]:
        """Map degree -> number of devices with that degree."""
        histogram: dict[int, int] = {}
        members = len(self._clique)
        for device_id, links in self._links.items():
            degree = len(links)
            if device_id in self._clique:
                cut = self._cut.get(device_id, ())
                # implicit links, minus the pairs an explicit link
                # already counted
                degree += members - 1 - len(cut) - sum(
                    1 for other in links
                    if other in self._clique and other not in cut
                )
            histogram[degree] = histogram.get(degree, 0) + 1
        return histogram

    def _adjacent(self, device_id: str, members: Iterable[str]) -> list[str]:
        """Direct contacts of a registered device: its explicit links,
        then those of ``members`` it shares an implicit link with."""
        links = self._links[device_id]
        if device_id not in self._clique:
            return list(links)
        cut = self._cut.get(device_id, ())
        return [*links, *(
            other for other in members
            if other not in cut and other not in links and other != device_id
        )]

    def _search(self, source: str, target: str | None = None) -> dict[str, str]:
        """Breadth-first search from ``source``: reached device -> the
        device it was reached from.  Stops once ``target`` is reached.

        ``outside`` holds the clique members not reached yet.  The first
        member expanded reaches all of them but its tombstoned pairs, so
        a search costs O(devices + explicit links + tombstones) however
        many implicit links the clique stands for.
        """
        parents = {source: source}
        outside = dict.fromkeys(self._clique)
        outside.pop(source, None)
        frontier = deque([source])
        while frontier:
            device_id = frontier.popleft()
            for other in self._adjacent(device_id, outside):
                if other in parents:
                    continue
                parents[other] = device_id
                outside.pop(other, None)
                if other == target:
                    return parents
                frontier.append(other)
        return parents

    # -- generators -------------------------------------------------------

    @classmethod
    def fully_connected(
        cls, device_ids: Iterable[str], quality: LinkQuality | None = None
    ) -> "ContactGraph":
        """Every device can contact every other device directly."""
        graph = cls(default_quality=quality)
        for device_id in device_ids:
            graph.add_device(device_id, graph._default)
        return graph

    @classmethod
    def community(
        cls,
        device_ids: Iterable[str],
        n_communities: int,
        hubs_per_community: int = 1,
        quality: LinkQuality | None = None,
        hub_quality: LinkQuality | None = None,
        seed: int = 0,
    ) -> "ContactGraph":
        """Devices split into communities; hub devices bridge them.

        Models the DomYcile deployment where home boxes only ever talk
        to visiting caregivers, and caregivers meet each other.
        """
        ids = list(device_ids)
        if n_communities <= 0:
            raise ValueError("need at least one community")
        rng = random.Random(seed)
        graph = cls(default_quality=quality)
        for device_id in ids:
            graph.add_device(device_id)
        communities: list[list[str]] = [[] for _ in range(n_communities)]
        for device_id in ids:
            communities[rng.randrange(n_communities)].append(device_id)
        hub_q = hub_quality or (quality or graph._default)
        hubs: list[str] = []
        for members in communities:
            if not members:
                continue
            local_hubs = members[: max(1, min(hubs_per_community, len(members)))]
            hubs.extend(local_hubs)
            for member in members:
                for hub in local_hubs:
                    if member != hub:
                        graph.add_link(member, hub)
            # intra-community mesh between hubs
            for i, a in enumerate(local_hubs):
                for b in local_hubs[i + 1:]:
                    graph.add_link(a, b, hub_q)
        # hubs of different communities meet each other
        for i, a in enumerate(hubs):
            for b in hubs[i + 1:]:
                graph.add_link(a, b, hub_q)
        return graph

    @classmethod
    def random_geometric(
        cls,
        device_ids: Iterable[str],
        radius: float = 0.25,
        quality: LinkQuality | None = None,
        seed: int = 0,
    ) -> "ContactGraph":
        """Devices placed uniformly in the unit square, linked in range."""
        ids = list(device_ids)
        rng = random.Random(seed)
        positions = {device_id: (rng.random(), rng.random()) for device_id in ids}
        graph = cls(default_quality=quality)
        for device_id in ids:
            graph.add_device(device_id)
        for i, a in enumerate(ids):
            ax, ay = positions[a]
            for b in ids[i + 1:]:
                bx, by = positions[b]
                if math.hypot(ax - bx, ay - by) <= radius:
                    graph.add_link(a, b)
        return graph
