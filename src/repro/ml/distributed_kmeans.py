"""The Edgelet method for iterative ML (Section 2.2 of the paper).

Each Computer edgelet alternates two phases, cadenced by a heartbeat:

1. **Local convergence** — run (a few steps of) K-Means on its local
   partition, improving its *knowledge* (weighted centroids), then
   broadcast that knowledge to all other Computers;
2. **Synchronization** — fold whatever peer knowledge arrived into its
   own by taking the weighted barycenter of matching centroids.

The Computers advance on every heartbeat *even if few or no messages
were received* — that is the resiliency trick: lost messages degrade
accuracy, never progress.  Right before the deadline everyone sends its
knowledge to the Computing Combiner, which merges all received
knowledges into the final centroids.

This module is pure algorithm (no simulator): the state machine that a
Computer runs per heartbeat.  :mod:`repro.core.runtime` drives it over
the opportunistic network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.ml.kmeans import kmeans

__all__ = ["CentroidKnowledge", "KMeansComputerState", "merge_knowledge"]


@dataclass
class CentroidKnowledge:
    """One Computer's current knowledge: weighted centroids.

    ``weights[i]`` counts how many data points back ``centroids[i]``,
    so barycenter merging is a weighted mean.  Serializes to JSON for
    envelope transport.
    """

    centroids: np.ndarray  # (k, d)
    weights: np.ndarray    # (k,)

    def __post_init__(self) -> None:
        self.centroids = np.asarray(self.centroids, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.centroids.ndim != 2:
            raise ValueError("centroids must be 2-D")
        if self.weights.shape != (self.centroids.shape[0],):
            raise ValueError("weights must have one entry per centroid")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")

    @property
    def k(self) -> int:
        """Number of centroids."""
        return self.centroids.shape[0]

    def to_payload(self) -> dict[str, Any]:
        """JSON-compatible representation for sealed envelopes."""
        return {
            "centroids": self.centroids.tolist(),
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "CentroidKnowledge":
        """Inverse of :meth:`to_payload`."""
        return cls(
            centroids=np.asarray(payload["centroids"], dtype=float),
            weights=np.asarray(payload["weights"], dtype=float),
        )


def _match_centroids(reference: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Greedy matching of ``other`` centroids onto ``reference`` ones.

    Returns an index array ``match`` with ``other[match[i]]`` being the
    peer centroid paired with ``reference[i]``.  Greedy nearest-pair
    matching is what a resource-bounded edgelet can afford and is
    accurate enough once the runs roughly agree.
    """
    k = reference.shape[0]
    if other.shape[0] != k:
        raise ValueError("knowledge objects must have the same k")
    diffs = reference[:, None, :] - other[None, :, :]
    cost = np.sum(diffs * diffs, axis=2)
    match = np.full(k, -1, dtype=int)
    used_refs: set[int] = set()
    used_others: set[int] = set()
    flat_order = np.argsort(cost, axis=None)
    for flat in flat_order:
        i, j = divmod(int(flat), k)
        if i in used_refs or j in used_others:
            continue
        match[i] = j
        used_refs.add(i)
        used_others.add(j)
        if len(used_refs) == k:
            break
    return match


def merge_knowledge(
    own: CentroidKnowledge, peers: Iterable[CentroidKnowledge]
) -> CentroidKnowledge:
    """Synchronization phase: weighted barycenter of matched centroids.

    Each peer's centroids are matched to ``own``'s, then each matched
    group is replaced by its weight-weighted mean.  With no peers the
    knowledge is returned unchanged (heartbeats never block).
    """
    centroids = own.centroids.copy()
    weights = own.weights.copy()
    for peer in peers:
        match = _match_centroids(centroids, peer.centroids)
        for i in range(own.k):
            j = match[i]
            peer_weight = peer.weights[j]
            total = weights[i] + peer_weight
            if total <= 0:
                continue
            centroids[i] = (
                centroids[i] * weights[i] + peer.centroids[j] * peer_weight
            ) / total
            weights[i] = total
    return CentroidKnowledge(centroids=centroids, weights=weights)


@dataclass
class KMeansComputerState:
    """Per-Computer state machine for the heartbeat-cadenced execution.

    Attributes:
        partition: the local data partition, shape ``(n, d)``.
        k: number of clusters.
        knowledge: current weighted-centroid knowledge (``None`` until
            the first local convergence).
        local_steps: Lloyd iterations per heartbeat's local phase.
        seed: RNG seed for the initial k-means++ run.
        heartbeat_count: heartbeats processed so far.
        received: peer knowledges accumulated since the last heartbeat.
    """

    partition: np.ndarray
    k: int
    local_steps: int = 3
    seed: int = 0
    knowledge: CentroidKnowledge | None = None
    heartbeat_count: int = 0
    received: list[CentroidKnowledge] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.partition = np.asarray(self.partition, dtype=float)
        if self.partition.ndim != 2 or self.partition.shape[0] == 0:
            raise ValueError("partition must be a non-empty 2-D array")
        if self.k <= 0:
            raise ValueError("k must be positive")

    def receive(self, knowledge: CentroidKnowledge) -> None:
        """Buffer a peer's broadcast until the next synchronization."""
        self.received.append(knowledge)

    def heartbeat(self) -> CentroidKnowledge:
        """Run one full heartbeat: synchronize, then locally converge.

        Returns the fresh knowledge to broadcast to peers.  This method
        never blocks on missing peer messages.
        """
        self.heartbeat_count += 1
        # Phase 2 of the previous beat: integrate whatever arrived.
        # Peers on starved partitions may run with a smaller effective k;
        # their knowledge is incompatible and is simply ignored (progress
        # over completeness, as everywhere in the protocol).
        if self.knowledge is not None and self.received:
            compatible = [
                peer for peer in self.received if peer.k == self.knowledge.k
            ]
            if compatible:
                self.knowledge = merge_knowledge(self.knowledge, compatible)
        self.received = []
        # Phase 1: local convergence from the current knowledge.
        effective_k = min(self.k, self.partition.shape[0])
        initial = None
        if self.knowledge is not None and self.knowledge.k == effective_k:
            initial = self.knowledge.centroids
        result = kmeans(
            self.partition,
            effective_k,
            max_iterations=self.local_steps,
            seed=self.seed,
            initial_centroids=initial,
        )
        weights = np.bincount(result.labels, minlength=effective_k).astype(float)
        self.knowledge = CentroidKnowledge(result.centroids, weights)
        return self.knowledge
