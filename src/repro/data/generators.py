"""Common building blocks for the synthetic data generators."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import SpecError

__all__ = ["SeededMixture", "distribute_rows_to_devices"]


@dataclass(frozen=True)
class SeededMixture:
    """A Gaussian mixture over numeric feature space.

    The health scenario uses a mixture so that K-Means has genuine
    cluster structure to find (e.g. dependency-level groups), letting
    accuracy metrics mean something.

    Attributes:
        means: ``(k, d)`` component means.
        stds: ``(k, d)`` per-dimension standard deviations.
        mix: ``(k,)`` component probabilities (normalized on use).
    """

    means: tuple[tuple[float, ...], ...]
    stds: tuple[tuple[float, ...], ...]
    mix: tuple[float, ...]

    def __post_init__(self) -> None:
        k = len(self.means)
        if k == 0:
            raise ValueError("mixture needs at least one component")
        if len(self.stds) != k or len(self.mix) != k:
            raise ValueError("means, stds and mix must have the same length")
        dims = {len(m) for m in self.means} | {len(s) for s in self.stds}
        if len(dims) != 1:
            raise ValueError("all components must share the dimensionality")
        if any(weight < 0 for weight in self.mix) or sum(self.mix) <= 0:
            raise ValueError("mixture weights must be non-negative, not all zero")

    @property
    def dimension(self) -> int:
        """Feature-space dimensionality."""
        return len(self.means[0])

    def sample(self, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` points; returns ``(points, component_labels)``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        weights = np.asarray(self.mix, dtype=float)
        weights = weights / weights.sum()
        components = rng.choice(len(self.means), size=count, p=weights)
        means = np.asarray(self.means, dtype=float)
        stds = np.asarray(self.stds, dtype=float)
        noise = rng.standard_normal((count, self.dimension))
        points = means[components] + noise * stds[components]
        return points, components


def distribute_rows_to_devices(
    rows: Sequence[dict[str, Any]],
    n_devices: int,
    rows_per_device: tuple[int, int] = (1, 1),
    seed: int = 0,
) -> list[list[dict[str, Any]]]:
    """Deal rows out to ``n_devices`` owners.

    Each device receives between ``rows_per_device[0]`` and
    ``rows_per_device[1]`` consecutive rows (a personal datastore holds
    one owner's records; in DomYcile that is one medical record, but a
    phone may hold a small history).  Rows left over after every device
    reached its quota are appended round-robin.
    """
    if n_devices <= 0:
        raise SpecError("n_devices must be positive")
    low, high = rows_per_device
    if not 1 <= low <= high:
        raise SpecError("need 1 <= low <= high for rows_per_device")
    rng = random.Random(seed)
    allocations: list[list[dict[str, Any]]] = [[] for _ in range(n_devices)]
    cursor = 0
    for device_index in range(n_devices):
        if cursor >= len(rows):
            break
        quota = rng.randint(low, high)
        take = rows[cursor: cursor + quota]
        allocations[device_index].extend(dict(row) for row in take)
        cursor += len(take)
    device_index = 0
    while cursor < len(rows):
        allocations[device_index % n_devices].append(dict(rows[cursor]))
        cursor += 1
        device_index += 1
    return allocations
