"""Common building blocks for the synthetic data generators."""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.errors import SpecError

__all__ = ["SeededMixture", "distribute_rows_to_devices", "integer_draws"]


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


_MASK32 = 0xFFFFFFFF


@contextmanager
def integer_draws(rng: np.random.Generator) -> Iterator[Callable[[int], int]]:
    """Yield ``draw(n)``, equal to ``int(rng.integers(n))`` but cheaper.

    A scalar ``rng.integers`` call spends most of its time in numpy's
    argument handling.  ``draw`` runs numpy's own algorithm on
    ``rng.bit_generator.random_raw()`` outputs instead, so it consumes
    the bit stream exactly as ``rng.integers(n)`` would:

    * a bound ``n <= 2**32`` is drawn with Lemire's bounded method over
      32-bit draws, rejecting while ``leftover < 2**32 % n``;
    * a 32-bit draw is the low half of a fresh 64-bit output, and the
      next one is its high half, buffered in the bit generator's
      ``has_uint32`` / ``uinteger`` state.  The buffer is read on entry
      and written back on exit; inside the block it lives here;
    * ``n == 1`` draws nothing.

    Calls that take whole 64-bit outputs (``rng.normal``, ``rng.random``)
    never touch that buffer, so they may be interleaved with ``draw``
    inside the block.  ``rng.integers`` and ``rng.bit_generator.state``
    must not be used there: they would not see the buffered half.  The
    layout is ``PCG64``'s (``np.random.default_rng``); any other bit
    generator is refused.
    """
    bit_generator = rng.bit_generator
    raw = bit_generator.random_raw
    state = bit_generator.state
    if state["bit_generator"] != "PCG64":
        raise ValueError(f"integer_draws needs PCG64, got {state['bit_generator']}")
    has_uint32, uinteger = state["has_uint32"], state["uinteger"]

    def next32() -> int:
        nonlocal has_uint32, uinteger
        if has_uint32:
            has_uint32 = 0
            return uinteger
        word = raw()
        has_uint32, uinteger = 1, word >> 32
        return word & _MASK32

    def draw(n: int) -> int:
        if n == 1:
            return 0
        if not 1 < n <= 1 << 32:
            raise ValueError(f"bound must be in [1, 2**32], got {n}")
        scaled = next32() * n
        leftover = scaled & _MASK32
        if leftover < n:  # n bounds the threshold: skip the modulo
            threshold = (1 << 32) % n
            while leftover < threshold:
                scaled = next32() * n
                leftover = scaled & _MASK32
        return scaled >> 32

    try:
        yield draw
    finally:
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = has_uint32, uinteger
        bit_generator.state = state


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
