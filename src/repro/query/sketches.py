"""Mergeable sketches: HyperLogLog and Bloom filters.

Overcollection requires *distributive* operators with constant-size
mergeable state.  COUNT DISTINCT is not distributive over exact sets,
but it is over HyperLogLog registers (register-wise max is associative,
commutative, and idempotent — duplicates across partitions cost
nothing).  This is how the Edgelet engine supports
``distinct(patient_id)``-style statistics without ever moving raw
identifiers past a Computer.

The Bloom filter serves the transport layer: Snapshot Builders running
on RAM-starved home boxes (an STM32F417 has 192 KiB) deduplicate
retransmitted contributions in constant memory instead of keeping exact
sets of contribution ids.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Iterable

__all__ = ["HyperLogLog", "BloomFilter"]


def _hash64(value: Any, salt: str = "") -> int:
    """Stable 64-bit hash of any repr-able value."""
    payload = f"{salt}|{value!r}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


class HyperLogLog:
    """HyperLogLog cardinality estimator [Flajolet et al. 2007].

    ``precision`` selects ``2**precision`` registers; the standard error
    is roughly ``1.04 / sqrt(2**precision)`` (about 3.25% at the default
    precision 10).  Merging two sketches (register-wise max) yields
    exactly the sketch of the union of their inputs.
    """

    __slots__ = ("precision", "_registers")

    def __init__(self, precision: int = 10, registers: list[int] | None = None):
        if not 4 <= precision <= 18:
            raise ValueError("precision must be in [4, 18]")
        self.precision = precision
        size = 1 << precision
        if registers is None:
            self._registers = [0] * size
        else:
            if len(registers) != size:
                raise ValueError(
                    f"expected {size} registers, got {len(registers)}"
                )
            self._registers = list(registers)

    @property
    def registers(self) -> list[int]:
        """A copy of the register array (for serialization)."""
        return list(self._registers)

    def add(self, value: Any) -> None:
        """Fold one value into the sketch."""
        hashed = _hash64(value)
        index = hashed >> (64 - self.precision)
        remaining = hashed & ((1 << (64 - self.precision)) - 1)
        # rank = position of the leftmost 1-bit in the remaining bits
        rank = (64 - self.precision) - remaining.bit_length() + 1
        if self._registers[index] < rank:
            self._registers[index] = rank

    def update(self, values: Iterable[Any]) -> None:
        """Fold many values."""
        for value in values:
            self.add(value)

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        """Union sketch (register-wise max); precisions must match."""
        if other.precision != self.precision:
            raise ValueError("cannot merge sketches of different precision")
        merged = [max(a, b) for a, b in zip(self._registers, other._registers)]
        return HyperLogLog(self.precision, merged)

    def estimate(self) -> float:
        """Estimated number of distinct values folded so far.

        Uses the standard bias correction plus linear counting for the
        small-cardinality range.
        """
        m = len(self._registers)
        if m >= 128:
            alpha = 0.7213 / (1 + 1.079 / m)
        elif m == 64:
            alpha = 0.709
        elif m == 32:
            alpha = 0.697
        else:
            alpha = 0.673
        harmonic = sum(2.0 ** -register for register in self._registers)
        raw = alpha * m * m / harmonic
        if raw <= 2.5 * m:
            zeros = self._registers.count(0)
            if zeros:
                return m * math.log(m / zeros)
        return raw

    def relative_error(self) -> float:
        """Expected standard error of this sketch's estimates."""
        return 1.04 / math.sqrt(len(self._registers))

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation."""
        return {"precision": self.precision, "registers": self.registers}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "HyperLogLog":
        """Inverse of :meth:`to_dict`."""
        return cls(precision=data["precision"], registers=data["registers"])


class BloomFilter:
    """A classic Bloom filter with double hashing.

    ``capacity`` is the expected number of inserted items and
    ``error_rate`` the acceptable false-positive probability at that
    capacity; bit count and hash count are derived optimally.
    """

    __slots__ = ("n_bits", "n_hashes", "_bits", "inserted")

    def __init__(self, capacity: int = 1000, error_rate: float = 0.01):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < error_rate < 1:
            raise ValueError("error_rate must be in (0, 1)")
        n_bits = math.ceil(-capacity * math.log(error_rate) / (math.log(2) ** 2))
        self.n_bits = max(8, n_bits)
        self.n_hashes = max(1, round(self.n_bits / capacity * math.log(2)))
        self._bits = bytearray((self.n_bits + 7) // 8)
        self.inserted = 0

    def _positions(self, value: Any) -> list[int]:
        """Double hashing: position ``i`` is ``(h1 + i * h2) % n_bits``,
        computed by stepping modulo ``n_bits`` so the operands stay small."""
        n_bits = self.n_bits
        position = _hash64(value, salt="bloom-1") % n_bits
        step = (_hash64(value, salt="bloom-2") | 1) % n_bits
        positions = []
        for _ in range(self.n_hashes):
            positions.append(position)
            position = (position + step) % n_bits
        return positions

    def add(self, value: Any) -> None:
        """Insert a value."""
        for position in self._positions(value):
            self._bits[position // 8] |= 1 << (position % 8)
        self.inserted += 1

    def __contains__(self, value: Any) -> bool:
        return all(
            self._bits[position // 8] & (1 << (position % 8))
            for position in self._positions(value)
        )

    def add_if_new(self, value: Any) -> bool:
        """Insert and report whether the value was (probably) new.

        Returns ``False`` when the value was probably seen before (or on
        a false positive); ``True`` when it is definitely new.  Same
        bits, count and verdict as ``in`` followed by :meth:`add`, with
        the value hashed once.
        """
        positions = self._positions(value)
        bits = self._bits
        if all(bits[position // 8] & (1 << (position % 8)) for position in positions):
            return False
        for position in positions:
            bits[position // 8] |= 1 << (position % 8)
        self.inserted += 1
        return True

    def fill_ratio(self) -> float:
        """Fraction of set bits (saturation indicator)."""
        set_bits = sum(bin(byte).count("1") for byte in self._bits)
        return set_bits / self.n_bits
