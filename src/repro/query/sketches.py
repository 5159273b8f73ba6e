"""Mergeable sketches: HyperLogLog.

Overcollection requires *distributive* operators with constant-size
mergeable state.  COUNT DISTINCT is not distributive over exact sets,
but it is over HyperLogLog registers (register-wise max is associative,
commutative, and idempotent — duplicates across partitions cost
nothing).  This is how the Edgelet engine supports
``distinct(patient_id)``-style statistics without ever moving raw
identifiers past a Computer.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Iterable

__all__ = ["HyperLogLog"]


def _hash64(value: Any) -> int:
    """Stable 64-bit hash of any repr-able value (SHA-256 over ``|``
    and its repr, the input every pinned sketch was built from)."""
    payload = f"|{value!r}".encode("utf-8")
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
