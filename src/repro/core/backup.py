"""The Backup resiliency strategy.

Where Overcollection spends extra *data partitions*, Backup spends extra
*devices*: each Data Processor operator has an ordered chain of passive
replicas holding the same input.  If the primary misses its slot (crash
or disconnection), the next replica in line takes over and re-executes
from its own copy (:class:`repro.core.runtime.strategy.BackupStrategy`;
its ``takeover_log`` records every promotion).  The price is latency —
promotions happen sequentially after timeouts — and complexity; the
benefit is that it works for *non-distributive* processing, where
Overcollection does not apply (Section 3.3, "Can any form of
computation be handled?").
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BackupConfig"]


@dataclass(frozen=True)
class BackupConfig:
    """Parameters of the Backup strategy.

    Attributes:
        replicas: number of passive replicas per Data Processor.
        takeover_timeout: virtual seconds a replica waits for proof of
            life from its predecessor before promoting itself.
    """

    replicas: int = 1
    takeover_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.replicas < 0:
            raise ValueError("replicas must be non-negative")
        if self.takeover_timeout <= 0:
            raise ValueError("takeover_timeout must be positive")

    def worst_case_delay(self) -> float:
        """Extra latency if every replica in the chain must promote."""
        return self.replicas * self.takeover_timeout
