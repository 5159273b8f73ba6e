"""Declarative multi-query workload descriptions.

A :class:`WorkloadSpec` describes *load*, not queries: how many query
executions arrive, under which arrival process, how much concurrency the
manager tolerates, and the shape knobs every generated query shares.
:meth:`WorkloadSpec.arrivals` expands it into a deterministic sequence
of :class:`QueryArrival` records — every arrival time, strategy choice,
and per-query seed is a pure function of ``spec.seed``, which is what
lets the engine promise byte-identical replays and serial equivalence.

Arrival processes:

* ``"poisson"`` — open loop, exponential inter-arrival times with mean
  ``1 / arrival_rate`` (the M/…/c view of the swarm);
* ``"uniform"`` — open loop, inter-arrival times uniform on
  ``[0, 2 / arrival_rate]`` (same mean rate, bounded burstiness);
* ``"closed"`` — closed loop: ``target_in_flight`` queries are kept in
  flight, a completion immediately launches the next arrival (arrival
  times are therefore decided at run time and ``QueryArrival.at`` is
  ``None``).

:class:`QueryShape` declares, once, the per-query fields every
multi-query spec shares — this one and
:class:`~repro.continuous.spec.StandingQuerySpec`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import SpecError
from repro.manager.scenario import check_timing

__all__ = ["ARRIVAL_PROCESSES", "QueryArrival", "QueryShape", "WorkloadSpec"]

ARRIVAL_PROCESSES = ("poisson", "uniform", "closed")


@dataclass(frozen=True, kw_only=True)
class QueryShape:
    """The shape every execution of a multi-query run shares.

    Attributes:
        snapshot_cardinality: target snapshot size ``C`` per execution.
        max_raw_per_edgelet: privacy knob driving partitions per
            execution.
        fault_rate: presumed partition-loss rate (overcollection degree).
        target_success: per-execution completion probability target.
        collection_window: per-execution collection phase length.
        deadline: per-execution deadline.
        reliability: run every execution over its own
            ACK/retransmission transport plus the recovery watchdogs.
        sql: the grouping-sets aggregate every execution computes (kept
            identical across executions so serial-equivalence
            comparisons isolate *scheduling* effects, not query mix).
    """

    snapshot_cardinality: int = 48
    max_raw_per_edgelet: int = 24
    fault_rate: float = 0.05
    target_success: float = 0.95
    collection_window: float = 5.0
    deadline: float = 12.0
    reliability: bool = False
    sql: str = (
        "SELECT count(*), avg(age) FROM health "
        "GROUP BY GROUPING SETS ((region), ())"
    )

    def __post_init__(self) -> None:
        check_timing(self.collection_window, self.deadline)


@dataclass(frozen=True)
class QueryArrival:
    """One generated query arrival.

    Attributes:
        index: position in the arrival sequence (0-based).
        query_id: unique id, embeds the workload seed and the index.
        at: virtual arrival time; ``None`` for closed-loop arrivals
            (launched by a completion).
        replicas: passive replica ranks per Data Processor operator
            (``0`` plans Overcollection).
        seed: per-query randomness seed (contribution jitter, transport
            jitter, network draws under per-query streams).
    """

    index: int
    query_id: str
    at: float | None
    replicas: int
    seed: int


@dataclass(frozen=True)
class WorkloadSpec(QueryShape):
    """Seeded description of one multi-query workload.

    Attributes:
        n_queries: total arrivals to generate.
        arrival_process: one of :data:`ARRIVAL_PROCESSES`.
        arrival_rate: mean arrivals per virtual second (open loop).
        target_in_flight: queries kept in flight (closed loop).
        max_concurrent: admission cap on concurrently executing queries.
        queue_capacity: arrivals parked past the cap before shedding.
        backup_fraction: probability a query is planned with one
            Backup replica instead of Overcollection (the strategy mix).
        seed: master workload seed.

    Every query's shape is a :class:`QueryShape` field.
    """

    n_queries: int
    arrival_process: str = "poisson"
    arrival_rate: float = 2.0
    target_in_flight: int = 4
    max_concurrent: int = 8
    queue_capacity: int = 16
    backup_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_queries <= 0:
            raise SpecError("n_queries must be positive")
        if self.arrival_process not in ARRIVAL_PROCESSES:
            raise SpecError(
                f"arrival_process must be one of {ARRIVAL_PROCESSES}"
            )
        if self.arrival_rate <= 0:
            raise SpecError("arrival_rate must be positive")
        if self.target_in_flight <= 0:
            raise SpecError("target_in_flight must be positive")
        if self.max_concurrent <= 0:
            raise SpecError("max_concurrent must be positive")
        if self.queue_capacity < 0:
            raise SpecError("queue_capacity must be non-negative")
        if not 0 <= self.backup_fraction <= 1:
            raise SpecError("backup_fraction must be in [0, 1]")
        super().__post_init__()

    def arrivals(self) -> list[QueryArrival]:
        """Expand into the deterministic arrival sequence.

        Every call returns the same sequence for the same spec — the
        generator RNG is seeded from ``spec.seed`` alone.
        """
        rng = random.Random(f"{self.seed}:arrivals")
        out: list[QueryArrival] = []
        clock = 0.0
        for index in range(self.n_queries):
            if self.arrival_process == "poisson":
                clock += rng.expovariate(self.arrival_rate)
                at: float | None = clock
            elif self.arrival_process == "uniform":
                clock += rng.uniform(0.0, 2.0 / self.arrival_rate)
                at = clock
            else:  # closed
                at = None
            replicas = 1 if rng.random() < self.backup_fraction else 0
            out.append(
                QueryArrival(
                    index=index,
                    query_id=f"wl{self.seed}-q{index:03d}",
                    at=at,
                    replicas=replicas,
                    seed=rng.randrange(2**31),
                )
            )
        return out
