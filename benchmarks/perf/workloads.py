"""The six named workloads: pure data, no ``repro`` import.

Each workload fixes one input shape at two sizes: ``full`` (what
``BENCHMARK.json`` measures) and ``smoke`` (~10x smaller, for the
harness tests).  ``kind`` picks the adapter entry point:

* ``scenario``   — one swarm, sequential one-shot queries;
* ``workload``   — ``WorkloadEngine`` (many concurrent queries);
* ``continuous`` — ``ContinuousEngine`` (standing query under churn).

Every workload is PC-only, runs the default operator engine, and pins
its scenario tag so device ids and keys depend on the seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["WORKLOADS", "Workload", "by_name"]

#: The demo's Grouping Sets query (Section 3.2, Part 1, query (i)).
DEMO_SQL = (
    "SELECT count(*), avg(age), avg(bmi) FROM health "
    "WHERE age > 65 "
    "GROUP BY GROUPING SETS ((region), (sex), ())"
)

#: Three grouping-sets shapes of the Q-SCALE session.
SURVEY_SQLS = (
    DEMO_SQL,
    "SELECT count(*), sum(bmi), min(age), max(age) FROM health "
    "GROUP BY GROUPING SETS ((region), ())",
    "SELECT count(*), avg(glucose) FROM health WHERE bmi > 20 "
    "GROUP BY GROUPING SETS ((sex), (region, sex))",
)

#: Every distributive/algebraic aggregate the engine has, filtered.
HEAVY_SQL = (
    "SELECT count(*), sum(bmi), avg(bmi), min(age), max(age), "
    "var(bmi), std(bmi), hist(age, 0, 110, 11) FROM health "
    "WHERE age > 40 AND bmi < 35 "
    "GROUP BY GROUPING SETS ((region), (sex), ())"
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the name ``BENCHMARK.json`` and later issues refer to.
        kind: adapter entry point (see module docstring).
        seed: default ``--seed``.
        why: one line on what this workload stresses.
        full / smoke: adapter parameters at the two sizes.
    """

    name: str
    kind: str
    seed: int
    why: str
    full: dict[str, Any]
    smoke: dict[str, Any]

    def params(self, smoke: bool) -> dict[str, Any]:
        return self.smoke if smoke else self.full


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="scale_survey",
        kind="scenario",
        seed=33,
        why=(
            "1,100-device Q-SCALE session: setup-dominated (full-mesh "
            "topology, per-device keygen, per-edge DAG check); operators "
            "and envelope crypto idle"
        ),
        full=dict(
            contributors=1000, processors=100, rows=2000,
            rows_per_device=(1, 3), secure=False, deadline=80.0,
            sqls=SURVEY_SQLS * 2, cardinality=1000, max_raw=125,
        ),
        smoke=dict(
            contributors=300, processors=30, rows=600,
            rows_per_device=(1, 3), secure=False, deadline=80.0,
            sqls=SURVEY_SQLS, cardinality=300, max_raw=50,
        ),
    ),
    Workload(
        name="sealed_survey",
        kind="scenario",
        seed=35,
        why=(
            "sealed+signed channels: DH/sign/verify modexp dominates "
            "exec; work moved out of key setup must reappear here"
        ),
        full=dict(
            contributors=200, processors=20, rows=400,
            rows_per_device=(1, 3), secure=True, deadline=70.0,
            sqls=(DEMO_SQL,) * 2, cardinality=200, max_raw=50,
        ),
        smoke=dict(
            contributors=24, processors=20, rows=48,
            rows_per_device=(1, 3), secure=True, deadline=70.0,
            sqls=(DEMO_SQL,) * 2, cardinality=24, max_raw=12,
        ),
    ),
    Workload(
        name="data_heavy",
        kind="scenario",
        seed=5,
        why=(
            "40,000 rows through 8 aggregates x 3 grouping sets: query "
            "operators dominate exec; checked exactly against the "
            "centralized oracle over the collected snapshot"
        ),
        # the snapshot target is twice the dataset so the per-partition
        # cap (C / n) never trims an unevenly hashed partition: every row
        # that survives the PC link's 1% loss lands in the snapshot
        full=dict(
            contributors=100, processors=40, rows=40_000,
            rows_per_device=(400, 400), secure=False, deadline=70.0,
            sqls=(HEAVY_SQL,) * 3, cardinality=80_000, max_raw=10_000,
            exact=True,
        ),
        smoke=dict(
            contributors=25, processors=30, rows=4_000,
            rows_per_device=(160, 160), secure=False, deadline=70.0,
            sqls=(HEAVY_SQL,) * 3, cardinality=8_000, max_raw=2_000,
            exact=True,
        ),
    ),
    Workload(
        name="multi_query",
        kind="workload",
        seed=11,
        why=(
            "closed loop, 16 in flight: per-query planning, assignment, "
            "leases, mux, event loop and role runtimes; tiny data, no "
            "crypto, no topology build to speak of"
        ),
        full=dict(
            spec=dict(
                n_queries=600, arrival_process="closed",
                target_in_flight=16, max_concurrent=16, queue_capacity=0,
            ),
            contributors=30, processors=260,
        ),
        smoke=dict(
            spec=dict(
                n_queries=60, arrival_process="closed",
                target_in_flight=8, max_concurrent=8, queue_capacity=0,
            ),
            contributors=30, processors=130,
        ),
    ),
    Workload(
        name="lossy_open_loop",
        kind="workload",
        seed=11,
        why=(
            "open loop (Poisson 0.4/s) under 10% message loss: only "
            "workload where ACK/retransmit, recovery watchdogs and the "
            "admission queue work"
        ),
        # 0.4/s keeps the 12 slots ~57% busy: bursts queue, the shedder
        # stays idle.  At 0.6/s the swarm sits at the edge of shedding and
        # the latency tail swings ~35% from seed to seed.
        full=dict(
            spec=dict(
                n_queries=300, arrival_process="poisson", arrival_rate=0.4,
                max_concurrent=12, queue_capacity=12, backup_fraction=0.3,
                reliability=True,
            ),
            contributors=40, processors=200,
            standby_count=2, message_loss=0.10,
        ),
        smoke=dict(
            spec=dict(
                n_queries=30, arrival_process="poisson", arrival_rate=0.6,
                max_concurrent=6, queue_capacity=6, backup_fraction=0.3,
                reliability=True,
            ),
            contributors=40, processors=100,
            standby_count=2, message_loss=0.10,
        ),
    ),
    Workload(
        name="standing_churn",
        kind="continuous",
        seed=21,
        why=(
            "48 windows at 10%/window churn: mid-run device spawns "
            "(keygen + mesh links), per-window re-planning and the "
            "contribution cache; mutation beside bulk build"
        ),
        full=dict(
            spec=dict(
                max_windows=48, snapshot_cardinality=192, incremental=True,
            ),
            # arrivals at a fixed 10% of the *initial* pools per window:
            # the population reverts to its mean instead of random-walking
            # (which spreads messages/window ~17% across seeds)
            churn=dict(
                departure_probability=0.10, data_change_probability=0.10,
                contributor_arrival_rate=6.0, processor_arrival_rate=10.0,
            ),
            contributors=60, processors=100,
        ),
        smoke=dict(
            spec=dict(
                max_windows=6, snapshot_cardinality=96, incremental=True,
            ),
            churn=dict(
                departure_probability=0.10, data_change_probability=0.10,
                contributor_arrival_rate=3.0, processor_arrival_rate=5.0,
            ),
            contributors=30, processors=50,
        ),
    ),
)


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name!r}")
