"""Resiliency mathematics of the two strategies.

Overcollection distributes a distributive operator over ``n + m``
edgelets, each processing one partition of cardinality ``C / n``.  The
query is *valid* as long as at most ``m`` partitions are lost, i.e.
at least ``n`` of the ``n + m`` survive.  Backup gives every Data
Processor operator ``r`` passive replicas, so a partition is lost only
when all ``r + 1`` of its ranks fail — the same binomial at fault rate
``p ** (r + 1)`` — and each promotion costs one
:data:`TAKEOVER_TIMEOUT`.  Both are one plan shape, ``n + m``
partitions × ``r + 1`` ranks; the two names are spellings of its two
edges, and :func:`replicas_for` / :func:`strategy_name` are the only
code that reads or writes them.

Under the paper's fault presumption model, each partition independently
fails (device crash, disconnection past the deadline, lost messages)
with probability ``p``.  Survival of at least ``n`` partitions is a
binomial tail; the planner inverts it to find the smallest ``m``
achieving a target success probability.  These formulas drive the
demonstration's Part 1 ("vary the failure probability value … and
observe automatic changes in the execution plan").
"""

from __future__ import annotations

import math

from repro.errors import SpecError

__all__ = [
    "STRATEGIES",
    "TAKEOVER_TIMEOUT",
    "replicas_for",
    "strategy_name",
    "query_success_probability",
    "worst_case_delay",
    "minimum_overcollection",
    "effective_fault_rate",
]

#: Virtual seconds between two Backup ranks: a rank-``r`` replica takes
#: over ``r * TAKEOVER_TIMEOUT`` after its primary's firing point.  The
#: runtime waits it and the planner prices it.
TAKEOVER_TIMEOUT = 5.0

#: The two spellings of a plan's rank structure: Overcollection is the
#: ``replicas = 0`` edge (``m`` spare partitions), Backup the ``m = 0``
#: edge (``replicas`` passive ranks per Data Processor operator).
STRATEGIES = ("overcollection", "backup")


def replicas_for(name: str, backup_replicas: int = 1) -> int:
    """The replica count a strategy name spells.

    Overcollection carries no replicas whatever ``backup_replicas``
    says; Backup carries ``backup_replicas``, at least one — a
    zero-replica Backup plan would have no resiliency at all.
    """
    if name == "overcollection":
        return 0
    if name != "backup":
        raise SpecError(f"unknown strategy {name!r}")
    if backup_replicas < 1:
        raise SpecError(
            f"a backup plan needs at least one replica, got {backup_replicas}"
        )
    return backup_replicas


def strategy_name(replicas: int) -> str:
    """The strategy name of a plan with ``replicas`` ranks per operator."""
    if replicas < 0:
        raise SpecError("replicas must be non-negative")
    return "backup" if replicas else "overcollection"


def worst_case_delay(replicas: int) -> float:
    """Latency Backup adds when all ``replicas`` ranks take over in turn."""
    if replicas < 0:
        raise SpecError("replicas must be non-negative")
    return replicas * TAKEOVER_TIMEOUT


def query_success_probability(n: int, m: int, fault_rate: float) -> float:
    """P[at least n of n + m partitions survive], partitions i.i.d.

    This is the binomial survival function
    ``sum_{k=n}^{n+m} C(n+m, k) * s^k * (1-s)^(n+m-k)`` with
    ``s = 1 - fault_rate``.
    """
    if n <= 0:
        raise SpecError("n must be positive")
    if m < 0:
        raise SpecError("m must be non-negative")
    if not 0 <= fault_rate <= 1:
        raise SpecError("fault_rate must be in [0, 1]")
    survive = 1.0 - fault_rate
    total = n + m
    probability = 0.0
    for k in range(n, total + 1):
        try:
            probability += (
                math.comb(total, k) * survive**k * (1.0 - survive) ** (total - k)
            )
        except OverflowError:
            # C(total, k) exceeds float range for the large totals the
            # cost-based optimizer probes; the log-space term is exact
            # enough there and 0 when survive hits an endpoint
            if survive == 1.0:
                probability += 1.0 if k == total else 0.0
                continue
            if survive == 0.0:
                continue  # k >= n > 0 never matches the all-fail mass at k=0
            probability += math.exp(
                math.lgamma(total + 1)
                - math.lgamma(k + 1)
                - math.lgamma(total - k + 1)
                + k * math.log(survive)
                + (total - k) * math.log(1.0 - survive)
            )
    return min(probability, 1.0)


def minimum_overcollection(
    n: int,
    fault_rate: float,
    target_success: float = 0.99,
    max_m: int = 10_000,
) -> int:
    """Smallest ``m`` such that the query succeeds with probability at
    least ``target_success`` under the given fault rate.

    Raises ``SpecError`` if no ``m <= max_m`` reaches the target (e.g.
    ``fault_rate`` so high the target is unreachable).
    """
    if not 0 < target_success < 1:
        raise SpecError("target_success must be in (0, 1)")
    if not 0 <= fault_rate < 1:
        raise SpecError("fault_rate must be in [0, 1)")
    for m in range(max_m + 1):
        if query_success_probability(n, m, fault_rate) >= target_success:
            return m
    raise SpecError(
        f"no overcollection degree up to {max_m} reaches success "
        f"{target_success} with n={n}, fault_rate={fault_rate}"
    )


def effective_fault_rate(
    crash_probability_per_tick: float,
    disconnect_probability_per_tick: float,
    ticks_to_deadline: float,
    reconnect_covers: float = 0.5,
) -> float:
    """Fold a failure-injection context into one fault presumption rate.

    Per simulator tick a device crashes with ``crash_probability`` and
    disconnects with ``disconnect_probability``; a disconnection only
    loses the partition if the device stays offline across its send
    window, which ``reconnect_covers`` (the fraction of disconnections
    healed in time by store-and-forward) discounts.

    This is a presumption (the planner cannot observe the future) — the
    Q-RES experiment checks that plans built from it meet their target.
    """
    if ticks_to_deadline < 0:
        raise SpecError("ticks_to_deadline must be non-negative")
    if not 0 <= reconnect_covers <= 1:
        raise SpecError("reconnect_covers must be in [0, 1]")
    for name, probability in (
        ("crash_probability_per_tick", crash_probability_per_tick),
        ("disconnect_probability_per_tick", disconnect_probability_per_tick),
    ):
        if not 0 <= probability <= 1:
            raise SpecError(f"{name} must be in [0, 1]")
    survive_crashes = (1.0 - crash_probability_per_tick) ** ticks_to_deadline
    harmful_disconnect = disconnect_probability_per_tick * (1.0 - reconnect_covers)
    survive_disconnects = (1.0 - harmful_disconnect) ** ticks_to_deadline
    return 1.0 - survive_crashes * survive_disconnects
