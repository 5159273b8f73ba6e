"""Substrate profiles: what the optimizer is cost-based *over*.

A :class:`SubstrateProfile` is the planner-side summary of the device
swarm a query will run on — population sizes, device-class mix, and the
measured failure / loss telemetry.  The :class:`~repro.plan.optimizer.
PhysicalOptimizer` scores every physical candidate against one of
these; ``Scenario.substrate_profile()`` derives one from a live
scenario, and :data:`SUBSTRATE_PROFILES` names four reference
substrates used by the golden-plan suite, the ``explain`` CLI, and the
Q-PLAN bench.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.resiliency import effective_fault_rate
from repro.devices.profiles import HOME_BOX, PC_SGX, SMARTPHONE
from repro.errors import SpecError

__all__ = ["SubstrateProfile", "SUBSTRATE_PROFILES"]


@dataclass(frozen=True)
class SubstrateProfile:
    """Planner-visible summary of one device swarm.

    Attributes:
        name: profile identifier (shown in explain reports).
        n_contributors: Data Contributor population.
        n_processors: devices eligible for Data Processor roles.
        device_mix: (pc, smartphone, home_box) proportions, exactly as
            :class:`~repro.manager.scenario.ScenarioConfig` weighs them.
        fault_rate: baseline presumed per-partition fault probability
            (the Part-1 slider).
        message_loss: measured i.i.d. message-loss probability.
        crash_probability: measured per-tick device crash probability.
        disconnect_probability: measured per-tick disconnection
            probability.
        deadline: virtual query deadline (converts per-tick churn into
            a per-query fault mass).
        reliability: whether the ACK/retransmission overlay is wired —
            it heals most message loss at the price of duplicate bytes.
        partition_rate: probability that a region of the swarm spends a
            partition window cut off during the query (correlated loss:
            every member of the region fails *together*, so the planner
            must presume the whole region's partitions at risk).
        gray_rate: probability a device spends a gray window degraded
            (inflated latency, elevated loss) without dying.
    """

    name: str
    n_contributors: int
    n_processors: int
    device_mix: tuple[float, float, float] = (0.3, 0.4, 0.3)
    fault_rate: float = 0.05
    message_loss: float = 0.0
    crash_probability: float = 0.0
    disconnect_probability: float = 0.0
    deadline: float = 100.0
    reliability: bool = False
    partition_rate: float = 0.0
    gray_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.n_contributors <= 0:
            raise SpecError("n_contributors must be positive")
        if self.n_processors <= 0:
            raise SpecError("n_processors must be positive")
        if len(self.device_mix) != 3 or sum(self.device_mix) <= 0:
            raise SpecError("device_mix must be 3 non-negative weights")
        for name in ("fault_rate", "message_loss", "crash_probability",
                     "disconnect_probability", "partition_rate",
                     "gray_rate"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise SpecError(f"{name} must be in [0, 1)")

    # -- derived telemetry ---------------------------------------------------

    def planning_fault_rate(self) -> float:
        """Fold every measured failure signal into the single
        per-partition fault presumption the resiliency math consumes.

        Message loss only counts when the reliability overlay is absent
        (retransmission heals i.i.d. loss); churn folds through
        :func:`repro.core.resiliency.effective_fault_rate`.
        """
        churn = effective_fault_rate(
            self.crash_probability,
            self.disconnect_probability,
            ticks_to_deadline=self.deadline,
        )
        loss = 0.0 if self.reliability else self.message_loss
        # correlated outages: a partitioned region misses the whole
        # computation window unless recovery reprovisions it, and a
        # gray device is only *partially* effective (the overlay
        # eventually pushes messages through), so weight gray at half
        outage = 1.0 - (1.0 - self.partition_rate) * (
            1.0 - 0.5 * self.gray_rate
        )
        combined = 1.0 - (
            (1.0 - self.fault_rate)
            * (1.0 - churn)
            * (1.0 - loss)
            * (1.0 - outage)
        )
        # the planner's own validation requires fault_rate < 1
        return min(combined, 0.95)

    def delivery_overhead(self) -> float:
        """Expected bytes-on-air multiplier per useful byte.

        Without the overlay, lost messages are simply gone (and counted
        as partition faults); with it, each loss triggers a
        retransmission plus an ACK, roughly doubling the lost share.
        """
        if self.reliability:
            return 1.0 + 2.0 * self.message_loss
        return 1.0

    def mean_compute_rate(self) -> float:
        """Mix-weighted mean device compute rate (work units / second)."""
        pc, phone, box = self.device_mix
        total = pc + phone + box
        return (
            pc * PC_SGX.compute_rate
            + phone * SMARTPHONE.compute_rate
            + box * HOME_BOX.compute_rate
        ) / total

    def summary(self) -> str:
        return (
            f"{self.name}: {self.n_contributors} contributors, "
            f"{self.n_processors} processors, "
            f"fault={self.planning_fault_rate():.3f}, "
            f"loss={self.message_loss:.2f}"
            f"{' (reliable transport)' if self.reliability else ''}"
        )


#: Laptop-heavy venue swarm: plentiful, fast, reliable.
DENSE_CAMPUS = SubstrateProfile(
    name="dense-campus",
    n_contributors=64,
    n_processors=24,
    device_mix=(0.5, 0.4, 0.1),
    fault_rate=0.02,
)

#: The DomYcile deployment shape: many home boxes, few laptops.
RESIDENTIAL = SubstrateProfile(
    name="residential",
    n_contributors=48,
    n_processors=16,
    device_mix=(0.2, 0.4, 0.4),
    fault_rate=0.05,
    message_loss=0.02,
)

#: Smartphone crowd on flaky links, reliability overlay wired.
LOSSY_MOBILE = SubstrateProfile(
    name="lossy-mobile",
    n_contributors=96,
    n_processors=24,
    device_mix=(0.1, 0.7, 0.2),
    fault_rate=0.08,
    message_loss=0.08,
    reliability=True,
)

#: Sparse opportunistic IoT: mostly home boxes, visible churn.
SPARSE_IOT = SubstrateProfile(
    name="sparse-iot",
    n_contributors=32,
    n_processors=8,
    device_mix=(0.05, 0.15, 0.8),
    fault_rate=0.15,
    crash_probability=0.002,
    disconnect_probability=0.005,
)

SUBSTRATE_PROFILES: dict[str, SubstrateProfile] = {
    profile.name: profile
    for profile in (DENSE_CAMPUS, RESIDENTIAL, LOSSY_MOBILE, SPARSE_IOT)
}
