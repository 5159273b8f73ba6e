"""The unified candidate cost model.

One scalar per physical candidate, folding together every signal the
repo already measures separately:

* the analytic message/byte/compute estimate of
  :func:`repro.core.cost.estimate_plan_cost` (inflated by the
  substrate's delivery overhead);
* the resiliency mathematics — one binomial over ``n + m`` partitions
  of ``r + 1`` ranks each — evaluated at the substrate's *measured*
  fault telemetry, charged as risk;
* the strategy advisor's worst-case takeover latency;
* device recruitment (and crowding past the processor pool);
* privacy exposure: the widest column group any single TEE holds.

Weights are explicit and inspectable (:class:`CostWeights`); the
explain report prints the full :meth:`CandidateCost.breakdown` so a
losing candidate's verdict is always attributable to a term.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cost import EnergyModel, estimate_plan_cost
from repro.core.qep import QueryExecutionPlan
from repro.core.resiliency import query_success_probability
from repro.plan.substrate import SubstrateProfile

__all__ = ["CostWeights", "CandidateCost", "score_plan"]


@dataclass(frozen=True)
class CostWeights:
    """Scalarization weights, in 'byte-equivalents' per unit.

    Attributes:
        byte_weight: per expected byte on the air.
        message_weight: per protocol message (envelope + handshake).
        latency_weight: per virtual second of worst-case added latency.
        device_weight: per recruited Data Processor device.
        crowding_weight: per device *beyond* the substrate's processor
            pool (forces non-exclusive assignment, weakening raw-data
            confinement).
        exposure_weight: per column co-resident in the widest TEE.
        risk_weight: per unit of failure probability (1 - P[success]).
    """

    byte_weight: float = 1.0
    message_weight: float = 32.0
    latency_weight: float = 2_000.0
    device_weight: float = 256.0
    crowding_weight: float = 1_024.0
    exposure_weight: float = 64.0
    risk_weight: float = 200_000.0


@dataclass(frozen=True)
class CandidateCost:
    """Scored cost of one physical candidate.

    ``total`` is the scalar the optimizer minimizes; the remaining
    fields are the pre-weight signals for the explain report.
    """

    bytes: int
    messages: int
    expected_bytes: float
    work_units: float
    success_probability: float
    extra_latency: float
    devices: int
    crowding: int
    exposure_columns: int
    energy_joules: float
    total: float

    def breakdown(self) -> dict[str, float]:
        return {
            "bytes": float(self.bytes),
            "messages": float(self.messages),
            "expected_bytes": self.expected_bytes,
            "work_units": self.work_units,
            "success_probability": self.success_probability,
            "extra_latency": self.extra_latency,
            "devices": float(self.devices),
            "crowding": float(self.crowding),
            "exposure_columns": float(self.exposure_columns),
            "energy_joules": self.energy_joules,
            "total": self.total,
        }


def _success_probability(
    qep: QueryExecutionPlan, fault_rate: float
) -> float:
    """Candidate success probability at the measured fault rate.

    At least ``n`` of the ``n + m`` partitions must survive, and a
    partition is lost only when all ``r + 1`` of its ranks fail.
    Overcollection (``r = 0``) and Backup (``m = 0``) are the edge cases.
    """
    overcollection = qep.metadata.get("overcollection") or {}
    n = max(int(overcollection.get("n", 1)), 1)
    m = max(int(overcollection.get("m", 0)), 0)
    return query_success_probability(n, m, fault_rate ** (qep.replicas + 1))


def score_plan(
    qep: QueryExecutionPlan,
    substrate: SubstrateProfile,
    weights: CostWeights | None = None,
    extra_latency: float = 0.0,
    energy_model: EnergyModel | None = None,
) -> CandidateCost:
    """Score one concrete QEP against a substrate profile."""
    weights = weights or CostWeights()
    estimate = estimate_plan_cost(qep)

    expected_bytes = estimate.bytes * substrate.delivery_overhead()
    fault_rate = substrate.planning_fault_rate()
    success = _success_probability(qep, fault_rate)

    devices = sum(
        1 for op in qep.operators() if op.role.is_data_processor
    )
    crowding = max(0, devices - substrate.n_processors)
    column_groups = qep.metadata.get("column_groups") or [[]]
    exposure = max((len(group) for group in column_groups), default=0)

    compute_latency = estimate.work_units / substrate.mean_compute_rate()
    latency = extra_latency + compute_latency

    energy = estimate.energy_joules(energy_model or EnergyModel())

    total = (
        weights.byte_weight * expected_bytes
        + weights.message_weight * estimate.messages
        + weights.latency_weight * latency
        + weights.device_weight * devices
        + weights.crowding_weight * crowding
        + weights.exposure_weight * exposure
        + weights.risk_weight * (1.0 - success)
    )
    return CandidateCost(
        bytes=estimate.bytes,
        messages=estimate.messages,
        expected_bytes=expected_bytes,
        work_units=estimate.work_units,
        success_probability=success,
        extra_latency=extra_latency,
        devices=devices,
        crowding=crowding,
        exposure_columns=exposure,
        energy_joules=energy,
        total=round(total, 6),
    )
