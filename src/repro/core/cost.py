"""Energy and workload cost model.

The paper's introduction indicts the server-centric approach "in terms
of efficiency, privacy, and energy consumption", and Section 2.1 notes
that operator decomposition "can also help minimizing the workload
(e.g., when energy consumption matters)".  This module quantifies both
directions:

* :func:`estimate_plan_cost` — analytic pre-execution estimate of the
  messages, bytes, and compute work a plan will trigger (what the
  planner could minimize);
* :func:`measure_execution_cost` — post-execution per-device energy
  tally from the network's byte counters and the executor's tuple
  tallies, under a per-device-class :class:`EnergyModel`.

Defaults are order-of-magnitude radio/MCU figures (nRF-class radios at
~100 nJ/bit, Cortex-M work at ~1 µJ per abstract work unit) — absolute
joules are illustrative; *relative* costs between plans are the point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.qep import OperatorRole, QueryExecutionPlan
from repro.network.opnet import OpportunisticNetwork

__all__ = [
    "EnergyModel",
    "PlanCostEstimate",
    "ExecutionCost",
    "estimate_plan_cost",
    "measure_execution_cost",
]


@dataclass(frozen=True)
class EnergyModel:
    """Per-device energy coefficients.

    Attributes:
        joules_per_byte_tx: radio transmit cost per byte.
        joules_per_byte_rx: radio receive cost per byte.
        joules_per_work_unit: compute cost per abstract work unit (the
            same unit :class:`~repro.devices.profiles.DeviceProfile`
            rates express).
    """

    joules_per_byte_tx: float = 8e-7
    joules_per_byte_rx: float = 6e-7
    joules_per_work_unit: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("joules_per_byte_tx", "joules_per_byte_rx", "joules_per_work_unit"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class PlanCostEstimate:
    """Analytic cost prediction for one plan.

    Attributes:
        messages: expected number of protocol messages.
        bytes: expected bytes on the air.
        work_units: expected total compute work (tuples touched).
        per_stage: breakdown by protocol stage.
    """

    messages: int
    bytes: int
    work_units: float
    per_stage: dict[str, int]

    def energy_joules(self, model: EnergyModel) -> float:
        """Total energy under ``model`` (tx + rx + compute)."""
        radio = self.bytes * (model.joules_per_byte_tx + model.joules_per_byte_rx)
        return radio + self.work_units * model.joules_per_work_unit


# Average payload sizes calibrated from the executor's size hints.
_CONTRIBUTION_BYTES = 96 * 2    # ~2 rows per owner
_PARTITION_BYTES_PER_ROW = 64
_PARTIAL_BYTES = 512
_KNOWLEDGE_BYTES = 512
_FINAL_BYTES = 1024


def estimate_plan_cost(plan: QueryExecutionPlan) -> PlanCostEstimate:
    """Predict the message/byte/compute cost of executing ``plan``.

    Covers both strategies: Overcollection plans count the heartbeat
    gossip for K-Means; Backup plans count the replica fan-out
    (contributions go to every rank).
    """
    contributors = len(plan.operators(OperatorRole.DATA_CONTRIBUTOR))
    builders = plan.operators(OperatorRole.SNAPSHOT_BUILDER)
    computers = plan.operators(OperatorRole.COMPUTER)
    overcollection = plan.metadata.get("overcollection") or {}
    cardinality = overcollection.get("snapshot_cardinality", 0)
    n = max(overcollection.get("n", 1), 1)
    per_partition = -(-cardinality // n)
    kind = plan.metadata.get("kind", "aggregate")
    heartbeats = plan.metadata.get("heartbeats") or 0

    per_stage: dict[str, int] = {}
    # collection: every contributor ships to its builder (all ranks)
    per_stage["contribution"] = contributors * (1 + plan.replicas)
    # partition shipping: each live builder feeds its computers
    builder_primaries = [
        b for b in builders if b.params.get("backup_rank", 0) == 0
    ]
    fanout = 0
    for builder in builder_primaries:
        fanout += sum(
            1 for consumer in plan.consumers_of(builder.op_id)
            if consumer.role == OperatorRole.COMPUTER
        )
    per_stage["partition"] = fanout
    # computation results / gossip
    computer_primaries = [
        c for c in computers if c.params.get("backup_rank", 0) == 0
    ]
    if kind == "kmeans" and heartbeats:
        gossip = len(computer_primaries) * (len(computer_primaries) - 1)
        per_stage["knowledge"] = gossip * max(heartbeats - 1, 0)
        per_stage["partial"] = len(computer_primaries) * 2  # combiner + backup
    else:
        per_stage["knowledge"] = 0
        per_stage["partial"] = len(computer_primaries) * 2
    per_stage["final"] = 2  # combiner + active backup to querier

    messages = sum(per_stage.values())
    total_bytes = (
        per_stage["contribution"] * _CONTRIBUTION_BYTES
        + per_stage["partition"] * per_partition * _PARTITION_BYTES_PER_ROW
        + per_stage["knowledge"] * _KNOWLEDGE_BYTES
        + per_stage["partial"] * _PARTIAL_BYTES
        + per_stage["final"] * _FINAL_BYTES
    )
    # compute: builders touch each partition once, computers once per
    # heartbeat (kmeans) or once (aggregates)
    builder_work = len(builder_primaries) * per_partition
    computer_rounds = max(heartbeats, 1) if kind == "kmeans" else 1
    computer_work = len(computer_primaries) * per_partition * computer_rounds
    return PlanCostEstimate(
        messages=messages,
        bytes=total_bytes,
        work_units=float(builder_work + computer_work),
        per_stage=per_stage,
    )


@dataclass(frozen=True)
class ExecutionCost:
    """Measured per-device energy of one execution.

    Attributes:
        per_device_joules: device_id -> joules spent (radio + compute).
        total_joules: sum over devices.
        max_device_joules: the worst single participant's bill — the
            fairness counterpart of crowd liability.
    """

    per_device_joules: dict[str, float]
    total_joules: float
    max_device_joules: float


def measure_execution_cost(
    network: OpportunisticNetwork,
    tuples_per_device: dict[str, int],
    model: EnergyModel | None = None,
) -> ExecutionCost:
    """Tally the energy actually spent, per device.

    Radio cost comes from the network's per-device byte counters;
    compute cost counts one work unit per raw tuple handled (the same
    unit the executor's latency model uses).
    """
    model = model or EnergyModel()
    per_device: dict[str, float] = {}
    for device_id, sent in network.stats.bytes_by_sender.items():
        per_device[device_id] = per_device.get(device_id, 0.0) + (
            sent * model.joules_per_byte_tx
        )
    for device_id, received in network.stats.bytes_by_recipient.items():
        per_device[device_id] = per_device.get(device_id, 0.0) + (
            received * model.joules_per_byte_rx
        )
    for device_id, tuples in tuples_per_device.items():
        per_device[device_id] = per_device.get(device_id, 0.0) + (
            tuples * model.joules_per_work_unit
        )
    total = sum(per_device.values())
    worst = max(per_device.values(), default=0.0)
    return ExecutionCost(
        per_device_joules=per_device,
        total_joules=total,
        max_device_joules=worst,
    )
