"""Data Contributor runtime: jittered, possibly-repeated contributions.

Each Data Contributor filters/projects its own rows inside its TEE and
ships them (sealed) to its hash-assigned Snapshot Builder and to every
passive replica of that builder (the plan wires one dataflow edge per
rank, so one closure serves every plan).
"""

from __future__ import annotations

from repro.core.qep import OperatorRole, rank_of
from repro.core.runtime.context import ExecutionContext
from repro.core.runtime.incremental import STAMP_BYTES
from repro.core.runtime.report import ExecutionError
from repro.network.messages import MessageKind

__all__ = ["ContributorRuntime"]


class ContributorRuntime:
    """Schedules every contributor's staggered transmissions."""

    role = OperatorRole.DATA_CONTRIBUTOR

    def __init__(self, ctx: ExecutionContext):
        self.ctx = ctx

    def schedule_contributions(self) -> None:
        """Arm one jittered send per contributor per configured copy."""
        ctx = self.ctx
        contributors = ctx.plan.operators(OperatorRole.DATA_CONTRIBUTOR)
        predicate = None
        if ctx.query is not None and ctx.query.where is not None:
            predicate = ctx.query.where.evaluator
        for leaf in contributors:
            device = ctx.devices.get(leaf.params["device"])
            if device is None:
                raise ExecutionError(
                    f"contributor device {leaf.params['device']} missing"
                )
            consumers = ctx.plan.consumers_of(leaf.op_id)
            if not any(rank_of(c) == 0 for c in consumers):
                continue
            for _ in range(ctx.contribution_copies):
                send_at = ctx.start_time + ctx.rng.uniform(
                    0.0, ctx.collection_window * 0.6
                )
                ctx.simulator.schedule_at(
                    send_at,
                    self._make_contribution(device, consumers, predicate),
                    "contribute",
                )

    def _make_contribution(self, device, consumers, predicate):
        ctx = self.ctx

        def fire() -> None:
            if not ctx.network.is_online(device.device_id):
                return  # owner kept the device offline; no contribution
            rows = device.contribute(predicate, ctx.collected_columns)
            if not rows:
                return
            cache = ctx.contribution_cache
            digest = cache.digest(rows) if cache is not None else None
            full_size = 96 * len(rows)
            for consumer in consumers:
                target = ctx.device_of(consumer)
                base = {
                    "op_id": consumer.op_id,
                    "partition_index": consumer.params["partition_index"],
                    "contribution_id": f"{device.device_id}:{consumer.op_id}",
                }
                if cache is not None and cache.match(
                    device.device_id, target.device_id, digest
                ):
                    # Unchanged rows to an unchanged builder: ship a
                    # delta stamp the builder resolves from its retained
                    # copy instead of re-shipping the full partition slice.
                    cache.count_stamp(full_size)
                    ctx.ship(
                        device,
                        target,
                        MessageKind.CONTRIBUTION,
                        {
                            **base,
                            "contributor": device.device_id,
                            "stamp": digest,
                        },
                        size_hint=STAMP_BYTES,
                    )
                    continue
                if cache is not None:
                    cache.store(device.device_id, target.device_id, digest, rows)
                    cache.count_full()
                ctx.ship(
                    device,
                    target,
                    MessageKind.CONTRIBUTION,
                    {**base, "rows": rows},
                    size_hint=full_size,
                )
        return fire
