"""Per-layer metrics of the traced repeat.

A layer is a module of the program under test.  ``*_s`` metrics are
host seconds of *self* time (a span's duration minus the part its child
spans cover) summed over the named spans; ``*_calls`` and friends are
call counts from the same wrappers; the rest are counts the adapter read
from public state (``network.stats``, ``Telemetry()`` counters) or
ratios of the above.

Which end-to-end metric each of these should move, on which workload,
is written down in ``README.md`` (the interaction list).
"""

from __future__ import annotations

from typing import Any

from benchmarks.perf.trace import phase_totals

__all__ = ["HIGHER_IS_BETTER", "PER_LAYER_UNITS", "layer_metrics"]

SETUP, EXEC = "phase:setup", "phase:exec"
BOTH = (SETUP, EXEC)

#: metric -> (field of the folded trace, phases, span names)
_FROM_SPANS: dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]] = {
    "data.generate_s": ("self_s", BOTH, ("data.generate",)),
    "data.deal_s": ("self_s", BOTH, ("data.deal", "data.validate_row", "data.insert_many")),
    "devices.build_s": ("self_s", BOTH, ("devices.edgelet_init",)),
    "devices.spawned": ("count", (EXEC,), ("manager.spawn",)),
    "devices.datastore_select_s": ("self_s", BOTH, ("devices.datastore_select",)),
    "devices.attest_s": ("self_s", BOTH, ("devices.attest",)),
    "crypto.keygen_s": ("self_s", BOTH, ("crypto.keygen",)),
    "crypto.keygen_calls": ("count", BOTH, ("crypto.keygen",)),
    "crypto.dh_s": ("self_s", BOTH, ("crypto.dh",)),
    "crypto.dh_calls": ("count", BOTH, ("crypto.dh",)),
    "crypto.sign_s": ("self_s", BOTH, ("crypto.sign",)),
    "crypto.verify_s": ("self_s", BOTH, ("crypto.verify",)),
    "crypto.seal_s": ("self_s", BOTH, ("crypto.seal",)),
    "crypto.open_s": ("self_s", BOTH, ("crypto.open",)),
    "crypto.envelopes": ("count", BOTH, ("crypto.seal",)),
    "topology.build_s": ("self_s", (SETUP,), ("topology.add_device", "topology.add_link")),
    "topology.links_added": ("count", (SETUP,), ("topology.add_link",)),
    "topology.mutate_s": ("self_s", (EXEC,), ("topology.add_device", "topology.add_link")),
    "topology.links_added_exec": ("count", (EXEC,), ("topology.add_link",)),
    "topology.query_s": ("self_s", (EXEC,), ("topology.quality", "topology.path", "topology.neighbors")),
    "topology.query_calls": ("count", (EXEC,), ("topology.quality", "topology.path", "topology.neighbors")),
    "simulator.loop_self_s": ("self_s", BOTH, ("simulator.run",)),
    "opnet.send_s": ("self_s", BOTH, ("opnet.send",)),
    "reliable.send_s": ("self_s", BOTH, ("reliable.send",)),
    "reliable.send_calls": ("count", BOTH, ("reliable.send",)),
    "plan.compile_s": ("self_s", BOTH, ("plan.compile",)),
    "plan.compile_calls": ("count", BOTH, ("plan.compile",)),
    "plan.build_qep_s": ("self_s", BOTH, ("plan.build_qep",)),
    "plan.qep_operators": ("units", BOTH, ("plan.build_qep",)),
    "plan.qep_edges": ("count", BOTH, ("qep.connect",)),
    "qep.connect_s": ("self_s", BOTH, ("qep.connect",)),
    "qep.connect_calls": ("count", BOTH, ("qep.connect",)),
    "assignment.assign_s": ("self_s", BOTH, ("assignment.assign",)),
    "assignment.calls": ("count", BOTH, ("assignment.assign",)),
    "runtime.handle_s": ("self_s", BOTH, (
        "runtime.coordinator_init", "runtime.start", "runtime.finish",
        "runtime.dispatch", "runtime.end_collection", "runtime.finalize",
        "runtime.ship", "runtime.unwrap",
    )),
    "query.groupby_s": ("self_s", BOTH, ("query.groupby",)),
    "query.groupby_calls": ("count", BOTH, ("query.groupby",)),
    "query.rows_folded": ("units", BOTH, ("query.groupby",)),
    "query.merge_s": ("self_s", BOTH, ("query.merge",)),
    "query.parse_s": ("self_s", BOTH, ("query.parse",)),
    "manager.scenario_init_self_s": ("self_s", BOTH, ("manager.scenario_init",)),
    "manager.glue_s": ("self_s", BOTH, (
        "manager.run_compiled", "manager.assign_query", "manager.spawn",
        "manager.admission_offer",
    )),
    "workload.run_self_s": ("self_s", BOTH, (
        "workload.init", "workload.run", "continuous.init", "continuous.run",
    )),
}

#: metrics the adapter reads from public state, copied through as-is
_FROM_COUNTERS = (
    "data.rows", "devices.count",
    "simulator.events", "simulator.queue_depth_max",
    "opnet.msgs_sent", "opnet.msgs_delivered", "opnet.msgs_lost", "opnet.bytes_sent",
    "reliable.transfers", "reliable.retransmissions", "reliable.acks",
    "reliable.transfers_failed",
    "runtime.messages_handled", "runtime.reprovisions", "runtime.payloads_dropped",
    "manager.admission_offers", "manager.admission_queued", "manager.admission_shed",
    "manager.lease_utilization",
    "workload.queries_completed",
    "continuous.windows", "continuous.stamped", "continuous.full_ships",
    "continuous.cache_hit_ratio", "continuous.bytes_saved", "continuous.mean_coverage",
)

_RATIOS = (
    "crypto.session_key_hit_ratio", "simulator.events_per_s", "query.ns_per_row",
    "reliable.useful_ratio",
    "harness.import_s", "harness.warmup_s",
    "harness.trace_overhead_share", "harness.unattributed_share",
)


def _unit(name: str) -> str:
    if name.endswith("_s") and not name.endswith("_per_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "utilization", "coverage")):
        return "share"
    if name.endswith("_per_s"):
        return "1/s"
    if name == "query.ns_per_row":
        return "ns"
    if name.endswith(("bytes_sent", "bytes_saved")):
        return "B"
    return "count"


#: every per-layer metric name -> unit (the list BENCHMARK.json carries)
PER_LAYER_UNITS: dict[str, str] = {
    name: _unit(name) for name in (*_FROM_SPANS, *_FROM_COUNTERS, *_RATIOS)
}


#: the per-layer metrics where a larger value is the good direction
HIGHER_IS_BETTER = frozenset({
    "crypto.session_key_hit_ratio", "simulator.events_per_s",
    "reliable.useful_ratio", "opnet.msgs_delivered",
    "workload.queries_completed", "continuous.windows", "continuous.stamped",
    "continuous.cache_hit_ratio", "continuous.bytes_saved",
    "continuous.mean_coverage",
})


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    traced: dict[str, Any],
    untraced_wall_s: float,
    import_s: float,
    warmup_s: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced repeat, by name.

    ``traced`` is the adapter's result for the traced repeat (its
    ``trace``, ``counters`` and own end-to-end ``metrics``);
    ``untraced_wall_s`` is the wall time of the same workload with
    tracing off, the base of the overhead share.
    """
    totals = phase_totals(traced["trace"])

    def fold(field: str, phases: tuple[str, ...], names: tuple[str, ...]) -> float:
        return float(sum(
            totals[(phase, name)][field]
            for phase in phases for name in names
            if (phase, name) in totals
        ))

    out = {name: fold(*spec) for name, spec in _FROM_SPANS.items()}
    counters = traced["counters"]
    out.update({name: float(counters.get(name, 0.0)) for name in _FROM_COUNTERS})

    wall_s = traced["metrics"]["wall_s"]
    session_calls = fold("count", BOTH, ("crypto.session_key",))
    out["crypto.session_key_hit_ratio"] = _ratio(
        session_calls - out["crypto.dh_calls"], session_calls
    )
    out["simulator.events_per_s"] = _ratio(
        out["simulator.events"], traced["metrics"]["exec_s"]
    )
    out["query.ns_per_row"] = _ratio(out["query.groupby_s"] * 1e9, out["query.rows_folded"])
    out["reliable.useful_ratio"] = _ratio(
        counters.get("reliable.transfers_acked", 0.0),
        out["reliable.transfers"] + out["reliable.retransmissions"],
    )
    out["harness.import_s"] = import_s
    out["harness.warmup_s"] = warmup_s
    out["harness.trace_overhead_share"] = _ratio(wall_s - untraced_wall_s, untraced_wall_s)
    # time inside the root span that no wrapped callable accounts for:
    # the root's and the two phase spans' own self time
    unattributed = fold("self_s", ("",), ("root",)) + sum(
        totals[(phase, phase)]["self_s"] for phase in BOTH if (phase, phase) in totals
    )
    out["harness.unattributed_share"] = _ratio(unattributed, wall_s)
    return out
