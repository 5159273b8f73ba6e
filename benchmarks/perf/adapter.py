"""The only module of the benchmark that imports ``repro``.

It turns a :class:`~benchmarks.perf.workloads.Workload` plus a seed
into generated inputs (``ScenarioConfig`` / ``WorkloadSpec`` /
``StandingQuerySpec`` + rows), runs one *repeat* — set-up, then the ops
— against the library's public API, checks the outputs, and reports
what it measured.  It passes no optional knob that ROADMAP items 3-4
plan to delete (``engine``, ``detector``, ``fencing``).

An *op* is one query execution, or one window of the standing query.

Two phases are timed on the host clock:

* ``setup`` — dataset generation plus ``Scenario`` / ``WorkloadEngine``
  / ``ContinuousEngine`` construction (first input byte to a ready
  swarm);
* ``exec``  — parse + ``compile_query`` + ``run_compiled`` per op, or
  ``engine.run()``.

Verification, fingerprinting and error computation happen after both
phases, outside the traced root span.
"""

from __future__ import annotations

import hashlib
import math
import resource
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from repro.continuous import ContinuousEngine, StandingQuerySpec
from repro.core import assignment as _assignment
from repro.core.planner import PrivacyParameters, QuerySpec, ResiliencyParameters
from repro.core.qep import QueryExecutionPlan
from repro.core.runtime import ExecutionCoordinator
from repro.core.runtime.context import ExecutionContext
from repro.core.validity import compare_results
from repro.crypto import envelope as _envelope
from repro.crypto import primitives as _primitives
from repro.crypto.keys import KeyRing
from repro.data import generators as _generators
from repro.data import health as _health
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.devices.attestation import AttestationAuthority
from repro.devices.churn import ChurnSpec
from repro.devices.datastore import LocalDatastore
from repro.devices.edgelet import Edgelet
from repro.manager.admission import AdmissionController
from repro.manager.scenario import Scenario, ScenarioConfig
from repro.network.opnet import OpportunisticNetwork
from repro.network.reliable import ReliableTransport
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph
from repro.plan import compile as _compile
from repro.plan.compile import CompiledQuery, compile_query
from repro.query import columnar as _columnar
from repro.query.columnar import evaluate_group_by_columnar
from repro.query import groupby as _groupby
from repro.query.groupby import finalize_partials
from repro.query import sql as _sql
from repro.query.schema import Schema
from repro.query.sql import parse_query
from repro.telemetry import Telemetry, null_telemetry
from repro.workload import WorkloadEngine, WorkloadSpec
from repro.workload.fingerprint import report_fingerprint

from benchmarks.perf.trace import Target, Tracer
from benchmarks.perf.workloads import Workload

__all__ = ["ContactGraph", "run_repeat", "warm_up"]

#: Presumed partition-loss rate / completion target of the one-shot
#: queries (the values the old ``bench_scalability`` ran with).
FAULT_RATE = 0.1
TARGET_SUCCESS = 0.99

#: Relative error below which a result equals the oracle's.  Partial
#: states merge in a different order than one centralized pass, and on
#: 40,000 rows ``var``/``std`` round off to ~1e-12 — just past the
#: library's own 1e-12 ``exact_match`` line on some seeds.
EXACT_TOLERANCE = 1e-9


# -- what one repeat produces --------------------------------------------------


@dataclass
class Op:
    """Outcome of one op, modelled and checked.

    ``ok`` is the modelled verdict (delivered, not degraded, not shed);
    ``check`` names a harness output check the op failed, if any.
    """

    op_id: str
    ok: bool
    fingerprint: str
    latency: float | None = None
    rel_error: float | None = None
    check: str | None = None


@dataclass
class Measured:
    """Raw measurements of one repeat, before summarising."""

    setup_s: float
    exec_s: float
    peak_rss_mb: float
    ops: list[Op]
    messages: int
    bytes_sent: int
    checks: list[str]
    counters: dict[str, float]


def _peak_rss_mb() -> float:
    """This process's high-water RSS (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def high_percentile(n: int) -> float:
    """Highest of p75/p90/p95/p98/p99 with at least ten samples beyond
    it; the median when even p75 has fewer."""
    for q in (0.99, 0.98, 0.95, 0.90, 0.75):
        if math.floor((1.0 - q) * n + 1e-9) >= 10:
            return q
    return 0.50


def _op_error(validity: Any) -> float:
    """Max relative error of one result vs the oracle, in [0, 1]; a
    missing or extra group counts as 1.0."""
    error = validity.max_relative_error
    if validity.missing_groups or validity.extra_groups:
        error = 1.0
    return min(1.0, error)


class _Oracle:
    """Centralized answers, computed once per (dataset, query).

    Evaluated in one pass by the vectorized operators — an
    implementation the workloads' default (row) engine does not run, and
    ~15x cheaper than ``CentralizedEngine`` on the 40,000-row dataset,
    which keeps verification a small share of a run.
    """

    def __init__(self) -> None:
        self._answers: dict[tuple[int, str], Any] = {}

    def error(self, report: Any, query: Any, rows: list[dict[str, Any]]) -> float:
        """Max relative error of ``report`` vs the answer over ``rows``."""
        key = (id(rows), repr(query.to_dict()))
        answer = self._answers.get(key)
        if answer is None:
            answer = self._answers[key] = finalize_partials(
                query, evaluate_group_by_columnar(query, rows)
            )
        return _op_error(compare_results(answer, report.result))


def _summarise(measured: Measured) -> dict[str, Any]:
    """Fold ops into the ten end-to-end metrics plus check results."""
    ops = measured.ops
    checks = list(measured.checks)
    checks.extend(f"{op.op_id}: {op.check}" for op in ops if op.check)
    failed = [op for op in ops if not op.ok or op.check]
    if not any(op.ok for op in ops):
        checks.append("no op succeeded")
    completed = [op for op in ops if op.latency is not None]
    latencies = sorted(op.latency for op in completed)
    errors = [op.rel_error for op in ops if op.rel_error is not None]
    hi_q = high_percentile(len(latencies))
    n_done = max(1, len(completed))
    digest = hashlib.sha256(
        "\n".join(f"{op.op_id}:{op.fingerprint}" for op in ops).encode()
    ).hexdigest()
    return {
        "metrics": {
            "setup_s": measured.setup_s,
            "exec_s": measured.exec_s,
            "wall_s": measured.setup_s + measured.exec_s,
            "peak_rss_mb": measured.peak_rss_mb,
            "virt_latency_p50_s": _nearest_rank(latencies, 0.50) if latencies else 0.0,
            "virt_latency_hi_s": _nearest_rank(latencies, hi_q) if latencies else 0.0,
            "msgs_per_op": measured.messages / n_done,
            "bytes_per_op": measured.bytes_sent / n_done,
            "result_rel_error": sum(errors) / len(errors) if errors else 1.0,
            "failed_share": len(failed) / len(ops),
        },
        "latency_samples": len(latencies),
        "latency_hi_percentile": f"p{round(hi_q * 100)}",
        "ops_attempted": len(ops),
        "ops_failed": len(failed),
        "ops_failed_checks": sum(1 for op in ops if op.check),
        "checks": checks,
        "behaviour_fingerprint": digest,
        "counters": measured.counters,
    }


# -- the three workload kinds ----------------------------------------------------
#
# Each kind is three functions: ``setup`` builds the inputs and the swarm
# (anything with a ``.scenario``), ``execute`` runs the ops, ``judge``
# turns what came back into :class:`Op` records, run-level check
# failures and kind-specific counters.  :func:`_measure` times the first
# two; judging happens after the traced root span has closed.


@dataclass
class _Swarm:
    """A one-shot-query swarm and the inputs its ops are made from."""

    scenario: Scenario
    rows: list[dict[str, Any]]
    workload: Workload
    p: dict[str, Any]


def _setup_scenario(workload: Workload, p: dict[str, Any], seed: int, telemetry: Any) -> _Swarm:
    rows = generate_health_rows(p["rows"], seed=seed)
    scenario = Scenario(
        ScenarioConfig(
            n_contributors=p["contributors"],
            n_processors=p["processors"],
            rows=rows,
            schema=HEALTH_SCHEMA,
            device_mix=(1.0, 0.0, 0.0),
            rows_per_device=p["rows_per_device"],
            collection_window=20.0,
            deadline=p["deadline"],
            secure_channels=p["secure"],
            seed=seed,
            scenario_tag=workload.name,
        ),
        telemetry=telemetry,
    )
    return _Swarm(scenario, rows, workload, p)


def _execute_scenario(swarm: _Swarm) -> list[Any]:
    p = swarm.p
    privacy = PrivacyParameters(max_raw_per_edgelet=p["max_raw"])
    resiliency = ResiliencyParameters(fault_rate=FAULT_RATE, target_success=TARGET_SUCCESS)
    results = []
    for index, sql in enumerate(p["sqls"]):
        spec = QuerySpec(
            query_id=f"{swarm.workload.name}-q{index}",
            kind="aggregate",
            snapshot_cardinality=p["cardinality"],
            group_by=parse_query(sql).query,
        )
        compiled = compile_query(spec, privacy=privacy, resiliency=resiliency)
        results.append(swarm.scenario.run_compiled(compiled))
    return results


def _judge_scenario(swarm: _Swarm, results: list[Any]) -> tuple[list[Op], list[str], dict[str, float]]:
    oracle = _Oracle()
    ops = []
    for result in results:
        report = result.report
        start = result.executor.start_time
        op = Op(
            op_id=report.query_id,
            ok=report.success and not report.degraded,
            fingerprint=report_fingerprint(report, base_time=start),
        )
        if report.completion_time is not None:
            op.latency = report.completion_time - start
        if report.success and report.result is not None:
            query = report.result.query
            op.rel_error = oracle.error(report, query, swarm.rows)
            if swarm.p.get("exact") and report.tally.get("lost") == 0:
                # Validity: with no partition lost, the result equals the
                # centralized answer over the rows the builders froze
                snapshot = [
                    row for part in result.executor.builder_rows.values() for row in part
                ]
                error = oracle.error(report, query, snapshot)
                if error > EXACT_TOLERANCE:
                    op.check = f"differs from the oracle over its own snapshot (error {error:.3g})"
        ops.append(op)
    return ops, [], {}


def _setup_workload(workload: Workload, p: dict[str, Any], seed: int, telemetry: Any) -> WorkloadEngine:
    return WorkloadEngine(
        WorkloadSpec(seed=seed, **p["spec"]),
        n_contributors=p["contributors"],
        n_processors=p["processors"],
        telemetry=telemetry,
        scenario_tag=workload.name,
        standby_count=p.get("standby_count", 0),
        message_loss=p.get("message_loss", 0.0),
    )


def _judge_workload(engine: WorkloadEngine, result: Any) -> tuple[list[Op], list[str], dict[str, float]]:
    oracle = _Oracle()
    rows = engine.scenario_config.rows
    ops = []
    for record in result.records:
        report = record.report
        completed = record.outcome == "completed"
        op = Op(
            op_id=record.arrival.query_id,
            ok=completed and report.success and not report.degraded,
            fingerprint=record.fingerprint or record.outcome,
        )
        if completed:
            op.latency = record.latency
            if report.success and report.result is not None:
                op.rel_error = oracle.error(report, engine.group_by, rows)
        ops.append(op)
    checks = []
    if result.shed + result.completed != result.arrivals:
        checks.append(
            f"conservation: {result.shed} shed + {result.completed} "
            f"completed != {result.arrivals} arrivals"
        )
    return ops, checks, {
        "manager.admission_offers": float(result.arrivals),
        "manager.admission_queued": float(result.queued),
        "manager.admission_shed": float(result.shed),
        "manager.lease_utilization": result.utilization,
        "workload.queries_completed": float(result.completed),
    }


def _setup_continuous(workload: Workload, p: dict[str, Any], seed: int, telemetry: Any) -> ContinuousEngine:
    return ContinuousEngine(
        StandingQuerySpec(name=workload.name, seed=seed, **p["spec"]),
        churn=ChurnSpec(seed=seed, **p["churn"]),
        n_contributors=p["contributors"],
        n_processors=p["processors"],
        telemetry=telemetry,
    )


def _judge_continuous(engine: ContinuousEngine, result: Any) -> tuple[list[Op], list[str], dict[str, float]]:
    oracle = _Oracle()
    ops = []
    for window in result.windows:
        report = window.report
        completed = window.outcome == "completed"
        op = Op(
            op_id=window.window_id,
            ok=completed and report.success and not report.degraded,
            fingerprint=window.fingerprint or window.outcome,
        )
        if completed:
            if report.completion_time is not None:
                op.latency = report.completion_time - window.started_at
            if report.success and report.result is not None:
                # each window is judged against its own frozen rows
                op.rel_error = oracle.error(report, engine.group_by, window.rows)
        ops.append(op)
    summary = result.summary()
    stamped = summary.get("incremental_stamped", 0)
    full = summary.get("incremental_full", 0)
    return ops, [], {
        "continuous.windows": float(result.completed),
        "continuous.stamped": float(stamped),
        "continuous.full_ships": float(full),
        "continuous.cache_hit_ratio": stamped / (stamped + full) if stamped + full else 0.0,
        "continuous.bytes_saved": float(summary.get("incremental_bytes_saved", 0)),
        "continuous.mean_coverage": summary["mean_coverage"],
    }


def _run_engine(engine: Any) -> Any:
    return engine.run()


_KINDS = {
    "scenario": (_setup_scenario, _execute_scenario, _judge_scenario),
    "workload": (_setup_workload, _run_engine, _judge_workload),
    "continuous": (_setup_continuous, _run_engine, _judge_continuous),
}


def _substrate_counters(telemetry: Any, scenario: Scenario, devices_at_setup: int) -> dict[str, float]:
    """Counts every workload has, read from public state after a run."""
    stats = scenario.network.stats
    metrics = telemetry.metrics
    acked = metrics.total("reliable.transfers_acked")
    failed = metrics.total("reliable.transfers_failed")
    return {
        "data.rows": float(len(scenario.config.rows)),
        "devices.count": float(devices_at_setup),
        "simulator.events": float(scenario.simulator.processed),
        "simulator.queue_depth_max": metrics.gauge("sim.queue_depth").max_value,
        "opnet.msgs_sent": float(stats.sent),
        "opnet.msgs_delivered": float(stats.delivered),
        "opnet.msgs_lost": float(stats.lost),
        "opnet.bytes_sent": float(stats.bytes_sent),
        "reliable.transfers": acked + failed,
        "reliable.transfers_acked": acked,
        "reliable.transfers_failed": failed,
        "reliable.retransmissions": metrics.total("reliable.retransmissions"),
        "reliable.acks": metrics.total("reliable.acks_sent"),
        "runtime.messages_handled": metrics.total("exec.messages_dispatched"),
        "runtime.reprovisions": metrics.total("exec.reprovisions"),
        "runtime.payloads_dropped": metrics.total("executor.payloads_dropped"),
    }


def _measure(workload: Workload, p: dict[str, Any], seed: int, telemetry: Any, tracer: Tracer) -> Measured:
    """Time set-up and exec of one repeat, then judge the outputs."""
    setup, execute, judge = _KINDS[workload.kind]
    with tracer.span("root"):
        with tracer.span("phase:setup"):
            t0 = perf_counter()
            state = setup(workload, p, seed, telemetry)
            t1 = perf_counter()
        scenario = state.scenario
        stats = scenario.network.stats
        sent0, bytes0 = stats.sent, stats.bytes_sent
        devices_at_setup = len(scenario.devices)
        with tracer.span("phase:exec"):
            outcome = execute(state)
            t2 = perf_counter()
    peak_rss_mb = _peak_rss_mb()  # before verification allocates
    ops, checks, counters = judge(state, outcome)
    if tracer.enabled:
        counters.update(_substrate_counters(telemetry, scenario, devices_at_setup))
    return Measured(
        setup_s=t1 - t0, exec_s=t2 - t1, peak_rss_mb=peak_rss_mb, ops=ops,
        messages=stats.sent - sent0, bytes_sent=stats.bytes_sent - bytes0,
        checks=checks, counters=counters,
    )


# -- tracing targets -----------------------------------------------------------


def _rows_folded(args: tuple, result: Any) -> int:
    """Row count of ``evaluate_group_by(query, rows)`` (0 for a lazy
    iterator, which only the harness's own oracle passes)."""
    rows = args[1] if len(args) > 1 else ()
    return len(rows) if hasattr(rows, "__len__") else 0


def _plan_operators(args: tuple, result: Any) -> int:
    return len(result)


def trace_targets() -> list[Target]:
    """The public callables the traced repeat wraps, layer by layer.

    ``hot`` marks callables hit more than ~10k times in some workload;
    they are kept as per-parent aggregates.
    """
    return [
        # data
        Target("data.generate", _health, "generate_health_rows"),
        Target("data.deal", _generators, "distribute_rows_to_devices"),
        Target("data.validate_row", Schema, "validate_row", hot=True),
        Target("data.insert_many", LocalDatastore, "insert_many", hot=True),
        # devices
        Target("devices.edgelet_init", Edgelet, "__init__"),
        Target("devices.datastore_select", LocalDatastore, "select", hot=True),
        Target("devices.attest", AttestationAuthority, "attest"),
        Target("devices.attest", AttestationAuthority, "register_device", hot=True),
        # crypto
        Target("crypto.keygen", _primitives, "generate_keypair"),
        Target("crypto.dh", _primitives, "diffie_hellman_shared"),
        Target("crypto.sign", _primitives, "sign", hot=True),
        Target("crypto.verify", _primitives, "verify", hot=True),
        Target("crypto.seal", _envelope, "seal_envelope", hot=True),
        Target("crypto.open", _envelope, "open_envelope", hot=True),
        Target("crypto.session_key", KeyRing, "session_key", hot=True),
        # network.topology
        Target("topology.add_device", ContactGraph, "add_device", hot=True),
        Target("topology.add_link", ContactGraph, "add_link", hot=True),
        Target("topology.quality", ContactGraph, "quality", hot=True),
        Target("topology.path", ContactGraph, "path", hot=True),
        Target("topology.neighbors", ContactGraph, "neighbors", hot=True),
        # network.simulator / opnet / reliable
        Target("simulator.run", Simulator, "run"),
        Target("simulator.run", Simulator, "run_until"),
        Target("opnet.send", OpportunisticNetwork, "send", hot=True),
        Target("reliable.send", ReliableTransport, "send", hot=True),
        # plan / core.qep / core.assignment
        Target("plan.compile", _compile, "compile_query"),
        Target("plan.build_qep", CompiledQuery, "build_qep", units=_plan_operators),
        Target("qep.connect", QueryExecutionPlan, "connect", hot=True),
        Target("assignment.assign", _assignment, "assign_operators"),
        # core.runtime
        Target("runtime.coordinator_init", ExecutionCoordinator, "__init__"),
        Target("runtime.start", ExecutionCoordinator, "start"),
        Target("runtime.finish", ExecutionCoordinator, "finish"),
        Target("runtime.dispatch", ExecutionCoordinator, "dispatch", hot=True),
        Target("runtime.end_collection", ExecutionCoordinator, "end_collection"),
        Target("runtime.finalize", ExecutionCoordinator, "finalize"),
        Target("runtime.ship", ExecutionContext, "ship", hot=True),
        Target("runtime.unwrap", ExecutionContext, "unwrap", hot=True),
        # query
        Target("query.groupby", _groupby, "evaluate_group_by", hot=True, units=_rows_folded),
        Target("query.groupby", _columnar, "evaluate_group_by_columnar", hot=True, units=_rows_folded),
        Target("query.merge", _groupby, "merge_partials", hot=True),
        Target("query.merge", _columnar, "merge_partials_columnar", hot=True),
        Target("query.merge", _groupby, "finalize_partials", hot=True),
        Target("query.parse", _sql, "parse_query"),
        # manager
        Target("manager.scenario_init", Scenario, "__init__"),
        Target("manager.run_compiled", Scenario, "run_compiled"),
        Target("manager.assign_query", Scenario, "assign_query"),
        Target("manager.spawn", Scenario, "spawn_contributor"),
        Target("manager.spawn", Scenario, "spawn_processor"),
        Target("manager.admission_offer", AdmissionController, "offer"),
        # workload / continuous
        Target("workload.init", WorkloadEngine, "__init__"),
        Target("workload.run", WorkloadEngine, "run"),
        Target("continuous.init", ContinuousEngine, "__init__"),
        Target("continuous.run", ContinuousEngine, "run"),
    ]


def _alias_modules() -> list[Any]:
    """Modules that may hold a by-name import of a wrapped function:
    every loaded module of the program under test, plus this one."""
    return [
        module for name, module in sys.modules.items()
        if name == "repro" or name.startswith("repro.") or name == __name__
    ]


# -- entry points --------------------------------------------------------------


def warm_up() -> None:
    """Run a ten-contributor scenario so one-off lazy initialisation
    (networkx dispatch compilation, numpy internals, hashlib) is paid
    before anything is timed."""
    rows = generate_health_rows(20, seed=0)
    scenario = Scenario(
        ScenarioConfig(
            n_contributors=10, n_processors=12, rows=rows, schema=HEALTH_SCHEMA,
            device_mix=(1.0, 0.0, 0.0), collection_window=5.0, deadline=12.0,
            seed=0, scenario_tag="warmup",
        ),
        telemetry=null_telemetry(),
    )
    spec = QuerySpec(
        query_id="warmup", kind="aggregate", snapshot_cardinality=10,
        group_by=parse_query(
            "SELECT count(*), avg(age) FROM health GROUP BY GROUPING SETS ((region), ())"
        ).query,
    )
    scenario.run_compiled(
        compile_query(spec, privacy=PrivacyParameters(max_raw_per_edgelet=5))
    )


def run_repeat(workload: Workload, seed: int, smoke: bool, traced: bool, run_id: str) -> dict[str, Any]:
    """One repeat of one workload; returns a JSON-ready result.

    Untraced repeats run under ``null_telemetry()``; the traced repeat
    records into a fresh ``Telemetry()`` and wraps :func:`trace_targets`.
    """
    tracer = Tracer(run_id, enabled=traced)
    telemetry = Telemetry() if traced else null_telemetry()
    if traced:
        tracer.install(trace_targets(), _alias_modules())
    try:
        measured = _measure(workload, workload.params(smoke), seed, telemetry, tracer)
    finally:
        tracer.uninstall()
    result = _summarise(measured)
    result["run_id"] = run_id
    if traced:
        result["trace"] = tracer.export()
    return result
