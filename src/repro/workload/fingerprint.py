"""Canonical, time-shifted fingerprints of execution reports.

The serial-equivalence guarantee — "a query's result under concurrency
equals its result when run alone" — needs a precise notion of *equal*.
Raw :class:`~repro.core.runtime.report.ExecutionReport`\\ s are not
directly comparable across the two settings:

* absolute times differ (a workload query starts at its arrival time,
  a solo replay starts at 0) — so every timestamp is shifted by the
  execution's start time before hashing;
* shared-substrate statistics differ (``network_stats`` aggregates
  *every* query's traffic on the shared network; ``telemetry``
  references a process-global object) — so they are excluded.

Everything else — the result rows, the tally, who delivered, when
(relative), which devices handled how many tuples, every recorded
execution step, degradation labels — is canonicalized into a JSON
document with sorted keys and hashed.  Steps are hashed as their typed
records (time, kind, operator, fields), never as the trace prose they
render to, so rewording a trace line moves no fingerprint.  Two reports
with the same fingerprint describe the same execution.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = [
    "canonical_report",
    "report_fingerprint",
    "window_lineage",
    "window_fingerprint",
]


def _shift(t: float, base: float) -> float:
    """Time relative to the execution start, rounded to a virtual
    nanosecond: ``(base + delta) - base`` differs from ``delta`` by a
    few ulps when ``base`` is an arrival time instead of 0, and those
    ulps are exactly the non-difference a fingerprint must ignore."""
    return round(t - base, 9)


def _canon(value: Any) -> Any:
    """Recursively convert to JSON-encodable canonical form."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, dict):
        return {str(key): _canon(item) for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    tolist = getattr(value, "tolist", None)
    if callable(tolist):  # numpy arrays and scalars
        return _canon(tolist())
    item = getattr(value, "item", None)
    if callable(item):
        return _canon(item())
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return _canon(to_dict())
    return repr(value)


def _canon_result(result: Any) -> Any:
    """A grouping-sets result, keyed by grouping set."""
    if result is None:
        return None
    rows = getattr(result, "per_set_rows", None)
    if rows is None:
        return _canon(result)
    sets = getattr(getattr(result, "query", None), "grouping_sets", None)
    keys = (
        ["|".join(gs) for gs in sets]
        if sets is not None
        else [str(i) for i in range(len(rows))]
    )
    return {
        key: [_canon(dict(row)) for row in set_rows]
        for key, set_rows in zip(keys, rows)
    }


def _canon_kmeans(kmeans: Any) -> Any:
    if kmeans is None:
        return None
    return {
        "centroids": _canon(kmeans.centroids),
        "weights": _canon(kmeans.weights),
        "knowledges_merged": kmeans.knowledges_merged,
        "cluster_stats": _canon_result(kmeans.cluster_stats),
    }


def canonical_report(report: Any, base_time: float = 0.0) -> dict[str, Any]:
    """The comparable view of one report, times shifted by ``base_time``."""
    completion = report.completion_time
    return {
        "query_id": report.query_id,
        "success": report.success,
        "degraded": report.degraded,
        "delivered_by": report.delivered_by,
        "received_partitions": report.received_partitions,
        "completion_time": (
            _shift(completion, base_time) if completion is not None else None
        ),
        "result": _canon_result(report.result),
        "kmeans": _canon_kmeans(report.kmeans),
        "tally": _canon(report.tally),
        "tuples_per_device": _canon(report.tuples_per_device),
        "events": [
            [_shift(event.time, base_time), event.kind.name, event.op,
             _canon(event.fields)]
            for event in report.events
        ],
        "heartbeats_run": report.heartbeats_run,
        "convergence_trace": _canon(report.convergence_trace),
        "coverage": _canon(report.coverage),
        "validity_bound": report.validity_bound,
    }


def report_fingerprint(report: Any, base_time: float = 0.0) -> str:
    """SHA-256 over the canonical JSON encoding of the report."""
    document = json.dumps(
        canonical_report(report, base_time=base_time),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=True,
    )
    return hashlib.sha256(document.encode()).hexdigest()


def window_lineage(record: Any, base_time: float = 0.0) -> dict[str, Any]:
    """The comparable view of one standing-query window.

    Extends the report canonicalization with the window's *lineage* —
    index, population snapshot hash, overlap with the previous window,
    churn events, eligibility, and incremental-maintenance accounting —
    so two runs of the same standing query agree not just on every
    window's result but on the population history that produced it.
    Duck-typed over :class:`repro.continuous.engine.WindowRecord` to
    keep this module free of upward imports.
    """
    churn = record.churn
    return {
        "index": record.index,
        "window_id": record.window_id,
        "outcome": record.outcome,
        "population_hash": record.population_hash,
        "population_size": len(record.population),
        "overlap_with_previous": round(record.overlap_with_previous, 9),
        "eligible": sorted(record.eligible),
        "churn": _canon(churn.as_dict()) if churn is not None else None,
        "coverage": (
            round(record.coverage, 9) if record.coverage is not None else None
        ),
        "incremental": _canon(record.incremental),
        "lease_flags": sorted(record.lease_flags),
        "report": (
            canonical_report(record.report, base_time=base_time)
            if record.report is not None
            else None
        ),
    }


def window_fingerprint(record: Any, base_time: float = 0.0) -> str:
    """SHA-256 over the canonical JSON encoding of a window's lineage."""
    document = json.dumps(
        window_lineage(record, base_time=base_time),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=True,
    )
    return hashlib.sha256(document.encode()).hexdigest()
