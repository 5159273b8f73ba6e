"""Golden telemetry exports of seeded executions.

For four of the golden event runs (``tests/test_event_golden.py``), the
golden k-means run and one 10-query reliable workload, the whole
``telemetry_records`` export — counters, gauges, histograms, spans,
marks and trace events — is compared against
``tests/golden/telemetry_records.json``.  Profiler sections are left
out: they measure host wall-clock time.

A span's id is its creation order and a scenario span's ``scenario_id``
counts the scenarios built so far in the process; neither says anything
about the run, so the export is made canonical first: ``scenario_id``
is dropped, spans are renumbered in ``(start, name, query)`` order (a
span's query is its own ``query_id`` attribute, else its parent's),
parent ids follow, and the records are compared as a sorted list.

Regenerate with ``PYTHONPATH=src python -m tests.test_telemetry_golden``
only when a change to what a run measures is intentional.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.chaos.campaign import run_single
from repro.telemetry import Telemetry, telemetry_records
from repro.workload import WorkloadEngine, WorkloadSpec
from tests.test_event_golden import SPECS, _kmeans_result

GOLDEN_PATH = Path(__file__).parent / "golden" / "telemetry_records.json"


def _golden_run(name: str) -> Telemetry:
    telemetry = Telemetry()
    run_single(SPECS[name], telemetry=telemetry)
    return telemetry


def _workload() -> Telemetry:
    telemetry = Telemetry()
    spec = WorkloadSpec(
        n_queries=10, arrival_process="poisson", arrival_rate=2.0,
        max_concurrent=4, queue_capacity=10, reliability=True, seed=9,
    )
    WorkloadEngine(
        spec, n_contributors=24, n_processors=40, telemetry=telemetry,
        standby_count=2, message_loss=0.1,
    ).run()
    return telemetry


RUNS = {
    **{
        name: (lambda name=name: _golden_run(name))
        for name in (
            "plain", "sealed-corrupted", "reliable-detector", "backup",
        )
    },
    "kmeans-cluster-stats": lambda: _kmeans_result().report.telemetry,
    "reliable-workload": _workload,
}


def canonical_records(telemetry: Telemetry) -> list:
    """The run's telemetry export, profiler sections and scenario ids
    dropped, spans renumbered by ``(start, name, query)``, as a sorted
    list."""
    records = [
        record
        for record in telemetry_records(telemetry)
        if record["type"] != "profile"
    ]
    spans = {r["span_id"]: r for r in records if r["type"] == "span"}

    def query(span: dict) -> str:
        while "query_id" not in span["attributes"]:
            if span["parent_id"] is None:
                return ""
            span = spans[span["parent_id"]]
        return span["attributes"]["query_id"]

    keys = {
        span_id: (span["start"], span["name"], query(span))
        for span_id, span in spans.items()
    }
    assert len(set(keys.values())) == len(keys), "span key is not unique"
    number = {
        span_id: index
        for index, span_id in enumerate(sorted(keys, key=keys.__getitem__), 1)
    }
    for span in spans.values():
        span["attributes"].pop("scenario_id", None)
        span["span_id"] = number[span["span_id"]]
        if span["parent_id"] is not None:
            span["parent_id"] = number[span["parent_id"]]
    encoded = sorted(json.dumps(record, sort_keys=True) for record in records)
    return [json.loads(line) for line in encoded]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_run_is_pinned(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_telemetry_matches_golden(name, golden):
    assert canonical_records(RUNS[name]()) == golden[name]


if __name__ == "__main__":
    document = {name: canonical_records(run()) for name, run in sorted(RUNS.items())}
    GOLDEN_PATH.write_text(
        json.dumps(document, indent=0, sort_keys=True) + "\n", encoding="utf-8"
    )
    sys.exit(0)
