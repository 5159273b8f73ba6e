"""Harness self-tests.  Run explicitly (tier-1 collects only ``tests/``):

    python3 -m pytest benchmarks/perf/tests/test_harness.py -q

They drive the benchmark in ``--smoke`` mode (every workload ~10x
smaller, two timed repeats + one traced) and check what the issue
promises: every named metric is there with a unit, modelled numbers and
fingerprints repeat exactly, self times add up, ``BENCHMARK.json``
matches the code, and an injected slowdown is caught and attributed.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from time import perf_counter

import pytest

REPO = Path(__file__).resolve().parents[3]
for path in (str(REPO / "src"), str(REPO)):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.perf import compare, metrics as catalogue, run  # noqa: E402
from benchmarks.perf.layers import PER_LAYER_UNITS  # noqa: E402
from benchmarks.perf.workloads import WORKLOADS, by_name  # noqa: E402

#: the ten end-to-end metrics ISSUE 11 names
ISSUE_END_TO_END = {
    "setup_s", "exec_s", "wall_s", "peak_rss_mb",
    "virt_latency_p50_s", "virt_latency_hi_s", "msgs_per_op", "bytes_per_op",
    "result_rel_error", "failed_share",
}

#: the per-layer metrics ISSUE 11 names
ISSUE_PER_LAYER = """
data.generate_s data.deal_s data.rows
devices.build_s devices.count devices.spawned devices.datastore_select_s devices.attest_s
crypto.keygen_s crypto.keygen_calls crypto.dh_s crypto.dh_calls crypto.sign_s
crypto.verify_s crypto.seal_s crypto.open_s crypto.envelopes crypto.session_key_hit_ratio
topology.build_s topology.links_added topology.mutate_s topology.links_added_exec
topology.query_s topology.query_calls
simulator.events simulator.events_per_s simulator.loop_self_s simulator.queue_depth_max
opnet.send_s opnet.msgs_sent opnet.msgs_delivered opnet.msgs_lost opnet.bytes_sent
reliable.send_s reliable.transfers reliable.retransmissions reliable.acks
reliable.transfers_failed reliable.useful_ratio
plan.compile_s plan.compile_calls plan.build_qep_s plan.qep_operators plan.qep_edges
qep.connect_s qep.connect_calls assignment.assign_s assignment.calls
runtime.handle_s runtime.messages_handled runtime.reprovisions runtime.payloads_dropped
query.groupby_s query.groupby_calls query.rows_folded query.ns_per_row query.merge_s
query.parse_s
manager.scenario_init_self_s manager.admission_offers manager.admission_queued
manager.admission_shed manager.lease_utilization
workload.run_self_s workload.queries_completed
continuous.windows continuous.stamped continuous.full_ships continuous.cache_hit_ratio
continuous.bytes_saved continuous.mean_coverage
harness.import_s harness.warmup_s harness.trace_overhead_share harness.unattributed_share
""".split()


@pytest.fixture(scope="module")
def harness() -> run.Harness:
    return run.Harness()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> tuple[dict, Path]:
    """One full ``--smoke`` report-mode run, shared by the tests below."""
    out = tmp_path_factory.mktemp("smoke")
    started = perf_counter()
    code = run.main(["--smoke", "--out", str(out)])
    elapsed = perf_counter() - started
    document = json.loads((out / "result.json").read_text())
    document["_exit_code"], document["_elapsed_s"] = code, elapsed
    return document, out


def test_smoke_runs_clean_and_fast(smoke):
    document, _ = smoke
    assert document["_exit_code"] == 0
    assert document["_elapsed_s"] < 60.0  # ~20 s here; the issue's target is 30 s
    assert set(document["workloads"]) == {w.name for w in WORKLOADS}
    for name, workload in document["workloads"].items():
        assert workload["checks"] == [], name
        assert 0 <= workload["ops_failed"] <= workload["ops_attempted"], name
        assert workload["ops_attempted"] >= 1


def test_every_named_metric_is_present_with_a_unit(smoke):
    document, _ = smoke
    for name, workload in document["workloads"].items():
        end_to_end = workload["end_to_end"]
        assert ISSUE_END_TO_END <= set(end_to_end), name
        assert {m.name for m in catalogue.END_TO_END} == set(end_to_end)
        for entry in end_to_end.values():
            assert entry["unit"] and entry["n"] == 2
            assert entry["q1"] <= entry["median"] <= entry["q3"]
        per_layer = workload["per_layer"]
        assert set(ISSUE_PER_LAYER) <= set(per_layer), name
        assert set(per_layer) == set(PER_LAYER_UNITS)
        for entry in per_layer.values():
            assert entry["unit"] and math.isfinite(entry["value"])


def test_modelled_metrics_and_fingerprints_repeat_exactly(smoke):
    document, _ = smoke
    for name, workload in document["workloads"].items():
        for metric in catalogue.END_TO_END:
            values = workload["end_to_end"][metric.name]["values"]
            if metric.kind == "modelled":
                assert len(set(values)) == 1, (name, metric.name, values)
        assert len(workload["behaviour_fingerprint"]) == 64


def test_lossless_workloads_fail_nothing_and_only_lossy_retransmits(smoke):
    document, _ = smoke
    workloads = document["workloads"]
    for name in ("scale_survey", "sealed_survey", "data_heavy", "multi_query"):
        assert workloads[name]["end_to_end"]["failed_share"]["median"] == 0.0, name
    for name, workload in workloads.items():
        reliable_calls = workload["per_layer"]["reliable.send_calls"]["value"]
        crypto_envelopes = workload["per_layer"]["crypto.envelopes"]["value"]
        assert (reliable_calls > 0) == (name == "lossy_open_loop"), name
        assert (crypto_envelopes > 0) == (name == "sealed_survey"), name


def test_self_times_add_up_to_the_root_span(smoke):
    _, out = smoke
    for workload in WORKLOADS:
        trace = json.loads((out / f"trace_{workload.name}.json").read_text())
        (root,) = [span for span in trace["spans"] if span["parent"] == 0]
        assert root["name"] == "root"
        self_total = sum(span["self_s"] for span in trace["spans"]) + sum(
            record["self_s"] for record in trace["aggregates"]
        )
        assert self_total == pytest.approx(root["end"] - root["start"], abs=1e-6)
        assert all(span["self_s"] >= -1e-9 for span in trace["spans"])


def test_benchmark_json_matches_the_code():
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["benchmarks/perf"]
    assert contract["command"] == ["python3", "benchmarks/perf/run.py"]
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalogue.END_TO_END if m.in_contract
    ]
    assert any(m["name"] == "setup_s" for m in contract["end_to_end"])
    assert max(m["bound"] for m in contract["end_to_end"]) <= 0.25
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == PER_LAYER_UNITS
    assert all(m["better"] in ("lower", "higher") for m in contract["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_mode_prints_the_contract_line(capsys, trace):
    code = run.main([
        "--workload", "multi_query", "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--smoke",
    ])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    expected = (
        set(PER_LAYER_UNITS) if trace
        else {m.name for m in catalogue.END_TO_END if m.in_contract}
    )
    assert set(line["metrics"]) == expected
    for entry in line["metrics"].values():
        assert set(entry) == {"value", "unit"}


def test_comparing_a_result_with_itself_is_all_same(smoke):
    document, out = smoke
    rows, mismatches = compare.compare(document, document)
    assert not mismatches
    assert {row["verdict"] for row in rows} <= {"same", "unresolved"}
    assert compare.main([str(out / "result.json"), str(out / "result.json")]) == 0


def _document(harness, names):
    workloads = {}
    for name in names:
        workload = by_name(name)
        workloads[name], _ = run.measure(harness, workload, workload.seed, True, repeats=2)
    return {"workloads": workloads}


def test_injected_slowdown_is_flagged_and_attributed(harness, monkeypatch):
    """ROADMAP item 1 acceptance: ~20 us on every ``add_link`` must show
    as a worse ``setup_s`` on scale_survey, sit in ``topology.build_s``
    in the trace, and leave every modelled metric untouched."""
    names = ("scale_survey", "multi_query")
    before = _document(harness, names)

    graph = harness.adapter.ContactGraph
    original = graph.add_link

    def slow_add_link(self, a, b, quality=None):
        until = perf_counter() + 20e-6
        while perf_counter() < until:
            pass
        return original(self, a, b, quality)

    monkeypatch.setattr(graph, "add_link", slow_add_link)
    after = _document(harness, names)  # children fork with the patch in place
    monkeypatch.undo()

    rows, mismatches = compare.compare(before, after)
    verdicts = {(row["workload"], row["metric"]): row for row in rows}
    assert not mismatches
    assert verdicts[("scale_survey", "setup_s")]["verdict"] == "worse"
    for row in rows:
        if row["kind"] == "modelled":
            assert row["verdict"] == "same" and row["change"] == 0.0, row

    def layer(document, metric):
        return document["workloads"]["scale_survey"]["per_layer"][metric]["value"]

    def median(document, metric):
        return document["workloads"]["scale_survey"]["end_to_end"][metric]["median"]

    setup_delta = median(after, "setup_s") - median(before, "setup_s")
    build_delta = layer(after, "topology.build_s") - layer(before, "topology.build_s")
    links = layer(after, "topology.links_added")
    assert links == layer(before, "topology.links_added")
    assert setup_delta > 0.5 * links * 20e-6
    assert build_delta > 0.7 * setup_delta
