"""Pins for the two resiliency strategies as one replica model.

Overcollection spends partitions (``n + m``), Backup spends devices
(``replicas + 1`` ranks per operator); both build and run the same
Fig. 2 operators.  The literals below were computed before the two plan
builders, the two contribution intakes and the two fold-and-send paths
were folded into one, and must not move:

* the golden JSON of every plan over {aggregate, k-means} x
  {overcollection, backup r=1, backup r=2} x {packed, separated pairs} x
  {named contributors, placeholder count} — operator ids, params with
  their key order, edges in order, metadata;
* report fingerprints of three Backup executions: a plain one-shot run,
  a reliable run with crashes, takeovers and starved cells the watchdog
  reprovisions above the replica ranks, and a chaos-free mixed-strategy
  workload.  These three were re-pinned once, when Backup's rank 0
  moved onto the primary path every plan's rank 0 runs: builders ship
  ``compute_latency`` after the end of collection instead of at it, and
  computers check liveness at send instead of before they fold.  The
  crashing run was re-pinned again when replica cells began to
  reprovision: its two starved cells, once left to the replica chain,
  now go to standbys at generation 2, and the two computer takeovers
  stand down.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.chaos.campaign import RunSpec, run_single
from repro.core.planner import (
    EdgeletPlanner,
    PrivacyParameters,
    QuerySpec,
    ResiliencyParameters,
)
from repro.core.resiliency import replicas_for, strategy_name
from repro.core.runtime.events import EventKind, of_kind
from repro.query.sql import parse_query
from repro.telemetry import Telemetry
from repro.workload import WorkloadEngine, WorkloadSpec
from repro.workload.fingerprint import report_fingerprint
from tests.evidence_logs import takeovers

SQL = (
    "SELECT count(*), avg(age), sum(bmi), max(glucose) FROM health "
    "GROUP BY GROUPING SETS ((region), ())"
)

STRATEGIES = {
    "overcollection": dict(replicas=replicas_for("overcollection")),
    "backup-r1": dict(replicas=replicas_for("backup", 1)),
    "backup-r2": dict(replicas=replicas_for("backup", 2)),
}

SEPARATED = {
    "aggregate": {"packed": (), "separated": (("age", "bmi"), ("bmi", "glucose"))},
    # k-means needs every feature together; a pair outside them is legal
    "kmeans": {"packed": (), "separated": (("age", "bmi"),)},
}

PLAN_SHA256 = {
    ("aggregate", "overcollection", "packed", "ids"): "4f88689783e97f1f223ebc79fb9d393d774236174b22e103a5d32003e008b817",
    ("aggregate", "overcollection", "packed", "count"): "ebdfa5796a8a4908ed49022bbd2a229ba35f33c29d8009ad5ef59b069978c8a7",
    ("aggregate", "overcollection", "separated", "ids"): "1b0db0e536c920b483864a0a5193c0f0a523de9d4b46dc8becdc5126857d220a",
    ("aggregate", "overcollection", "separated", "count"): "15fcbd246dcbe1ee5484f7700c32d75fa02c3dcf7934bafb1c13f2904e602ed3",
    ("aggregate", "backup-r1", "packed", "ids"): "3c79c1d8df6ac9b5fd873bf3f13dc799ace2ba5e92d587df622a2cda903d117b",
    ("aggregate", "backup-r1", "packed", "count"): "ed4fe045bcb4162327e2c81bef2d6f5481c7f5478e50ef2b44f061b504488a77",
    ("aggregate", "backup-r1", "separated", "ids"): "21afeeb42f7e643c1fc57e8b6a7525635c6e343378a6a16f549fff7fcb2aff7f",
    ("aggregate", "backup-r1", "separated", "count"): "4477597868d3271a7fcbf17595815f432f11dee13b53c32ec13637f0066ae68f",
    ("aggregate", "backup-r2", "packed", "ids"): "4548e4363e2bb27106f53ce3b34eeb165e27a8c7090a9edb563626fe5492091d",
    ("aggregate", "backup-r2", "packed", "count"): "b893a7b790c1aff1566f54fbc24b1e96b08981d0d27107e1609ff77e61f4465d",
    ("aggregate", "backup-r2", "separated", "ids"): "5d4448c106fd31877ca7b0a609479ad63228a71393da409065ae795a5cd8ed21",
    ("aggregate", "backup-r2", "separated", "count"): "f8486cb81023bdb0713ffc983b50ac5f1b8d290a6772746a63783288f798e1aa",
    ("kmeans", "overcollection", "packed", "ids"): "cb3ef884c2e011ad5a8ff7f8079450347c050797505a0c23156a54b30d39ac14",
    ("kmeans", "overcollection", "packed", "count"): "5b52f4b5481cfee6199158c55918b0ddd6a1eed44684d373dc81aeced28621b4",
    ("kmeans", "overcollection", "separated", "ids"): "cb3ef884c2e011ad5a8ff7f8079450347c050797505a0c23156a54b30d39ac14",
    ("kmeans", "overcollection", "separated", "count"): "5b52f4b5481cfee6199158c55918b0ddd6a1eed44684d373dc81aeced28621b4",
    ("kmeans", "backup-r1", "packed", "ids"): "6fad5436691dc249b24865052500bfa66e61ea11928fe51f37889083d242e12b",
    ("kmeans", "backup-r1", "packed", "count"): "0a6608e80dfc855033915d0c1625b32d0d910e1fce6632de098134973fc3d105",
    ("kmeans", "backup-r1", "separated", "ids"): "6fad5436691dc249b24865052500bfa66e61ea11928fe51f37889083d242e12b",
    ("kmeans", "backup-r1", "separated", "count"): "0a6608e80dfc855033915d0c1625b32d0d910e1fce6632de098134973fc3d105",
    ("kmeans", "backup-r2", "packed", "ids"): "e8cac25a5a768ea2d35b6d5633cbc0268b73030370ca3f94943fd9de8fd7cc59",
    ("kmeans", "backup-r2", "packed", "count"): "47c08ee75ad631aa0f71282ffc705114db295fa8c125c43ef69e40f4bff992f0",
    ("kmeans", "backup-r2", "separated", "ids"): "e8cac25a5a768ea2d35b6d5633cbc0268b73030370ca3f94943fd9de8fd7cc59",
    ("kmeans", "backup-r2", "separated", "count"): "47c08ee75ad631aa0f71282ffc705114db295fa8c125c43ef69e40f4bff992f0",
}


def _spec(kind: str) -> QuerySpec:
    if kind == "aggregate":
        return QuerySpec(
            query_id="pin-agg", kind="aggregate", snapshot_cardinality=90,
            group_by=parse_query(SQL).query,
        )
    return QuerySpec(
        query_id="pin-km", kind="kmeans", snapshot_cardinality=90,
        kmeans_k=2, feature_columns=("bmi", "glucose"), heartbeats=3,
    )


@pytest.mark.parametrize("key", sorted(PLAN_SHA256), ids="-".join)
def test_plan_json_is_pinned(key):
    kind, strategy, separation, source = key
    planner = EdgeletPlanner(
        PrivacyParameters(
            max_raw_per_edgelet=30,
            separated_pairs=SEPARATED[kind][separation],
        ),
        ResiliencyParameters(fault_rate=0.1, **STRATEGIES[strategy]),
    )
    if source == "ids":
        plan = planner.plan(
            _spec(kind), contributor_ids=[f"pin-c{i:02d}" for i in range(12)]
        )
    else:
        plan = planner.plan(_spec(kind), n_contributors=12)
    # no sort_keys: the params' and metadata's key order is pinned too
    document = json.dumps(plan.to_dict())
    assert hashlib.sha256(document.encode()).hexdigest() == PLAN_SHA256[key]


def _fingerprint(result) -> str:
    return report_fingerprint(result.report, base_time=result.executor.start_time)


class TestBackupExecutionPins:
    def test_plain_one_shot(self):
        outcome = run_single(
            RunSpec(seed=5, tag="pin-bk-plain", replicas=replicas_for("backup"))
        )
        assert outcome.ok
        assert _fingerprint(outcome.result) == (
            "f7adca1aee83d45c9872806507b69a4a3b0ff6b608bb01e4f513ec508361eb49"
        )
        assert [
            (base, rank) for _, base, rank in takeovers(outcome.result.evidence)
        ] == [("builder[1]", 1), ("computer[6,g0]", 1)]

    def test_reliable_crashing_run_reprovisions_starved_replica_cells(self):
        outcome = run_single(
            RunSpec(
                seed=0, tag="pin-bk", replicas=replicas_for("backup"),
                reliability=True, crash_probability=0.004,
            )
        )
        result = outcome.result
        assert outcome.ok and result.report.success
        assert _fingerprint(result) == (
            "337e1389906ecb4efbbb712fed5f9b596b55c74b6e3588641cc9674485f447fa"
        )
        assert len(takeovers(result.evidence)) == 2
        assert not of_kind(result.report.events, EventKind.NO_RETAINED_PARTITION)
        assert [
            (op, new) for _, op, _old, new in result.report.reprovisions
        ] == [
            ("computer[1,g0]", "pin-bk-proc-00001"),
            ("computer[5,g0]", "pin-bk-proc-00002"),
        ]
        # the minted token outranks the replica rank (1)
        assert result.executor.ctx.generations == {(1, 0): 2, (5, 0): 2}

    def test_chaos_free_mixed_strategy_workload(self):
        engine = WorkloadEngine(
            WorkloadSpec(
                n_queries=8, arrival_process="poisson", arrival_rate=0.5,
                max_concurrent=4, queue_capacity=8, backup_fraction=0.5,
                seed=1,
            ),
            n_contributors=24,
            n_processors=40,
            telemetry=Telemetry(),
        )
        strategies = [
            strategy_name(arrival.replicas) for arrival in engine.spec.arrivals()
        ]
        assert strategies.count("backup") == 6
        fingerprints = engine.run().fingerprints()
        assert len(fingerprints) == 8
        document = "\n".join(f"{k}:{v}" for k, v in sorted(fingerprints.items()))
        assert hashlib.sha256(document.encode()).hexdigest()[:16] == "d0e5421c4346f197"
