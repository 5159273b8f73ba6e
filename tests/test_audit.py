"""Tests for the tamper-evident crowd-liability audit ledger."""

from __future__ import annotations

import dataclasses

import pytest

from repro.crypto.primitives import generate_keypair
from repro.manager.audit import AuditLedger, GENESIS_DIGEST, LedgerError


def _ledger_with(records: int = 3) -> AuditLedger:
    ledger = AuditLedger()
    keypair = generate_keypair(b"auditor")
    for i in range(records):
        ledger.append(keypair, "q1", f"op{i}", "snapshot", 10 * i, float(i))
    return ledger


class TestLedgerBasics:
    def test_empty_head_is_genesis(self):
        assert AuditLedger().head_digest() == GENESIS_DIGEST

    def test_append_chains(self):
        ledger = _ledger_with(3)
        records = ledger.records
        assert records[0].prev_digest == GENESIS_DIGEST
        assert records[1].prev_digest == records[0].digest()
        assert records[2].prev_digest == records[1].digest()

    def test_sequence_numbers(self):
        ledger = _ledger_with(4)
        assert [r.sequence for r in ledger.records] == [0, 1, 2, 3]

    def test_negative_tuple_count_rejected(self):
        ledger = AuditLedger()
        with pytest.raises(LedgerError):
            ledger.append(generate_keypair(b"x"), "q", "op", "snapshot", -1, 0.0)

    def test_verify_clean_ledger(self):
        _ledger_with(5).verify()

    def test_for_query_filters(self):
        ledger = AuditLedger()
        keypair = generate_keypair(b"k")
        ledger.append(keypair, "q1", "op", "snapshot", 1, 0.0)
        ledger.append(keypair, "q2", "op", "snapshot", 1, 1.0)
        assert len(ledger.for_query("q1")) == 1


class TestTamperDetection:
    def test_modified_count_detected(self):
        ledger = _ledger_with(3)
        forged = dataclasses.replace(ledger.records[1], tuple_count=0)
        ledger._records[1] = forged
        with pytest.raises(LedgerError):
            ledger.verify()

    def test_reordered_records_detected(self):
        ledger = _ledger_with(3)
        ledger._records[0], ledger._records[1] = ledger._records[1], ledger._records[0]
        with pytest.raises(LedgerError):
            ledger.verify()

    def test_dropped_record_detected(self):
        ledger = _ledger_with(3)
        del ledger._records[1]
        with pytest.raises(LedgerError):
            ledger.verify()

    def test_wrong_signer_detected(self):
        ledger = _ledger_with(2)
        impostor = generate_keypair(b"impostor")
        forged = dataclasses.replace(
            ledger.records[1], public_key=impostor.public
        )
        ledger._records[1] = forged
        with pytest.raises(LedgerError):
            ledger.verify()

    def test_fingerprint_key_mismatch_detected(self):
        ledger = _ledger_with(2)
        forged = dataclasses.replace(ledger.records[1], device="0" * 16)
        ledger._records[1] = forged
        with pytest.raises(LedgerError):
            ledger.verify()


class TestLiabilityFromLedger:
    def test_tallies(self):
        ledger = AuditLedger()
        alice = generate_keypair(b"alice")
        bob = generate_keypair(b"bob")
        ledger.append(alice, "q", "builder[0]", "snapshot", 100, 0.0)
        ledger.append(bob, "q", "computer[0]", "partial", 100, 1.0)
        ledger.append(bob, "q", "combiner", "combine", 0, 2.0)
        tallies = ledger.liability_by_device()
        assert tallies[alice.fingerprint()] == {"actions": 1, "tuples": 100}
        assert tallies[bob.fingerprint()] == {"actions": 2, "tuples": 100}


class TestExecutorIntegration:
    def test_execution_writes_verifiable_ledger(self):
        from repro.core.planner import PrivacyParameters, QuerySpec
        from repro.data.health import HEALTH_SCHEMA, generate_health_rows
        from repro.manager.scenario import Scenario, ScenarioConfig
        from repro.query.sql import parse_query
        from repro.core.assignment import assign_operators
        from repro.core.runtime import ExecutionCoordinator
        from repro.core.planner import EdgeletPlanner
        from repro.core.qep import OperatorRole
        from repro.devices.edgelet import Edgelet
        from repro.devices.profiles import PC_SGX
        from repro.network.opnet import NetworkConfig, OpportunisticNetwork
        from repro.network.simulator import Simulator
        from repro.network.topology import ContactGraph, LinkQuality

        simulator = Simulator()
        quality = LinkQuality(base_latency=0.05, latency_jitter=0.0)
        topology = ContactGraph(default_quality=quality)
        network = OpportunisticNetwork(
            simulator, topology,
            NetworkConfig(allow_relay=False, default_quality=quality), seed=1,
        )
        rows = generate_health_rows(40, seed=8)
        contributors = []
        for i in range(20):
            device = Edgelet(PC_SGX, device_id=f"au-c{i:02d}", seed=f"auc{i}".encode())
            device.datastore.insert_many(rows[2 * i: 2 * i + 2])
            contributors.append(device)
        processors = [
            Edgelet(PC_SGX, device_id=f"au-p{i:02d}", seed=f"aup{i}".encode())
            for i in range(10)
        ]
        querier = Edgelet(PC_SGX, device_id="au-q", seed=b"auq")
        devices = {d.device_id: d for d in [*contributors, *processors, querier]}
        for device_id in devices:
            topology.add_device(device_id)

        parsed = parse_query("SELECT count(*) FROM health GROUP BY region")
        spec = QuerySpec(
            query_id="audited", kind="aggregate",
            snapshot_cardinality=80, group_by=parsed.query,
        )
        planner = EdgeletPlanner(privacy=PrivacyParameters(max_raw_per_edgelet=50))
        plan = planner.plan(spec, contributor_ids=[d.device_id for d in contributors])
        assign_operators(plan, [d.device_id for d in processors], exclusive=False)
        plan.operators(OperatorRole.QUERIER)[0].assigned_to = querier.device_id

        ledger = AuditLedger()
        report = ExecutionCoordinator(
            simulator, network, devices, plan,
            collection_window=10.0, deadline=40.0, secure_channels=False,
            audit_ledger=ledger,
        ).run()
        assert report.success
        assert len(ledger) >= 4  # snapshot(s) + partial(s) + combine + deliver
        ledger.verify()
        actions = {record.action for record in ledger.records}
        assert {"snapshot", "partial", "combine", "deliver"} <= actions
        # raw tuples appear only at builders/computers, never at combine
        for record in ledger.records:
            if record.action in ("combine", "deliver"):
                assert record.tuple_count == 0

    def test_backup_execution_writes_verifiable_ledger(self):
        from repro.core.runtime import ExecutionCoordinator

        from tests.test_backup_execution import _backup_plan, _swarm

        sim, net, devices, contribs, procs, querier, rows = _swarm()
        plan, _ = _backup_plan(contribs, procs, querier, rows, replicas=1)
        victim = plan.operator("builder[0]").assigned_to
        ledger = AuditLedger()
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=15.0, deadline=80.0, secure_channels=False,
            audit_ledger=ledger,
        )
        sim.schedule(1.0, lambda: net.kill(victim))
        report = executor.run()
        assert report.success
        ledger.verify()
        def tuples(action):
            return {
                record.op_id: record.tuple_count
                for record in ledger.records if record.action == action
            }

        # the replica that took over the dead primary's partition is the
        # one that answers for it; every row is accounted for exactly once
        snapshots = tuples("snapshot")
        assert set(snapshots) == {"builder[0].b1", "builder[1]"}
        buckets = executor.builder.buckets
        assert snapshots == {
            "builder[0].b1": len(buckets["builder[0].b1"]),
            "builder[1]": len(buckets["builder[1]"]),
        }
        assert sum(snapshots.values()) == len(rows)
        assert tuples("partial") == {
            "computer[0,g0]": snapshots["builder[0].b1"],
            "computer[1,g0]": snapshots["builder[1]"],
        }
        actions = {record.action for record in ledger.records}
        assert {"snapshot", "partial", "combine", "deliver"} <= actions
