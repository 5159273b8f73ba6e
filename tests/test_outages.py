"""Tests for the topology-outage atoms and their seeded generator.

Covers the partition / regional-crash / gray-window atoms of
:class:`~repro.network.failures.FailurePlan` and the
:class:`~repro.network.outages.OutageSpec` that generates them
(round-trips, validation, deterministic generation), their scheduled
application onto a live opnet, the ddmin shrinker over those atoms,
and the fault-registry plumbing that routes a combined ``--fault-mix``
string by knob scope.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos.shrink import shrink_failure_plan
from repro.network.failures import FailurePlan, GrayWindow, Partition, RegionalCrash
from repro.network.messages import Message, MessageKind
from repro.network.opnet import NetworkConfig, OpportunisticNetwork
from repro.network.outages import (
    OutageSpec,
    assign_regions,
    build_outage_plan,
    fault_mix_help,
    parse_outage_mix,
    split_chaos_mix,
)
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph, LinkQuality


def _network(devices=("a", "b", "c", "d"), loss=0.0, seed=0):
    sim = Simulator()
    quality = LinkQuality(
        base_latency=0.1, latency_jitter=0.0, loss_probability=loss
    )
    topology = ContactGraph(default_quality=quality)
    for i, a in enumerate(devices):
        for b in devices[i + 1 :]:
            topology.add_link(a, b)
    network = OpportunisticNetwork(
        sim, topology, NetworkConfig(default_quality=quality), seed=seed
    )
    return sim, network


def _msg(sender, recipient, payload="x"):
    return Message(
        sender=sender,
        recipient=recipient,
        kind=MessageKind.CONTROL,
        payload=payload,
        size_bytes=64,
    )


class TestEventValidation:
    def test_partition_rejects_bad_windows_and_empty_islands(self):
        with pytest.raises(ValueError):
            Partition(start=5.0, end=5.0, islands=(("a",),))
        with pytest.raises(ValueError):
            Partition(start=-1.0, end=5.0, islands=(("a",),))
        with pytest.raises(ValueError):
            Partition(start=0.0, end=5.0, islands=())
        with pytest.raises(ValueError):
            Partition(start=0.0, end=5.0, islands=(("a",), ()))

    def test_regional_crash_rejects_empty_region(self):
        with pytest.raises(ValueError):
            RegionalCrash(at=-1.0, region="r", devices=("a",))
        with pytest.raises(ValueError):
            RegionalCrash(at=1.0, region="r", devices=())

    def test_gray_window_bounds(self):
        with pytest.raises(ValueError):
            GrayWindow(device_id="a", start=3.0, end=2.0)
        with pytest.raises(ValueError):
            GrayWindow(device_id="a", start=0.0, end=2.0, latency_factor=0.5)
        with pytest.raises(ValueError):
            GrayWindow(device_id="a", start=0.0, end=2.0, extra_loss=1.5)

    def test_plan_validate_rejects_overlapping_islands(self):
        plan = FailurePlan(
            partitions=[
                Partition(start=0.0, end=5.0, islands=(("a", "b"), ("b", "c")))
            ]
        )
        with pytest.raises(ValueError, match="two islands"):
            plan.validate()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            OutageSpec(regions=0)
        with pytest.raises(ValueError):
            OutageSpec(partition_probability=1.5)
        with pytest.raises(ValueError):
            OutageSpec(partition_duration=(0.0, 10.0))
        with pytest.raises(ValueError):
            OutageSpec(gray_duration=(10.0, 5.0))
        with pytest.raises(ValueError):
            OutageSpec(gray_latency_factor=0.9)


class TestSerialization:
    def _plan(self):
        return FailurePlan(
            partitions=[
                Partition(start=10.0, end=20.0, islands=(("b", "a"), ("c",)))
            ],
            regional_crashes=[
                RegionalCrash(at=15.0, region="region-1", devices=("d",))
            ],
            gray_windows=[
                GrayWindow(
                    device_id="c",
                    start=5.0,
                    end=30.0,
                    latency_factor=3.0,
                    extra_loss=0.4,
                )
            ],
        )

    def test_plan_round_trips_through_json(self):
        plan = self._plan()
        restored = FailurePlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert restored.to_dict() == plan.to_dict()

    def test_to_dict_is_normalized_and_deterministic(self):
        scrambled = FailurePlan(
            partitions=[
                Partition(start=30.0, end=40.0, islands=(("z",),)),
                Partition(start=10.0, end=20.0, islands=(("a",),)),
            ],
            gray_windows=[
                GrayWindow(device_id="b", start=8.0, end=9.0),
                GrayWindow(device_id="a", start=8.0, end=9.0),
            ],
        )
        data = scrambled.to_dict()
        assert [p["start"] for p in data["partitions"]] == [10.0, 30.0]
        assert [g["device_id"] for g in data["gray_windows"]] == ["a", "b"]

    def test_gray_defaults_survive_partial_dicts(self):
        restored = GrayWindow.from_dict(
            {"device_id": "a", "start": 1.0, "end": 2.0}
        )
        assert restored.latency_factor == 4.0
        assert restored.extra_loss == 0.3

    def test_spec_round_trips(self):
        spec = OutageSpec(
            regions=3,
            partition_probability=0.4,
            partition_duration=(5.0, 15.0),
            region_crash_probability=0.1,
            gray_probability=0.2,
            gray_latency_factor=6.0,
            gray_extra_loss=0.5,
            gray_duration=(2.0, 8.0),
        )
        assert OutageSpec.from_dict(spec.to_dict()) == spec

    def test_empty_and_devices_helpers(self):
        assert FailurePlan().is_empty()
        plan = self._plan()
        assert not plan.is_empty()


class TestApply:
    def test_partition_blocks_then_heals(self):
        sim, network = _network()
        got = []
        for device in ("a", "b", "c", "d"):
            network.attach(device, got.append)
        plan = FailurePlan(
            partitions=[Partition(start=10.0, end=20.0, islands=(("b",),))]
        )
        log = plan.apply(sim, network)

        sim.schedule_at(5.0, lambda: network.send(_msg("a", "b", "before")))
        sim.schedule_at(12.0, lambda: network.send(_msg("a", "b", "cut")))
        # islands also split from each other and from the mainland, but
        # mainland-internal traffic is untouched
        sim.schedule_at(12.0, lambda: network.send(_msg("c", "d", "mainland")))
        sim.schedule_at(25.0, lambda: network.send(_msg("a", "b", "healed")))
        sim.run()

        assert sorted(m.payload for m in got) == ["before", "healed", "mainland"]
        assert network.stats.partitioned == 1
        kinds = [(e.kind, e.device_id) for e in log]
        assert ("partition_start", "b") in kinds
        assert ("partition_heal", "b") in kinds

    def test_two_islands_are_mutually_cut(self):
        sim, network = _network()
        got = []
        for device in ("a", "b", "c", "d"):
            network.attach(device, got.append)
        plan = FailurePlan(
            partitions=[
                Partition(start=0.0, end=50.0, islands=(("a", "b"), ("c",)))
            ]
        )
        plan.apply(sim, network)
        sim.schedule_at(5.0, lambda: network.send(_msg("a", "b", "same-island")))
        sim.schedule_at(5.0, lambda: network.send(_msg("a", "c", "cross")))
        sim.schedule_at(5.0, lambda: network.send(_msg("a", "d", "to-mainland")))
        sim.run()
        assert [m.payload for m in got] == ["same-island"]
        assert network.stats.partitioned == 2

    def test_regional_crash_kills_every_member_once(self):
        sim, network = _network()
        for device in ("a", "b", "c", "d"):
            network.attach(device, lambda m: None)
        network.kill("b")  # already dead: the crash must skip it
        plan = FailurePlan(
            regional_crashes=[
                RegionalCrash(at=10.0, region="region-0", devices=("a", "b", "c"))
            ]
        )
        log = plan.apply(sim, network)
        sim.run()
        assert network.is_dead("a") and network.is_dead("c")
        assert not network.is_dead("d")
        crashed = sorted(e.device_id for e in log if e.kind == "crash")
        assert crashed == ["a", "c"]

    def test_gray_window_sets_and_clears(self):
        sim, network = _network()
        for device in ("a", "b", "c", "d"):
            network.attach(device, lambda m: None)
        plan = FailurePlan(
            gray_windows=[
                GrayWindow(
                    device_id="b",
                    start=5.0,
                    end=15.0,
                    latency_factor=2.0,
                    extra_loss=0.1,
                )
            ]
        )
        log = plan.apply(sim, network)
        states = {}
        sim.schedule_at(10.0, lambda: states.update(during=network.is_gray("b")))
        sim.schedule_at(20.0, lambda: states.update(after=network.is_gray("b")))
        sim.run()
        assert states == {"during": True, "after": False}
        assert [e.kind for e in log] == ["gray_start", "gray_end"]

    def test_gray_extra_loss_drops_on_the_dedicated_stream(self):
        sim, network = _network()
        got = []
        for device in ("a", "b", "c", "d"):
            network.attach(device, got.append)
        plan = FailurePlan(
            gray_windows=[
                GrayWindow(device_id="b", start=0.0, end=50.0, extra_loss=1.0)
            ]
        )
        plan.apply(sim, network)
        sim.schedule_at(5.0, lambda: network.send(_msg("a", "b", "doomed")))
        sim.schedule_at(5.0, lambda: network.send(_msg("a", "c", "fine")))
        sim.run()
        assert [m.payload for m in got] == ["fine"]
        assert network.stats.gray_lost == 1

    def test_gray_skips_dead_devices(self):
        sim, network = _network()
        network.attach("b", lambda m: None)
        network.kill("b")
        plan = FailurePlan(
            gray_windows=[GrayWindow(device_id="b", start=5.0, end=15.0)]
        )
        log = plan.apply(sim, network)
        sim.run()
        assert log == []
        assert not network.is_gray("b")

    def test_apply_is_epoch_fenced_across_reset(self):
        sim, network = _network()
        for device in ("a", "b", "c", "d"):
            network.attach(device, lambda m: None)
        plan = FailurePlan(
            regional_crashes=[
                RegionalCrash(at=10.0, region="region-0", devices=("a",))
            ]
        )
        log = plan.apply(sim, network)
        network.reset()  # bumps the epoch before the timer fires
        sim.run()
        assert log == []
        assert not network.is_dead("a")

    def test_event_log_is_live_and_shared(self):
        sim, network = _network()
        for device in ("a", "b", "c", "d"):
            network.attach(device, lambda m: None)
        plan = FailurePlan(
            partitions=[Partition(start=10.0, end=20.0, islands=(("b",),))]
        )
        log = plan.apply(sim, network)
        assert log == []  # nothing fired yet
        seen_mid_run = []
        sim.schedule_at(15.0, lambda: seen_mid_run.extend(log))
        sim.run()
        assert [e.kind for e in seen_mid_run] == ["partition_start"]
        assert [e.kind for e in log] == ["partition_start", "partition_heal"]


class TestGeneration:
    def test_assign_regions_round_robins_sorted_ids(self):
        groups = assign_regions(["d", "b", "a", "c"], regions=2)
        assert groups == {"region-0": ("a", "c"), "region-1": ("b", "d")}

    def test_assign_regions_drops_empty_groups(self):
        groups = assign_regions(["a"], regions=4)
        assert groups == {"region-0": ("a",)}

    def test_build_is_a_pure_function_of_its_arguments(self):
        spec = OutageSpec(
            regions=3,
            partition_probability=0.6,
            region_crash_probability=0.3,
            gray_probability=0.4,
        )
        devices = [f"dev-{i}" for i in range(12)]
        first = build_outage_plan(spec, devices, horizon=60.0, seed=7)
        second = build_outage_plan(spec, list(devices), horizon=60.0, seed=7)
        assert first.to_dict() == second.to_dict()
        assert not first.is_empty()
        shifted = build_outage_plan(spec, devices, horizon=60.0, seed=8)
        assert shifted.to_dict() != first.to_dict()

    def test_noop_spec_builds_an_empty_plan(self):
        spec = OutageSpec()
        assert spec.is_noop()
        plan = build_outage_plan(spec, ["a", "b"], horizon=60.0, seed=1)
        assert plan.is_empty()

    def test_certain_probabilities_cover_every_region_and_device(self):
        spec = OutageSpec(
            regions=2,
            partition_probability=1.0,
            region_crash_probability=1.0,
            gray_probability=1.0,
        )
        devices = [f"dev-{i}" for i in range(6)]
        plan = build_outage_plan(spec, devices, horizon=60.0, seed=3)
        assert len(plan.partitions) == 2
        assert len(plan.regional_crashes) == 2
        assert len(plan.gray_windows) == len(devices)
        # events stay inside the horizon
        for partition in plan.partitions:
            assert 0 <= partition.start < partition.end <= 60.0 + 30.0
        for crash in plan.regional_crashes:
            assert 0 <= crash.at <= 60.0

    def test_build_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            build_outage_plan(OutageSpec(), ["a"], horizon=0.0, seed=1)


class TestShrink:
    def test_shrinks_to_the_one_guilty_event(self):
        plan = FailurePlan(
            partitions=[
                Partition(start=10.0, end=20.0, islands=(("a",),)),
                Partition(start=30.0, end=40.0, islands=(("b",),)),
            ],
            regional_crashes=[
                RegionalCrash(at=5.0, region="region-0", devices=("c",))
            ],
            gray_windows=[GrayWindow(device_id="d", start=1.0, end=9.0)],
        )

        def reproduces(candidate: FailurePlan) -> bool:
            return any(
                "b" in island
                for partition in candidate.partitions
                for island in partition.islands
            )

        shrunk = shrink_failure_plan(plan, reproduces)
        assert len(shrunk.partitions) == 1
        assert shrunk.partitions[0].islands == (("b",),)
        assert not shrunk.regional_crashes
        assert not shrunk.gray_windows


class TestFaultMixRouting:
    def test_registry_lists_both_scopes(self):
        # the help lists both knob tables; each knob routes to its scope
        help_text = fault_mix_help()
        assert "message faults: " in help_text
        assert "topology outages: " in help_text
        assert "partition" in help_text and "drop" in help_text
        assert split_chaos_mix("drop=0.1") == ("drop=0.1", "")
        assert split_chaos_mix("partition=0.3,gray=0.2") == (
            "", "partition=0.3,gray=0.2"
        )

    def test_parse_outage_mix_full_knob_set(self):
        spec = parse_outage_mix(
            "regions=3,partition=0.4,partition_min=5,partition_max=15,"
            "region_crash=0.1,gray=0.2,gray_factor=6,gray_loss=0.5,"
            "gray_min=2,gray_max=8"
        )
        assert spec == OutageSpec(
            regions=3,
            partition_probability=0.4,
            partition_duration=(5.0, 15.0),
            region_crash_probability=0.1,
            gray_probability=0.2,
            gray_latency_factor=6.0,
            gray_extra_loss=0.5,
            gray_duration=(2.0, 8.0),
        )

    def test_parse_outage_mix_rejects_unknown_and_malformed(self):
        with pytest.raises(ValueError, match="unknown outage knob"):
            parse_outage_mix("warp=0.5")
        with pytest.raises(ValueError, match="name=value"):
            parse_outage_mix("partition")
        assert parse_outage_mix("") is None

    def test_split_routes_chunks_by_scope(self):
        message, outage = split_chaos_mix(
            "drop=0.05,duplicate=0.1;partition=0.3,gray=0.2"
        )
        assert message == "drop=0.05,duplicate=0.1"
        assert outage == "partition=0.3,gray=0.2"

    def test_split_kind_prefixed_chunks_are_always_message_scoped(self):
        # "partition:" here is a *message kind* prefix, not the outage knob
        message, outage = split_chaos_mix("partition:delay=0.2;gray=0.1")
        assert message == "partition:delay=0.2"
        assert outage == "gray=0.1"

    def test_split_merges_multiple_outage_chunks(self):
        message, outage = split_chaos_mix("partition=0.3;gray=0.2;drop=0.05")
        assert message == "drop=0.05"
        assert outage == "partition=0.3,gray=0.2"

    def test_split_rejects_mixed_scope_chunk(self):
        with pytest.raises(ValueError, match="mixes message knobs"):
            split_chaos_mix("drop=0.05,partition=0.3")
