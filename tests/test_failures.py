"""Tests for fault injection: scripted plans and the failure slider
resolved into plan atoms."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.network.failures import (
    CHECK_INTERVAL,
    FailureEvent,
    FailurePlan,
    GrayWindow,
    MessageFault,
    Partition,
    RegionalCrash,
    build_crash_plan,
)
from repro.network.faults import FaultSpec
from repro.network.opnet import NetworkConfig, OpportunisticNetwork
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph, LinkQuality


def _net():
    sim = Simulator()
    topology = ContactGraph(
        default_quality=LinkQuality(base_latency=0.1, latency_jitter=0.0)
    )
    network = OpportunisticNetwork(sim, topology, NetworkConfig(), seed=0)
    for device in ("a", "b", "c"):
        network.attach(device, lambda m: None)
    return sim, network


class TestFailurePlan:
    def test_scripted_crash(self):
        sim, net = _net()
        plan = FailurePlan().crash("a", at=5.0)
        log = plan.apply(sim, net)
        sim.run_until(4.9)
        assert not net.is_dead("a")
        sim.run_until(5.1)
        assert net.is_dead("a")
        assert [(e.device_id, e.kind) for e in log] == [("a", "crash")]

    def test_scripted_disconnect_window(self):
        sim, net = _net()
        plan = FailurePlan().disconnect("b", start=2.0, end=6.0)
        log = plan.apply(sim, net)
        sim.run_until(3.0)
        assert not net.is_online("b")
        sim.run_until(7.0)
        assert net.is_online("b")
        assert [e.kind for e in log] == ["disconnect", "reconnect"]

    def test_fluent_chaining(self):
        plan = FailurePlan().crash("a", 1.0).disconnect("b", 0.0, 2.0)
        assert "a" in plan.crashes
        assert "b" in plan.disconnections

    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            FailurePlan().disconnect("a", 5.0, 5.0)
        with pytest.raises(ValueError):
            FailurePlan().crash("a", -1.0)

    def test_crash_during_disconnect_wins(self):
        sim, net = _net()
        plan = FailurePlan().disconnect("a", 1.0, 10.0).crash("a", 5.0)
        plan.apply(sim, net)
        sim.run_until(20.0)
        assert net.is_dead("a")
        assert not net.is_online("a")

    def test_overlapping_windows_normalize_to_union(self):
        plan = (
            FailurePlan()
            .disconnect("a", 1.0, 5.0)
            .disconnect("a", 3.0, 8.0)   # overlaps the first
            .disconnect("a", 8.0, 9.0)   # touches the merged end
            .disconnect("a", 20.0, 25.0)  # disjoint
        )
        normalized = plan.normalized()
        assert normalized.disconnections["a"] == [(1.0, 9.0), (20.0, 25.0)]
        # the original plan is untouched
        assert len(plan.disconnections["a"]) == 4

    def test_overlapping_windows_apply_without_interleaved_toggles(self):
        sim, net = _net()
        plan = FailurePlan().disconnect("a", 2.0, 6.0).disconnect("a", 4.0, 9.0)
        log = plan.apply(sim, net)
        sim.run_until(20.0)
        # merged union [2, 9): exactly one disconnect and one reconnect,
        # never an early reconnect at 6.0 inside the second window
        assert [(e.time, e.kind) for e in log] == [
            (2.0, "disconnect"), (9.0, "reconnect"),
        ]
        assert net.is_online("a")

    def test_disconnect_after_crash_rejected(self):
        plan = FailurePlan().crash("a", 5.0)
        with pytest.raises(ValueError):
            plan.disconnect("a", 5.0, 10.0)
        with pytest.raises(ValueError):
            plan.disconnect("a", 7.0, 10.0)
        # before the crash is fine
        plan.disconnect("a", 1.0, 10.0)

    def test_crash_before_existing_window_rejected(self):
        plan = FailurePlan().disconnect("a", 5.0, 10.0)
        with pytest.raises(ValueError):
            plan.crash("a", 5.0)
        with pytest.raises(ValueError):
            plan.crash("a", 2.0)
        # crash after the window opened is the legitimate
        # crash-during-disconnect case
        plan.crash("a", 6.0)

    def test_validate_catches_hand_built_inconsistency(self):
        plan = FailurePlan()
        plan.crashes["a"] = 3.0
        plan.disconnections["a"] = [(4.0, 6.0)]  # bypassed the fluent API
        with pytest.raises(ValueError):
            plan.validate()
        with pytest.raises(ValueError):
            plan.apply(*_net())

    def test_serialization_round_trip(self):
        plan = (
            FailurePlan()
            .crash("a", 5.0)
            .disconnect("b", 1.0, 4.0)
            .disconnect("b", 6.0, 9.0)
        )
        clone = FailurePlan.from_dict(plan.to_dict())
        assert clone.crashes == plan.crashes
        assert clone.disconnections == {"b": [(1.0, 4.0), (6.0, 9.0)]}

    def test_apply_is_epoch_fenced_across_reset(self):
        # a reset network starts a fresh run: device atoms armed before
        # it must not fire on the new timeline, like topology atoms
        sim, net = _net()
        log = FailurePlan().crash("a", 5.0).disconnect("b", 2.0, 6.0).apply(sim, net)
        net.reset()
        sim.run()
        assert log == []
        assert not net.is_dead("a")
        assert net.is_online("b")

    def test_same_time_atoms_fire_in_kind_order(self):
        # the apply order is the tie-break: crashes, disconnect windows,
        # partitions, regional crashes, gray windows
        sim, net = _net()
        plan = FailurePlan(
            gray_windows=[GrayWindow(device_id="c", start=5.0, end=9.0)],
            regional_crashes=[RegionalCrash(at=5.0, region="r", devices=("a", "b"))],
            partitions=[Partition(start=5.0, end=9.0, islands=(("c",),))],
        )
        plan.crash("a", 5.0).disconnect("b", 5.0, 9.0)
        log = plan.apply(sim, net)
        sim.run()
        assert [(e.time, e.device_id, e.kind) for e in log] == [
            (5.0, "a", "crash"),
            (5.0, "b", "disconnect"),
            (5.0, "c", "partition_start"),
            (5.0, "b", "crash"),  # "a" is already dead: skipped
            (5.0, "c", "gray_start"),
            (9.0, "c", "partition_heal"),
            (9.0, "c", "gray_end"),
        ]

    def test_atoms_round_trip_every_kind(self):
        plan = FailurePlan(
            partitions=[Partition(start=1.0, end=2.0, islands=(("c",),))],
            regional_crashes=[RegionalCrash(at=3.0, region="r", devices=("b",))],
            gray_windows=[GrayWindow(device_id="c", start=4.0, end=5.0)],
        )
        plan.crash("a", 6.0).disconnect("a", 1.0, 2.0)
        atoms = plan.atoms()
        assert [atom[0] for atom in atoms] == [
            "crash", "disconnect", "partition", "region_crash", "gray",
        ]
        assert FailurePlan.from_atoms(atoms).to_dict() == plan.to_dict()
        with pytest.raises(ValueError):
            FailurePlan.from_atoms([("crash", "a", 1.0), ("disconnect", "a", 2.0, 3.0)])

    def test_message_fault_atoms_keep_their_order(self):
        spec = FaultSpec(kinds=("partial_result",), corrupt_probability=0.6)
        rules = [
            MessageFault(FaultSpec(drop_probability=0.1), start=5.0, end=9.0),
            MessageFault(spec),
        ]
        plan = FailurePlan(message_faults=list(rules)).crash("a", 3.0)
        assert not plan.is_empty() and not plan.has_outages()
        atoms = plan.atoms()
        assert atoms[1:] == [("message_fault", rule) for rule in rules]
        assert FailurePlan.from_atoms(atoms[::-1]).message_faults == rules[::-1]
        data = json.loads(json.dumps(plan.to_dict()))
        assert data["message_faults"][1]["end"] is None
        assert FailurePlan.from_dict(data).message_faults == rules
        assert plan.union(FailurePlan(message_faults=[rules[0]])).message_faults == [
            *rules, rules[0],
        ]

    @pytest.mark.parametrize(
        "payload, error",
        [
            ({"disconnections": {"a": [[5.0, 3.0]]}}, "need 0 <= start < end"),
            ({"disconnections": {"a": [[-1.0, 3.0]]}}, "need 0 <= start < end"),
            ({"crashes": {"a": -2.0}}, "crash time must be non-negative"),
            (
                {"crashes": {"a": 2.0}, "disconnections": {"a": [[4.0, 6.0]]}},
                "after it is dead",
            ),
            (
                {"partitions": [
                    {"start": 1.0, "end": 2.0, "islands": [["a"], ["a", "b"]]}
                ]},
                "two islands",
            ),
            (
                {"message_faults": [{"spec": {}, "start": 3.0, "end": 3.0}]},
                "need 0 <= start < end",
            ),
            ({"message_faults": [{"start": 0.0}]}, "'spec'"),
        ],
    )
    def test_loader_checks_every_atom(self, payload, error):
        with pytest.raises(ValueError, match=error):
            FailurePlan.from_dict(payload)

    def test_json_keys_are_the_union_of_both_old_shapes(self):
        assert list(FailurePlan().to_dict()) == [
            "crashes", "disconnections",
            "partitions", "regional_crashes", "gray_windows",
        ]
        # a plan written before topology atoms joined still loads
        legacy = FailurePlan.from_dict({"crashes": {"a": 1.0}, "disconnections": {}})
        assert legacy.crashes == {"a": 1.0} and not legacy.has_outages()

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"partitions": [{"start": 1.0, "islands": [["a"]]}]}, "'end'"),
            ({"crashes": {"a": "soon"}}, "'crashes'"),
            ({"gray_windows": [{"start": 1.0, "end": 2.0}]}, "'device_id'"),
            ([], "JSON object"),
        ],
    )
    def test_loader_errors_name_the_field(self, payload, field):
        with pytest.raises(ValueError, match=field):
            FailurePlan.from_dict(payload)


def _crash_plan(device_ids, plan=None, **options):
    options = {
        "crash_probability": 0.0,
        "disconnect_probability": 0.0,
        "disconnect_duration": 10.0,
        "start": 0.0,
        "until": 50.0,
        "seed": 0,
        **options,
    }
    return build_crash_plan(plan or FailurePlan(), device_ids, **options)


class TestFailureInjector:
    """The failure slider, which injects crashes and disconnects per
    processor per tick, resolved into plan atoms by
    ``build_crash_plan`` before the run."""

    def test_zero_probabilities_do_nothing(self):
        assert _crash_plan(["a", "b"]).is_empty()

    def test_certain_crash_kills_everyone(self):
        plan = _crash_plan(["a", "b"], crash_probability=1.0, start=3.0)
        assert plan.crashes == {"a": 4.0, "b": 4.0}
        sim, net = _net()
        sim.run_until(3.0)
        plan.apply(sim, net)
        sim.run_until(4.0)
        assert net.is_dead("a") and net.is_dead("b")

    def test_disconnect_then_reconnect(self):
        plan = _crash_plan(
            ["a"], disconnect_probability=1.0, disconnect_duration=3.0, until=1.0
        )
        assert plan.disconnections == {"a": [(1.0, 4.0)]}
        sim, net = _net()
        log = plan.apply(sim, net)
        sim.run_until(1.5)
        assert not net.is_online("a")
        sim.run_until(10.0)
        assert net.is_online("a")
        assert [(e.time, e.kind) for e in log] == [
            (1.0, "disconnect"), (4.0, "reconnect"),
        ]

    def test_crash_rate_statistics(self):
        devices = [f"d{i}" for i in range(300)]
        plan = _crash_plan(devices, crash_probability=0.1, seed=7, until=1.0)
        assert 10 < len(plan.crashes) < 60  # ~30 expected

    def test_parameter_validation(self):
        for options in (
            {"crash_probability": 1.5},
            {"disconnect_probability": -0.1},
            {"disconnect_duration": 0.0},
        ):
            with pytest.raises(ValueError):
                _crash_plan(["a"], **options)

    def test_dead_devices_not_reinjected(self):
        plan = _crash_plan(["a"], crash_probability=1.0, until=5.0)
        assert plan.crashes == {"a": 1.0} and not plan.disconnections
        # a device the plan already killed takes no draws: the other
        # devices see the stream they would see without it
        options = dict(crash_probability=0.3, disconnect_probability=0.3, seed=5)
        scripted = FailurePlan().crash("a", 1.0)
        with_dead = _crash_plan(["a", "b", "c"], scripted, **options)
        without = _crash_plan(["b", "c"], **options)
        assert with_dead.crashes == {"a": 1.0, **without.crashes}
        assert with_dead.disconnections == without.disconnections

    def test_offline_devices_take_no_disconnect_draw(self):
        # a scripted window over the first two ticks: the device's
        # disconnect draw is skipped there, its crash draw is not
        scripted = FailurePlan().disconnect("a", 0.5, 2.5)
        plan = _crash_plan(["a"], scripted, disconnect_probability=1.0, until=4.0)
        assert plan.disconnections == {"a": [(0.5, 2.5), (3.0, 13.0)]}
        # its own window covers the later ticks just the same
        plan = _crash_plan(
            ["a"], disconnect_probability=1.0, disconnect_duration=2.0, until=6.0
        )
        assert plan.disconnections == {"a": [(1.0, 3.0), (3.0, 5.0), (5.0, 7.0)]}

    def test_drawn_atoms_join_the_scripted_ones(self):
        scripted = (
            FailurePlan()
            .disconnect("a", 0.5, 1.5)
            .disconnect("b", 0.2, 0.8)
            .disconnect("b", 20.0, 30.0)
            .crash("b", 40.0)
        )
        plan = _crash_plan(
            ["a", "b"], scripted, crash_probability=1.0, start=1.0, until=1.0
        )
        # the earlier drawn crash replaces the scripted one, and drops
        # the scripted window that would open after it
        assert plan.crashes == {"b": 2.0, "a": 2.0}
        assert plan.disconnections == {"a": [(0.5, 1.5)], "b": [(0.2, 0.8)]}
        plan = _crash_plan(["b"], scripted, disconnect_probability=1.0, until=1.0)
        # a drawn window survives beside the device's scripted ones
        assert plan.disconnections["b"] == [(0.2, 0.8), (1.0, 11.0), (20.0, 30.0)]
        assert scripted.disconnections["b"] == [(0.2, 0.8), (20.0, 30.0)]

    def test_no_tick_after_until(self):
        plan = _crash_plan(
            ["a"], disconnect_probability=1.0, disconnect_duration=0.5,
            start=0.5, until=3.9,
        )
        assert [s for s, _e in plan.disconnections["a"]] == [1.5, 2.5, 3.5]
        # the first tick fires even past ``until``
        plan = _crash_plan(["a"], crash_probability=1.0, start=2.0, until=1.0)
        assert plan.crashes == {"a": 3.0}


class TestInjectorDeterminism:
    """Same seed ⇒ byte-identical atoms — the contract the chaos
    shrinker and repro artifacts depend on."""

    @staticmethod
    def _run_once(seed: int) -> bytes:
        devices = [f"d{i}" for i in range(40)]
        plan = _crash_plan(
            devices,
            crash_probability=0.02,
            disconnect_probability=0.05,
            disconnect_duration=3.0,
            until=30.0,
            seed=seed,
        )
        return json.dumps(plan.to_dict()).encode("utf-8")

    def test_same_seed_byte_identical_event_sequences(self):
        first = self._run_once(seed=42)
        assert first == self._run_once(seed=42)
        assert json.loads(first)["crashes"]  # the slider actually drew

    def test_different_seeds_diverge(self):
        assert self._run_once(seed=42) != self._run_once(seed=43)


def _old_tick_loop(sim, net, device_ids, log, *, crash_probability,
                   disconnect_probability, disconnect_duration, seed, until):
    """The clock-driven slider the resolver replaced: draws on the
    live network state every tick, appending to ``log``."""
    rng = random.Random(seed)

    def reconnect(device_id):
        if not net.is_dead(device_id):
            net.set_online(device_id, True)
            log.append(FailureEvent(sim.now, device_id, "reconnect"))

    def tick():
        for device_id in device_ids:
            if net.is_dead(device_id):
                continue
            if rng.random() < crash_probability:
                net.kill(device_id)
                log.append(FailureEvent(sim.now, device_id, "crash"))
                continue
            if net.is_online(device_id) and rng.random() < disconnect_probability:
                net.set_online(device_id, False)
                log.append(FailureEvent(sim.now, device_id, "disconnect"))
                sim.schedule(disconnect_duration, lambda d=device_id: reconnect(d))

    sim.every(CHECK_INTERVAL, tick, until=until)


def _timeline(log):
    """Each device's states over time, read from a log in firing
    order: its first crash and its offline intervals (ended by the
    crash; touching ones joined, empty ones dropped)."""
    crashed, since, offline = {}, {}, {}
    for event in log:
        device = event.device_id
        if device in crashed:
            continue
        if event.kind in ("crash", "reconnect") and device in since:
            offline.setdefault(device, []).append((since.pop(device), event.time))
        if event.kind == "crash":
            crashed[device] = event.time
        elif event.kind == "disconnect":
            since.setdefault(device, event.time)
    for device, start in since.items():
        offline.setdefault(device, []).append((start, float("inf")))
    joined = {}
    for device, intervals in offline.items():
        merged = []
        for start, end in sorted(i for i in intervals if i[0] < i[1]):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        if merged:
            joined[device] = merged
    return crashed, joined


_half = st.integers(0, 40).map(lambda k: k / 2)


@st.composite
def _slider_runs(draw):
    devices = [f"d{i}" for i in range(draw(st.integers(1, 6)))]
    start = draw(_half)
    plan = FailurePlan()
    # scripted windows open by the first tick: a scripted window opening
    # inside a drawn one is where the models part by design (the plan
    # installs their union; the old loop let either reconnect end both)
    for device in draw(st.lists(st.sampled_from(devices), max_size=3, unique=True)):
        opens = start + draw(st.sampled_from([0.0, 0.5, 1.0]))
        plan.disconnect(device, opens, opens + 0.5 + draw(_half))
    for device in draw(st.lists(st.sampled_from(devices), max_size=2, unique=True)):
        at = start + draw(_half)
        assume(all(s < at for s, _e in plan.disconnections.get(device, ())))
        plan.crash(device, at)
    if draw(st.booleans()):
        members = draw(st.lists(st.sampled_from(devices), min_size=1, unique=True))
        plan.regional_crashes.append(
            RegionalCrash(at=start + draw(_half), region="r", devices=tuple(members))
        )
    options = dict(
        crash_probability=draw(st.sampled_from([0.0, 0.05, 0.2, 1.0])),
        disconnect_probability=draw(st.sampled_from([0.0, 0.1, 0.4, 1.0])),
        disconnect_duration=draw(st.sampled_from([0.5, 1.0, 2.0, 3.5])),
        seed=draw(st.integers(0, 2**16)),
        until=start + draw(_half),
    )
    return devices, start, plan, options


class TestOneShotParity:
    @settings(max_examples=80, deadline=None)
    @given(_slider_runs())
    def test_resolved_plan_replays_the_old_tick_loop(self, run):
        devices, start, plan, options = run

        def network():
            sim = Simulator()
            net = OpportunisticNetwork(sim, ContactGraph(), NetworkConfig(), seed=0)
            for device in devices:
                net.attach(device, lambda m: None)
            sim.run_until(start)
            return sim, net

        sim, net = network()
        old = plan.apply(sim, net)
        _old_tick_loop(sim, net, devices, old, **options)
        sim.run()

        sim, net = network()
        resolved = build_crash_plan(plan, devices, start=start, **options)
        new = resolved.apply(sim, net)
        sim.run()
        assert _timeline(new) == _timeline(old)
