"""Tests for the standing-query engine.

The acceptance bar from the issue: a seeded 20-window standing query
over a churning swarm replays to byte-identical per-window lineage
fingerprints, and a run with a *no-op* churn model is byte-identical to
a run with no churn model at all (the epoch-fence/private-stream
design makes zero-rate churn zero-observable).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.continuous import (
    ContinuousEngine,
    ContinuousResult,
    StandingQuerySpec,
)
from repro.devices.churn import ChurnSpec
from repro.telemetry import Telemetry


def _run(spec: StandingQuerySpec, churn: ChurnSpec | None = None, **kwargs):
    kwargs.setdefault("n_contributors", 20)
    kwargs.setdefault("n_processors", 40)
    kwargs.setdefault("telemetry", Telemetry())
    engine = ContinuousEngine(spec, churn=churn, **kwargs)
    return engine, engine.run()


class TestSpec:
    def test_window_ids_and_seeds_are_pure(self):
        spec = StandingQuerySpec(seed=5)
        assert spec.window_id(3) == "cont5-w003"
        assert spec.window_seed(3) == StandingQuerySpec(seed=5).window_seed(3)
        assert spec.window_seed(3) != spec.window_seed(4)

    def test_fire_times(self):
        spec = StandingQuerySpec(cadence=10.0, max_windows=3)
        assert spec.fire_times(100.0) == [100.0, 110.0, 120.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            StandingQuerySpec(max_windows=0)
        with pytest.raises(ValueError):
            StandingQuerySpec(window="hopping")
        with pytest.raises(ValueError):
            StandingQuerySpec(cadence=2.0, collection_window=5.0)
        with pytest.raises(ValueError):
            StandingQuerySpec(deadline=4.0, collection_window=5.0)


class TestCleanRun:
    def test_every_window_completes(self):
        spec = StandingQuerySpec(max_windows=5, seed=2)
        _, result = _run(spec)
        assert result.completed == 5
        assert result.succeeded == 5
        assert result.skipped == 0 and result.empty == 0
        assert len(result.fingerprints()) == 5

    def test_population_lineage_is_stable_without_churn(self):
        spec = StandingQuerySpec(max_windows=4, seed=2)
        _, result = _run(spec)
        hashes = {w.population_hash for w in result.windows}
        assert len(hashes) == 1
        assert all(w.overlap_with_previous == 1.0 for w in result.windows)

    def test_incremental_stamps_after_first_window(self):
        spec = StandingQuerySpec(max_windows=4, seed=2)
        _, result = _run(spec)
        first, *rest = result.windows
        assert first.incremental["stamped"] == 0
        assert first.incremental["full"] > 0
        for window in rest:
            # frozen population + sticky placement: all-stamp windows
            assert window.incremental["full"] == 0
            assert window.incremental["stamped"] == first.incremental["full"]
            assert window.incremental["bytes_saved"] > 0

    def test_full_recollection_mode_never_stamps(self):
        spec = StandingQuerySpec(max_windows=3, seed=2, incremental=False)
        _, result = _run(spec)
        assert all(w.incremental == {} for w in result.windows)

    def test_incremental_matches_full_recollection_results(self):
        # latency depends on message size, so fingerprints legitimately
        # differ between the two modes — the *results* must not
        inc_spec = StandingQuerySpec(max_windows=4, seed=6)
        full_spec = StandingQuerySpec(max_windows=4, seed=6, incremental=False)
        _, inc = _run(inc_spec)
        _, full = _run(full_spec)
        for a, b in zip(inc.windows, full.windows):
            assert a.report.success and b.report.success
            assert a.report.result.per_set_rows == b.report.result.per_set_rows


class TestReplayDeterminism:
    CHURN = dict(
        departure_probability=0.10,
        data_change_probability=0.25,
        seed=13,
    )

    def test_twenty_window_churning_replay_is_byte_identical(self):
        spec = StandingQuerySpec(max_windows=20, seed=13)
        _, first = _run(spec, ChurnSpec(**self.CHURN))
        _, second = _run(spec, ChurnSpec(**self.CHURN))
        assert first.completed == 20
        prints_a = first.fingerprints()
        prints_b = second.fingerprints()
        assert len(prints_a) == 20
        assert prints_a == prints_b
        for a, b in zip(first.windows, second.windows):
            assert a.population_hash == b.population_hash
            assert a.overlap_with_previous == b.overlap_with_previous

    def test_noop_churn_is_byte_identical_to_no_churn(self):
        spec = StandingQuerySpec(max_windows=6, seed=4)
        _, without = _run(spec, churn=None)
        _, noop = _run(spec, churn=ChurnSpec(seed=99))
        assert without.fingerprints() == noop.fingerprints()
        assert without.summary() == noop.summary()

    def test_seeds_change_the_run(self):
        churn = ChurnSpec(departure_probability=0.2, seed=1)
        _, a = _run(StandingQuerySpec(max_windows=6, seed=1), churn)
        churn2 = ChurnSpec(departure_probability=0.2, seed=2)
        _, b = _run(StandingQuerySpec(max_windows=6, seed=1), churn2)
        assert a.fingerprints() != b.fingerprints()


class TestChurningRun:
    def test_population_evolves_and_windows_complete(self):
        spec = StandingQuerySpec(max_windows=10, seed=3)
        churn = ChurnSpec(
            departure_probability=0.15, data_change_probability=0.2, seed=3
        )
        engine, result = _run(spec, churn)
        assert result.completed + result.skipped + result.empty == 10
        hashes = {w.population_hash for w in result.windows}
        assert len(hashes) > 1  # the population actually moved
        assert any(w.overlap_with_previous < 1.0 for w in result.windows)
        # departures are permanent: nothing re-enters a later population
        for earlier, later in zip(result.windows, result.windows[1:]):
            gone = set(earlier.population) - set(later.population)
            for window in result.windows[later.index:]:
                assert not gone & set(window.population)

    def test_departed_devices_never_hold_leases(self):
        spec = StandingQuerySpec(max_windows=10, seed=3)
        churn = ChurnSpec(departure_probability=0.2, seed=3)
        engine, result = _run(spec, churn)
        for device_id in engine.registry.retired:
            assert engine.registry.holder(device_id) is None
        for window in result.windows:
            if window.outcome != "completed":
                continue
            retired_at_leasing = {
                d
                for d in window.leased
                if engine.scenario.network.has_departed(d)
            }
            # a leased device may depart *later*; it must then be on the
            # registry's retired list, reclaimed, or the window flagged
            for device_id in retired_at_leasing:
                assert device_id in engine.registry.retired

    def test_churn_invalidation_forces_recollection(self):
        spec = StandingQuerySpec(max_windows=8, seed=9)
        churn = ChurnSpec(
            departure_probability=0.15, data_change_probability=0.3, seed=9
        )
        _, result = _run(spec, churn)
        later = [w for w in result.windows[1:] if w.outcome == "completed"]
        assert any(w.incremental.get("full", 0) > 0 for w in later)
        assert any(w.incremental.get("stamped", 0) > 0 for w in later)


class TestSlidingWindows:
    def test_sliding_window_goes_empty_without_data_changes(self):
        # no churn at all: once the initial data ages past the freshness
        # horizon (one cadence, boundary-inclusive) a sliding standing
        # query runs out of eligible contributors
        spec = StandingQuerySpec(max_windows=4, seed=5, window="sliding")
        _, result = _run(spec)
        assert result.windows[0].outcome == "completed"
        assert result.windows[1].outcome == "completed"
        assert all(w.outcome == "empty" for w in result.windows[2:])

    def test_sliding_window_follows_data_changes(self):
        spec = StandingQuerySpec(max_windows=6, seed=5, window="sliding")
        churn = ChurnSpec(data_change_probability=0.5, seed=5)
        _, result = _run(spec, churn)
        completed = [w for w in result.windows[2:] if w.outcome == "completed"]
        assert completed
        full_population = len(result.windows[0].eligible)
        for window in completed:
            assert 0 < len(window.eligible) < full_population

    def test_sliding_snapshot_covers_only_eligible(self):
        spec = StandingQuerySpec(max_windows=6, seed=5, window="sliding")
        churn = ChurnSpec(data_change_probability=0.4, seed=5)
        engine, result = _run(spec, churn)
        for window in result.windows:
            if window.outcome != "completed":
                continue
            # every snapshot row must have come from an eligible device;
            # the post-run store sizes bound what any window could ship
            cap = sum(
                len(engine.scenario.devices[d].contribute())
                for d in window.eligible
            )
            assert len(window.rows) <= cap


class TestAdmission:
    def test_overlapping_windows_skip_past_the_cap(self):
        # cadence shorter than the deadline with a cap of 1: while one
        # window is still in flight the next fires and must be skipped
        spec = StandingQuerySpec(
            max_windows=6,
            cadence=6.0,
            collection_window=5.0,
            deadline=11.0,
            max_concurrent_windows=1,
            seed=8,
        )
        _, result = _run(spec)
        assert result.skipped > 0
        assert result.completed > 0
        assert result.completed + result.skipped + result.empty == 6

    def test_conservation_identity(self):
        spec = StandingQuerySpec(max_windows=8, seed=8)
        churn = ChurnSpec(departure_probability=0.2, seed=8)
        engine, result = _run(spec, churn)
        assert result.completed + result.skipped + result.empty == 8
        offered = engine.admission.arrivals
        assert engine.admission.completed + engine.admission.shed == offered


def _digest(mapping: dict) -> str:
    document = "\n".join(f"{k}:{v}" for k, v in sorted(mapping.items()))
    return hashlib.sha256(document.encode()).hexdigest()[:16]


class TestConcludedWindows:
    """A concluded window keeps its report, evidence and lineage, and
    its execution and plan are freed by reference counting alone once
    its coverage is read.  What the run reports is unchanged (pinned)."""

    def test_no_concluded_execution_stays_reachable(self, launched_executors):
        spec = StandingQuerySpec(max_windows=6, seed=9, reliability=True)
        _, result = _run(
            spec,
            ChurnSpec(
                departure_probability=0.1, data_change_probability=0.2, seed=9
            ),
            standby_count=1,
            detector=True,
        )
        assert result.completed == len(launched_executors) == 6
        assert launched_executors.plans_alive() == 0
        assert launched_executors.alive() == 0
        assert all(
            window.result is None and window.coverage is not None
            for window in result.windows
        )
        liability = result.liability
        assert (
            len(liability.operators_per_device),
            liability.gini_operators,
            liability.max_share,
            _digest(liability.operators_per_device),
            _digest(result.fingerprints()),
        ) == (
            15,
            0.17407407407407405,
            0.08333333333333333,
            "1bdb1b1f8915c496",
            "80c0a2e64a780225",
        )
