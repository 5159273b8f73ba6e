"""Tests for workload descriptions and arrival generation."""

from __future__ import annotations

import pytest

from repro.workload.spec import ARRIVAL_PROCESSES, WorkloadSpec


class TestValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            WorkloadSpec(n_queries=0)
        with pytest.raises(ValueError):
            WorkloadSpec(n_queries=1, arrival_rate=0)
        with pytest.raises(ValueError):
            WorkloadSpec(n_queries=1, max_concurrent=0)
        with pytest.raises(ValueError):
            WorkloadSpec(n_queries=1, queue_capacity=-1)
        with pytest.raises(ValueError):
            WorkloadSpec(n_queries=1, target_in_flight=0)

    def test_rejects_unknown_process(self):
        with pytest.raises(ValueError):
            WorkloadSpec(n_queries=1, arrival_process="adversarial")

    def test_rejects_bad_mix_and_deadlines(self):
        with pytest.raises(ValueError):
            WorkloadSpec(n_queries=1, backup_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadSpec(n_queries=1, collection_window=10.0, deadline=5.0)


class TestArrivals:
    def test_same_spec_same_sequence(self):
        spec = WorkloadSpec(n_queries=20, seed=7)
        assert spec.arrivals() == spec.arrivals()

    def test_different_seed_different_sequence(self):
        a = WorkloadSpec(n_queries=20, seed=7).arrivals()
        b = WorkloadSpec(n_queries=20, seed=8).arrivals()
        assert [x.at for x in a] != [x.at for x in b]
        assert [x.seed for x in a] != [x.seed for x in b]

    @pytest.mark.parametrize("process", ["poisson", "uniform"])
    def test_open_loop_times_increase(self, process):
        arrivals = WorkloadSpec(
            n_queries=50, arrival_process=process, arrival_rate=2.0, seed=3
        ).arrivals()
        times = [a.at for a in arrivals]
        assert all(t is not None for t in times)
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_open_loop_mean_rate_roughly_matches(self):
        rate = 2.0
        arrivals = WorkloadSpec(
            n_queries=400, arrival_process="poisson", arrival_rate=rate, seed=1
        ).arrivals()
        mean_gap = arrivals[-1].at / len(arrivals)
        assert 0.8 / rate < mean_gap < 1.25 / rate

    def test_closed_loop_has_no_times(self):
        arrivals = WorkloadSpec(
            n_queries=10, arrival_process="closed", seed=3
        ).arrivals()
        assert all(a.at is None for a in arrivals)

    def test_strategy_mix_extremes(self):
        pure = WorkloadSpec(n_queries=10, backup_fraction=0.0, seed=2).arrivals()
        assert {a.replicas for a in pure} == {0}
        backup = WorkloadSpec(n_queries=10, backup_fraction=1.0, seed=2).arrivals()
        assert {a.replicas for a in backup} == {1}

    def test_query_ids_unique_and_indexed(self):
        arrivals = WorkloadSpec(n_queries=15, seed=4).arrivals()
        ids = [a.query_id for a in arrivals]
        assert len(set(ids)) == 15
        assert [a.index for a in arrivals] == list(range(15))

    def test_every_process_is_generatable(self):
        for process in ARRIVAL_PROCESSES:
            arrivals = WorkloadSpec(
                n_queries=5, arrival_process=process, seed=1
            ).arrivals()
            assert len(arrivals) == 5
