"""Differential harness: full executions must be *byte-identical*
whichever kernel :func:`repro.query.fold.fold_partition` runs.

Every case executes three times — row kernel forced, vectorized kernel
forced, size-selected (the committed threshold) — by overriding the
threshold constant, a test-only hook (``tests/conftest.py``).

Equality is asserted on canonical fingerprints — SHA-256 over the
canonical JSON of an :class:`ExecutionReport` (results, traces,
relative times, tuple accounting) or of a standing-query window's
lineage.  A fingerprint match therefore proves not just equal result
rows but equal float bit patterns, equal envelope payload bytes, and
equal latency draws end to end.

All legs of a case pin the same ``scenario_tag``: device identities
(keys, hash placements, jitter streams) are a function of
``(scenario_tag, seed)``, and the auto-numbered tag would hand each
leg a different swarm.
"""

from __future__ import annotations

import pytest

from repro.continuous import ContinuousEngine, StandingQuerySpec
from repro.core.planner import PrivacyParameters, ResiliencyParameters
from repro.core.resiliency import replicas_for
from repro.devices.churn import ChurnSpec
from repro.plan.builder import scan
from repro.query import fold
from repro.telemetry import Telemetry
from repro.workload import WorkloadEngine, WorkloadSpec
from repro.workload.fingerprint import report_fingerprint
from tests.differential.harness import (
    assert_identical_under_every_kernel,
    scenario_fingerprint,
    scenario_report,
)

#: Five seeded scenarios spanning the operator surface: plain
#: aggregates, WHERE filters, every aggregate function, grouping
#: sets, HAVING, and numeric edge columns.
SCENARIOS = [
    pytest.param(
        "SELECT count(*), avg(age) FROM health "
        "GROUP BY GROUPING SETS ((region), ())",
        3,
        id="baseline",
    ),
    pytest.param(
        "SELECT count(*), sum(bmi), min(age), max(age) FROM health "
        "WHERE age > 65 AND bmi < 30 GROUP BY GROUPING SETS ((region), ())",
        7,
        id="filtered",
    ),
    pytest.param(
        "SELECT count(*), avg(age), min(bmi), max(bmi), var(glucose), "
        "distinct(region), hist(age, 0, 100, 10) FROM health "
        "WHERE age > 30 GROUP BY GROUPING SETS ((region), (smoker), ())",
        11,
        id="all-functions",
    ),
    pytest.param(
        "SELECT count(*), std(systolic_bp) FROM health "
        "WHERE region IN ('idf', 'bretagne') OR smoker = 1 "
        "GROUP BY GROUPING SETS ((region, smoker), ())",
        13,
        id="composite-keys",
    ),
    pytest.param(
        "SELECT count(*), avg(glucose) FROM health "
        "GROUP BY GROUPING SETS ((region), ()) "
        "HAVING count > 2",
        17,
        id="having",
    ),
]


class TestScenarioDifferential:
    """Fixed-seed single-query scenarios under every fold kernel."""

    @pytest.mark.parametrize("sql, seed", SCENARIOS)
    def test_report_fingerprints_are_byte_identical(
        self, monkeypatch, sql, seed
    ):
        assert_identical_under_every_kernel(
            monkeypatch, lambda: scenario_fingerprint(sql, seed=seed, tag="dif")
        )

    @pytest.mark.parametrize("strategy", ["overcollection", "backup"])
    def test_both_strategies_agree_across_kernels(self, monkeypatch, strategy):
        """Backup Computers (rank 0 and takeover replicas alike) fold in
        ``StrategyRuntime._fire_computer``, a site the old engine knob
        never reached."""
        sql = (
            "SELECT count(*), avg(age), distinct(region) FROM health "
            "WHERE age > 50 GROUP BY GROUPING SETS ((region), ())"
        )
        assert_identical_under_every_kernel(
            monkeypatch,
            lambda: scenario_fingerprint(
                sql,
                seed=5,
                tag=f"dif-{strategy}",
                resiliency=ResiliencyParameters(
                    fault_rate=0.1, replicas=replicas_for(strategy)
                ),
            ),
        )

    @pytest.mark.parametrize(
        "max_raw, expected_kernel", [(6, "row"), (200, "vector")]
    )
    def test_partitions_on_both_sides_of_the_threshold(
        self, monkeypatch, max_raw, expected_kernel
    ):
        """A few-rows-per-Computer run and a one-big-partition run: the
        size-selected leg takes a different branch in each."""
        sql = (
            "SELECT count(*), avg(age), var(bmi) FROM health "
            "GROUP BY GROUPING SETS ((region), (smoker), ())"
        )
        used: set[str] = set()

        def spy(name: str) -> None:
            kernel = getattr(fold, name)

            def spied(query, rows):
                used.add(name)
                return kernel(query, rows)

            monkeypatch.setattr(fold, name, spied)

        spy("evaluate_group_by")
        spy("evaluate_group_by_columnar")

        def run() -> str:
            used.clear()
            return scenario_fingerprint(
                sql,
                seed=19,
                tag=f"dif-raw{max_raw}",
                n_rows=200,
                cardinality=160,
                privacy=PrivacyParameters(max_raw_per_edgelet=max_raw),
            )

        assert_identical_under_every_kernel(monkeypatch, run)
        # the last leg run is the size-selected one
        assert used == {
            "row": {"evaluate_group_by"},
            "vector": {"evaluate_group_by_columnar"},
        }[expected_kernel]

    def test_kmeans_cluster_statistics_agree_across_kernels(self, monkeypatch):
        """Demo query (ii): the per-cluster Group By each Computer folds
        after the final centroids arrive — the other site the old
        engine knob never reached."""
        query = (
            scan("health")
            .cluster(k=2, features=("bmi", "systolic_bp", "glucose"), heartbeats=3)
            .aggregate(("count", None), ("avg", "age"), ("max", "dependency_level"))
        )

        def run() -> str:
            report = scenario_report(
                query,
                seed=6,
                tag="dif-km",
                privacy=PrivacyParameters(max_raw_per_edgelet=30),
            )
            assert report.kmeans.cluster_stats is not None
            return report_fingerprint(report)

        assert_identical_under_every_kernel(monkeypatch, run)


class TestWorkloadDifferential:
    """25 concurrent queries over one shared swarm, every fold kernel."""

    def _fingerprints(self) -> dict[str, str]:
        spec = WorkloadSpec(
            n_queries=25,
            arrival_process="closed",
            target_in_flight=25,
            max_concurrent=25,
            queue_capacity=0,
            seed=21,
            sql=(
                "SELECT count(*), avg(age), hist(bmi, 10, 40, 6) "
                "FROM health GROUP BY GROUPING SETS ((region), ())"
            ),
        )
        workload = WorkloadEngine(
            spec, n_contributors=30, n_processors=210, telemetry=Telemetry()
        )
        fingerprints = workload.run().fingerprints()
        assert len(fingerprints) == 25, "every arrival must complete"
        return fingerprints

    def test_per_query_fingerprints_are_byte_identical(self, monkeypatch):
        assert_identical_under_every_kernel(monkeypatch, self._fingerprints)


class TestContinuousDifferential:
    """A 20-window standing query under churn, every fold kernel."""

    def _fingerprints(self) -> dict[str, str]:
        spec = StandingQuerySpec(
            name="difsoak",
            max_windows=20,
            seed=9,
            snapshot_cardinality=96,
        )
        churn = ChurnSpec(
            departure_probability=0.08,
            data_change_probability=0.2,
            seed=9,
        )
        run = ContinuousEngine(
            spec,
            churn=churn,
            n_contributors=20,
            n_processors=40,
            telemetry=Telemetry(),
        ).run()
        fingerprints = run.fingerprints()
        assert len(fingerprints) >= 18, "churn soak must complete windows"
        return fingerprints

    def test_window_lineage_fingerprints_are_byte_identical(self, monkeypatch):
        assert_identical_under_every_kernel(monkeypatch, self._fingerprints)
