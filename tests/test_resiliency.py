"""Tests for the resiliency mathematics of both strategies."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.qep import QueryExecutionPlan
from repro.core.resiliency import (
    TAKEOVER_TIMEOUT,
    effective_fault_rate,
    minimum_overcollection,
    query_success_probability,
    replicas_for,
    strategy_name,
    worst_case_delay,
)
from repro.plan.cost import _success_probability


class TestTakeoverPrice:
    def test_worst_case_delay(self):
        assert worst_case_delay(3) == 15.0
        assert worst_case_delay(0) == 0.0
        assert worst_case_delay(1) == TAKEOVER_TIMEOUT

    def test_validation(self):
        with pytest.raises(ValueError):
            worst_case_delay(-1)


class TestStrategySpelling:
    """The two strategy names spell the edges of one rank structure."""

    def test_names_spell_replica_counts(self):
        assert replicas_for("overcollection") == 0
        assert replicas_for("overcollection", 3) == 0
        assert replicas_for("backup") == 1
        assert replicas_for("backup", 2) == 2

    def test_counts_read_back_as_names(self):
        assert strategy_name(0) == "overcollection"
        assert [strategy_name(r) for r in (1, 2, 5)] == ["backup"] * 3
        for name in ("overcollection", "backup"):
            assert strategy_name(replicas_for(name)) == name

    def test_a_zero_replica_backup_is_refused(self):
        with pytest.raises(ValueError, match="at least one replica"):
            replicas_for("backup", 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            replicas_for("quorum")
        with pytest.raises(ValueError):
            strategy_name(-1)


def _plan(strategy: str, n: int, m: int, r: int) -> QueryExecutionPlan:
    """A bare plan carrying the metadata the planner writes for a shape."""
    metadata = {"strategy": strategy}
    if strategy == "backup":
        metadata["backup_replicas"] = r
    metadata["overcollection"] = {"n": n, "m": m, "snapshot_cardinality": n}
    return QueryExecutionPlan("p", metadata)


class TestOneSuccessFormula:
    """``P[Binomial(n + m, 1 - f ** (r + 1)) >= n]`` reproduces both
    branches the cost model used to keep, bit for bit."""

    @given(
        n=st.integers(min_value=1, max_value=2_000),
        m=st.sampled_from([0, 1, 3, 10, 50]),
        r=st.integers(min_value=0, max_value=3),
        f=st.sampled_from([0.0, 1e-9, 0.5, 0.95]),
    )
    @example(n=7, m=0, r=2, f=0.5)
    @example(n=7, m=3, r=0, f=0.5)
    @example(n=2_000, m=50, r=0, f=0.95)
    @settings(max_examples=120, deadline=None)
    def test_edge_cases_are_the_old_branches(self, n, m, r, f):
        # Overcollection: r = 0, the binomial over n + m partitions
        overcollection = query_success_probability(n, m, f)
        assert _success_probability(_plan("overcollection", n, m, r), f) == overcollection
        # Backup: m = 0, every partition's chain of r + 1 ranks must hold
        backup = (1.0 - f ** (r + 1)) ** n
        assert _success_probability(_plan("backup", n, 0, r), f) == backup


class TestQuerySuccess:
    def test_no_faults_certain_success(self):
        assert query_success_probability(5, 0, 0.0) == 1.0

    def test_no_overcollection_binomial(self):
        # all n must survive
        assert query_success_probability(3, 0, 0.1) == pytest.approx(0.9**3)

    def test_overcollection_tolerates_m_losses(self):
        # n=1, m=1, p=0.5: succeed unless both partitions die
        assert query_success_probability(1, 1, 0.5) == pytest.approx(0.75)

    def test_monotone_in_m(self):
        probabilities = [query_success_probability(10, m, 0.2) for m in range(6)]
        assert probabilities == sorted(probabilities)

    def test_monotone_in_fault_rate(self):
        probabilities = [
            query_success_probability(10, 3, p) for p in (0.05, 0.1, 0.2, 0.4)
        ]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_certain_failure(self):
        assert query_success_probability(2, 3, 1.0) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            query_success_probability(0, 1, 0.1)
        with pytest.raises(ValueError):
            query_success_probability(1, -1, 0.1)
        with pytest.raises(ValueError):
            query_success_probability(1, 1, 1.2)

    @given(
        n=st.integers(min_value=1, max_value=30),
        m=st.integers(min_value=0, max_value=15),
        p=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_is_a_probability(self, n, m, p):
        value = query_success_probability(n, m, p)
        assert 0.0 <= value <= 1.0


class TestMinimumOvercollection:
    def test_zero_fault_rate_needs_no_margin(self):
        assert minimum_overcollection(10, 0.0) == 0

    def test_meets_target(self):
        for n in (1, 5, 20):
            for p in (0.05, 0.1, 0.3):
                m = minimum_overcollection(n, p, 0.99)
                assert query_success_probability(n, m, p) >= 0.99
                if m > 0:
                    assert query_success_probability(n, m - 1, p) < 0.99

    def test_m_grows_with_fault_rate(self):
        ms = [minimum_overcollection(10, p, 0.99) for p in (0.05, 0.1, 0.2, 0.4)]
        assert ms == sorted(ms)
        assert ms[-1] > ms[0]

    def test_m_grows_with_n(self):
        ms = [minimum_overcollection(n, 0.1, 0.99) for n in (1, 5, 20, 50)]
        assert ms == sorted(ms)

    def test_m_grows_with_target(self):
        low = minimum_overcollection(10, 0.2, 0.9)
        high = minimum_overcollection(10, 0.2, 0.9999)
        assert high > low

    def test_unreachable_target_raises(self):
        with pytest.raises(ValueError):
            minimum_overcollection(5, 0.99, 0.999999, max_m=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            minimum_overcollection(5, 0.1, 1.5)
        with pytest.raises(ValueError):
            minimum_overcollection(5, 1.0, 0.99)

    def test_relative_margin_shrinks_with_n(self):
        """Law of large numbers: the overhead m/n decreases as n grows."""
        small = minimum_overcollection(5, 0.1, 0.99) / 5
        large = minimum_overcollection(100, 0.1, 0.99) / 100
        assert large < small


class TestEffectiveFaultRate:
    def test_zero_everything(self):
        assert effective_fault_rate(0.0, 0.0, 100) == 0.0

    def test_crash_only(self):
        rate = effective_fault_rate(0.01, 0.0, 10)
        assert rate == pytest.approx(1 - 0.99**10)

    def test_reconnect_discount(self):
        harsh = effective_fault_rate(0.0, 0.1, 10, reconnect_covers=0.0)
        gentle = effective_fault_rate(0.0, 0.1, 10, reconnect_covers=0.9)
        assert gentle < harsh

    def test_monotone_in_deadline(self):
        rates = [effective_fault_rate(0.01, 0.01, t) for t in (1, 5, 20, 100)]
        assert rates == sorted(rates)

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_fault_rate(-0.1, 0.0, 1)
        with pytest.raises(ValueError):
            effective_fault_rate(0.0, 2.0, 1)
        with pytest.raises(ValueError):
            effective_fault_rate(0.0, 0.0, -1)
        with pytest.raises(ValueError):
            effective_fault_rate(0.0, 0.0, 1, reconnect_covers=1.5)
