"""Shared fixtures for the Edgelet reproduction test suite."""

from __future__ import annotations

import gc
import sys
import weakref

import pytest

from repro.core.planner import (
    EdgeletPlanner,
    PrivacyParameters,
    QuerySpec,
    ResiliencyParameters,
)
from repro.core.runtime import detector
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.manager.scenario import Scenario
from repro.network import reliable
from repro.network.opnet import NetworkConfig, OpportunisticNetwork
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph, LinkQuality
from repro.query import fold
from repro.query.aggregates import AggregateSpec
from repro.query.groupby import GroupByQuery
from repro.query.relation import Relation


@pytest.fixture
def simulator() -> Simulator:
    return Simulator()


@pytest.fixture
def perfect_network(simulator) -> OpportunisticNetwork:
    """A loss-free, low-latency network over an implicit clique."""
    topology = ContactGraph.fully_connected(
        [], quality=LinkQuality(base_latency=0.01, latency_jitter=0.0, loss_probability=0.0)
    )
    config = NetworkConfig(
        allow_relay=True,
        buffer_timeout=1_000.0,
        default_quality=LinkQuality(base_latency=0.01, latency_jitter=0.0),
    )
    return OpportunisticNetwork(simulator, topology, config, seed=1)


@pytest.fixture
def health_rows() -> list[dict]:
    return generate_health_rows(120, seed=11)


@pytest.fixture
def health_relation(health_rows) -> Relation:
    return Relation(HEALTH_SCHEMA, health_rows)


@pytest.fixture
def simple_group_by() -> GroupByQuery:
    return GroupByQuery.single(
        ["region"],
        [AggregateSpec("count"), AggregateSpec("avg", "age"), AggregateSpec("sum", "bmi")],
    )


@pytest.fixture
def aggregate_spec(simple_group_by) -> QuerySpec:
    return QuerySpec(
        query_id="test-aggregate",
        kind="aggregate",
        snapshot_cardinality=80,
        group_by=simple_group_by,
    )


@pytest.fixture
def planner() -> EdgeletPlanner:
    return EdgeletPlanner(
        privacy=PrivacyParameters(max_raw_per_edgelet=40),
        resiliency=ResiliencyParameters(fault_rate=0.1, target_success=0.99),
    )


#: Test-only override of the fold-kernel selection: the partition size
#: at which :func:`repro.query.fold.fold_partition` switches kernels.
#: ``row`` never reaches it, ``vector`` always does, ``auto`` is the
#: committed constant.  There is no user-facing switch.
FOLD_KERNEL_THRESHOLDS = {
    "row": sys.maxsize,
    "vector": 0,
    "auto": fold.VECTOR_FOLD_MIN_ROWS,
}


@pytest.fixture(params=list(FOLD_KERNEL_THRESHOLDS))
def fold_kernel(request, monkeypatch) -> str:
    """Parametrizes a test over the three fold-kernel legs.

    Any test taking this fixture runs three times — forced row kernel,
    forced vectorized kernel, size-selected — and every fingerprint it
    computes must come out byte-identical in all three.
    """
    monkeypatch.setattr(
        fold, "VECTOR_FOLD_MIN_ROWS", FOLD_KERNEL_THRESHOLDS[request.param]
    )
    return request.param


def _tuner(monkeypatch, module):
    """``tune(NAME=value, ...)``: override module constants for one test."""

    def tune(**constants):
        for name, value in constants.items():
            assert hasattr(module, name), name
            monkeypatch.setattr(module, name, value)

    return tune


#: The recovery stack has no config objects: the reliable transport's
#: and the φ-accrual detector's settings are module constants.  A test
#: that needs another value (a disarmed breaker, a shorter history
#: window) overrides the constant through one of these two fixtures;
#: there is no user-facing switch.
@pytest.fixture
def tune_reliable(monkeypatch):
    """Override :mod:`repro.network.reliable` constants:
    ``tune_reliable(BREAKER_THRESHOLD=100)``."""
    return _tuner(monkeypatch, reliable)


@pytest.fixture
def tune_detector(monkeypatch):
    """Override :mod:`repro.core.runtime.detector` constants:
    ``tune_detector(HISTORY_WINDOW=4)``."""
    return _tuner(monkeypatch, detector)


class LaunchedExecutions(list):
    """One weak-reference triple per launch: the execution's
    :class:`~repro.core.runtime.ExecutionCoordinator`, its
    :class:`~repro.core.runtime.ExecutionContext` (which every role
    runtime holds, so a live runtime keeps it reachable too) and the
    :class:`~repro.core.qep.QueryExecutionPlan` it executed."""

    def alive(self) -> int:
        """How many of the referenced objects are still reachable."""
        return sum(ref() is not None for triple in self for ref in triple)

    def plans_alive(self) -> int:
        """How many of the launched plans are still reachable."""
        return sum(plan() is not None for _executor, _ctx, plan in self)


def _record_launches(monkeypatch, keep) -> None:
    """Wrap :meth:`Scenario.launch` so ``keep(plan, result)`` sees every
    execution it wires."""
    launch = Scenario.launch

    def recording(self, plan, **kwargs):
        result = launch(self, plan, **kwargs)
        keep(plan, result)
        return result

    monkeypatch.setattr(Scenario, "launch", recording)


@pytest.fixture
def launched_executors(monkeypatch):
    """Records every execution :meth:`Scenario.launch` wires during the
    test (:class:`LaunchedExecutions`), which runs with the cyclic
    collector off: an object still reachable at a check is held by a
    strong reference, not by a cycle the collector has yet to reach.
    """
    launched = LaunchedExecutions()

    def keep(plan, result):
        executor = result.executor
        launched.append(
            (weakref.ref(executor), weakref.ref(executor.ctx), weakref.ref(plan))
        )

    _record_launches(monkeypatch, keep)
    gc.collect()
    gc.disable()
    try:
        yield launched
    finally:
        gc.enable()


@pytest.fixture
def launched_plans(monkeypatch) -> list:
    """Every plan :meth:`Scenario.launch` wires during the test, in
    launch order, held strongly — for a test that re-measures what an
    engine measured before it let the plans go."""
    plans: list = []
    _record_launches(monkeypatch, lambda plan, _result: plans.append(plan))
    return plans
