"""Shared drivers of the differential legs (see ``test_differential``)."""

from __future__ import annotations

from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.manager.scenario import Scenario, ScenarioConfig
from repro.plan.compile import compile_query
from repro.query import fold
from repro.telemetry import Telemetry
from repro.workload.fingerprint import report_fingerprint
from tests.conftest import FOLD_KERNEL_THRESHOLDS


def assert_identical_under_every_kernel(monkeypatch, run) -> None:
    """Call ``run()`` once per fold-kernel leg; all results must be equal."""
    results = {}
    for kernel, threshold in FOLD_KERNEL_THRESHOLDS.items():
        monkeypatch.setattr(fold, "VECTOR_FOLD_MIN_ROWS", threshold)
        results[kernel] = run()
    assert results["row"] == results["vector"] == results["auto"]


def scenario_report(
    source, *, seed: int, tag: str, n_rows: int = 80, cardinality: int = 60,
    **compile_kwargs,
):
    """Execute one seeded single-query scenario; return its report."""
    config = ScenarioConfig(
        n_contributors=20,
        n_processors=24,
        rows=generate_health_rows(n_rows, seed=seed),
        schema=HEALTH_SCHEMA,
        device_mix=(1.0, 0.0, 0.0),
        seed=seed,
        secure_channels=True,
        scenario_tag=f"{tag}{seed}",
    )
    scenario = Scenario(config, telemetry=Telemetry())
    compiled = compile_query(
        source,
        query_id=f"{tag}-q",
        snapshot_cardinality=cardinality,
        **compile_kwargs,
    )
    report = scenario.run_compiled(compiled).report
    assert report.success
    return report


def scenario_fingerprint(source, **kwargs) -> str:
    return report_fingerprint(scenario_report(source, **kwargs))
