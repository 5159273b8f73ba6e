"""What ``import repro`` loads: neither scipy nor networkx.

Every process — each forked benchmark child, each worker of a sharded
run — holds what the import path loads resident, and every full
collection walks it.  scipy serves only the diagnostic
``check_representative``, which imports it lazily; networkx is a
test-only oracle.  The guard runs in a fresh interpreter where both
packages are poisoned in ``sys.modules``, so any import of them, eager
or lazy, fails there.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_RUN = textwrap.dedent(
    """
    import sys

    sys.modules["scipy"] = None
    sys.modules["networkx"] = None

    import repro
    import repro.cli
    import repro.continuous
    import repro.workload
    from repro.core.planner import PrivacyParameters, QuerySpec
    from repro.data.health import HEALTH_SCHEMA, generate_health_rows
    from repro.manager.scenario import Scenario, ScenarioConfig
    from repro.query.sql import parse_query
    from repro.telemetry import Telemetry
    from repro.workload import WorkloadEngine, WorkloadSpec

    rows = generate_health_rows(120, seed=5)
    scenario = Scenario(
        ScenarioConfig(
            n_contributors=40, n_processors=25, rows=rows,
            schema=HEALTH_SCHEMA, device_mix=(1.0, 0.0, 0.0),
            message_loss=0.05, reliability=True, seed=5,
        )
    )
    sql = (
        "SELECT count(*), avg(age), avg(bmi) FROM health "
        "GROUP BY GROUPING SETS ((region), ())"
    )
    spec = QuerySpec(
        query_id="footprint", kind="aggregate",
        snapshot_cardinality=len(rows), group_by=parse_query(sql).query,
    )
    result = scenario.run_query(
        spec, privacy=PrivacyParameters(separated_pairs=(("age", "bmi"),))
    )
    assert result.report.success, "scenario failed"
    assert len(result.plan.metadata["column_groups"]) == 2

    workload = WorkloadEngine(
        WorkloadSpec(n_queries=5, arrival_rate=2.0, seed=11),
        n_contributors=24, n_processors=40, telemetry=Telemetry(),
    ).run()
    assert workload.completed == 5, workload.completed

    loaded = sorted(
        name for name, module in sys.modules.items()
        if name.partition(".")[0] in ("scipy", "networkx")
        and module is not None
    )
    assert not loaded, loaded
    print("ok", len(sys.modules))
    """
)

_CHECK = textwrap.dedent(
    """
    import sys

    from repro.core.representativeness import check_representative
    from repro.data.health import HEALTH_SCHEMA, generate_health_rows

    assert "scipy" not in sys.modules
    rows = generate_health_rows(400, seed=3)
    skewed = [row for row in rows if row["age"] > 80]
    report = check_representative(
        skewed, rows, HEALTH_SCHEMA, columns=["age", "region"]
    )
    assert [check.test for check in report.checks] == ["ks", "chi2"]
    assert "age" in report.rejected_columns()
    assert "scipy.stats" in sys.modules
    print("ok")
    """
)


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_run_paths_load_neither_scipy_nor_networkx():
    done = _python(_RUN)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ok")


def test_check_representative_loads_scipy_on_first_use():
    done = _python(_CHECK)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
