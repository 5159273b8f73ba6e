"""Self-test of ``tools/check_layering.py``'s rules."""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "check_layering", REPO / "tools" / "check_layering.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sole_caller_rule_on_a_two_file_fixture(tmp_path):
    root = tmp_path / "src"
    allowed = root / "repro" / "manager" / "scenario.py"
    offender = root / "repro" / "workload" / "engine.py"
    for path in (allowed, offender):
        path.parent.mkdir(parents=True)
    allowed.write_text(
        "executor = ExecutionCoordinator(plan)\n"
        "transport = reliable.ReliableTransport(network)\n"
    )
    offender.write_text(
        "from repro.core.runtime import ExecutionCoordinator  # import: fine\n"
        "\n"
        "def launch(plan):\n"
        "    '''ExecutionCoordinator(plan) in a docstring: fine'''\n"
        "    return runtime.ExecutionCoordinator(plan), FailureInjector(sim)\n"
    )
    violations = _tool().check(root)
    assert len(violations) == 2
    assert all(v.startswith("repro.workload.engine constructs ") for v in violations)
    assert f"{offender}:5" in violations[0]
    assert {v.split()[2] for v in violations} == {
        "ExecutionCoordinator", "FailureInjector",
    }


def test_outage_specs_resolve_in_install_chaos_only(tmp_path):
    root = tmp_path / "src"
    allowed = root / "repro" / "manager" / "scenario.py"
    offender = root / "repro" / "chaos" / "campaign.py"
    substrate = root / "repro" / "network" / "failures.py"
    for path in (allowed, offender, substrate):
        path.parent.mkdir(parents=True, exist_ok=True)
    allowed.write_text("plan = build_outage_plan(spec, ids, horizon=1.0, seed=5)\n")
    offender.write_text(
        "from repro.network import outages\n"
        "plan = outages.build_outage_plan(spec, ids, horizon=1.0, seed=5)\n"
    )
    substrate.write_text("from repro.core.qep import OperatorRole\n")
    violations = _tool().check(root)
    assert len(violations) == 2
    assert violations[0].startswith("repro.chaos.campaign constructs build_outage_plan")
    assert f"{offender}:2" in violations[0]
    assert violations[1].startswith("repro.network.failures -> repro.core.qep")


def test_multi_query_machinery_is_built_by_the_one_lifecycle(tmp_path):
    root = tmp_path / "src"
    allowed = root / "repro" / "workload" / "engine.py"
    offender = root / "repro" / "continuous" / "engine.py"
    for path in (allowed, offender):
        path.parent.mkdir(parents=True)
    allowed.write_text(
        "mux = QueryMux(network)\n"
        "registry = admission.DeviceLeaseRegistry(clock=clock)\n"
        "controller = AdmissionController(2, 0)\n"
    )
    offender.write_text(
        "from repro.network.mux import QueryMux  # import: fine\n"
        "mux = QueryMux(network)\n"
        "registry = DeviceLeaseRegistry()\n"
        "controller = admission.AdmissionController(1)\n"
    )
    violations = _tool().check(root)
    assert [v.split()[2] for v in violations] == [
        "QueryMux", "DeviceLeaseRegistry", "AdmissionController",
    ]
    assert all(
        v.startswith("repro.continuous.engine constructs ")
        and v.endswith("[only repro.workload.engine may]")
        for v in violations
    )
    assert f"{offender}:2" in violations[0]


def test_networkx_is_confined_to_the_planner(tmp_path):
    root = tmp_path / "src"
    allowed = root / "repro" / "core" / "planner.py"
    qep = root / "repro" / "core" / "qep.py"
    lazy = root / "repro" / "plan" / "explain.py"
    for path in (allowed, qep, lazy):
        path.parent.mkdir(parents=True, exist_ok=True)
    allowed.write_text("import networkx as nx\n")
    qep.write_text("import networkx as nx\n")
    lazy.write_text(
        "def render(plan):\n"
        "    from networkx.algorithms import dag  # lazy: still counts\n"
    )
    violations = _tool().check(root)
    assert [v.split()[:3] for v in violations] == [
        ["repro.core.qep", "->", "networkx"],
        ["repro.plan.explain", "->", "networkx.algorithms"],
    ]
    assert all(
        v.endswith("[networkx is confined to repro.core.planner]")
        for v in violations
    )


def test_the_runtime_reads_no_strategy_name(tmp_path):
    root = tmp_path / "src"
    runtime = root / "repro" / "core" / "runtime"
    runtime.mkdir(parents=True)
    # the two strategy-name reads the runtime had before it ran by rank
    (runtime / "strategy.py").write_text(
        'if ctx.plan.metadata.get("strategy") != "backup":\n'
        '    raise ExecutionError("needs a backup-strategy plan")\n'
    )
    (runtime / "recovery.py").write_text(
        "if (\n"
        "    builder_op is None\n"
        '    or ctx.plan.metadata.get("strategy") == "backup"\n'
        "):\n"
        "    pass\n"
    )
    (runtime / "context.py").write_text(
        'config = from_dict(metadata["overcollection"])  # the (n, m) block\n'
        'names = ("combiner", "combiner-backup")\n'
        'kind = plan.metadata["strategy"]\n'
    )
    (root / "repro" / "core" / "planner.py").write_text(
        'backup = strategy == "backup"  # outside the runtime\n'
    )
    violations = _tool().check(root)
    assert [(v.split()[0], v.split("(")[1].split(")")[0]) for v in violations] == [
        ("repro.core.runtime.context", f"{runtime / 'context.py'}:3"),
        ("repro.core.runtime.recovery", f"{runtime / 'recovery.py'}:3"),
        ("repro.core.runtime.strategy", f"{runtime / 'strategy.py'}:1"),
    ]
    assert all(
        v.endswith("[repro.core.runtime branches on rank]") for v in violations
    )


def test_the_shipped_tree_has_one_construction_site():
    assert _tool().check(REPO / "src") == []
