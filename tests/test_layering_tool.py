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
        "    return runtime.ExecutionCoordinator(plan), build_crash_plan(plan)\n"
    )
    violations = _tool().check(root)
    assert len(violations) == 2
    assert all(v.startswith("repro.workload.engine constructs ") for v in violations)
    assert f"{offender}:5" in violations[0]
    assert {v.split()[2] for v in violations} == {
        "ExecutionCoordinator", "build_crash_plan",
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


def test_networkx_is_imported_by_no_module(tmp_path):
    root = tmp_path / "src"
    planner = root / "repro" / "core" / "planner.py"
    qep = root / "repro" / "core" / "qep.py"
    lazy = root / "repro" / "plan" / "explain.py"
    for path in (planner, qep, lazy):
        path.parent.mkdir(parents=True, exist_ok=True)
    planner.write_text("import networkx as nx\n")
    qep.write_text("from networkx import Graph\n")
    lazy.write_text(
        "def render(plan):\n"
        "    from networkx.algorithms import dag  # lazy: still counts\n"
    )
    violations = _tool().check(root)
    assert [v.split()[:3] for v in violations] == [
        ["repro.core.planner", "->", "networkx"],
        ["repro.core.qep", "->", "networkx"],
        ["repro.plan.explain", "->", "networkx.algorithms"],
    ]
    assert all(
        v.endswith("[no module may import networkx]") for v in violations
    )


def test_scipy_is_confined_to_the_representativeness_check(tmp_path):
    root = tmp_path / "src"
    allowed = root / "repro" / "core" / "representativeness.py"
    planner = root / "repro" / "core" / "planner.py"
    lazy = root / "repro" / "manager" / "report.py"
    for path in (allowed, planner, lazy):
        path.parent.mkdir(parents=True, exist_ok=True)
    allowed.write_text(
        "def _ks_check(sample, reference):\n"
        "    from scipy import stats\n"
    )
    planner.write_text("import scipy.stats\n")
    lazy.write_text(
        "def summary(rows):\n"
        "    from scipy.stats import describe  # lazy: still counts\n"
    )
    violations = _tool().check(root)
    assert [v.split()[:3] for v in violations] == [
        ["repro.core.planner", "->", "scipy.stats"],
        ["repro.manager.report", "->", "scipy.stats"],
    ]
    assert all(
        v.endswith("[scipy is confined to repro.core.representativeness]")
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
    # the planner line (and the runtime's two comparisons) also break the
    # strategy-spelling rule; this test is about the runtime rule
    violations = [
        v for v in _tool().check(root)
        if v.endswith("[repro.core.runtime branches on rank]")
    ]
    assert [(v.split()[0], v.split("(")[1].split(")")[0]) for v in violations] == [
        ("repro.core.runtime.context", f"{runtime / 'context.py'}:3"),
        ("repro.core.runtime.recovery", f"{runtime / 'recovery.py'}:3"),
        ("repro.core.runtime.strategy", f"{runtime / 'strategy.py'}:1"),
    ]


def _at_lines(statements: dict[int, str]) -> str:
    """Source placing each statement at its line number."""
    lines: list[str] = []
    for number, statement in sorted(statements.items()):
        lines.extend([""] * (number - 1 - len(lines)))
        lines.extend(statement.splitlines())
    return "\n".join(lines) + "\n"


def test_only_the_resiliency_module_compares_strategy_names(tmp_path):
    root = tmp_path / "src"
    # the six comparisons the tree had before the replica count became
    # the one resiliency field, at their old line numbers
    sites = {
        "core/planner.py": {
            161: 'if self.strategy not in ("overcollection", "backup"):\n'
                 '    raise ValueError(f"unknown strategy {self.strategy!r}")',
            170: 'replicas = self.backup_replicas if self.strategy == "backup" else 0',
            199: 'backup = self.resiliency.strategy == "backup"',
            326: 'backup = self.resiliency.strategy == "backup"',
        },
        "plan/optimizer.py": {
            264: 'if candidate.strategy == "overcollection" and not properties.distributive:\n'
                 '    pass',
        },
        "continuous/spec.py": {
            96: 'if self.strategy not in ("overcollection", "backup"):\n'
                '    raise ValueError("strategy must be overcollection or backup")',
        },
        # the owner may compare; elsewhere a written name is legal and a
        # compared one is not, inside a list or set operand too
        "core/resiliency.py": {1: 'if name == "overcollection":\n    pass'},
        "cli.py": {
            1: 'choices = ("overcollection", "backup")',
            2: 'both = args.strategy == "both"',
            3: 'plan = {"strategy": "backup"}',
            4: 'listed = name in ["backup"]',
            5: 'spelled = {"overcollection"} != names',
        },
    }
    for relative, statements in sites.items():
        path = root / "repro" / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_at_lines(statements))
    violations = _tool().check(root)
    assert all(
        v.endswith("[only repro.core.resiliency spells strategies]")
        for v in violations
    )
    assert sorted(
        (v.split()[0], int(v.split("(")[1].split(")")[0].rsplit(":", 1)[1]))
        for v in violations
    ) == [
        ("repro.cli", 4),
        ("repro.cli", 5),
        ("repro.continuous.spec", 96),
        ("repro.core.planner", 161),
        ("repro.core.planner", 170),
        ("repro.core.planner", 199),
        ("repro.core.planner", 326),
        ("repro.plan.optimizer", 264),
    ]


def test_every_error_class_derives_from_the_root(tmp_path):
    root = tmp_path / "src" / "repro"
    files = {
        "errors.py": (
            "class ReproError(Exception): ...\n"
            "class SpecError(ReproError, ValueError): ...\n"
        ),
        # through another error class, module-qualified: fine
        "core/planner.py": (
            "from repro import errors\n"
            "class PlanningError(errors.ReproError): ...\n"
            "class StrictPlanningError(PlanningError): ...\n"
            "class Planner(RuntimeError): ...  # not an *Error: fine\n"
        ),
        # the declaration before the error root existed
        "manager/admission.py": "class LeaseError(RuntimeError): ...\n",
    }
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    violations = _tool().check(tmp_path / "src")
    assert violations == [
        "repro.manager.admission defines LeaseError outside the error root  "
        f"({root / 'manager' / 'admission.py'}:1)  "
        "[every *Error derives from ReproError]"
    ]


def test_only_the_events_module_words_an_execution_step(tmp_path):
    root = tmp_path / "src" / "repro"
    files = {
        "core/runtime/events.py": "trace.append((t, f'{op} frozen'))\n",
        "core/runtime/builder.py": (
            "ctx.emit(EventKind.NO_ROWS, builder.op_id)  # fine\n"
            "ctx.emit(EventKind.NO_ROWS, f'{builder.op_id}')\n"
            "ctx.emit(EventKind.SNAPSHOT_FROZEN, op, rows=f'{n} rows')\n"
            "self.report.trace.append((now, 'frozen'))\n"
            "report.trace.extend(lines)\n"
            "trace.append(line)  # a local list, not a trace attribute: fine\n"
        ),
    }
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    violations = _tool().check(tmp_path / "src")
    path = root / "core" / "runtime" / "builder.py"
    assert violations == [
        f"repro.core.runtime.builder words an execution step  ({path}:{line})  "
        "[only repro.core.runtime.events turns events into prose]"
        for line in (2, 3, 4, 5)
    ]


def test_the_shipped_tree_has_one_construction_site():
    assert _tool().check(REPO / "src") == []


def test_only_the_publisher_writes_spans_and_marks(tmp_path):
    root = tmp_path / "src" / "repro"
    files = {
        "core/runtime/coordinator.py": (
            "class ExecutionCoordinator:\n"
            "    def publish_telemetry(self):\n"
            "        tracer = self.ctx.telemetry.tracer\n"
            "        span = tracer.start('execution', at=0.0)  # fine\n"
            "        def mark(name):\n"
            "            tracer.mark(name, at=1.0)  # nested in it: fine\n"
            "    def finish(self):\n"
            "        self.ctx.telemetry.tracer.start('phase:combination')\n"
        ),
        "core/runtime/context.py": (
            "tracer = telemetry.tracer\n"
            "span = tracer.start('phase:collection', at=0.0)\n"
            "def mark_collection_end(self):\n"
            "    self.telemetry.tracer.mark('collection_end', at=3.0)\n"
            "    self.span.finish(at=3.0)  # fine: not a tracer write\n"
        ),
        "core/runtime/computer.py": (
            "ctx.telemetry.tracer.event('heartbeat', at=1.0)  # fine\n"
            "clock.start()  # fine: not a tracer\n"
        ),
        # outside the runtime: fine
        "manager/scenario.py": "span = self.telemetry.tracer.start('scenario')\n",
    }
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    violations = _tool().check(tmp_path / "src")
    rule = (
        "[only repro.core.runtime.coordinator.publish_telemetry "
        "publishes spans and marks]"
    )
    assert violations == [
        f"repro.core.runtime.{module} writes to the tracer  "
        f"({root / 'core' / 'runtime' / (module + '.py')}:{line})  {rule}"
        for module, line in (("context", 2), ("context", 4), ("coordinator", 8))
    ]

