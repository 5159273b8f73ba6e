#!/usr/bin/env python
"""Import-layering check for the repro package.

The dependency rule the runtime refactor enforces: ``repro.core`` is
the bottom layer of the executable stack and must never import from the
orchestration (``repro.manager``) or fault-injection (``repro.chaos``)
layers above it — those import *down* into core.  A violation here is
how the old executor monolith grew tangled in the first place, so the
check runs in CI next to the chaos smoke job.

Usage::

    python tools/check_layering.py [--root src]

Exits non-zero listing every offending ``module -> import`` edge.
Both top-level ``import``/``from`` statements and imports deferred into
function bodies count: a lazy import is still a layering violation.

The same pass enforces the single launch path: the classes that wire
an execution or inject faults may be *constructed*, and an outage spec
resolved, in one module only (:data:`SOLE_CALLER`); that the
execution runtime branches on an operator's rank, never on a strategy
name (:data:`RANK_ONLY`); and that only :data:`SPELLING_OWNER` compares
a value against a strategy name.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

# package -> layers it must not reach into (even lazily)
FORBIDDEN: dict[str, tuple[str, ...]] = {
    "repro.core": (
        "repro.plan", "repro.manager", "repro.chaos", "repro.workload",
        "repro.continuous",
    ),
    "repro.network": (
        "repro.plan", "repro.manager", "repro.chaos", "repro.workload",
        "repro.continuous",
    ),
    "repro.query": (
        "repro.plan", "repro.manager", "repro.chaos", "repro.workload",
        "repro.continuous",
    ),
    "repro.devices": (
        "repro.plan", "repro.manager", "repro.chaos", "repro.workload",
        "repro.continuous",
    ),
    # the compile pipeline sits between the substrate and the
    # orchestration layers: it imports core/query freely but must never
    # reach up into the engines that call it
    "repro.plan": (
        "repro.manager", "repro.chaos", "repro.workload", "repro.continuous",
    ),
    # the reliable transport is pure plumbing: it retries opaque
    # payloads and must never learn about query execution semantics
    "repro.network.reliable": ("repro.core",),
    # scripted faults (crashes, disconnects, partitions, regional
    # crashes, gray windows) and their seeded outage generator drive the
    # network substrate from outside; the schedule must stay
    # runtime-agnostic so artifacts replay anywhere
    "repro.network.failures": ("repro.core",),
    "repro.network.outages": ("repro.core",),
    # the φ-accrual detector consumes link observations pushed *to* it
    # (via the recovery runtime's observer); if it imported the
    # transport the dependency would run both ways
    "repro.core.runtime.detector": ("repro.network.reliable",),
    # the manager orchestrates one query at a time; the workload
    # engine multiplexes *on top of* it and chaos probes both from
    # above, so neither may leak back down into the manager
    "repro.manager": ("repro.workload", "repro.chaos", "repro.continuous"),
    # chaos.workload/chaos.continuous import the engines, never the reverse
    "repro.workload": ("repro.chaos", "repro.continuous"),
    # continuous layers on workload (admission, fingerprints) but the
    # verification muscle stays above it: chaos imports continuous only
    "repro.continuous": ("repro.chaos",),
}

#: module -> the one module allowed to import it.  The vectorized fold
#: kernel is reached only through the fold entry point, which picks a
#: kernel by partition size: nothing under repro.core, repro.plan,
#: repro.manager, repro.workload, repro.continuous, repro.chaos or
#: repro.cli may call it (or select it) directly.
SOLE_IMPORTER: dict[str, str] = {
    "repro.query.columnar": "repro.query.fold",
}

#: callable -> the one module allowed to call it.  Every query —
#: one-shot, workload arrival, standing-query window, serial replay —
#: is wired by ``Scenario.launch`` and every fault source is installed
#: by ``Scenario.install_chaos``; a second construction site is how
#: the four hand-copied wirings drifted apart, so a new one fails CI.
#: ``build_outage_plan`` resolves an outage spec: one call site pins
#: its ``seed + 5`` stream.  Likewise every multi-query run — workload,
#: standing query, serial replay — gets its mux, lease registry and
#: admission controller from ``MultiQueryEngine`` in
#: ``repro.workload.engine``, the one multi-query lifecycle.
SOLE_CALLER: dict[str, str] = {
    **{
        name: "repro.manager.scenario"
        for name in (
            "ExecutionCoordinator",
            "ReliableTransport",
            "MessageFaultInjector",
            "FailureInjector",
            "build_outage_plan",
        )
    },
    **{
        name: "repro.workload.engine"
        for name in ("QueryMux", "DeviceLeaseRegistry", "AdmissionController")
    },
}

#: Within the query layer, numpy stays confined to the columnar module:
#: the row kernel is the pure-Python reference the differential harness
#: trusts, so no other query module may grow a numpy dependency.
NUMPY_ALLOWED_PREFIX = "repro.query.columnar"
NUMPY_CONFINED_PREFIX = "repro.query"

#: Packages that would load on ``import repro``, mapped to the one
#: module allowed to import them (``None``: no module).  networkx is a
#: test-only oracle: the QEP is plain dicts and the planner colours its
#: column conflicts itself.  scipy serves the diagnostic
#: ``check_representative`` only, which imports it lazily.
CONFINED: dict[str, str | None] = {
    "networkx": None,
    "scipy": "repro.core.representativeness",
}

#: The execution runtime runs every plan by its rank structure: no
#: module under it may hold a strategy name as a string constant or
#: read the plan metadata's ``"strategy"`` key.  The metadata key
#: ``"overcollection"`` stays legal: it names the plan's ``(n, m)``
#: block, not a strategy.
RANK_ONLY = "repro.core.runtime"
STRATEGY_NAMES = ("backup", "overcollection")

#: The rank structure is the one resiliency input: a strategy name is a
#: spelling of it, read by ``replicas_for`` and written by
#: ``strategy_name`` in this module.  Everywhere else a comparison
#: against a strategy name — bare, or inside a tuple, list or set — is
#: a second place that turns names back into ranks.
SPELLING_OWNER = "repro.core.resiliency"


def module_name(path: Path, root: Path) -> str:
    relative = path.relative_to(root).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imported_modules(tree: ast.AST, module: str) -> list[str]:
    """Every absolute module name the AST imports, lazy ones included."""
    found: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import stays inside its package
                continue
            if node.module:
                found.append(node.module)
    return found


def constructed_names(tree: ast.AST) -> list[tuple[str, int]]:
    """``(name, line)`` of every call whose callee is named like a
    :data:`SOLE_CALLER` class, bare or attribute-qualified."""
    found: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            continue
        if name in SOLE_CALLER:
            found.append((name, node.lineno))
    return found


def _is_metadata(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "metadata") or (
        isinstance(node, ast.Name) and node.id == "metadata"
    )


def _is_strategy_key(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == "strategy"


def strategy_name_reads(tree: ast.AST) -> list[int]:
    """Lines holding a strategy-name constant (other than a metadata
    key) or reading ``metadata["strategy"]`` / ``metadata.get("strategy")``."""
    lines: set[int] = set()
    metadata_keys: set[int] = set()
    # ast.walk yields a subscript before its key constant
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_metadata(node.value):
            metadata_keys.add(id(node.slice))
            if _is_strategy_key(node.slice):
                lines.add(node.lineno)
        elif isinstance(node, ast.Constant):
            if node.value in STRATEGY_NAMES and id(node) not in metadata_keys:
                lines.add(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "get"
                and _is_metadata(func.value)
                and node.args
                and _is_strategy_key(node.args[0])
            ):
                lines.add(node.lineno)
    return sorted(lines)


def strategy_name_compares(tree: ast.AST) -> list[int]:
    """Lines of every comparison with a strategy-name constant as an
    operand, or as an element of a tuple, list or set operand."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        for operand in (node.left, *node.comparators):
            elements = (
                operand.elts
                if isinstance(operand, (ast.Tuple, ast.List, ast.Set))
                else (operand,)
            )
            if any(
                isinstance(element, ast.Constant)
                and element.value in STRATEGY_NAMES
                for element in elements
            ):
                lines.add(node.lineno)
    return sorted(lines)


def _numpy_confined(module: str) -> bool:
    """Whether this module is banned from importing numpy."""
    in_query = module == NUMPY_CONFINED_PREFIX or module.startswith(
        NUMPY_CONFINED_PREFIX + "."
    )
    is_columnar = module == NUMPY_ALLOWED_PREFIX or module.startswith(
        NUMPY_ALLOWED_PREFIX + "."
    )
    return in_query and not is_columnar


def check(root: Path) -> list[str]:
    violations: list[str] = []
    for path in sorted(root.rglob("*.py")):
        module = module_name(path, root)
        bans = tuple(
            banned
            for prefix, targets in FORBIDDEN.items()
            if module == prefix or module.startswith(prefix + ".")
            for banned in targets
        )
        numpy_banned = _numpy_confined(module)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for imported in imported_modules(tree, module):
            for banned in bans:
                if imported == banned or imported.startswith(banned + "."):
                    violations.append(f"{module} -> {imported}  ({path})")
            importer = SOLE_IMPORTER.get(imported)
            if importer is not None and module != importer:
                violations.append(
                    f"{module} -> {imported}  ({path})  "
                    f"[only {importer} may import it]"
                )
            if numpy_banned and (
                imported == "numpy" or imported.startswith("numpy.")
            ):
                violations.append(
                    f"{module} -> {imported}  ({path})  "
                    "[numpy is confined to repro.query.columnar]"
                )
            package = imported.partition(".")[0]
            if package in CONFINED and module != CONFINED[package]:
                owner = CONFINED[package]
                rule = (
                    f"{package} is confined to {owner}"
                    if owner
                    else f"no module may import {package}"
                )
                violations.append(f"{module} -> {imported}  ({path})  [{rule}]")
        for name, line in constructed_names(tree):
            if module != SOLE_CALLER[name]:
                violations.append(
                    f"{module} constructs {name}  ({path}:{line})  "
                    f"[only {SOLE_CALLER[name]} may]"
                )
        if module == RANK_ONLY or module.startswith(RANK_ONLY + "."):
            for line in strategy_name_reads(tree):
                violations.append(
                    f"{module} reads a strategy name  ({path}:{line})  "
                    f"[{RANK_ONLY} branches on rank]"
                )
        if module != SPELLING_OWNER:
            for line in strategy_name_compares(tree):
                violations.append(
                    f"{module} compares a strategy name  ({path}:{line})  "
                    f"[only {SPELLING_OWNER} spells strategies]"
                )
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default="src", help="source root (default: src)")
    args = parser.parse_args()
    root = Path(args.root)
    if not root.is_dir():
        print(f"error: source root {root} not found", file=sys.stderr)
        return 2
    violations = check(root)
    if violations:
        print("layering violations:")
        for violation in violations:
            print(f"  {violation}")
        return 1
    callers: dict[str, list[str]] = {}
    for name, module in SOLE_CALLER.items():
        callers.setdefault(module, []).append(name)
    print(
        "layering ok: substrate never imports plan/manager/chaos/workload/"
        "continuous, plan never imports the engines above it, manager "
        "never imports workload/chaos/continuous, continuous never "
        "imports chaos, only repro.query.fold imports "
        "repro.query.columnar, numpy stays confined to "
        "repro.query.columnar within the query layer, no module imports "
        f"networkx, scipy stays confined to {CONFINED['scipy']}, "
        f"{RANK_ONLY} reads no strategy name, only "
        f"{SPELLING_OWNER} compares strategy names, and only "
        + ", only ".join(
            f"{module} constructs / calls {' / '.join(names)}"
            for module, names in callers.items()
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
