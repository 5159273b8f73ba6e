"""Logical plan IR and the cost-based compile pipeline.

One pipeline from a declarative query to an executable Edgelet QEP::

    SQL / builder  →  LogicalPlan  →  rule passes  →  PhysicalOptimizer
                                                      → QuerySpec + replicas
                                                      → ExplainReport

* :mod:`repro.plan.logical` — the IR: scan / filter / project /
  aggregate / cluster nodes with schema propagation;
* :mod:`repro.plan.builder` — a fluent builder API as an alternative
  front end to the SQL parser;
* :mod:`repro.plan.rules` — predicate pushdown onto contributor
  collection, projection pushdown / column pruning;
* :mod:`repro.plan.substrate` — :class:`SubstrateProfile`, the device /
  failure / loss telemetry the optimizer is cost-based *over*;
* :mod:`repro.plan.cost` — the unified cost model folding in
  :func:`repro.core.cost.estimate_plan_cost`, device profiles, and
  measured failure telemetry;
* :mod:`repro.plan.optimizer` — the :class:`PhysicalOptimizer`
  enumerating candidates (partition degree, vertical grouping,
  Overcollection vs Backup, replication degree) over the substrate;
* :mod:`repro.plan.explain` — the :class:`ExplainReport` recording
  every candidate, its cost, and why it lost;
* :mod:`repro.plan.compile` — :func:`compile_query`, the single entry
  point every execution path goes through.

Layering: ``repro.plan`` sits between the substrate (core / query /
devices / network, which it imports) and the orchestration layers
(manager / workload / continuous / chaos, which import *it*) — enforced
by ``tools/check_layering.py``.
"""

from repro.plan.builder import ColumnExpr, QueryBuilder, col, scan
from repro.plan.compile import (
    OPTIMIZER_COST,
    OPTIMIZER_PINNED,
    CompiledQuery,
    compile_query,
)
from repro.plan.explain import CandidateReport, ExplainReport
from repro.plan.logical import (
    Aggregate,
    Cluster,
    Filter,
    LogicalPlan,
    LogicalPlanError,
    Project,
    Scan,
)
from repro.plan.optimizer import PhysicalCandidate, PhysicalOptimizer
from repro.plan.cost import CandidateCost, CostWeights
from repro.plan.rules import RuleTrace, apply_rules
from repro.plan.substrate import SUBSTRATE_PROFILES, SubstrateProfile

__all__ = [
    "Aggregate",
    "CandidateCost",
    "CandidateReport",
    "Cluster",
    "ColumnExpr",
    "CompiledQuery",
    "CostWeights",
    "ExplainReport",
    "Filter",
    "LogicalPlan",
    "LogicalPlanError",
    "OPTIMIZER_COST",
    "OPTIMIZER_PINNED",
    "PhysicalCandidate",
    "PhysicalOptimizer",
    "Project",
    "QueryBuilder",
    "RuleTrace",
    "SUBSTRATE_PROFILES",
    "Scan",
    "SubstrateProfile",
    "apply_rules",
    "col",
    "compile_query",
    "scan",
]
