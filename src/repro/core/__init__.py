"""Edgelet computing core — the paper's primary contribution.

This package implements the Edgelet data-management paradigm:
fully decentralized query computation over TEE-enabled personal devices
with three guaranteed properties:

* **Resiliency** — a query completes before a given deadline under a
  given fault presumption rate (:mod:`repro.core.resiliency`,
  :mod:`repro.core.overcollection`);
* **Validity** — the result is equivalent to a centralized execution
  (:mod:`repro.core.validity`);
* **Crowd Liability** — processing responsibility is spread evenly over
  the participants (:mod:`repro.core.liability`).

Plans are Query Execution Plans (:mod:`repro.core.qep`) produced by the
privacy- and resiliency-aware planner (:mod:`repro.core.planner`),
assigned to concrete edgelets by hashing device ids
(:mod:`repro.core.assignment`), and executed over the opportunistic
network by the per-role runtimes of :mod:`repro.core.runtime`
(coordinated by :class:`repro.core.runtime.ExecutionCoordinator`).
"""

from repro.core.advisor import QueryProperties, StrategyRecommendation, recommend_strategy
from repro.core.cost import EnergyModel, estimate_plan_cost, measure_execution_cost
from repro.core.representativeness import RepresentativenessReport, check_representative
from repro.core.qep import Operator, OperatorRole, QueryExecutionPlan
from repro.core.resiliency import (
    minimum_overcollection,
    query_success_probability,
)
from repro.core.overcollection import OvercollectionConfig
from repro.core.planner import (
    EdgeletPlanner,
    PlanningError,
    PrivacyParameters,
    QuerySpec,
    ResiliencyParameters,
)
from repro.core.assignment import SecureAssignment, assign_operators, contributor_builder
from repro.core.privacy import ExposureReport, measure_exposure
from repro.core.liability import LiabilityReport, gini_coefficient, measure_liability
from repro.core.validity import ValidityReport, compare_results
from repro.core.runtime import (
    ExecutionCoordinator,
    ExecutionReport,
    StrategyRuntime,
)

__all__ = [
    "ExecutionCoordinator",
    "EnergyModel",
    "EdgeletPlanner",
    "ExecutionReport",
    "ExposureReport",
    "LiabilityReport",
    "Operator",
    "QueryProperties",
    "OperatorRole",
    "OvercollectionConfig",
    "PlanningError",
    "PrivacyParameters",
    "QueryExecutionPlan",
    "RepresentativenessReport",
    "QuerySpec",
    "ResiliencyParameters",
    "SecureAssignment",
    "StrategyRecommendation",
    "StrategyRuntime",
    "ValidityReport",
    "assign_operators",
    "check_representative",
    "compare_results",
    "contributor_builder",
    "estimate_plan_cost",
    "gini_coefficient",
    "measure_exposure",
    "measure_execution_cost",
    "measure_liability",
    "minimum_overcollection",
    "recommend_strategy",
    "query_success_probability",
]
