"""repro.chaos — seeded chaos campaigns with invariant checking.

The verification muscle behind the paper's failure demonstrations:
executable Resiliency / Validity / Crowd Liability invariants
(:mod:`~repro.chaos.invariants`), deterministic seeded campaign sweeps
(:mod:`~repro.chaos.campaign`), one ddmin shrinker over every scripted
fault kind (:mod:`~repro.chaos.shrink`), replayable JSON repro
artifacts (:mod:`~repro.chaos.artifact`), chaos over concurrent
multi-query workloads with per-query invariant verdicts
(:mod:`~repro.chaos.workload`, home of the one per-unit judge), and
long-soak chaos over standing queries with per-window verdicts under
population churn (:mod:`~repro.chaos.continuous`).  The fault models
they drive live one layer down: message rules in
:mod:`repro.network.faults`, the one scripted schedule in
:mod:`repro.network.failures`, its seeded outage generator in
:mod:`repro.network.outages`.
"""

from repro.chaos.artifact import ReproArtifact
from repro.chaos.continuous import SoakOutcome, run_soak
from repro.chaos.campaign import (
    CampaignConfig,
    CampaignResult,
    RunOutcome,
    RunSpec,
    TopologySpec,
    run_campaign,
    run_single,
)
from repro.network.faults import parse_fault_mix
from repro.chaos.invariants import (
    INVARIANTS,
    RunRecord,
    Violation,
    check_all,
)
from repro.chaos.shrink import (
    failure_plan_from_events,
    shrink_failure_plan,
)
from repro.chaos.workload import (
    UnitOutcome,
    WorkloadChaosOutcome,
    run_workload,
    shrink_workload_plan,
    workload_failure_predicate,
)

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "INVARIANTS",
    "ReproArtifact",
    "RunOutcome",
    "RunRecord",
    "RunSpec",
    "SoakOutcome",
    "TopologySpec",
    "UnitOutcome",
    "Violation",
    "WorkloadChaosOutcome",
    "check_all",
    "failure_plan_from_events",
    "parse_fault_mix",
    "run_campaign",
    "run_single",
    "run_soak",
    "run_workload",
    "shrink_failure_plan",
    "shrink_workload_plan",
    "workload_failure_predicate",
]
