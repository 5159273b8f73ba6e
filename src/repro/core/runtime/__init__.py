"""Per-role operator runtimes and the execution coordinator.

One small runtime per :class:`repro.core.qep.OperatorRole` plus the one
resiliency runtime that runs every plan by its rank structure:

========================  ==============================================
module                    owns
========================  ==============================================
:mod:`.context`           shared clock/network/plan state and services
:mod:`.events`            the typed record of every execution step
:mod:`.contributor`       jittered contribution scheduling
:mod:`.builder`           snapshot intake, freeze, commit, ship
:mod:`.computer`          aggregate folding and K-Means heartbeats
:mod:`.combiner`          partial/knowledge merge algebra and finalize
:mod:`.querier`           final-result dedup and report assembly
:mod:`.strategy`          rank 0 at once, replicas on takeover timers
:mod:`.recovery`          phase watchdogs and standby reprovisioning
:mod:`.incremental`       cross-window contribution cache (delta stamps)
:mod:`.coordinator`       routing, dedup, phase timers, run horizon
========================  ==============================================
"""

from repro.core.runtime.builder import BuilderRuntime, commit_snapshot, ship_partition
from repro.core.runtime.combiner import CombinerRuntime, CombinerState, stitch_groups
from repro.core.runtime.computer import ComputerRuntime
from repro.core.runtime.context import ExecutionContext
from repro.core.runtime.contributor import ContributorRuntime
from repro.core.runtime.coordinator import ExecutionCoordinator
from repro.core.runtime.incremental import STAMP_BYTES, ContributionCache
from repro.core.runtime.querier import QuerierRuntime
from repro.core.runtime.recovery import RecoveryRuntime
from repro.core.runtime.report import (
    ExecutionError,
    ExecutionEvidence,
    ExecutionReport,
    KMeansOutcome,
)
from repro.core.runtime.strategy import StrategyRuntime

__all__ = [
    "BuilderRuntime",
    "CombinerRuntime",
    "CombinerState",
    "ComputerRuntime",
    "ContributionCache",
    "ContributorRuntime",
    "ExecutionContext",
    "ExecutionCoordinator",
    "ExecutionError",
    "ExecutionEvidence",
    "ExecutionReport",
    "KMeansOutcome",
    "QuerierRuntime",
    "RecoveryRuntime",
    "STAMP_BYTES",
    "StrategyRuntime",
    "commit_snapshot",
    "ship_partition",
    "stitch_groups",
]
