"""CHAOS — seeded chaos campaigns over both execution strategies.

Measures what the paper demonstrates live ("intentionally power off
some concrete devices ... vary the failure probability") as a
repeatable experiment: a deterministic campaign sweeping strategy x
crash probability x message-fault mix, with the Resiliency / Validity /
Crowd Liability invariants checked after every run.  The summary table
shows, per grid cell, how often the query still completed and how many
message-level faults the runs absorbed — the graceful-degradation
surface of the two strategies.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _tables import print_table

from repro.chaos import CampaignConfig, RunSpec, parse_fault_mix, run_campaign
from repro.telemetry import Telemetry

BENIGN_MIX = parse_fault_mix(
    "drop=0.03,duplicate=0.1;partition:delay=0.2,delay_min=0.5,delay_max=2"
)


def _campaign(fault_mixes, runs=8, seed=7):
    return CampaignConfig(
        base=RunSpec(seed=seed, tag="chaos"),
        runs=runs,
        replicas=(0, 1),
        crash_probabilities=(0.0, 0.002),
        fault_mixes=fault_mixes,
        shrink=False,  # measuring sweep cost, not debugging
    )


def test_chaos_campaign_sweep(benchmark):
    config = _campaign(((), BENIGN_MIX), runs=16)
    result = run_campaign(config, telemetry=Telemetry())
    print_table(
        "CHAOS campaign: strategy x crash probability x fault mix "
        f"(seed={config.base.seed}, {config.runs} runs)",
        ["strategy", "crash p", "mix", "runs", "ok", "faults", "violations"],
        result.summary_rows(),
    )
    assert result.ok, [v.detail for _, v in result.violations]

    small = _campaign(((),), runs=4)
    benchmark(lambda: run_campaign(small, telemetry=Telemetry()))


def test_chaos_fault_absorption(benchmark):
    """Faulty cells still succeed: message-level faults are absorbed."""
    config = _campaign((BENIGN_MIX,), runs=8)
    result = run_campaign(config, telemetry=Telemetry())
    succeeded = sum(
        1 for o in result.outcomes if o.result.report.success
    )
    absorbed = sum(
        len(o.result.fault_injector.decisions)
        for o in result.outcomes
        if o.result.fault_injector is not None
    )
    print_table(
        "CHAOS fault absorption (benign mix: drop/duplicate/delay)",
        ["runs", "succeeded", "faults injected", "violations"],
        [[len(result.outcomes), succeeded, absorbed, len(result.violations)]],
    )
    assert absorbed > 0
    assert result.ok

    benchmark(
        lambda: run_campaign(_campaign((BENIGN_MIX,), runs=2), telemetry=Telemetry())
    )
