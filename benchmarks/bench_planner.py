"""Q-PLAN — the cost-based optimizer versus fixed physical strategies.

A fixed strategy (one (strategy, raw-cap, replicas, vertical) point
applied to every query on every substrate) is what the pre-pipeline
call sites hard-coded.  The claim this bench demonstrates: letting the
:class:`~repro.plan.optimizer.PhysicalOptimizer` pick per (query,
substrate) beats the *worst* fixed choice by >= 20% estimated bytes on
at least 2 of the 4 reference substrate profiles — i.e., no single
hard-coded configuration is safe across substrates, while the
cost-based choice adapts.

Estimated bytes come from the same unified cost model the optimizer
ranks with (:func:`repro.plan.cost.score_plan` folding
``estimate_plan_cost`` and the substrate's delivery overhead), so the
comparison is apples-to-apples across candidates.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _tables import print_table

from repro.core.planner import PrivacyParameters
from repro.core.resiliency import strategy_name
from repro.plan.compile import OPTIMIZER_COST, compile_query
from repro.plan.substrate import SUBSTRATE_PROFILES

#: A compact slice of the golden corpus: the demo rollup, a narrow-cap
#: count, a wide multi-aggregate, and a pair grouping.
CORPUS = (
    ("rollup",
     "SELECT count(*), avg(age), avg(bmi) FROM health WHERE age > 65 "
     "GROUP BY GROUPING SETS ((region), ())", 240, 48),
    ("narrow-cap",
     "SELECT count(*), avg(age) FROM health GROUP BY region", 320, 16),
    ("multi-agg",
     "SELECT count(*), avg(bmi), sum(glucose) FROM health WHERE age > 30 "
     "GROUP BY GROUPING SETS ((sex), (region), ())", 288, 48),
    ("pair-group",
     "SELECT sum(glucose), count(*) FROM health "
     "GROUP BY GROUPING SETS ((region, sex), ())", 192, 48),
)


def _profile_bytes(profile_name: str) -> dict:
    """Cost-based vs every fixed candidate, summed over the corpus."""
    profile = SUBSTRATE_PROFILES[profile_name]
    chosen_bytes = 0
    fixed_bytes: dict[str, int] = {}
    fixed_feasible: dict[str, bool] = {}
    for name, sql, cardinality, max_raw in CORPUS:
        compiled = compile_query(
            sql,
            query_id=f"qplan-{name}",
            snapshot_cardinality=cardinality,
            privacy=PrivacyParameters(max_raw_per_edgelet=max_raw),
            optimizer=OPTIMIZER_COST,
            substrate=profile,
        )
        chosen_bytes += compiled.explain.chosen.cost.bytes
        for report in compiled.explain.candidates:
            # a fixed strategy is a (strategy, vertical, replicas) policy
            # applied at the caller's cap on every query
            candidate = report.candidate
            policy = (
                f"{strategy_name(candidate.replicas)}/r{candidate.replicas}"
                f"/{candidate.vertical}"
                if candidate.max_raw == max_raw
                else None
            )
            if policy is None:
                continue
            if report.feasible and report.cost is not None:
                fixed_bytes[policy] = (
                    fixed_bytes.get(policy, 0) + report.cost.bytes
                )
            else:
                fixed_feasible[policy] = False
    viable = {
        policy: total for policy, total in fixed_bytes.items()
        if fixed_feasible.get(policy, True)
    }
    worst_policy = max(viable, key=lambda p: viable[p])
    return {
        "profile": profile_name,
        "chosen_bytes": chosen_bytes,
        "worst_policy": worst_policy,
        "worst_bytes": viable[worst_policy],
        "saving": 1.0 - chosen_bytes / viable[worst_policy],
    }


def test_cost_based_choice_beats_worst_fixed_strategy(benchmark):
    """Q-PLAN: adaptivity margin over the worst hard-coded strategy."""
    rows = []
    big_wins = 0
    for profile_name in sorted(SUBSTRATE_PROFILES):
        cell = _profile_bytes(profile_name)
        if cell["saving"] >= 0.20:
            big_wins += 1
        rows.append([
            cell["profile"],
            cell["chosen_bytes"],
            cell["worst_policy"],
            cell["worst_bytes"],
            f"{cell['saving']:.1%}",
        ])
    print_table(
        "Q-PLAN: cost-based vs worst fixed strategy "
        "(4-query corpus, estimated bytes)",
        ["profile", "cost-based bytes", "worst fixed policy",
         "worst fixed bytes", "saving"],
        rows,
    )
    # the acceptance bar: >= 20% byte saving on >= 2 of 4 substrates
    assert big_wins >= 2, (
        f"cost-based planning beat the worst fixed strategy by >= 20% on "
        f"only {big_wins} of 4 profiles"
    )

    benchmark(lambda: _profile_bytes("residential"))
