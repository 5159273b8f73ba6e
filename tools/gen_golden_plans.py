#!/usr/bin/env python
"""Regenerate the golden physical-plan expectations.

Compiles the committed SQL corpus in cost mode over every reference
substrate profile and records the optimizer's decision (chosen
candidate key, scored cost, resolved parameters) to
``tests/golden/golden_plans.json``.  The golden suite
(``tests/test_golden_plans.py``) replays the same matrix and fails on
any drift, so re-run this tool *only* when a planner change is
intentional — and review the diff like any other behaviour change::

    PYTHONPATH=src python tools/gen_golden_plans.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.planner import PrivacyParameters
from repro.core.resiliency import strategy_name
from repro.plan.compile import OPTIMIZER_COST, compile_query
from repro.plan.substrate import SUBSTRATE_PROFILES

#: name -> (sql, snapshot_cardinality, max_raw cap)
CORPUS: dict[str, tuple[str, int, int]] = {
    "q01-count-by-region": (
        "SELECT count(*) FROM health GROUP BY region", 240, 48,
    ),
    "q02-filtered-rollup": (
        "SELECT count(*), avg(age), avg(bmi) FROM health WHERE age > 65 "
        "GROUP BY GROUPING SETS ((region), ())", 240, 48,
    ),
    "q03-three-grouping-sets": (
        "SELECT count(*), avg(age), avg(bmi) FROM health WHERE age > 65 "
        "GROUP BY GROUPING SETS ((region), (sex), ())", 192, 48,
    ),
    "q04-minmax-span": (
        "SELECT min(age), max(age), min(bmi), max(bmi) FROM health "
        "GROUP BY region", 240, 48,
    ),
    "q05-sum-by-pair": (
        "SELECT sum(glucose), count(*) FROM health "
        "GROUP BY GROUPING SETS ((region, sex), ())", 192, 48,
    ),
    "q06-var-std": (
        "SELECT var(bmi), std(systolic_bp) FROM health GROUP BY sex",
        240, 48,
    ),
    "q07-distinct-zipcodes": (
        "SELECT distinct(zipcode) FROM health GROUP BY region", 240, 48,
    ),
    "q08-having-floor": (
        "SELECT count(*) AS n, avg(glucose) FROM health GROUP BY region "
        "HAVING n > 4", 240, 48,
    ),
    "q09-conjunctive-where": (
        "SELECT count(*), avg(systolic_bp) FROM health "
        "WHERE age > 40 AND bmi > 25 GROUP BY region", 240, 48,
    ),
    "q10-narrow-cap": (
        "SELECT count(*), avg(age) FROM health GROUP BY region", 320, 16,
    ),
    "q11-wide-cap": (
        "SELECT count(*), avg(age) FROM health GROUP BY region", 96, 96,
    ),
    "q12-single-aggregate": (
        "SELECT avg(dependency_level) FROM health GROUP BY region", 240, 48,
    ),
    "q13-global-rollup": (
        "SELECT count(*), avg(age), avg(bmi), avg(glucose) FROM health "
        "GROUP BY GROUPING SETS (())", 240, 48,
    ),
    "q14-filtered-sex-split": (
        "SELECT count(*), avg(bmi), sum(glucose) FROM health "
        "WHERE age > 30 GROUP BY GROUPING SETS ((sex), (region), ())",
        288, 48,
    ),
    "q15-ordered-top-regions": (
        "SELECT count(*) AS n FROM health GROUP BY region "
        "ORDER BY n DESC LIMIT 3", 240, 48,
    ),
}

GOLDEN_PATH = Path(__file__).resolve().parent.parent / (
    "tests/golden/golden_plans.json"
)


def build_golden() -> dict:
    plans: dict[str, dict[str, dict]] = {}
    for name, (sql, cardinality, max_raw) in sorted(CORPUS.items()):
        plans[name] = {}
        for profile_name in sorted(SUBSTRATE_PROFILES):
            profile = SUBSTRATE_PROFILES[profile_name]
            compiled = compile_query(
                sql,
                query_id=name,
                snapshot_cardinality=cardinality,
                privacy=PrivacyParameters(max_raw_per_edgelet=max_raw),
                optimizer=OPTIMIZER_COST,
                substrate=profile,
            )
            chosen = compiled.explain.chosen
            plans[name][profile_name] = {
                "chosen": chosen.key,
                "strategy": strategy_name(compiled.resiliency.replicas),
                "max_raw": compiled.privacy.max_raw_per_edgelet,
                "backup_replicas": chosen.candidate.replicas,
                "total": chosen.cost.total,
                "bytes": chosen.cost.bytes,
                "messages": chosen.cost.messages,
                "success_probability": round(
                    chosen.cost.success_probability, 6
                ),
                "n_candidates": len(compiled.explain.candidates),
            }
    return {
        "generator": "tools/gen_golden_plans.py",
        "queries": {
            name: {"sql": sql, "cardinality": card, "max_raw": raw}
            for name, (sql, card, raw) in sorted(CORPUS.items())
        },
        "profiles": sorted(SUBSTRATE_PROFILES),
        "plans": plans,
    }


def main() -> int:
    golden = build_golden()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    cells = sum(len(row) for row in golden["plans"].values())
    print(f"wrote {GOLDEN_PATH} ({len(golden['plans'])} queries x "
          f"{len(golden['profiles'])} profiles = {cells} plans)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
