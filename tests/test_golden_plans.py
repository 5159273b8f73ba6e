"""Golden-plan regression suite.

Replays the committed SQL corpus through the cost-based optimizer over
every reference substrate profile and compares the decision against
``tests/golden/golden_plans.json``.  Any drift fails; regenerate with
``PYTHONPATH=src python tools/gen_golden_plans.py`` only when a planner
change is intentional.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.planner import PrivacyParameters
from repro.core.resiliency import strategy_name
from repro.plan.compile import OPTIMIZER_COST, compile_query
from repro.plan.substrate import SUBSTRATE_PROFILES

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_plans.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _matrix():
    for name in sorted(GOLDEN["queries"]):
        for profile in GOLDEN["profiles"]:
            yield name, profile


def _compile(name: str, profile_name: str):
    entry = GOLDEN["queries"][name]
    return compile_query(
        entry["sql"],
        query_id=name,
        snapshot_cardinality=entry["cardinality"],
        privacy=PrivacyParameters(max_raw_per_edgelet=entry["max_raw"]),
        optimizer=OPTIMIZER_COST,
        substrate=SUBSTRATE_PROFILES[profile_name],
    )


class TestGoldenShape:
    def test_matrix_is_complete(self):
        assert len(GOLDEN["queries"]) >= 15
        assert set(GOLDEN["profiles"]) == set(SUBSTRATE_PROFILES)
        for name in GOLDEN["queries"]:
            assert set(GOLDEN["plans"][name]) == set(GOLDEN["profiles"])


@pytest.mark.parametrize("name,profile", list(_matrix()))
def test_golden_plan(name: str, profile: str):
    expected = GOLDEN["plans"][name][profile]
    compiled = _compile(name, profile)
    chosen = compiled.explain.chosen
    assert chosen.key == expected["chosen"]
    assert strategy_name(compiled.resiliency.replicas) == expected["strategy"]
    assert compiled.privacy.max_raw_per_edgelet == expected["max_raw"]
    assert chosen.cost.total == pytest.approx(expected["total"], abs=1e-6)
    assert chosen.cost.bytes == expected["bytes"]
    assert chosen.cost.messages == expected["messages"]
    assert chosen.cost.success_probability == pytest.approx(
        expected["success_probability"], abs=1e-6
    )
    assert len(compiled.explain.candidates) == expected["n_candidates"]


class TestGoldenStability:
    def test_decision_is_deterministic_across_recompiles(self):
        name = sorted(GOLDEN["queries"])[0]
        first = _compile(name, "residential")
        second = _compile(name, "residential")
        assert first.explain.chosen.key == second.explain.chosen.key
        assert [
            (c.key, c.cost.total if c.cost else None)
            for c in first.explain.candidates
        ] == [
            (c.key, c.cost.total if c.cost else None)
            for c in second.explain.candidates
        ]
