"""A concluded unit keeps its combiner dedup verdict, not its partials.

The dedup check (:func:`repro.chaos.invariants.check_combiner_dedup`)
is the only check that reads a combiner's partial states.  It is judged
once, when the evidence is built
(:meth:`~repro.core.runtime.combiner.CombinerState.judge_dedup`), with a
fast path for states that are equal; the evidence then keeps the verdict
and lets an unflagged combiner's partials go.

``TestVerdictEquivalence`` holds the stored verdict to the check as it
was judged post hoc over the live partials — finalize both replays and
compare — on a clean run and under three mutants of
:meth:`CombinerState.record_partial`; the two part only on a result with
a NaN value, which the post hoc check flagged because NaN != NaN.
``TestRetention`` walks what a concluded unit's evidence references.
"""

from __future__ import annotations

import copy
import gc
from types import ModuleType, SimpleNamespace

import pytest

from repro.chaos.campaign import RunSpec, run_single
from repro.chaos.invariants import RunRecord, Violation, check_combiner_dedup
from repro.core.overcollection import OvercollectionConfig
from repro.core.runtime import CombinerState
from repro.core.validity import EXACT_TOLERANCE, compare_results
from repro.query.aggregates import AggregateSpec, AggregateState
from repro.query.groupby import GroupByQuery, PartialGroups, evaluate_group_by
from repro.telemetry import null_telemetry
from repro.workload import WorkloadEngine, WorkloadSpec

_record_partial = CombinerState.record_partial


def _retally(self, partition_index, group_index, partial, generation=0):
    """Mutant: a duplicate re-records its partition in the group's
    tally.  The tally is a set, so the states stay equal."""
    key = (partition_index, group_index)
    current = self.accepted_generations.get(key)
    if current is not None and generation <= current:
        self.group_tallies[group_index].record(partition_index)
        return "rejected"
    return _record_partial(self, partition_index, group_index, partial, generation)


def _copy(self, partition_index, group_index, partial, generation=0):
    """Mutant: a duplicate at the held generation replaces the held
    partial with a copy of itself.  The states differ (another object
    holds the cell) but finalize to the same result."""
    key = (partition_index, group_index)
    if self.accepted_generations.get(key) == generation:
        self.partials[key] = copy.deepcopy(partial)
        return "replaced"
    return _record_partial(self, partition_index, group_index, partial, generation)


def _merged(held: PartialGroups, extra: PartialGroups) -> PartialGroups:
    groups = []
    for mine, theirs in zip(held.groups, extra.groups):
        merged = dict(mine)
        for key, states in theirs.items():
            merged[key] = (
                [a.merge(b) for a, b in zip(mine[key], states)]
                if key in mine
                else states
            )
        groups.append(merged)
    return PartialGroups(held.n_sets, held.n_aggs, groups)


def _double(self, partition_index, group_index, partial, generation=0):
    """Mutant: a duplicate at the held generation is merged into the
    held partial — the double count dedup exists to prevent."""
    key = (partition_index, group_index)
    if self.accepted_generations.get(key) == generation:
        self.partials[key] = _merged(self.partials[key], partial)
        return "replaced"
    return _record_partial(self, partition_index, group_index, partial, generation)


#: mutant -> (record_partial, whether the replayed states are equal,
#: whether the check flags the run)
MUTANTS = {
    "clean": (_record_partial, True, False),
    "retally": (_retally, True, False),
    "copy": (_copy, False, False),
    "double": (_double, False, True),
}


def _posthoc(executor) -> Violation | None:
    """The dedup check as it was judged over the live partials after
    the run: replay once and twice, finalize both, compare."""
    indices = executor.aggregate_indices_per_group
    for name, state in executor.combiners.items():
        if not state.partials:
            continue
        once = CombinerState(name, state.config, state.n_groups, executor.query)
        twice = CombinerState(name, state.config, state.n_groups, executor.query)
        for (partition, group), partial in sorted(state.partials.items()):
            once.record_partial(partition, group, partial)
            twice.record_partial(partition, group, partial)
            twice.record_partial(partition, group, partial)
        result_once = once.finalize_aggregate(indices)
        result_twice = twice.finalize_aggregate(indices)
        if (result_once is None) != (result_twice is None):
            return Violation(
                "combiner_dedup",
                f"{name}: duplicate recording changed finalizability",
            )
        if result_once is None:
            continue
        comparison = compare_results(result_once, result_twice)
        if not comparison.is_valid(EXACT_TOLERANCE):
            return Violation(
                "combiner_dedup",
                f"{name}: duplicate partial recording changed the result",
                {"comparison": comparison.summary()},
            )
    return None


def _mutated_run(monkeypatch, mutant: str):
    monkeypatch.setattr(CombinerState, "record_partial", MUTANTS[mutant][0])
    return run_single(RunSpec(seed=4, tag=f"dedup-{mutant}")).result


class TestVerdictEquivalence:
    @pytest.mark.parametrize("mutant", list(MUTANTS))
    def test_stored_verdict_equals_the_posthoc_check(self, monkeypatch, mutant):
        result = _mutated_run(monkeypatch, mutant)
        live = result.executor.combiners
        assert all(state.partials for state in live.values())
        stored = check_combiner_dedup(RunRecord(result=result))
        assert stored == _posthoc(result.executor)
        assert (stored is not None) == MUTANTS[mutant][2]

    @pytest.mark.parametrize("mutant", list(MUTANTS))
    def test_only_unequal_states_are_finalized(self, monkeypatch, mutant):
        result = _mutated_run(monkeypatch, mutant)
        indices = result.executor.aggregate_indices_per_group
        finalized = []
        finalize = CombinerState.finalize_aggregate

        def counted(self, *args):
            finalized.append(self.name)
            return finalize(self, *args)

        monkeypatch.setattr(CombinerState, "finalize_aggregate", counted)
        stored = result.evidence.combiners
        for name, state in result.executor.combiners.items():
            assert state.judge_dedup(indices) == stored[name].dedup_fault
        assert (not finalized) == MUTANTS[mutant][1]


def test_a_nan_result_is_not_a_dedup_breach():
    # the states are equal, so the check passes without finalizing; the
    # post hoc check compared the result with itself, and NaN != NaN
    query = GroupByQuery(
        grouping_sets=(("g",),), aggregates=(AggregateSpec("avg", "x"),)
    )
    state = CombinerState(
        "combiner", OvercollectionConfig(n=2, m=0, snapshot_cardinality=4), 1, query
    )
    for partition, x in enumerate((float("nan"), 2.0)):
        state.record_partial(partition, 0, evaluate_group_by(query, [{"g": 1, "x": x}]))
    executor = SimpleNamespace(
        aggregate_indices_per_group=[[0]], query=query, combiners={"combiner": state}
    )
    assert state.judge_dedup([[0]]) is None
    assert _posthoc(executor).detail == (
        "combiner: duplicate partial recording changed the result"
    )


def _reachable_states(evidence) -> set[str]:
    """Names of the partial-state types reachable from ``evidence``.

    The walk skips modules and classes, and the evidence's network: it
    is the run's shared swarm, whose handlers reach whatever its
    callers hold (a one-shot result's live executor among them)."""
    seen = {id(evidence.network)}
    stack = [evidence]
    found: set[str] = set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, (PartialGroups, AggregateState)):
            found.add(type(obj).__name__)
            continue
        stack.extend(gc.get_referents(obj))
    return found


class TestRetention:
    def test_concluded_unit_keeps_no_partial_state(self):
        spec = WorkloadSpec(
            n_queries=6, arrival_process="closed", target_in_flight=3,
            max_concurrent=3, queue_capacity=0, seed=13,
        )
        engine = WorkloadEngine(
            spec, n_contributors=30, n_processors=60, telemetry=null_telemetry()
        )
        result = engine.run()
        assert result.completed == 6
        for record in result.records:
            evidence = record.evidence
            assert all(c.state is None for c in evidence.combiners.values())
            assert _reachable_states(evidence) == set()

    def test_one_shot_evidence_keeps_no_partial_state(self):
        # a one-shot result keeps its executor, but not through its
        # evidence
        result = run_single(RunSpec(seed=4, tag="dedup-retention")).result
        assert any(state.partials for state in result.executor.combiners.values())
        assert _reachable_states(result.evidence) == set()

    def test_flagged_unit_keeps_its_partials(self, monkeypatch):
        result = _mutated_run(monkeypatch, "double")
        flagged = [
            combiner
            for combiner in result.evidence.combiners.values()
            if combiner.dedup_fault is not None
        ]
        assert flagged
        for combiner in flagged:
            assert combiner.state.partials
            assert combiner.state.group_tallies is combiner.group_tallies
        assert _reachable_states(result.evidence) == {"PartialGroups"}
