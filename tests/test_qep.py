"""Tests for the QEP operator graph."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qep import (
    Operator,
    OperatorRole,
    PlanStructureError,
    QueryExecutionPlan,
)


def _minimal_plan() -> QueryExecutionPlan:
    plan = QueryExecutionPlan("q")
    contributor = plan.new_operator(OperatorRole.DATA_CONTRIBUTOR, op_id="c")
    builder = plan.new_operator(OperatorRole.SNAPSHOT_BUILDER, op_id="sb")
    computer = plan.new_operator(OperatorRole.COMPUTER, op_id="comp")
    combiner = plan.new_operator(OperatorRole.COMPUTING_COMBINER, op_id="comb")
    querier = plan.new_operator(OperatorRole.QUERIER, op_id="q0")
    plan.connect(contributor, builder)
    plan.connect(builder, computer)
    plan.connect(computer, combiner)
    plan.connect(combiner, querier)
    return plan


class TestConstruction:
    def test_duplicate_op_id_rejected(self):
        plan = QueryExecutionPlan("q")
        plan.new_operator(OperatorRole.QUERIER, op_id="x")
        with pytest.raises(PlanStructureError):
            plan.add_operator(Operator("x", OperatorRole.COMPUTER))

    def test_auto_ids_unique(self):
        plan = QueryExecutionPlan("q")
        a = plan.new_operator(OperatorRole.COMPUTER)
        b = plan.new_operator(OperatorRole.COMPUTER)
        assert a.op_id != b.op_id

    def test_connect_unknown_operator(self):
        plan = QueryExecutionPlan("q")
        plan.new_operator(OperatorRole.QUERIER, op_id="x")
        with pytest.raises(PlanStructureError):
            plan.connect("x", "ghost")

    def test_cycle_rejected(self):
        plan = QueryExecutionPlan("q")
        a = plan.new_operator(OperatorRole.COMPUTER, op_id="a")
        b = plan.new_operator(OperatorRole.COMPUTER, op_id="b")
        plan.connect(a, b)
        with pytest.raises(PlanStructureError):
            plan.connect(b, a)

    def test_len_counts_operators(self):
        assert len(_minimal_plan()) == 5


def _chain(length: int) -> QueryExecutionPlan:
    plan = QueryExecutionPlan("q")
    for i in range(length):
        plan.new_operator(OperatorRole.COMPUTER, op_id=f"n{i}")
    for i in range(length - 1):
        plan.connect(f"n{i}", f"n{i + 1}")
    return plan


class TestCycleCheck:
    """``connect`` looks only downstream of the consumer; the reference
    is the whole-graph check it used to run after every edge."""

    def test_self_loop_rejected(self):
        plan = _chain(2)
        with pytest.raises(PlanStructureError):
            plan.connect("n0", "n0")
        assert plan.edges() == [("n0", "n1")]

    def test_long_back_edge_rejected(self):
        plan = _chain(6)
        plan.connect("n1", "n4")  # a shortcut forward is fine
        before = plan.edges()
        with pytest.raises(PlanStructureError):
            plan.connect("n5", "n0")
        assert plan.edges() == before

    def test_duplicate_edge_accepted_once(self):
        plan = _chain(3)
        plan.connect("n0", "n1")
        assert plan.edges() == [("n0", "n1"), ("n1", "n2")]

    def test_diamond_is_not_a_cycle(self):
        plan = _chain(3)
        plan.new_operator(OperatorRole.COMPUTER, op_id="side")
        plan.connect("n0", "side")
        plan.connect("side", "n2")
        assert ("side", "n2") in plan.edges()

    def test_from_dict_refuses_a_cyclic_edge_list(self):
        data = _chain(3).to_dict()
        data["edges"].append(["n2", "n0"])
        with pytest.raises(PlanStructureError):
            QueryExecutionPlan.from_dict(data)

    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_refuses_exactly_the_edges_that_close_a_cycle(self, insertions):
        plan = QueryExecutionPlan("q")
        reference = nx.DiGraph()
        for i in range(8):
            plan.new_operator(OperatorRole.COMPUTER, op_id=f"n{i}")
            reference.add_node(f"n{i}")
        for producer, consumer in ((f"n{a}", f"n{b}") for a, b in insertions):
            before = plan.edges()
            reference.add_edge(producer, consumer)
            if nx.is_directed_acyclic_graph(reference):
                plan.connect(producer, consumer)
                assert plan.edges() == sorted(reference.edges)
            else:
                reference.remove_edge(producer, consumer)
                with pytest.raises(PlanStructureError):
                    plan.connect(producer, consumer)
                assert plan.edges() == before
        assert plan.depth() == nx.dag_longest_path_length(reference)
        for op_id in reference:
            assert [op.op_id for op in plan.consumers_of(op_id)] == sorted(
                reference.successors(op_id)
            )
            assert [op.op_id for op in plan.producers_of(op_id)] == sorted(
                reference.predecessors(op_id)
            )
        rebuilt = QueryExecutionPlan.from_dict(plan.to_dict())
        assert rebuilt.edges() == plan.edges()


class TestQueries:
    def test_role_filter(self):
        plan = _minimal_plan()
        assert [op.op_id for op in plan.operators(OperatorRole.COMPUTER)] == ["comp"]

    def test_producers_consumers(self):
        plan = _minimal_plan()
        assert [op.op_id for op in plan.producers_of("comp")] == ["sb"]
        assert [op.op_id for op in plan.consumers_of("comp")] == ["comb"]

    def test_fan_in_out(self):
        plan = _minimal_plan()
        assert plan.fan_in("comb") == 1
        assert plan.fan_out("sb") == 1

    def test_depth(self):
        assert _minimal_plan().depth() == 4
        assert QueryExecutionPlan("q").depth() == 0

    def test_unknown_op_id_is_a_plan_structure_error(self):
        plan = _minimal_plan()
        for lookup in (
            plan.operator, plan.producers_of, plan.consumers_of,
            plan.fan_in, plan.fan_out,
        ):
            with pytest.raises(PlanStructureError, match="ghost"):
                lookup("ghost")

    def test_role_filter_keeps_id_order_whatever_the_insertion_order(self):
        plan = QueryExecutionPlan("q")
        for op_id in ("c2", "b", "c10", "a"):
            plan.new_operator(OperatorRole.COMPUTER, op_id=op_id)
        plan.new_operator(OperatorRole.QUERIER, op_id="0")
        expected = ["a", "b", "c10", "c2"]
        assert [op.op_id for op in plan.operators(OperatorRole.COMPUTER)] == expected
        assert [op.op_id for op in plan.operators()] == ["0", *expected]
        assert plan.operators(OperatorRole.ACTIVE_BACKUP) == []

    def test_data_processor_classification(self):
        assert OperatorRole.SNAPSHOT_BUILDER.is_data_processor
        assert OperatorRole.COMPUTER.is_data_processor
        assert OperatorRole.ACTIVE_BACKUP.is_data_processor
        assert not OperatorRole.QUERIER.is_data_processor
        assert not OperatorRole.DATA_CONTRIBUTOR.is_data_processor


class TestValidation:
    def test_minimal_plan_valid(self):
        _minimal_plan().validate()

    def test_missing_querier(self):
        plan = QueryExecutionPlan("q")
        plan.new_operator(OperatorRole.DATA_CONTRIBUTOR, op_id="c")
        with pytest.raises(PlanStructureError):
            plan.validate()

    def test_two_queriers_rejected(self):
        plan = _minimal_plan()
        plan.new_operator(OperatorRole.QUERIER, op_id="q1")
        with pytest.raises(PlanStructureError):
            plan.validate()

    def test_querier_must_be_sink(self):
        plan = _minimal_plan()
        extra = plan.new_operator(OperatorRole.COMPUTER, op_id="after")
        plan.connect("q0", extra)
        plan.connect("c", extra)  # keep reachability satisfied
        with pytest.raises(PlanStructureError):
            plan.validate()

    def test_contributor_must_be_source(self):
        plan = _minimal_plan()
        plan.connect("comb", plan.new_operator(OperatorRole.DATA_CONTRIBUTOR, op_id="c2").op_id)
        with pytest.raises(PlanStructureError):
            plan.validate()

    def test_unreachable_operator_rejected(self):
        plan = _minimal_plan()
        plan.new_operator(OperatorRole.COMPUTER, op_id="orphan")
        with pytest.raises(PlanStructureError):
            plan.validate()

    def test_active_backup_must_mirror(self):
        plan = _minimal_plan()
        backup = plan.new_operator(
            OperatorRole.ACTIVE_BACKUP, params={"mirrors": "comb"}, op_id="bak"
        )
        plan.connect(backup, "q0")
        with pytest.raises(PlanStructureError):
            plan.validate()  # backup lacks the combiner's inputs
        plan.connect("comp", backup)
        plan.validate()

    def test_active_backup_without_mirrors_param(self):
        plan = _minimal_plan()
        backup = plan.new_operator(OperatorRole.ACTIVE_BACKUP, op_id="bak")
        plan.connect("comp", backup)
        plan.connect(backup, "q0")
        with pytest.raises(PlanStructureError):
            plan.validate()


class TestSerialization:
    def test_round_trip(self):
        plan = _minimal_plan()
        plan.operator("comp").assigned_to = "device-1"
        plan.metadata["kind"] = "aggregate"
        rebuilt = QueryExecutionPlan.from_dict(plan.to_dict())
        assert rebuilt.query_id == plan.query_id
        assert rebuilt.edges() == plan.edges()
        assert rebuilt.operator("comp").assigned_to == "device-1"
        assert rebuilt.metadata["kind"] == "aggregate"
        rebuilt.validate()

    def test_assigned_devices(self):
        plan = _minimal_plan()
        plan.operator("comp").assigned_to = "d1"
        assert plan.assigned_devices() == {"comp": "d1"}
