"""Tests for serializable predicate expressions."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.expressions import (
    AndExpr,
    ColumnRef,
    CompareExpr,
    InExpr,
    Literal,
    NotExpr,
    OrExpr,
    expression_from_dict,
)


class TestEvaluation:
    def test_column_ref(self):
        assert ColumnRef("age").evaluate({"age": 70}) == 70
        assert ColumnRef("age").evaluate({}) is None

    def test_literal(self):
        assert Literal(5).evaluate({}) == 5

    def test_comparisons(self):
        row = {"age": 70}
        age = ColumnRef("age")
        assert CompareExpr(">", age, Literal(65)).evaluate(row)
        assert not CompareExpr("<", age, Literal(65)).evaluate(row)
        assert CompareExpr(">=", age, Literal(70)).evaluate(row)
        assert CompareExpr("<=", age, Literal(70)).evaluate(row)
        assert CompareExpr("=", age, Literal(70)).evaluate(row)
        assert CompareExpr("!=", age, Literal(71)).evaluate(row)

    def test_null_comparison_is_false(self):
        expr = CompareExpr(">", ColumnRef("age"), Literal(65))
        assert not expr.evaluate({"age": None})
        assert not expr.evaluate({})

    def test_unknown_comparator_rejected(self):
        with pytest.raises(ValueError):
            CompareExpr("<>", Literal(1), Literal(2))

    def test_in_expression(self):
        expr = InExpr(ColumnRef("region"), ("idf", "paca"))
        assert expr.evaluate({"region": "idf"})
        assert not expr.evaluate({"region": "bretagne"})
        assert not expr.evaluate({"region": None})

    def test_boolean_combinators(self):
        age_ok = CompareExpr(">", ColumnRef("age"), Literal(65))
        idf = CompareExpr("=", ColumnRef("region"), Literal("idf"))
        both = AndExpr((age_ok, idf))
        either = OrExpr((age_ok, idf))
        negated = NotExpr(age_ok)
        assert both.evaluate({"age": 70, "region": "idf"})
        assert not both.evaluate({"age": 70, "region": "paca"})
        assert either.evaluate({"age": 60, "region": "idf"})
        assert negated.evaluate({"age": 60})

    def test_columns_collection(self):
        expr = AndExpr(
            (
                CompareExpr(">", ColumnRef("age"), Literal(65)),
                NotExpr(InExpr(ColumnRef("region"), ("idf",))),
            )
        )
        assert expr.columns() == {"age", "region"}


class TestSerialization:
    def _round_trip(self, expr):
        return expression_from_dict(expr.to_dict())

    def test_round_trip_all_node_types(self):
        expr = OrExpr(
            (
                AndExpr(
                    (
                        CompareExpr(">", ColumnRef("age"), Literal(65)),
                        InExpr(ColumnRef("region"), ("idf", "paca")),
                    )
                ),
                NotExpr(CompareExpr("=", ColumnRef("sex"), Literal("F"))),
            )
        )
        rebuilt = self._round_trip(expr)
        row = {"age": 70, "region": "idf", "sex": "F"}
        assert rebuilt.evaluate(row) == expr.evaluate(row)
        assert rebuilt.to_dict() == expr.to_dict()

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            expression_from_dict({"op": "xor"})

    @given(
        age=st.one_of(st.none(), st.integers(min_value=0, max_value=120)),
        threshold=st.integers(min_value=0, max_value=120),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_semantics_property(self, age, threshold):
        expr = CompareExpr(">", ColumnRef("age"), Literal(threshold))
        rebuilt = expression_from_dict(expr.to_dict())
        assert rebuilt.evaluate({"age": age}) == expr.evaluate({"age": age})


# -- the compiled closure against the tree walk it replaced ------------------

_TREE_WALK_COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _tree_walk(expr, row):
    """``Expression.evaluate`` as a recursive walk of the tree per row:
    the reference the compiled closures must agree with."""
    if isinstance(expr, ColumnRef):
        return row.get(expr.name)
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, CompareExpr):
        left = _tree_walk(expr.left, row)
        right = _tree_walk(expr.right, row)
        if left is None or right is None:
            return False
        return _TREE_WALK_COMPARATORS[expr.comparator](left, right)
    if isinstance(expr, InExpr):
        value = _tree_walk(expr.operand, row)
        if value is None:
            return False
        return value in expr.choices
    if isinstance(expr, AndExpr):
        return all(_tree_walk(operand, row) for operand in expr.operands)
    if isinstance(expr, OrExpr):
        return any(_tree_walk(operand, row) for operand in expr.operands)
    if isinstance(expr, NotExpr):
        return not _tree_walk(expr.operand, row)
    raise AssertionError(f"unexpected node {expr!r}")


def _outcome(fn, row):
    """``("value", repr, type)`` or ``("raises", exception type)``."""
    try:
        value = fn(row)
    except Exception as error:  # noqa: BLE001 - the type is the outcome
        return ("raises", type(error))
    return ("value", repr(value), type(value))


_COLUMN_NAMES = ("a", "b", "c")
_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from((-1.5, 0.0, 2.0, float("nan"))),
    st.sampled_from(("x", "y", "")),
)
_LEAVES = st.one_of(
    st.sampled_from(_COLUMN_NAMES).map(ColumnRef), _CELLS.map(Literal)
)
_COMPARES = st.builds(
    CompareExpr, st.sampled_from(sorted(_TREE_WALK_COMPARATORS)), _LEAVES, _LEAVES
)
_INS = st.builds(
    InExpr, _LEAVES, st.lists(_CELLS, max_size=3).map(tuple)
)
_PREDICATES = st.recursive(
    st.one_of(_COMPARES, _INS),
    lambda children: st.one_of(
        # bare column refs and literals as boolean operands too: their
        # truthiness, not their value, must come out
        st.lists(st.one_of(children, _LEAVES), min_size=1, max_size=3)
        .map(tuple)
        .map(AndExpr),
        st.lists(st.one_of(children, _LEAVES), min_size=1, max_size=3)
        .map(tuple)
        .map(OrExpr),
        st.one_of(children, _LEAVES).map(NotExpr),
        # a boolean subtree as a comparison operand
        st.builds(CompareExpr, st.sampled_from(("=", "<")), children, _LEAVES),
    ),
    max_leaves=8,
)
_ROWS = st.dictionaries(st.sampled_from(_COLUMN_NAMES), _CELLS)


class TestCompiledPredicate:
    @given(expr=_PREDICATES, rows=st.lists(_ROWS, min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_closure_agrees_with_the_tree_walk(self, expr, rows):
        for row in rows:
            expected = _outcome(lambda r: _tree_walk(expr, r), row)
            assert _outcome(expr.evaluator, row) == expected
            assert _outcome(expr.evaluate, row) == expected

    def test_a_false_first_operand_short_circuits_a_raising_one(self):
        raising = CompareExpr("<", ColumnRef("s"), Literal(1))
        false = CompareExpr("=", ColumnRef("n"), Literal(0))
        true = NotExpr(false)
        row = {"s": "text", "n": 1}
        with pytest.raises(TypeError):
            raising.evaluator(row)
        assert AndExpr((false, raising)).evaluator(row) is False
        assert OrExpr((true, raising)).evaluator(row) is True
        with pytest.raises(TypeError):
            AndExpr((true, raising)).evaluator(row)
        with pytest.raises(TypeError):
            OrExpr((false, raising)).evaluator(row)

    def test_null_compares_false_on_either_side(self):
        for left, right in (
            (ColumnRef("a"), Literal(1)),
            (Literal(1), ColumnRef("a")),
            (ColumnRef("a"), Literal(None)),
            (ColumnRef("a"), ColumnRef("b")),
        ):
            for comparator in ("=", "!=", "<"):
                compare = CompareExpr(comparator, left, right)
                assert compare.evaluator({"a": None, "b": 1}) is False
                assert compare.evaluator({"b": 1}) is False

    def test_the_closure_is_not_part_of_the_value(self):
        def build():
            return AndExpr(
                (
                    CompareExpr(">", ColumnRef("age"), Literal(65)),
                    InExpr(ColumnRef("region"), ("idf",)),
                )
            )

        compiled, fresh = build(), build()
        assert compiled.evaluate({"age": 70, "region": "idf"})
        assert compiled.evaluator is compiled.evaluator  # built once
        assert compiled == fresh
        assert hash(compiled) == hash(fresh)
        assert repr(compiled) == repr(fresh)
        assert compiled.to_dict() == fresh.to_dict()
        restored = pickle.loads(pickle.dumps(compiled))
        assert restored == compiled
        assert "evaluator" not in vars(restored)
        assert restored.evaluate({"age": 70, "region": "idf"})
