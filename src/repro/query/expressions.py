"""Serializable predicate expressions.

Query plans ship predicates to edgelets over the network, so predicates
must round-trip through JSON.  The expression tree supports column
references, literals, the six comparisons, IN-lists, and boolean
combinators — enough for the demonstration queries (``age > 65``,
``region IN (...)`` and the like).

Each node compiles once into a closure over its children's closures
(:attr:`Expression.evaluator`); :meth:`Expression.evaluate` calls it, so
a node's semantics are written once.  Row loops fetch the closure once
and call it per row instead of walking the tree.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Any, Callable

__all__ = [
    "Expression",
    "ColumnRef",
    "Literal",
    "CompareExpr",
    "InExpr",
    "AndExpr",
    "OrExpr",
    "NotExpr",
    "COMPARATORS",
    "expression_from_dict",
]

Row = dict[str, Any]

#: Comparator symbol -> the Python operator it applies.
COMPARATORS: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Expression:
    """Base class for all expressions."""

    def evaluate(self, row: Row) -> Any:
        """Evaluate against one row."""
        return self.evaluator(row)

    @cached_property
    def evaluator(self) -> Callable[[Row], Any]:
        """The expression as one closure ``row -> value``, built once.

        Cached on the instance but not a field, so equality, hashing,
        ``repr`` and :meth:`to_dict` never see it.
        """
        return self._compile()

    def _compile(self) -> Callable[[Row], Any]:
        raise NotImplementedError

    def __getstate__(self) -> dict[str, Any]:
        # pickle the fields only, not the compiled closure
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation."""
        raise NotImplementedError

    def columns(self) -> set[str]:
        """All column names the expression references."""
        raise NotImplementedError


@dataclass(frozen=True)
class ColumnRef(Expression):
    """Reference to a row column."""

    name: str

    def _compile(self) -> Callable[[Row], Any]:
        return operator.methodcaller("get", self.name)

    def to_dict(self) -> dict[str, Any]:
        return {"op": "column", "name": self.name}

    def columns(self) -> set[str]:
        return {self.name}


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def _compile(self) -> Callable[[Row], Any]:
        value = self.value
        return lambda row: value

    def to_dict(self) -> dict[str, Any]:
        return {"op": "literal", "value": self.value}

    def columns(self) -> set[str]:
        return set()


@dataclass(frozen=True)
class CompareExpr(Expression):
    """Binary comparison; NULL on either side compares false (SQL-ish)."""

    comparator: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.comparator not in COMPARATORS:
            raise ValueError(f"unknown comparator {self.comparator!r}")

    def _compile(self) -> Callable[[Row], Any]:
        compare = COMPARATORS[self.comparator]
        if (
            isinstance(self.left, ColumnRef)
            and isinstance(self.right, Literal)
            and self.right.value is not None
        ):
            # the common shape, ``column op literal``: one lookup, one call
            name, value = self.left.name, self.right.value

            def column_vs_literal(row: Row) -> Any:
                cell = row.get(name)
                return cell is not None and compare(cell, value)
            return column_vs_literal
        left, right = self.left.evaluator, self.right.evaluator

        def comparison(row: Row) -> Any:
            left_value = left(row)
            right_value = right(row)
            if left_value is None or right_value is None:
                return False
            return compare(left_value, right_value)
        return comparison

    def to_dict(self) -> dict[str, Any]:
        return {
            "op": "compare",
            "comparator": self.comparator,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()


@dataclass(frozen=True)
class InExpr(Expression):
    """Membership test against a literal list."""

    operand: Expression
    choices: tuple[Any, ...]

    def _compile(self) -> Callable[[Row], bool]:
        operand, choices = self.operand.evaluator, self.choices

        def membership(row: Row) -> bool:
            value = operand(row)
            return value is not None and value in choices
        return membership

    def to_dict(self) -> dict[str, Any]:
        return {
            "op": "in",
            "operand": self.operand.to_dict(),
            "choices": list(self.choices),
        }

    def columns(self) -> set[str]:
        return self.operand.columns()


@dataclass(frozen=True)
class AndExpr(Expression):
    """Conjunction of sub-expressions."""

    operands: tuple[Expression, ...]

    def _compile(self) -> Callable[[Row], bool]:
        operands = tuple(operand.evaluator for operand in self.operands)

        def conjunction(row: Row) -> bool:
            for operand in operands:  # short-circuits in operand order
                if not operand(row):
                    return False
            return True
        return conjunction

    def to_dict(self) -> dict[str, Any]:
        return {"op": "and", "operands": [o.to_dict() for o in self.operands]}

    def columns(self) -> set[str]:
        result: set[str] = set()
        for operand in self.operands:
            result |= operand.columns()
        return result


@dataclass(frozen=True)
class OrExpr(Expression):
    """Disjunction of sub-expressions."""

    operands: tuple[Expression, ...]

    def _compile(self) -> Callable[[Row], bool]:
        operands = tuple(operand.evaluator for operand in self.operands)

        def disjunction(row: Row) -> bool:
            for operand in operands:  # short-circuits in operand order
                if operand(row):
                    return True
            return False
        return disjunction

    def to_dict(self) -> dict[str, Any]:
        return {"op": "or", "operands": [o.to_dict() for o in self.operands]}

    def columns(self) -> set[str]:
        result: set[str] = set()
        for operand in self.operands:
            result |= operand.columns()
        return result


@dataclass(frozen=True)
class NotExpr(Expression):
    """Negation."""

    operand: Expression

    def _compile(self) -> Callable[[Row], bool]:
        operand = self.operand.evaluator
        return lambda row: not operand(row)

    def to_dict(self) -> dict[str, Any]:
        return {"op": "not", "operand": self.operand.to_dict()}

    def columns(self) -> set[str]:
        return self.operand.columns()


def expression_from_dict(data: dict[str, Any]) -> Expression:
    """Rebuild an expression tree from its JSON form."""
    op = data.get("op")
    if op == "column":
        return ColumnRef(data["name"])
    if op == "literal":
        return Literal(data["value"])
    if op == "compare":
        return CompareExpr(
            data["comparator"],
            expression_from_dict(data["left"]),
            expression_from_dict(data["right"]),
        )
    if op == "in":
        return InExpr(expression_from_dict(data["operand"]), tuple(data["choices"]))
    if op == "and":
        return AndExpr(tuple(expression_from_dict(o) for o in data["operands"]))
    if op == "or":
        return OrExpr(tuple(expression_from_dict(o) for o in data["operands"]))
    if op == "not":
        return NotExpr(expression_from_dict(data["operand"]))
    raise ValueError(f"unknown expression op {op!r}")
