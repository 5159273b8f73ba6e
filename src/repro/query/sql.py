"""A small SQL dialect covering the demonstration queries.

Supported grammar (case-insensitive keywords)::

    query     := SELECT select_list FROM name [WHERE predicate]
                 [GROUP BY group_clause]
    select_list := agg ("," agg)*
    agg       := func "(" ("*" | name) ")" [AS name]
    func      := COUNT | SUM | MIN | MAX | AVG | VAR | STD
    group_clause := GROUPING SETS "(" set ("," set)* ")"
                  | name ("," name)*
    set       := "(" [name ("," name)*] ")"
    predicate := or_expr
    or_expr   := and_expr (OR and_expr)*
    and_expr  := unary (AND unary)*
    unary     := NOT unary | "(" predicate ")" | comparison
    comparison := operand (cmp operand | IN "(" literal, ... ")")
    operand   := name | literal
    literal   := number | 'string' | TRUE | FALSE | NULL

Examples the demo uses::

    SELECT count(*), avg(age), avg(bmi)
    FROM health
    WHERE age > 65
    GROUP BY GROUPING SETS ((region), (sex), (region, sex), ())
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from repro.errors import SpecError
from repro.query.aggregates import SUPPORTED_FUNCTIONS, AggregateSpec
from repro.query.expressions import (
    AndExpr,
    ColumnRef,
    CompareExpr,
    Expression,
    InExpr,
    Literal,
    NotExpr,
    OrExpr,
)
from repro.query.groupby import GroupByQuery

__all__ = ["SQLSyntaxError", "ParsedQuery", "parse_query"]


class SQLSyntaxError(SpecError):
    """Raised on any parse failure, with position information (a
    malformed supplied value, so a :class:`~repro.errors.SpecError`)."""


@dataclass(frozen=True)
class ParsedQuery:
    """Outcome of parsing.

    Attributes:
        table: the queried table name.
        query: the logical grouped-aggregation query (WHERE/HAVING
            included — both execute distributively).
        order_by: presentation ordering, ``(output_name, descending)``
            pairs; applied querier-side.
        limit: presentation row limit; applied querier-side.
    """

    table: str
    query: GroupByQuery
    order_by: tuple[tuple[str, bool], ...] = ()
    limit: int | None = None

    def present(self, rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """Apply ORDER BY / LIMIT to finalized result rows."""
        ordered = list(rows)
        # stable sorts applied in reverse give lexicographic ordering
        for name, descending in reversed(self.order_by):
            present = [row for row in ordered if row.get(name) is not None]
            absent = [row for row in ordered if row.get(name) is None]
            present.sort(key=lambda row: row[name], reverse=descending)
            ordered = present + absent
        if self.limit is not None:
            ordered = ordered[: self.limit]
        return ordered


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<cmp><=|>=|!=|=|<|>)
  | (?P<punct>[(),*])
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "from", "where", "group", "by", "grouping", "sets",
    "and", "or", "not", "in", "as", "true", "false", "null",
    "having", "order", "limit", "asc", "desc",
}


@dataclass(frozen=True)
class _Token:
    kind: str  # "number", "string", "cmp", "punct", "name", "keyword"
    text: str
    position: int


def _tokenize(sql: str) -> list[_Token]:
    tokens: list[_Token] = []
    index = 0
    while index < len(sql):
        match = _TOKEN_RE.match(sql, index)
        if match is None:
            raise SQLSyntaxError(f"unexpected character {sql[index]!r} at {index}")
        index = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        text = match.group()
        if kind == "name" and text.lower() in _KEYWORDS:
            tokens.append(_Token("keyword", text.lower(), match.start()))
        else:
            tokens.append(_Token(kind, text, match.start()))
    return tokens


class _Parser:
    def __init__(self, sql: str):
        self._sql = sql
        self._tokens = _tokenize(sql)
        self._index = 0

    # -- token helpers ----------------------------------------------------

    def _peek(self) -> _Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise SQLSyntaxError("unexpected end of query")
        self._index += 1
        return token

    def _expect_keyword(self, word: str) -> None:
        token = self._next()
        if token.kind != "keyword" or token.text != word:
            raise SQLSyntaxError(
                f"expected {word.upper()} at position {token.position}, got {token.text!r}"
            )

    def _expect_punct(self, char: str) -> None:
        token = self._next()
        if token.kind != "punct" or token.text != char:
            raise SQLSyntaxError(
                f"expected {char!r} at position {token.position}, got {token.text!r}"
            )

    def _accept_keyword(self, word: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == "keyword" and token.text == word:
            self._index += 1
            return True
        return False

    def _accept_punct(self, char: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == "punct" and token.text == char:
            self._index += 1
            return True
        return False

    def _expect_name(self) -> str:
        token = self._next()
        if token.kind != "name":
            raise SQLSyntaxError(
                f"expected identifier at position {token.position}, got {token.text!r}"
            )
        return token.text

    # -- grammar -------------------------------------------------------------

    def parse(self) -> ParsedQuery:
        self._expect_keyword("select")
        aggregates = [self._aggregate()]
        while self._accept_punct(","):
            aggregates.append(self._aggregate())
        self._expect_keyword("from")
        table = self._expect_name()
        where = None
        if self._accept_keyword("where"):
            where = self._predicate()
        grouping_sets: tuple[tuple[str, ...], ...] = ((),)
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            grouping_sets = self._group_clause()
        having = None
        if self._accept_keyword("having"):
            having = self._predicate()
        order_by: list[tuple[str, bool]] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._order_term())
            while self._accept_punct(","):
                order_by.append(self._order_term())
        limit = None
        if self._accept_keyword("limit"):
            token = self._next()
            if token.kind != "number" or "." in token.text or token.text.startswith("-"):
                raise SQLSyntaxError(
                    f"LIMIT expects a non-negative integer at position {token.position}"
                )
            limit = int(token.text)
        if self._peek() is not None:
            token = self._peek()
            raise SQLSyntaxError(
                f"trailing input at position {token.position}: {token.text!r}"
            )
        query = GroupByQuery(
            grouping_sets=grouping_sets,
            aggregates=tuple(aggregates),
            where=where,
            having=having,
        )
        return ParsedQuery(
            table=table, query=query, order_by=tuple(order_by), limit=limit
        )

    def _order_term(self) -> tuple[str, bool]:
        name = self._expect_name()
        if self._accept_keyword("desc"):
            return (name, True)
        self._accept_keyword("asc")
        return (name, False)

    def _aggregate(self) -> AggregateSpec:
        token = self._next()
        if token.kind != "name" or token.text.lower() not in SUPPORTED_FUNCTIONS:
            raise SQLSyntaxError(
                f"expected aggregate function at position {token.position}, "
                f"got {token.text!r}"
            )
        function = token.text.lower()
        self._expect_punct("(")
        params: list[Any] = []
        if self._accept_punct("*"):
            column = None
        else:
            column = self._expect_name()
            # function parameters, e.g. hist(age, 0, 110, 11)
            while self._accept_punct(","):
                params.append(self._literal_value())
        self._expect_punct(")")
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_name()
        return AggregateSpec(function, column, alias, tuple(params))

    def _group_clause(self) -> tuple[tuple[str, ...], ...]:
        if self._accept_keyword("grouping"):
            self._expect_keyword("sets")
            self._expect_punct("(")
            sets = [self._grouping_set()]
            while self._accept_punct(","):
                sets.append(self._grouping_set())
            self._expect_punct(")")
            return tuple(sets)
        names = [self._expect_name()]
        while self._accept_punct(","):
            names.append(self._expect_name())
        return (tuple(names),)

    def _grouping_set(self) -> tuple[str, ...]:
        self._expect_punct("(")
        if self._accept_punct(")"):
            return ()
        names = [self._expect_name()]
        while self._accept_punct(","):
            names.append(self._expect_name())
        self._expect_punct(")")
        return tuple(names)

    def _predicate(self) -> Expression:
        return self._or_expr()

    def _or_expr(self) -> Expression:
        operands = [self._and_expr()]
        while self._accept_keyword("or"):
            operands.append(self._and_expr())
        if len(operands) == 1:
            return operands[0]
        return OrExpr(tuple(operands))

    def _and_expr(self) -> Expression:
        operands = [self._unary()]
        while self._accept_keyword("and"):
            operands.append(self._unary())
        if len(operands) == 1:
            return operands[0]
        return AndExpr(tuple(operands))

    def _unary(self) -> Expression:
        if self._accept_keyword("not"):
            return NotExpr(self._unary())
        if self._accept_punct("("):
            inner = self._predicate()
            self._expect_punct(")")
            return inner
        return self._comparison()

    def _comparison(self) -> Expression:
        left = self._operand()
        if self._accept_keyword("in"):
            self._expect_punct("(")
            choices = [self._literal_value()]
            while self._accept_punct(","):
                choices.append(self._literal_value())
            self._expect_punct(")")
            return InExpr(left, tuple(choices))
        token = self._next()
        if token.kind != "cmp":
            raise SQLSyntaxError(
                f"expected comparator at position {token.position}, got {token.text!r}"
            )
        right = self._operand()
        return CompareExpr(token.text, left, right)

    def _operand(self) -> Expression:
        token = self._peek()
        if token is None:
            raise SQLSyntaxError("unexpected end of query in expression")
        if token.kind == "name":
            self._index += 1
            return ColumnRef(token.text)
        return Literal(self._literal_value())

    def _literal_value(self) -> Any:
        token = self._next()
        if token.kind == "number":
            if "." in token.text:
                return float(token.text)
            return int(token.text)
        if token.kind == "string":
            return token.text[1:-1].replace("''", "'")
        if token.kind == "keyword" and token.text in ("true", "false", "null"):
            return {"true": True, "false": False, "null": None}[token.text]
        raise SQLSyntaxError(
            f"expected literal at position {token.position}, got {token.text!r}"
        )


def parse_query(sql: str) -> ParsedQuery:
    """Parse one SQL query of the supported dialect.

    Raises :class:`SQLSyntaxError` with a position hint on failure.
    """
    return _Parser(sql).parse()
