"""Relational query substrate over horizontally partitioned personal data.

Edgelet computing treats the swarm's datastores as one shared database
under a common schema.  This package provides the pieces an Edgelet
query needs:

* :mod:`repro.query.schema` — column/ schema declarations and row
  validation;
* :mod:`repro.query.relation` — an in-memory relation (bag of rows) with
  selection/projection/partitioning;
* :mod:`repro.query.expressions` — predicate and scalar expressions
  that serialize to JSON (so plans can ship them to edgelets);
* :mod:`repro.query.aggregates` — distributive aggregate functions with
  mergeable partial states (the algebraic core of Overcollection);
* :mod:`repro.query.groupby` — GROUP BY and GROUPING SETS evaluation on
  top of the aggregates;
* :mod:`repro.query.fold` — the fold entry point the role runtimes
  call; picks the row kernel or the vectorized one
  (:mod:`repro.query.columnar`) by partition size;
* :mod:`repro.query.sql` — a small SQL dialect parser covering the demo
  queries (SELECT ... WHERE ... GROUP BY GROUPING SETS (...));
* :mod:`repro.query.engine` — a centralized reference engine used for
  the demo's validity verification.
"""

from repro.query.schema import Column, ColumnType, Schema, SchemaError
from repro.query.relation import Relation
from repro.query.expressions import (
    AndExpr,
    ColumnRef,
    CompareExpr,
    Expression,
    Literal,
    NotExpr,
    OrExpr,
    expression_from_dict,
)
from repro.query.aggregates import (
    AggregateSpec,
    AggregateState,
    make_state,
    merge_states,
    finalize_state,
)
from repro.query.groupby import GroupByQuery, GroupingSetsResult, evaluate_group_by
from repro.query.sketches import BloomFilter, HyperLogLog
from repro.query.sql import SQLSyntaxError, parse_query
from repro.query.engine import CentralizedEngine

__all__ = [
    "AggregateSpec",
    "AggregateState",
    "AndExpr",
    "BloomFilter",
    "CentralizedEngine",
    "Column",
    "ColumnRef",
    "ColumnType",
    "CompareExpr",
    "Expression",
    "GroupByQuery",
    "GroupingSetsResult",
    "HyperLogLog",
    "Literal",
    "NotExpr",
    "OrExpr",
    "Relation",
    "SQLSyntaxError",
    "Schema",
    "SchemaError",
    "evaluate_group_by",
    "expression_from_dict",
    "finalize_state",
    "make_state",
    "merge_states",
    "parse_query",
]
