"""The planner's column colouring against networkx, its old implementation.

``vertical_groups`` used to build an ``nx.Graph`` of conflicting
aggregate columns and call ``nx.greedy_color(strategy="largest_first")``.
:func:`repro.core.planner.greedy_coloring` keeps that rule without the
dependency; networkx is only the oracle here.
"""

from __future__ import annotations

import itertools

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.planner import (
    EdgeletPlanner,
    PrivacyParameters,
    QuerySpec,
    greedy_coloring,
)
from repro.query.aggregates import AggregateSpec
from repro.query.groupby import GroupByQuery

COLUMNS = [f"c{i}" for i in range(9)]


def _reference(nodes, edges):
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return nx.greedy_color(graph, strategy="largest_first")


@st.composite
def conflict_graphs(draw):
    nodes = sorted(
        draw(st.lists(st.sampled_from(COLUMNS), unique=True, max_size=9))
    )
    pairs = list(itertools.combinations(nodes, 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return nodes, edges


class TestAgainstNetworkx:
    @given(conflict_graphs())
    @example(([], set()))
    @example((["c0", "c1", "c2"], set()))  # isolated nodes
    @example((["c0", "c1", "c2", "c3"], {("c0", "c1"), ("c2", "c3")}))  # ties
    @example(
        (COLUMNS[:5], set(itertools.combinations(COLUMNS[:5], 2)))  # complete
    )
    @settings(max_examples=300, deadline=None)
    def test_same_colours_as_largest_first(self, graph):
        nodes, edges = graph
        assert greedy_coloring(nodes, edges) == _reference(nodes, edges)

    @pytest.mark.parametrize("size", range(1, 8))
    def test_complete_graph_takes_one_colour_per_node(self, size):
        nodes = COLUMNS[:size]
        edges = set(itertools.combinations(nodes, 2))
        coloring = greedy_coloring(nodes, edges)
        assert coloring == _reference(nodes, edges)
        assert sorted(coloring.values()) == list(range(size))

    def test_degree_ties_keep_node_order(self):
        # a path c0 - c1 - c2 - c3: the two inner nodes tie on degree 2,
        # c1 comes first and takes colour 0
        nodes = COLUMNS[:4]
        edges = {("c0", "c1"), ("c1", "c2"), ("c2", "c3")}
        assert greedy_coloring(nodes, edges) == {
            "c1": 0, "c2": 1, "c0": 1, "c3": 0,
        }
        assert greedy_coloring(nodes, edges) == _reference(nodes, edges)


def _old_vertical_groups(aggregate_columns, separated, grouping_columns):
    """The networkx-era body of ``vertical_groups`` for aggregates."""
    conflict = nx.Graph()
    conflict.add_nodes_from(aggregate_columns)
    for a, b in separated:
        if a in conflict and b in conflict:
            conflict.add_edge(a, b)
    coloring = nx.greedy_color(conflict, strategy="largest_first")
    n_colors = max(coloring.values(), default=0) + 1 if coloring else 1
    groups = [set() for _ in range(max(1, n_colors))]
    for column, color in sorted(coloring.items()):
        groups[color].add(column)
    ordered_grouping = tuple(sorted(grouping_columns))
    return [
        tuple(sorted(group | set(ordered_grouping)))
        for group in groups
        if group or len(groups) == 1
    ] or [ordered_grouping]


class TestVerticalGroups:
    @given(
        st.lists(st.sampled_from(COLUMNS[:6]), unique=True, max_size=6),
        st.sets(
            st.tuples(st.sampled_from(COLUMNS), st.sampled_from(COLUMNS))
            .filter(lambda pair: pair[0] != pair[1])
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_groups_match_the_networkx_planner(self, columns, separated):
        query = GroupByQuery(
            grouping_sets=(("region",), ()),
            aggregates=(
                AggregateSpec("count"),
                *(AggregateSpec("sum", column) for column in columns),
            ),
        )
        spec = QuerySpec(
            query_id="colouring", kind="aggregate",
            snapshot_cardinality=100, group_by=query,
        )
        planner = EdgeletPlanner(
            privacy=PrivacyParameters(separated_pairs=tuple(separated))
        )
        assert planner.vertical_groups(spec) == _old_vertical_groups(
            sorted(columns),
            {tuple(sorted(pair)) for pair in separated},
            {"region"},
        )
