"""ContactGraph against a materialised networkx graph.

The reference stores every link, the way ``ContactGraph`` did before a
full mesh became implicit: joining the clique adds one edge per existing
member (at the worse of the two devices' links), ``add_link`` adds or
overwrites one edge, ``remove_link`` deletes one.  Hypothesis drives
both through the same operation sequence and every query must agree
after every step.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.topology import ContactGraph, LinkQuality

DEVICES = [f"d{i}" for i in range(7)]

# several links share a base_latency so that the tie-break is exercised
LINKS = [
    LinkQuality(base_latency=0.05),
    LinkQuality(base_latency=1.0),
    LinkQuality(base_latency=1.0, loss_probability=0.2),
    LinkQuality(base_latency=1.0, latency_jitter=0.6),
    LinkQuality(base_latency=1.0, bandwidth=1_000.0),
    LinkQuality(base_latency=5.0, loss_probability=0.1),
]


def _worse(a: LinkQuality, b: LinkQuality) -> LinkQuality:
    return max(
        a, b,
        key=lambda q: (q.base_latency, q.loss_probability, q.latency_jitter, -q.bandwidth),
    )


class MaterialisedReference:
    """Every link an edge; the clique is only a list of who joined."""

    def __init__(self) -> None:
        self.graph = nx.Graph()
        self.members: dict[str, LinkQuality] = {}

    def join(self, device_id: str, link: LinkQuality) -> None:
        self.graph.add_node(device_id)
        if device_id in self.members:
            return
        for other, other_link in self.members.items():
            if not self.graph.has_edge(device_id, other):
                self.graph.add_edge(device_id, other, quality=_worse(link, other_link))
        self.members[device_id] = link

    def add_link(self, a: str, b: str, quality: LinkQuality) -> None:
        self.graph.add_edge(a, b, quality=quality)

    def remove_link(self, a: str, b: str) -> None:
        if self.graph.has_edge(a, b):
            self.graph.remove_edge(a, b)


device = st.sampled_from(DEVICES)
link = st.sampled_from(LINKS)
operation = st.one_of(
    st.tuples(st.just("join"), device, link),
    st.tuples(st.just("register"), device),
    st.tuples(st.just("add_link"), device, device, link),
    st.tuples(st.just("remove_link"), device, device),
)


def _apply(op: tuple, graph: ContactGraph, reference: MaterialisedReference) -> None:
    if op[0] == "join":
        graph.add_device(op[1], op[2])
        reference.join(op[1], op[2])
    elif op[0] == "register":
        graph.add_device(op[1])
        reference.graph.add_node(op[1])
    elif op[0] == "add_link":
        if op[1] == op[2]:
            return
        graph.add_link(op[1], op[2], op[3])
        reference.add_link(op[1], op[2], op[3])
    else:
        graph.remove_link(op[1], op[2])
        reference.remove_link(op[1], op[2])


def _assert_same_answers(graph: ContactGraph, reference: nx.Graph) -> None:
    assert graph.devices == sorted(reference.nodes)
    histogram: dict[int, int] = {}
    for _, degree in reference.degree:
        histogram[degree] = histogram.get(degree, 0) + 1
    assert graph.degree_histogram() == histogram
    assert graph.is_connected() == (
        reference.number_of_nodes() == 0 or nx.is_connected(reference)
    )
    for a in DEVICES:
        assert graph.has_device(a) == (a in reference)
        expected = sorted(reference.neighbors(a)) if a in reference else []
        assert graph.neighbors(a) == expected
        for b in DEVICES:
            data = reference.get_edge_data(a, b)
            assert graph.quality(a, b) == (data["quality"] if data else None)
            path = graph.path(a, b)
            if a in reference and b in reference and nx.has_path(reference, a, b):
                assert path[0] == a and path[-1] == b
                assert len(path) - 1 == nx.shortest_path_length(reference, a, b)
                assert all(reference.has_edge(u, v) for u, v in zip(path, path[1:]))
            else:
                assert path is None


@given(st.lists(operation, max_size=25))
@settings(max_examples=150, deadline=None)
def test_every_query_agrees_after_every_step(operations):
    graph = ContactGraph()
    reference = MaterialisedReference()
    for op in operations:
        _apply(op, graph, reference)
        _assert_same_answers(graph, reference.graph)


def test_relay_around_a_removed_pair_in_a_mixed_graph():
    """The shapes no workload reaches: a mesh with cut pairs, sparse
    nodes hanging off it, and an explicit link over an implicit one."""
    operations = [
        *(("join", d, LINKS[i % 3]) for i, d in enumerate(DEVICES[:4])),
        ("add_link", "d4", "d0", LINKS[1]),
        ("add_link", "d5", "d4", LINKS[5]),
        ("register", "d6"),
        ("add_link", "d1", "d2", LINKS[0]),
        ("remove_link", "d0", "d1"),
        ("remove_link", "d0", "d2"),
        ("remove_link", "d1", "d2"),
        ("remove_link", "d0", "d3"),
        ("join", "d5", LINKS[2]),
    ]
    graph = ContactGraph()
    reference = MaterialisedReference()
    for op in operations:
        _apply(op, graph, reference)
        _assert_same_answers(graph, reference.graph)
    # d0 lost every implicit link it had; it now reaches the mesh only
    # through the sparse chain d0 - d4 - d5, d5 having joined late
    assert graph.neighbors("d0") == ["d4", "d5"]
    assert graph.path("d0", "d1") == ["d0", "d5", "d1"]
    assert not graph.is_connected()  # d6 never got a link


def test_fully_connected_matches_the_pairwise_build():
    quality = LinkQuality(base_latency=2.0)
    graph = ContactGraph.fully_connected(DEVICES, quality)
    reference = nx.Graph()
    reference.add_nodes_from(DEVICES)
    for a, b in combinations(DEVICES, 2):
        reference.add_edge(a, b, quality=quality)
    _assert_same_answers(graph, reference)
    assert all(graph.quality(a, b) is quality for a, b in combinations(DEVICES, 2))
