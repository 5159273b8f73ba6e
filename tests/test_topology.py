"""Tests for contact graphs and link quality."""

from __future__ import annotations

import random

import pytest

from repro.network.topology import ContactGraph, LinkQuality


class TestLinkQuality:
    def test_defaults_valid(self):
        quality = LinkQuality()
        assert quality.base_latency > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkQuality(base_latency=-1)
        with pytest.raises(ValueError):
            LinkQuality(latency_jitter=1.0)
        with pytest.raises(ValueError):
            LinkQuality(loss_probability=1.5)
        with pytest.raises(ValueError):
            LinkQuality(bandwidth=0)

    def test_sample_latency_includes_transfer_time(self):
        quality = LinkQuality(base_latency=1.0, latency_jitter=0.0, bandwidth=100.0)
        rng = random.Random(0)
        assert quality.sample_latency(200, rng) == pytest.approx(1.0 + 2.0)

    def test_jitter_bounds(self):
        quality = LinkQuality(base_latency=1.0, latency_jitter=0.5, bandwidth=1e9)
        rng = random.Random(0)
        samples = [quality.sample_latency(1, rng) for _ in range(200)]
        assert all(0.5 <= s <= 1.5 + 1e-6 for s in samples)

    def test_scaled_changes_only_loss(self):
        quality = LinkQuality(base_latency=2.0, loss_probability=0.1)
        scaled = quality.scaled(0.5)
        assert scaled.loss_probability == 0.5
        assert scaled.base_latency == 2.0


class TestContactGraph:
    def test_add_and_query_devices(self):
        graph = ContactGraph()
        graph.add_device("a")
        graph.add_device("b")
        assert graph.devices == ["a", "b"]
        assert graph.has_device("a")
        assert not graph.has_device("z")

    def test_self_link_rejected(self):
        graph = ContactGraph()
        graph.add_device("a")
        with pytest.raises(ValueError):
            graph.add_link("a", "a")

    def test_link_quality_lookup(self):
        quality = LinkQuality(base_latency=9.0)
        graph = ContactGraph()
        graph.add_link("a", "b", quality)
        assert graph.quality("a", "b") is quality
        assert graph.quality("b", "a") is quality
        assert graph.quality("a", "z") is None

    def test_remove_link(self):
        graph = ContactGraph()
        graph.add_link("a", "b")
        graph.remove_link("a", "b")
        assert graph.quality("a", "b") is None
        graph.remove_link("a", "b")  # idempotent

    def test_neighbors_sorted(self):
        graph = ContactGraph()
        graph.add_link("a", "c")
        graph.add_link("a", "b")
        assert graph.neighbors("a") == ["b", "c"]
        assert graph.neighbors("missing") == []

    def test_path_multi_hop(self):
        graph = ContactGraph()
        graph.add_link("a", "b")
        graph.add_link("b", "c")
        assert graph.path("a", "c") == ["a", "b", "c"]

    def test_path_none_when_disconnected(self):
        graph = ContactGraph()
        graph.add_device("a")
        graph.add_device("b")
        assert graph.path("a", "b") is None

    def test_is_connected(self):
        graph = ContactGraph()
        assert graph.is_connected()
        graph.add_link("a", "b")
        assert graph.is_connected()
        graph.add_device("c")
        assert not graph.is_connected()

    def test_degree_histogram(self):
        graph = ContactGraph()
        graph.add_link("a", "b")
        graph.add_link("a", "c")
        assert graph.degree_histogram() == {2: 1, 1: 2}


class TestImplicitClique:
    """Devices that join with their own link form a mesh nobody stores."""

    FAST = LinkQuality(base_latency=0.05, loss_probability=0.01)
    SLOW = LinkQuality(base_latency=5.0, loss_probability=0.10)

    def test_members_are_linked_whenever_they_joined(self):
        graph = ContactGraph()
        graph.add_device("a", self.FAST)
        graph.add_device("b", self.SLOW)
        assert graph.quality("a", "b") is self.SLOW
        graph.add_device("c", self.FAST)  # a late joiner
        assert graph.quality("c", "a") is self.FAST
        assert graph.quality("b", "c") is self.SLOW
        assert graph.neighbors("c") == ["a", "b"]
        assert graph.degree_histogram() == {2: 3}

    def test_plain_registration_does_not_join(self):
        graph = ContactGraph()
        graph.add_device("a", self.FAST)
        graph.add_device("b", self.FAST)
        graph.add_device("x")
        assert graph.quality("a", "x") is None
        assert graph.neighbors("x") == []
        assert not graph.is_connected()
        graph.add_device("a")  # what OpportunisticNetwork.attach does
        assert graph.quality("a", "b") is self.FAST

    def test_first_join_wins(self):
        graph = ContactGraph()
        graph.add_device("a", self.FAST)
        graph.add_device("b", self.FAST)
        graph.add_device("a", self.SLOW)
        assert graph.quality("a", "b") is self.FAST

    def test_tie_break_is_symmetric_and_ignores_join_order(self):
        # same base_latency: the parent picked whichever device was
        # listed first (bulk build) or spawned last
        lossy = LinkQuality(base_latency=1.0, loss_probability=0.2)
        jittery = LinkQuality(base_latency=1.0, latency_jitter=0.6)
        narrow = LinkQuality(base_latency=1.0, bandwidth=1_000.0)
        plain = LinkQuality(base_latency=1.0)
        ranked = [lossy, jittery, narrow, plain]  # worst first
        for i, worse in enumerate(ranked):
            for better in ranked[i + 1:]:
                for first, second in ((worse, better), (better, worse)):
                    graph = ContactGraph()
                    graph.add_device("a", first)
                    graph.add_device("b", second)
                    assert graph.quality("a", "b") is worse
                    assert graph.quality("b", "a") is worse

    def test_explicit_link_takes_precedence(self):
        wired = LinkQuality(base_latency=0.001)
        graph = ContactGraph.fully_connected(["a", "b", "c"], self.SLOW)
        graph.add_link("a", "b", wired)
        assert graph.quality("a", "b") is wired
        assert graph.quality("a", "c") is self.SLOW
        assert graph.degree_histogram() == {2: 3}
        graph.remove_link("a", "b")
        assert graph.quality("a", "b") is None

    def test_removed_pair_stays_cut_and_relays(self):
        graph = ContactGraph.fully_connected(["a", "b", "c", "d"])
        graph.remove_link("a", "b")
        assert graph.quality("a", "b") is None
        assert graph.quality("b", "a") is None
        assert graph.neighbors("a") == ["c", "d"]
        path = graph.path("a", "b")
        assert path[0] == "a" and path[-1] == "b" and len(path) == 3
        assert graph.degree_histogram() == {2: 2, 3: 2}
        graph.add_device("e", LinkQuality())  # a newcomer links to both
        assert graph.quality("a", "b") is None
        assert graph.quality("e", "a") is not None
        assert graph.is_connected()

    def test_sparse_node_reaches_the_mesh_through_its_link(self):
        graph = ContactGraph.fully_connected(["a", "b", "c"])
        graph.add_link("x", "a")
        assert graph.path("x", "c") == ["x", "a", "c"]
        assert graph.path("c", "x") == ["c", "a", "x"]
        assert graph.is_connected()

    def test_no_link_to_self(self):
        # OpportunisticNetwork._route turns this pair of answers into
        # "no route" for a device messaging itself
        graph = ContactGraph.fully_connected(["a", "b"])
        graph.add_link("x", "a")
        for device in ("a", "x"):
            assert graph.quality(device, device) is None
            assert graph.path(device, device) == [device]
            assert device not in graph.neighbors(device)


class TestGenerators:
    def test_fully_connected(self):
        ids = [f"d{i}" for i in range(5)]
        graph = ContactGraph.fully_connected(ids)
        assert graph.is_connected()
        for device in ids:
            assert len(graph.neighbors(device)) == 4

    def test_community_connects_swarm(self):
        ids = [f"d{i}" for i in range(30)]
        graph = ContactGraph.community(ids, n_communities=4, seed=2)
        assert sorted(graph.devices) == sorted(ids)
        assert graph.is_connected()

    def test_community_needs_positive_count(self):
        with pytest.raises(ValueError):
            ContactGraph.community(["a"], n_communities=0)

    def test_random_geometric_radius_effect(self):
        ids = [f"d{i}" for i in range(40)]
        sparse = ContactGraph.random_geometric(ids, radius=0.05, seed=1)
        dense = ContactGraph.random_geometric(ids, radius=0.9, seed=1)
        sparse_edges = sum(len(sparse.neighbors(d)) for d in ids)
        dense_edges = sum(len(dense.neighbors(d)) for d in ids)
        assert dense_edges > sparse_edges

    def test_random_geometric_deterministic(self):
        ids = [f"d{i}" for i in range(10)]
        a = ContactGraph.random_geometric(ids, radius=0.3, seed=5)
        b = ContactGraph.random_geometric(ids, radius=0.3, seed=5)
        assert [a.neighbors(d) for d in ids] == [b.neighbors(d) for d in ids]
