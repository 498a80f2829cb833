"""Unit tests for the network model and topologies."""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.exceptions import ConfigurationError
from repro.core.random_source import RandomSource
from repro.transport.fabric import FabricSpec
from repro.transport.network import (
    ROUTE_TABLE_LIMIT,
    LinkState,
    Network,
    line_network,
    mesh_network,
    ring_network,
)

BAD_RATES = (1.5, -0.1, math.nan)


class TestLinkState:
    def test_stays_up_without_failures(self):
        state = LinkState(fail_rate=0.0)
        rng = RandomSource(0)
        for __ in range(100):
            state.tick(rng)
        assert state.up

    def test_fails_and_repairs(self):
        state = LinkState(fail_rate=0.5, repair_rate=0.5)
        rng = RandomSource(1)
        saw_down = saw_up_again = False
        for __ in range(200):
            was_up = state.up
            state.tick(rng)
            if was_up and not state.up:
                saw_down = True
            if saw_down and state.up:
                saw_up_again = True
        assert saw_down and saw_up_again


class TestTopologies:
    def test_line(self):
        net = line_network(4)
        assert net.source == 0 and net.destination == 4
        assert net.edge_count == 4

    def test_ring(self):
        net = ring_network(8)
        assert net.edge_count == 8
        assert len(net.shortest_up_path()) == 5  # 0..4 along the cycle

    def test_mesh(self):
        net = mesh_network(3)
        assert net.source == (0, 0) and net.destination == (2, 2)
        assert net.edge_count == 12

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            line_network(0)
        with pytest.raises(ConfigurationError):
            ring_network(2)
        with pytest.raises(ConfigurationError):
            mesh_network(1)


class TestNetwork:
    def test_rejects_disconnected_graph(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1, 2])
        graph.add_edge(0, 1)
        with pytest.raises(ConfigurationError):
            Network(graph, source=0, destination=2)

    def test_rejects_same_endpoints(self):
        with pytest.raises(ConfigurationError):
            Network(nx.path_graph(3), source=1, destination=1)

    def test_rejects_foreign_endpoints(self):
        with pytest.raises(ConfigurationError):
            Network(nx.path_graph(3), source=0, destination=99)

    def test_link_lookup_and_configure(self):
        net = line_network(3)
        net.configure_link(0, 1, latency=5, fail_rate=0.1)
        assert net.link(0, 1).latency == 5
        assert net.link(1, 0).latency == 5  # undirected
        with pytest.raises(ConfigurationError):
            net.link(0, 3)
        with pytest.raises(ConfigurationError):
            net.configure_link(0, 1, nonsense=1)

    def test_up_subgraph_excludes_down_links(self):
        net = line_network(3)
        net.configure_link(1, 2, up=False)
        assert not net.link_up(1, 2)
        assert net.shortest_up_path() is None  # the line is cut

    def test_ring_survives_single_cut(self):
        net = ring_network(6)
        net.configure_link(0, 1, up=False)
        path = net.shortest_up_path()
        assert path is not None  # the other way around survives
        assert path[0] == 0 and path[-1] == 3

    def test_tick_advances_all_links(self):
        net = line_network(5, fail_rate=1.0, repair_rate=0.0)
        net.tick(RandomSource(0))
        assert all(not net.link_up(i, i + 1) for i in range(5))


class TestRateValidation:
    """Out-of-range Markov rates fail at construction, not mid-stream."""

    @pytest.mark.parametrize("rate", BAD_RATES)
    @pytest.mark.parametrize("name", ["fail_rate", "repair_rate"])
    def test_fabric_spec_rejects(self, name, rate):
        with pytest.raises(ConfigurationError, match=name):
            FabricSpec(topology="ring", size=8, **{name: rate})

    @pytest.mark.parametrize("rate", BAD_RATES)
    @pytest.mark.parametrize("name", ["fail_rate", "repair_rate"])
    def test_network_rejects(self, name, rate):
        with pytest.raises(ConfigurationError, match=name):
            Network(nx.path_graph(3), source=0, destination=2, **{name: rate})

    @pytest.mark.parametrize("rate", BAD_RATES)
    @pytest.mark.parametrize("name", ["fail_rate", "repair_rate"])
    def test_configure_link_rejects(self, name, rate):
        net = line_network(3)
        before = dict(vars(net.link(0, 1)))
        with pytest.raises(ConfigurationError, match=name):
            net.configure_link(0, 1, latency=7, **{name: rate})
        assert vars(net.link(0, 1)) == before  # nothing was half-applied

    def test_boundary_rates_accepted(self):
        FabricSpec(fail_rate=1.0, repair_rate=0.0)
        net = line_network(2, fail_rate=0.0, repair_rate=1.0)
        net.configure_link(0, 1, fail_rate=1.0, repair_rate=0.0)

    def test_rate_set_directly_still_raises_at_draw(self):
        state = LinkState(fail_rate=0.5)
        state.fail_rate = 1.5
        with pytest.raises(ValueError, match="outside"):
            state.tick(RandomSource(0))
        net = line_network(2)
        net.link(1, 2).up = False
        net.link(1, 2).repair_rate = -0.1
        with pytest.raises(ValueError, match="outside"):
            net.tick(RandomSource(0))


def _reference_tick(states, rng):
    """The per-link Markov step as written against ``bernoulli``."""
    for state in states:
        if state.up:
            if state.fail_rate and rng.bernoulli(state.fail_rate):
                state.up = False
        else:
            if rng.bernoulli(state.repair_rate):
                state.up = True


class TestTopologyTickTape:
    """The flat ``Network.tick`` draws exactly the per-link tape."""

    @staticmethod
    def _mixed_ring():
        net = ring_network(8, fail_rate=0.3, repair_rate=0.4)
        net.configure_link(0, 1, fail_rate=0.0)  # never draws while up
        net.configure_link(2, 3, fail_rate=1.0, repair_rate=0.05)
        net.configure_link(4, 5, repair_rate=1.0)
        return net

    def _states(self, net):
        return [net.link(a, b) for a, b in net.graph.edges()]

    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_flat_tick_matches_per_link_reference(self, seed):
        flat, per_link, bern = (self._mixed_ring() for _ in range(3))
        rngs = [RandomSource(seed) for _ in range(3)]
        for _ in range(1000):
            flat.tick(rngs[0])
            for state in self._states(per_link):
                state.tick(rngs[1])
            _reference_tick(self._states(bern), rngs[2])
            ups = [[s.up for s in self._states(n)] for n in (flat, per_link, bern)]
            assert ups[0] == ups[1] == ups[2]
        assert len({rng.bits_drawn for rng in rngs}) == 1
        # Same tape position: the next draw agrees on every source.
        assert len({rng.random_float() for rng in rngs}) == 1


def _set_mask(net, bits):
    for (a, b), up in zip(net.graph.edges(), bits):
        net.link(a, b).up = bool(up)


def _uncached(net, origin, target):
    try:
        return nx.shortest_path(net.up_subgraph(), origin, target)
    except nx.NetworkXNoPath:
        return None


class TestRouteTable:
    """``Network.up_path`` is a memo of the uncached shortest up path."""

    def test_exhaustive_ring8_masks(self):
        net = ring_network(8)
        nodes = list(net.graph.nodes())
        edges = net.edge_count
        for mask in range(2 ** edges):
            _set_mask(net, [(mask >> i) & 1 for i in range(edges)])
            sub = net.up_subgraph()
            for origin in nodes:
                for target in nodes:
                    try:
                        want = nx.shortest_path(sub, origin, target)
                    except nx.NetworkXNoPath:
                        want = None
                    assert net.up_path(origin, target) == want
                    # Second ask is served from the table, same answer.
                    assert net.up_path(origin, target) == want

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data(), side=st.sampled_from([3, 5]))
    def test_drawn_mesh_masks(self, data, side):
        net = mesh_network(side)
        nodes = list(net.graph.nodes())
        for _ in range(3):
            bits = data.draw(
                st.lists(st.booleans(), min_size=net.edge_count,
                         max_size=net.edge_count)
            )
            _set_mask(net, bits)
            origin = data.draw(st.sampled_from(nodes))
            for target in nodes:
                assert net.up_path(origin, target) == _uncached(net, origin, target)

    def test_mutating_a_returned_path_does_not_poison_the_table(self):
        net = ring_network(8)
        path = net.up_path(0, 4)
        expected = list(path)
        path.append("junk")
        path[0] = "junk"
        assert net.up_path(0, 4) == expected
        relay_path = net.shortest_up_path()
        relay_path.clear()
        assert net.shortest_up_path() == expected

    def test_flipped_link_is_seen_without_invalidation(self):
        net = ring_network(8)
        assert net.up_path(0, 4) == [0, 1, 2, 3, 4]
        net.link(1, 2).up = False
        assert net.up_path(0, 4) == [0, 7, 6, 5, 4]
        net.link(4, 5).up = False
        assert net.up_path(0, 4) is None
        net.link(1, 2).up = True
        assert net.up_path(0, 4) == [0, 1, 2, 3, 4]

    def test_table_never_exceeds_its_cap(self):
        net = mesh_network(5)
        rng = RandomSource(3)
        states = [net.link(a, b) for a, b in net.graph.edges()]
        src, dst = net.source, net.destination
        masks = set()
        cleared = False
        previous = 0
        while len(masks) <= ROUTE_TABLE_LIMIT + 100:
            bits = [rng.random_float() < 0.8 for _ in states]
            for state, up in zip(states, bits):
                state.up = up
            masks.add(tuple(bits))
            net.up_path(src, dst)
            size = len(net._routes)
            assert size <= ROUTE_TABLE_LIMIT
            cleared = cleared or size < previous
            previous = size
        assert cleared
