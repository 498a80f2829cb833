"""Multi-node network model for the transport-layer application.

Section 1 of the paper proposes running the protocol in the source and
destination processors of a *network*, with the intermediate processors
running any semi-reliable relay ("a trivial implementation ... is by
flooding each packet; a more efficient method is to try to find a reliable
path ... replacing the path only when an error is detected [HK89]").

:class:`Network` wraps a :mod:`networkx` graph whose edges carry dynamic
up/down state (a two-state Markov chain per link) and a latency.  The relay
strategies in :mod:`repro.transport.routing` propagate packets across it,
producing the loss, duplication and reordering the end-to-end data link
must survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.core.exceptions import ConfigurationError
from repro.core.random_source import RandomSource

__all__ = [
    "LinkState",
    "Network",
    "disjoint_routes",
    "line_network",
    "ring_network",
    "mesh_network",
]

Edge = Tuple[object, object]

#: Entries the per-network route table holds before it is cleared.  A
#: flaky ring-8 stream touches a few hundred (mask, origin, target) keys,
#: so the bound only bites on large meshes whose link masks keep changing.
ROUTE_TABLE_LIMIT = 4096

_MISS = object()


def _normalize(edge: Edge) -> Edge:
    a, b = edge
    return (a, b) if repr(a) <= repr(b) else (b, a)


def check_rate(name: str, value: float) -> None:
    """Reject a Markov rate outside [0, 1] (NaN included) up front."""
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")


def _advance_links(states: Sequence["LinkState"], rng: RandomSource) -> None:
    """One Markov step for each link, in order, on one shared tape.

    Draws exactly what per-link :meth:`RandomSource.bernoulli` calls would
    (one uniform per up link with a nonzero fail rate and per down link,
    same order) and keeps bernoulli's ``[0, 1]`` check, so a rate assigned
    out of range directly on a :class:`LinkState` still raises
    ``ValueError`` at its first draw.
    """
    draw = rng.random_float
    for state in states:
        if state.up:
            rate = state.fail_rate
            if not rate:
                continue
        else:
            rate = state.repair_rate
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"probability {rate} outside [0, 1]")
        if draw() < rate:
            state.up = not state.up


@dataclass
class LinkState:
    """One link's dynamic state: up/down plus the Markov toggle rates."""

    up: bool = True
    fail_rate: float = 0.0
    repair_rate: float = 0.2
    latency: int = 1

    def tick(self, rng: RandomSource) -> None:
        """Advance the two-state Markov chain by one time step."""
        _advance_links((self,), rng)


class Network:
    """An undirected network with per-link failure dynamics.

    Parameters
    ----------
    graph:
        Any connected undirected :class:`networkx.Graph`.
    source / destination:
        The two endpoints running the data-link protocol.
    fail_rate / repair_rate / latency:
        Defaults applied to every link (overridable per edge via
        :meth:`configure_link`).
    """

    def __init__(
        self,
        graph: nx.Graph,
        source,
        destination,
        fail_rate: float = 0.0,
        repair_rate: float = 0.2,
        latency: int = 1,
    ) -> None:
        if source not in graph or destination not in graph:
            raise ConfigurationError("source and destination must be graph nodes")
        if source == destination:
            raise ConfigurationError("source and destination must differ")
        if not nx.is_connected(graph):
            raise ConfigurationError("the network graph must be connected")
        check_rate("fail_rate", fail_rate)
        check_rate("repair_rate", repair_rate)
        self.graph = graph
        self.source = source
        self.destination = destination
        self._links: Dict[Edge, LinkState] = {
            _normalize(edge): LinkState(
                fail_rate=fail_rate, repair_rate=repair_rate, latency=latency
            )
            for edge in graph.edges()
        }
        self._states: Tuple[LinkState, ...] = tuple(self._links.values())
        # Memoized shortest up paths: (up mask, origin, target) -> path
        # tuple, or None when the mask partitions origin from target.
        self._routes: Dict[tuple, Optional[tuple]] = {}

    # -- link management ------------------------------------------------------------

    def link(self, a, b) -> LinkState:
        """The dynamic state of the link between two adjacent nodes."""
        try:
            return self._links[_normalize((a, b))]
        except KeyError:
            raise ConfigurationError(f"no link between {a!r} and {b!r}") from None

    def configure_link(self, a, b, **attrs) -> None:
        """Override fail_rate / repair_rate / latency / up on one link."""
        state = self.link(a, b)
        for key, value in attrs.items():
            if not hasattr(state, key):
                raise ConfigurationError(f"LinkState has no attribute {key!r}")
            if key in ("fail_rate", "repair_rate"):
                check_rate(key, value)
        for key, value in attrs.items():
            setattr(state, key, value)

    def tick(self, rng: RandomSource) -> None:
        """Advance every link's failure process by one step."""
        _advance_links(self._states, rng)

    def link_up(self, a, b) -> bool:
        """True iff the link between two adjacent nodes is currently up."""
        return self.link(a, b).up

    def up_subgraph(self) -> nx.Graph:
        """The graph restricted to currently-up links."""
        up_edges = [
            edge for edge, state in self._links.items() if state.up
        ]
        sub = nx.Graph()
        sub.add_nodes_from(self.graph.nodes())
        sub.add_edges_from(up_edges)
        return sub

    def up_path(self, origin, target) -> Optional[List]:
        """Shortest ``origin``→``target`` path over up links, or None.

        Memoized on the current up/down mask of every link (in link
        order), so a route is computed once per topology state however
        often relays ask.  The mask is read on each call, so links flipped
        directly on a :class:`LinkState` need no invalidation.  Each call
        returns a fresh list: callers may mutate it without touching the
        table.  The table holds at most :data:`ROUTE_TABLE_LIMIT` entries
        and is cleared when a miss finds it full.
        """
        key = (tuple([state.up for state in self._states]), origin, target)
        routes = self._routes
        path = routes.get(key, _MISS)
        if path is _MISS:
            try:
                path = tuple(nx.shortest_path(self.up_subgraph(), origin, target))
            except nx.NetworkXNoPath:
                path = None
            if len(routes) >= ROUTE_TABLE_LIMIT:
                routes.clear()
            routes[key] = path
        return None if path is None else list(path)

    def shortest_up_path(self) -> Optional[List]:
        """Shortest source→destination path over up links, or None."""
        return self.up_path(self.source, self.destination)

    @property
    def edge_count(self) -> int:
        """|E| — the unit of flooding's per-packet cost."""
        return self.graph.number_of_edges()

    def __repr__(self) -> str:
        return (
            f"Network(nodes={self.graph.number_of_nodes()}, "
            f"edges={self.edge_count}, {self.source!r}->{self.destination!r})"
        )


def disjoint_routes(graph: nx.Graph, source, destination, k: int) -> List[List]:
    """Up to ``k`` vertex-disjoint source→destination routes.

    Greedy shortest-first: repeatedly take a shortest path, then delete its
    interior nodes (and, for a direct source–destination edge, the edge
    itself) from a working copy, so later routes cannot share any relay
    with earlier ones — the Bunn–Ostrovsky condition for running fully
    independent protocol instances per route.  Deterministic for a given
    graph (BFS order), shortest routes first, and degrades gracefully:
    a line yields exactly one route, a ring two, a grid corner-to-corner
    two (the corner degree caps it).  May return fewer than ``k`` routes;
    never zero for a connected graph.
    """
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    if source not in graph or destination not in graph:
        raise ConfigurationError("source and destination must be graph nodes")
    work = graph.copy()
    routes: List[List] = []
    while len(routes) < k:
        try:
            route = nx.shortest_path(work, source, destination)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            break
        routes.append(route)
        if len(route) == 2:
            work.remove_edge(source, destination)
        else:
            work.remove_nodes_from(route[1:-1])
    return routes


def line_network(hops: int, **kwargs) -> Network:
    """A path graph of ``hops`` links: the minimal multi-hop topology."""
    if hops < 1:
        raise ConfigurationError("hops must be >= 1")
    graph = nx.path_graph(hops + 1)
    return Network(graph, source=0, destination=hops, **kwargs)


def ring_network(nodes: int, **kwargs) -> Network:
    """A cycle of ``nodes`` nodes: two disjoint source→destination paths."""
    if nodes < 3:
        raise ConfigurationError("a ring needs at least 3 nodes")
    graph = nx.cycle_graph(nodes)
    return Network(graph, source=0, destination=nodes // 2, **kwargs)


def mesh_network(side: int, **kwargs) -> Network:
    """A side×side grid: rich path diversity for the flooding relay."""
    if side < 2:
        raise ConfigurationError("a mesh needs side >= 2")
    graph = nx.grid_2d_graph(side, side)
    return Network(graph, source=(0, 0), destination=(side - 1, side - 1), **kwargs)
