"""Undirected graph container, validation, family generators, and text file I/O.

Nodes are the contiguous integers 1..n; the vertex set is known up front and
never streamed. Edges are unordered pairs stored normalized as (min, max).
The stored edge *sequence* is preserved so that a graph loaded from a file
keeps its as-given stream order; the neighbour lists of ``adjacency`` are
sorted, built once per graph and shared, and must not be changed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


class GraphError(ValueError):
    """Base class for graph invariant violations."""


class SelfLoop(GraphError):
    def __init__(self, u: int):
        self.u = u
        super().__init__(f"self-loop at node {u}")


class DuplicateEdge(GraphError):
    def __init__(self, u: int, v: int):
        self.u, self.v = u, v
        super().__init__(f"duplicate edge ({u}, {v})")


class NodeOutOfRange(GraphError):
    def __init__(self, u: int):
        self.u = u
        super().__init__(f"node {u} out of range")


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    """n nodes (1..n) plus an edge sequence of normalized unordered pairs."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n, tuple(_norm(u, v) for u, v in edges))

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Each node's sorted neighbours, built once and shared: do not change."""
        return self._adjacency

    def max_degree(self) -> int:
        return max(map(len, self._adjacency.values()), default=0)


def validate_graph(g: Graph) -> None:
    """Raise SelfLoop / NodeOutOfRange / DuplicateEdge unless all invariants hold."""
    if g.n < 0:
        raise NodeOutOfRange(g.n)
    seen: set[tuple[int, int]] = set()
    for u, v in g.edges:
        if u == v:
            raise SelfLoop(u)
        for w in (u, v):
            if not 1 <= w <= g.n:
                raise NodeOutOfRange(w)
        e = _norm(u, v)
        if e in seen:
            raise DuplicateEdge(*e)
        seen.add(e)


# -- family generators -------------------------------------------------------

def empty_graph(n: int) -> Graph:
    return Graph(n, ())


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(
        n, ((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))
    )


def star_graph(n: int) -> Graph:
    """K_{1,n-1} with node 1 as the center."""
    return Graph.from_edges(n, ((1, v) for v in range(2, n + 1)))


def matching_graph(n: int) -> Graph:
    """floor(n/2) disjoint edges (1,2), (3,4), ..."""
    return Graph.from_edges(n, ((i, i + 1) for i in range(1, n, 2)))


def random_tree(n: int, seed: int) -> Graph:
    """Random recursive tree: node v attaches to a uniform earlier node."""
    rng = random.Random(seed)
    return Graph.from_edges(n, ((rng.randint(1, v - 1), v) for v in range(2, n + 1)))


def gnp_random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def bounded_degree_graph(n: int, max_deg: int, m_target: int, seed: int) -> Graph:
    """Random graph with max degree <= max_deg and up to m_target edges."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    rng.shuffle(pairs)
    deg = {v: 0 for v in range(1, n + 1)}
    edges = []
    for u, v in pairs:
        if len(edges) >= m_target:
            break
        if deg[u] < max_deg and deg[v] < max_deg:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph.from_edges(n, edges)


# -- text file format: "n m k" header then m lines "u v" ---------------------

class GraphParseError(ValueError):
    pass


def parse_graph_file(text: str) -> tuple[Graph, int]:
    """Parse the text format and return (graph, threshold k).

    The file's edge order is kept as the graph's as-given stream order.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphParseError("empty graph file")
    head = lines[0].split()
    if len(head) != 3:
        raise GraphParseError("header must be: n m k")
    try:
        n, m, k = (int(x) for x in head)
    except ValueError as exc:
        raise GraphParseError(f"bad header: {exc}") from None
    if m != len(lines) - 1:
        raise GraphParseError(f"header says {m} edges, file has {len(lines) - 1}")
    if k < 0:
        raise GraphParseError("threshold k must be non-negative")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphParseError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"bad edge line: {ln!r}") from None
        edges.append((u, v))
    g = Graph.from_edges(n, edges)
    try:
        validate_graph(g)
    except GraphError as exc:
        raise GraphParseError(str(exc)) from None
    return g, k


def format_graph_file(g: Graph, k: int) -> str:
    lines = [f"{g.n} {g.m} {k}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
