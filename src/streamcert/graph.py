r"""Undirected graph container, validation, family generators, and text file I/O.

Nodes are the contiguous integers 1..n; the vertex set is known up front and
never streamed. Edges are unordered pairs stored normalized as (min, max).
The stored edge *sequence* is preserved so that a graph loaded from a file
keeps its as-given stream order; the neighbour lists of ``adjacency`` are
sorted, built once per graph and shared, and must not be changed.

The text format is a header line ``n m k`` (node count, edge count,
threshold) and then m edge lines ``u v``. Exactly this is accepted:

- tokens are separated by any whitespace (``str.split``);
- lines end at any ``str.splitlines`` break (``\n``, ``\r\n``, ``\x0b``,
  ``\x1c``, ``\u2028``, ...);
- blank lines are skipped, wherever they are;
- every token is an ``int()`` literal (so ``+5``, ``1_000`` and non-ASCII
  decimal digits are read as ints);
- the header has 3 tokens, ``m`` is the number of edge lines, ``k >= 0``, and
  each edge line has 2 tokens;
- the graph must pass ``validate_graph``, and an error names the first bad
  edge in file order.

A graph or file that breaks any of this raises ``GraphError``, the module's
one refusal; its message names the fault.

Parsing, validation, normalization and formatting run their per-edge work
in C builtins (``map``, ``min``/``max``, ``set``, one ``%``); the line-by-line
walk runs only to name a bad line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, starmap
from operator import lt
from typing import Iterable


#: the most nodes, and the most edges, of a builtin graph (K4, P6, ...), a gadget
#: instance or a ``scale`` instance (whose run at n = 2^16 peaks at ~0.55 KB a node)
MAX_NODES_OR_EDGES = 1 << 18


class GraphError(ValueError):
    """A graph that is not simple on 1..n, or a graph file that is not in
    the text format; the message names the fault."""


@dataclass(frozen=True)
class Graph:
    """n nodes (1..n) plus an edge sequence of normalized unordered pairs."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n, tuple([(u, v) if u <= v else (v, u) for u, v in edges]))

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
    """Raise GraphError unless the graph is simple on 1..n; the message names
    the first bad edge in stored order (a self-loop, an id out of range or a
    repeated pair).

    A graph whose pairs are all normalized passes on C builtins alone; the
    edge-by-edge scan runs only when that check fails or a pair is stored
    unnormalized (as ``Graph(n, ...)`` allows), and it alone names the edge.
    """
    if g.n < 0:
        raise GraphError(f"node {g.n} out of range")
    edges = g.edges
    if edges:
        ids = list(chain.from_iterable(edges))
        # u < v in every pair rules out self-loops and makes a repeat of a
        # pair, in either orientation, a repeat in the set
        if (
            1 <= min(ids) and max(ids) <= g.n
            and all(starmap(lt, edges))
            and len(set(edges)) == len(edges)
        ):
            return
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at node {u}")
        for w in (u, v):
            if not 1 <= w <= g.n:
                raise GraphError(f"node {w} out of range")
        e = (u, v) if u <= v else (v, u)
        if e in seen:
            raise GraphError(f"duplicate edge {e}")
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

def parse_graph_file(text: str) -> tuple[Graph, int]:
    """Parse the text format (module docstring) and return (graph, threshold k).

    The file's edge order is kept as the graph's as-given stream order.
    """
    lines = text.splitlines()
    counts = list(map(len, map(str.split, lines)))
    head = next(compress(count(), counts), None)
    if head is None:
        raise GraphError("empty graph file")
    if counts[head] != 3:
        raise GraphError("header must be: n m k")
    # every line break is whitespace, so the file's tokens are its lines' tokens
    tokens = text.split()
    try:
        n, m, k = map(int, tokens[:3])
    except ValueError as exc:
        raise GraphError(f"bad header: {exc}") from None
    edge_lines = len(counts) - counts.count(0) - 1
    if m != edge_lines:
        raise GraphError(f"header says {m} edges, file has {edge_lines}")
    if k < 0:
        raise GraphError("threshold k must be non-negative")
    if counts.count(2) != edge_lines:
        raise _bad_edge_line(lines[head + 1:])
    try:
        ids = list(map(int, tokens[3:]))
    except ValueError:
        raise _bad_edge_line(lines[head + 1:]) from None
    pairs = iter(ids)
    g = Graph.from_edges(n, zip(pairs, pairs))
    validate_graph(g)
    return g, k


def _bad_edge_line(lines: list[str]) -> GraphError:
    """The error naming the first of ``lines`` that is not blank and is not
    two int tokens."""
    for raw in lines:
        parts = raw.split()
        if parts:
            try:
                _u, _v = map(int, parts)  # ValueError unless two int tokens
            except ValueError:
                return GraphError(f"bad edge line: {raw.strip()!r}")
    raise AssertionError("every edge line is two int tokens")


def format_graph_file(g: Graph, k: int) -> str:
    return f"{g.n} {g.m} {k}\n" + ("%s %s\n" * g.m) % tuple(chain.from_iterable(g.edges))
