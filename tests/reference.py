"""Independent references the tests check ``streamcert`` against.

They share no code with the library's searches, and they may take
exponential time: each is a definition evaluated by brute force.

- ``oracle_tutte_berge``: the Tutte-Berge minimum over all 2^n node sets
  U, the reference for the matching number and for the witness that
  ``prove --scheme mm_atmost`` encodes.
- ``every_small_graph``: every labelled graph on at most ``max_n`` nodes,
  the domain of the tests that check a claim exhaustively.
- ``sparse_gnp_graph``: a seeded G(n, c/n) in O(n + m) time, for the tests
  that check a claim at sizes where ``graph.gnp_random_graph``'s n^2 / 2
  coin flips cost seconds.
- ``to_networkx``: a graph as an ``nx.Graph`` on the nodes 1..n, for the
  tests that check the library against networkx, which shares no code with
  it.
"""

from __future__ import annotations

import itertools

import networkx as nx

from streamcert.graph import Graph
from streamcert.oracles import TooLarge

TUTTE_BERGE_MAX_N = 20


def _odd_components(neighbor_masks: list[int], remaining: int) -> int:
    """Odd-size components of the sub-vertex-set given as a bitmask."""
    odd = 0
    todo = remaining
    while todo:
        low = todo & -todo
        comp = low
        frontier = low
        while frontier:
            grown = comp
            f = frontier
            while f:
                b = f & -f
                f ^= b
                grown |= neighbor_masks[b.bit_length() - 1] & remaining
            frontier = grown & ~comp
            comp = grown
        if comp.bit_count() & 1:
            odd += 1
        todo &= ~comp
    return odd


def oracle_tutte_berge(g: Graph) -> tuple[int, frozenset[int]]:
    """min over U of (|U| - odd(V\\U) + |V|) / 2 with a minimizing U.

    Exhaustive over all 2^n subsets; the first subset (in ascending bitmask
    order) attaining the minimum is returned, so output is deterministic.
    """
    n = g.n
    if n > TUTTE_BERGE_MAX_N:
        raise TooLarge(f"exact oracle limited to n <= {TUTTE_BERGE_MAX_N}, got n = {n}")
    neighbor_masks = [0] * n
    for u, v in g.edges:
        neighbor_masks[u - 1] |= 1 << (v - 1)
        neighbor_masks[v - 1] |= 1 << (u - 1)
    full = (1 << n) - 1
    best = None
    best_mask = 0
    for mask in range(1 << n):
        rest = full & ~mask
        value = mask.bit_count() - _odd_components(neighbor_masks, rest) + n
        if best is None or value < best:
            best = value
            best_mask = mask
    members = frozenset(i + 1 for i in range(n) if best_mask >> i & 1)
    return (best or 0) // 2, members


def every_small_graph(max_n: int) -> dict[tuple[int, int], Graph]:
    """Every labelled graph on n <= max_n nodes, keyed by (n, edge mask) over
    the lex-ordered pairs, its edges stored in lex order, in key order."""
    graphs = {}
    for n in range(max_n + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            graphs[n, mask] = Graph(n, tuple(e for i, e in enumerate(pairs) if mask >> i & 1))
    return graphs


def sparse_gnp_graph(n: int, c: float, seed: int) -> Graph:
    """A seeded G(n, p) with p = c / n (p < 1), from networkx's O(n + m)
    generator, its edges stored in lex order."""
    edges = nx.fast_gnp_random_graph(n, c / n, seed=seed).edges
    return Graph(n, tuple(sorted((min(e) + 1, max(e) + 1) for e in edges)))


def to_networkx(g: Graph) -> nx.Graph:
    """``g`` as an ``nx.Graph`` on the nodes 1..n."""
    graph = nx.Graph()
    graph.add_nodes_from(range(1, g.n + 1))
    graph.add_edges_from(g.edges)
    return graph
