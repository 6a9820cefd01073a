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
- ``k_coloring``, ``vertex_cover_at_most``, ``maximum_independent_set`` and
  ``maximum_clique``: the exact searches as they ran on a dict of neighbour
  sets, copied at each branch, before ``oracles`` moved them onto neighbour
  bitmasks. They make the same moves in the same order, so the library's
  searches must return exactly what these return (the provers encode those
  witnesses). They do not refuse large graphs; callers keep n small.
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


# -- chromatic number (branch and bound) ----------------------------------------

def k_coloring(g: Graph, k: int) -> dict[int, int] | None:
    """A proper coloring with colors 1..k, or None. Deterministic backtracking."""
    if k < 0:
        return None
    n = g.n
    if n == 0:
        return {}
    if k == 0:
        return None
    adj = g.adjacency()
    order = sorted(range(1, n + 1), key=lambda v: (-len(adj[v]), v))
    colors: dict[int, int] = {}

    def assign(idx: int, used: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        taken = {colors[w] for w in adj[v] if w in colors}
        # symmetry break: at most one brand-new color may be opened
        limit = min(k, used + 1)
        for c in range(1, limit + 1):
            if c in taken:
                continue
            colors[v] = c
            if assign(idx + 1, max(used, c)):
                return True
            del colors[v]
        return False

    return dict(colors) if assign(0, 0) else None


# -- vertex cover / independent set / clique ------------------------------------

def _remove_vertex(adj: dict[int, set[int]], v: int) -> None:
    for x in adj.pop(v, ()):
        if x in adj:
            adj[x].discard(v)


def _vc_branch(adj: dict[int, set[int]], budget: int, chosen: list[int]) -> list[int] | None:
    # kernel: drop isolated vertices, resolve degree-1 vertices by taking
    # their neighbor (always at least as good)
    while True:
        deg1 = None
        for v in sorted(adj):
            if not adj[v]:
                del adj[v]
            elif len(adj[v]) == 1:
                deg1 = v
                break
        else:
            break  # scanned everything: no degree-1 vertex left
        w = next(iter(adj[deg1]))
        if budget == 0:
            return None
        budget -= 1
        chosen.append(w)
        _remove_vertex(adj, w)
    if not adj:
        return list(chosen)
    if budget == 0:
        return None
    v = max(adj, key=lambda x: (len(adj[x]), -x))
    neighbors = set(adj[v])
    # branch 1: v in the cover
    adj1 = {x: set(ns) for x, ns in adj.items()}
    _remove_vertex(adj1, v)
    got = _vc_branch(adj1, budget - 1, chosen + [v])
    if got is not None:
        return got
    # branch 2: all neighbors of v in the cover
    if len(neighbors) <= budget:
        adj2 = {x: set(ns) for x, ns in adj.items()}
        for w in neighbors:
            _remove_vertex(adj2, w)
        adj2.pop(v, None)
        return _vc_branch(adj2, budget - len(neighbors), chosen + sorted(neighbors))
    return None


def vertex_cover_at_most(g: Graph, budget: int) -> list[int] | None:
    """A vertex cover of size <= budget, or None. Decision form."""
    if budget < 0:
        return None
    adj = {v: set(ns) for v, ns in g.adjacency().items() if ns}
    return _vc_branch(adj, budget, [])


def _is_branch(adj: dict[int, set[int]], chosen: list[int], best: list[int]) -> list[int]:
    while True:
        easy = None
        for v in sorted(adj):
            if len(adj[v]) <= 1:
                easy = v
                break
        if easy is None:
            break
        # taking a vertex of degree <= 1 into the IS is always optimal
        chosen = chosen + [easy]
        for w in list(adj[easy]):
            _remove_vertex(adj, w)
        adj.pop(easy, None)
    if not adj:
        return chosen if len(chosen) > len(best) else best
    if len(chosen) + len(adj) <= len(best):
        return best
    v = max(adj, key=lambda x: (len(adj[x]), -x))
    # branch 1: v in the IS (drop v and its neighborhood)
    adj1 = {x: set(ns) for x, ns in adj.items()}
    for w in list(adj1[v]):
        _remove_vertex(adj1, w)
    adj1.pop(v, None)
    best = _is_branch(adj1, chosen + [v], best)
    # branch 2: v not in the IS
    adj2 = {x: set(ns) for x, ns in adj.items()}
    _remove_vertex(adj2, v)
    return _is_branch(adj2, chosen, best)


def maximum_independent_set(g: Graph) -> list[int]:
    adj = {v: set(ns) for v, ns in g.adjacency().items()}
    return sorted(_is_branch(adj, [], []))


def maximum_clique(g: Graph) -> list[int]:
    adj = g.adjacency()
    nodes = set(adj)
    complement = {v: nodes - {v} - set(ns) for v, ns in adj.items()}
    return sorted(_is_branch(complement, [], []))
