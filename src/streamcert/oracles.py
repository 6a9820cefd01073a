"""Exact ground-truth computations of every certified graph parameter.

All solvers here are exhaustive or exact combinatorial algorithms, used to
decide instance legality, to feed provers, and to check gadget equivalences.
Each exponential search refuses input beyond its size cutoff itself, with
``TooLarge``: the Tutte-Berge sweep above ``TUTTE_BERGE_MAX_N`` nodes, and
``k_coloring``, ``vertex_cover_at_most``, ``maximum_independent_set`` and
``maximum_clique`` above ``NP_ORACLE_MAX_N``. Everything built on them (the
optimum searches, the parameter oracles, the provers and the gadget
predicates) inherits the refusal and does not repeat it.

``PARAMETERS`` is the one table of the graph parameters a scheme can bound.
Each name maps to its exact oracle and to whether adding an edge can only
raise the value (removing one does the reverse). ``parameter_value``, the
corpus values, the fuzzer's one-edge search and the ``oracle`` subcommand
all read it, in its order.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Callable, NamedTuple

from .graph import Graph

TUTTE_BERGE_MAX_N = 20
NP_ORACLE_MAX_N = 24


class TooLarge(ValueError):
    """An input beyond the size cutoff of an exact (exponential) computation;
    ``message`` replaces the default text when the caller can name the input."""

    def __init__(self, n: int, limit: int, message: str | None = None):
        super().__init__(message or f"exact oracle limited to n <= {limit}, got n = {n}")


def _refuse_beyond_np_cutoff(g: Graph) -> None:
    if g.n > NP_ORACLE_MAX_N:
        raise TooLarge(g.n, NP_ORACLE_MAX_N)


# -- maximum matching (augmenting paths with blossom contraction) -------------

def edmonds_search(adj, mate: list[int], roots, excluded=frozenset()) -> list[bool] | None:
    """Edmonds' alternating-forest search: BFS with blossom contraction.

    ``mate`` is a matching over nodes 1..n as a mate list (0 = exposed);
    ``adj[v]`` lists the neighbors of v in scan order; each of ``roots`` is an
    exposed node and roots one tree; nodes in ``excluded`` count as deleted.

    If a tree reaches an exposed node outside the forest, ``mate`` is flipped
    along that augmenting path and None is returned. Otherwise the forest is
    grown until no edge leaves an outer node, and the outer marks are
    returned: outer[v] iff an even-length alternating path joins v to a root
    (Edmonds, *Paths, Trees, and Flowers*, 1965). An edge between the outer
    nodes of two trees closes an augmenting path that this search does not
    flip; it raises ValueError, since a caller that roots a tree at every
    exposed node has passed a matching that is not maximum.

    A contraction relabels only the nodes of the blossoms it merges, and
    queues the ones that turn outer in id order, so apart from three fresh
    n-sized lists a search costs what its forest touches.
    """
    n = len(mate) - 1
    outer = [False] * (n + 1)
    parent = [0] * (n + 1)
    base = list(range(n + 1))
    for root in roots:
        outer[root] = True
    queue = deque(roots)
    # the nodes of each contracted blossom, by base; a base not listed here
    # is its node alone
    members: dict[int, list[int]] = {}

    def lca(a: int, b: int) -> int:
        """Base of the blossom that edge ab closes; 0 if a, b are in two trees."""
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if mate[a] == 0:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            if mate[b] == 0:
                return 0
            b = parent[mate[b]]

    def mark_blossom(x: int, anchor: int, child: int, blossom: set[int]) -> None:
        while base[x] != anchor:
            blossom.add(base[x])
            blossom.add(base[mate[x]])
            parent[x] = child
            child = mate[x]
            x = parent[mate[x]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or mate[v] == to or to in excluded:
                continue
            if outer[to]:
                anchor = lca(v, to)
                if anchor == 0:
                    raise ValueError("matching is not maximum: two alternating trees meet")
                blossom: set[int] = set()
                mark_blossom(v, anchor, to, blossom)
                mark_blossom(to, anchor, v, blossom)
                # the anchor's own nodes keep their base and are outer already
                blossom.discard(anchor)
                merged = members.setdefault(anchor, [anchor])
                newly_outer = []
                for b in blossom:
                    for i in members.pop(b, (b,)):
                        base[i] = anchor
                        merged.append(i)
                        if not outer[i]:
                            outer[i] = True
                            newly_outer.append(i)
                # in id order, as a scan of every node would queue them
                newly_outer.sort()
                queue.extend(newly_outer)
            elif parent[to] == 0:
                parent[to] = v
                if mate[to] == 0:
                    # augment: flip matched edges along the found path
                    x = to
                    while x != 0:
                        px = parent[x]
                        nxt = mate[px]
                        mate[x] = px
                        mate[px] = x
                        x = nxt
                    return None
                outer[mate[to]] = True
                queue.append(mate[to])
    return outer


def maximum_matching(g: Graph) -> dict[int, int]:
    """Maximum cardinality matching; returns the mate map (absent = exposed).

    Greedy seed in lexicographic edge order, then one ``edmonds_search`` from
    each node still exposed, in id order, over sorted adjacency lists, so the
    output is a deterministic function of the edge set (not of the stored
    order). A search from an exposed node that finds no augmenting path rules
    that node out for good (Edmonds 1965), so the result is maximum.
    """
    n = g.n
    adj = {v: sorted(ns) for v, ns in g.adjacency().items()}
    mate = [0] * (n + 1)
    for u, v in sorted(g.edge_set):
        if mate[u] == 0 and mate[v] == 0:
            mate[u] = v
            mate[v] = u
    for v in range(1, n + 1):
        if mate[v] == 0:
            edmonds_search(adj, mate, (v,))
    return {v: mate[v] for v in range(1, n + 1) if mate[v] != 0}


def oracle_max_matching(g: Graph) -> int:
    return len(maximum_matching(g)) // 2


# -- Tutte-Berge (exhaustive over U) ------------------------------------------

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
        raise TooLarge(n, TUTTE_BERGE_MAX_N)
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


def count_odd_components_excluding(g: Graph, u_set) -> int:
    """odd(V \\ U) for a node set U, by direct flood fill (any graph size)."""
    excluded = set(u_set)
    adj = g.adjacency()
    seen = set(excluded)
    odd = 0
    for start in range(1, g.n + 1):
        if start in seen:
            continue
        size = 0
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            size += 1
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        odd += size & 1
    return odd


# -- degeneracy / k-core -------------------------------------------------------

def peel_order(g: Graph) -> tuple[list[int], int]:
    """Repeated minimum-degree removal (ties: smallest id).

    Returns (removal order, degeneracy = max degree at removal time).
    """
    adj = {v: set(ns) for v, ns in g.adjacency().items()}
    heap = [(len(ns), v) for v, ns in adj.items()]
    heapq.heapify(heap)
    removed: set[int] = set()
    order: list[int] = []
    degeneracy = 0
    while heap:
        d, v = heapq.heappop(heap)
        if v in removed or d != len(adj[v]):
            continue  # stale heap entry
        removed.add(v)
        order.append(v)
        degeneracy = max(degeneracy, d)
        for w in adj[v]:
            adj[w].discard(v)
            heapq.heappush(heap, (len(adj[w]), w))
        adj[v].clear()
    return order, degeneracy


def oracle_degeneracy(g: Graph) -> int:
    return peel_order(g)[1]


def k_core(g: Graph, k: int) -> frozenset[int]:
    """Maximal induced subgraph with minimum degree >= k (possibly empty)."""
    adj = {v: set(ns) for v, ns in g.adjacency().items()}
    queue = deque(v for v, ns in adj.items() if len(ns) < k)
    dead: set[int] = set(queue)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            adj[w].discard(v)
            if w not in dead and len(adj[w]) < k:
                dead.add(w)
                queue.append(w)
        adj[v].clear()
    return frozenset(v for v in range(1, g.n + 1) if v not in dead)


# -- diameter -------------------------------------------------------------------

def bfs_distances(adj: dict[int, list[int]], source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def oracle_diameter(g: Graph) -> int | float:
    """Max over pairs of BFS distance; +infinity iff disconnected; 0 for n=1."""
    if g.n == 0:
        return 0
    adj = g.adjacency()
    diameter = 0
    for v in range(1, g.n + 1):
        dist = bfs_distances(adj, v)
        if len(dist) < g.n:
            return math.inf
        diameter = max(diameter, max(dist.values()))
    return diameter


# -- chromatic number (branch and bound) ----------------------------------------

def k_coloring(g: Graph, k: int) -> dict[int, int] | None:
    """A proper coloring with colors 1..k, or None. Deterministic backtracking."""
    _refuse_beyond_np_cutoff(g)
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


def oracle_chromatic(g: Graph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        if k_coloring(g, k) is not None:
            return k
    raise AssertionError("n colors always suffice")


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
    _refuse_beyond_np_cutoff(g)
    if budget < 0:
        return None
    adj = {v: set(ns) for v, ns in g.adjacency().items() if ns}
    return _vc_branch(adj, budget, [])


def minimum_vertex_cover(g: Graph) -> list[int]:
    for budget in range(g.n + 1):
        cover = vertex_cover_at_most(g, budget)
        if cover is not None:
            return sorted(cover)
    raise AssertionError("V always covers")


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
    _refuse_beyond_np_cutoff(g)
    adj = {v: set(ns) for v, ns in g.adjacency().items()}
    return sorted(_is_branch(adj, [], []))


def maximum_clique(g: Graph) -> list[int]:
    # refused before the complement, which has ~n^2/2 edges, is built
    _refuse_beyond_np_cutoff(g)
    complement = Graph.from_edges(
        g.n,
        (
            (u, v)
            for u in range(1, g.n + 1)
            for v in range(u + 1, g.n + 1)
            if (u, v) not in g.edge_set
        ),
    )
    return maximum_independent_set(complement)


# -- the parameter table -----------------------------------------------------------

class Parameter(NamedTuple):
    oracle: Callable[[Graph], int | float]
    #: adding an edge can only raise the value (matching, degeneracy, chi, tau
    #: and omega grow with the edge set) or only lower it (alpha, diameter)
    adding_an_edge_raises: bool


PARAMETERS: dict[str, Parameter] = {
    "matching": Parameter(oracle_max_matching, True),
    "degeneracy": Parameter(oracle_degeneracy, True),
    "diameter": Parameter(oracle_diameter, False),
    "chromatic": Parameter(oracle_chromatic, True),
    "vc": Parameter(lambda g: len(minimum_vertex_cover(g)), True),
    "is": Parameter(lambda g: len(maximum_independent_set(g)), False),
    "clique": Parameter(lambda g: len(maximum_clique(g)), True),
}


def parameter_value(g: Graph, parameter: str) -> int | float:
    if parameter not in PARAMETERS:
        raise ValueError(f"unknown parameter {parameter!r}")
    return PARAMETERS[parameter].oracle(g)
