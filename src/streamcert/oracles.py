"""Exact ground-truth computations of every certified graph parameter.

All solvers here are exhaustive or exact combinatorial algorithms, used to
decide instance legality, to feed provers, and to check gadget equivalences.
The provers' searches live here as well, so that only this module knows the
blossom forest's shared lists and the BFS sieve's source masks: the lex-min
greedy, the Tutte-Berge witness and the diameter labels' ``far_source``.
A matching has one format: the mate list over 0..n (0 = exposed) that
``maximum_matching`` returns with its size, and that every matching
function here reads.
The exponential searches, ``k_coloring``, ``vertex_cover_at_most``,
``maximum_independent_set`` and ``maximum_clique``, refuse input above the
one size cutoff, ``NP_ORACLE_MAX_N``, themselves with ``TooLarge``.
Everything built on them (the optimum searches, the parameter oracles, the
provers and the gadget sweeps) inherits the refusal and does not repeat
it. They run on per-node neighbour bitmasks and an ``alive`` mask of the
nodes still in play, so a branch copies nothing.

``PARAMETERS`` is the one table of the graph parameters a scheme can bound.
Each name maps to its exact oracle, to whether adding an edge can only
raise the value (removing one does the reverse), and, where one is cheaper
than the optimum, to a threshold test "value >= k". ``parameter_value``,
``parameter_at_least``, the corpus values, the fuzzer's one-edge search
(``one_edge_variant``), the gadget sweeps and the ``oracle`` subcommand all
read it, in its order; the exponential searches come last, and the
subcommand computes in reverse so that they refuse first.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Iterator
from itertools import islice
from typing import Callable, NamedTuple

from .graph import Graph

NP_ORACLE_MAX_N = 24


class TooLarge(ValueError):
    """An input beyond the size cutoff of an exact (exponential) computation."""


def _refuse_beyond_np_cutoff(g: Graph) -> None:
    if g.n > NP_ORACLE_MAX_N:
        raise TooLarge(f"exact oracle limited to n <= {NP_ORACLE_MAX_N}, got n = {g.n}")


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
    exposed node, as the Gallai-Edmonds witness does, has passed a matching
    that is not maximum. It changes no argument but ``mate``, and grows its
    forest in fresh lists through ``_grow_forest``, which leaves them as it
    found them.
    """
    n = len(mate) - 1
    outer, queue = [False] * (n + 1), []
    if _grow_forest(adj, mate, roots, excluded, outer, [0] * (n + 1), list(range(n + 1)), queue):
        return None
    for v in queue:  # every node that turned outer, its mark cleared on return
        outer[v] = True
    return outer


def _grow_forest(adj, mate, roots, excluded, outer, parent, base, queue, meet=False) -> bool:
    """The search of ``edmonds_search`` on caller-owned forest lists, which
    must hold outer False, parent 0 and base[v] = v on entry; returns True
    iff it augmented ``mate``. With ``meet``, an edge between the outer
    nodes of two trees does not raise: the path from one root through that
    edge to the other root augments, and it is flipped.

    ``queue`` (empty on entry) ends up holding every node that turned outer.
    The search leaves the three lists as it found them: every write lands on
    a queued node or on its mate as ``mate`` stands afterwards (a tree node
    never queued is inner, the mate of a queued node, and each edge an
    augmentation matches has a queued end), and those are reset before it
    returns. So a caller can share one set of lists between searches. A
    contraction relabels only the nodes of the blossoms it merges, and
    queues the ones that turn outer in id order, so a search costs what its
    forest touches.

    The scan of a queued node v reads mate[v] and base[v] once, before its
    neighbors: mate[v] changes only in a flip, after which the search
    returns, and base[v] only in a contraction, after which it is read
    again. Each neighbor is then skipped, in this order, when it shares v's
    base, is v's mate, or is excluded.
    """
    for root in roots:
        outer[root] = True
    queue.extend(roots)
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

    def flip(x: int, px: int) -> None:
        """Match x to the outer node px, then flip the matched edges on the
        alternating path from px back to its root."""
        while x != 0:
            nxt = mate[px]
            mate[x] = px
            mate[px] = x
            x = nxt
            px = parent[x]

    try:
        for v in queue:  # a list grown while it is walked: the BFS order
            mv, bv = mate[v], base[v]  # mate[v] holds until a flip returns
            for to in adj[v]:
                if bv == base[to] or mv == to or to in excluded:
                    continue
                if outer[to]:
                    anchor = lca(v, to)
                    if anchor == 0:
                        if not meet:
                            raise ValueError("matching is not maximum: two alternating trees meet")
                        # flip root..v and to..root, each from the meeting edge
                        tail = mate[to]
                        flip(to, v)
                        flip(tail, parent[tail])
                        return True
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
                    bv = base[v]  # the anchor: v is in the blossom
                elif parent[to] == 0:
                    parent[to] = v
                    if mate[to] == 0:
                        flip(to, v)
                        return True
                    outer[mate[to]] = True
                    queue.append(mate[to])
        return False
    finally:
        for x in queue:  # index 0, an exposed node's mate, keeps its entry state
            outer[x] = False
            parent[x] = 0
            base[x] = x
            y = mate[x]
            outer[y] = False
            parent[y] = 0
            base[y] = y


def maximum_matching(g: Graph) -> tuple[list[int], int]:
    """Maximum cardinality matching: ``(mate, nu)``, the mate list over 0..n
    (0 = exposed) and its size nu.

    Greedy seed in lexicographic edge order, then one forest search from
    each node still exposed, in id order, so the output is a deterministic
    function of the edge set (not of the stored order). A search from an
    exposed node that finds no augmenting path rules that node out for good
    (Edmonds 1965), so the result is maximum. The searches share one set of
    forest lists, which each leaves clean.
    """
    n = g.n
    adj = g.adjacency()
    mate = [0] * (n + 1)
    nu = 0
    for u, v in sorted(g.edges):
        if mate[u] == 0 and mate[v] == 0:
            mate[u] = v
            mate[v] = u
            nu += 1
    outer, parent, base = [False] * (n + 1), [0] * (n + 1), list(range(n + 1))
    for v in range(1, n + 1):
        # an isolated node's search finds nothing; each augmentation adds one
        if mate[v] == 0 and adj[v] and _grow_forest(adj, mate, (v,), (), outer, parent, base, []):
            nu += 1
    return mate, nu


def lex_min_greedy(g: Graph, mate: list[int], nu: int) -> Iterator[tuple[int, int]]:
    """The edges of the lexicographically smallest maximum matching, in lex
    order, grown from ``mate``, a maximum matching of size ``nu`` (consumed).

    Greedy over edges in lex order, keeping an edge iff the partial choice
    still extends to a maximum matching of the whole graph. Throughout, M is a
    maximum matching of G - used, and an edge uv with both ends free extends
    iff nu(G - used - u - v) = |M| - 1. M without its edges at u and v has
    that size when uv is in M or only one of u, v is matched. If u, v are
    matched to u', v', it has |M| - 2 edges, u', v' are exposed, and uv
    extends iff this matching has an augmenting path in G - used - u - v.

    One forest search, rooted at both u' and v', decides that. Every other
    exposed node was exposed under M, and a path between two of them would
    augment M, so every augmenting path has u' or v' as an end. The search
    flips a path when a tree reaches an exposed node outside the forest, or
    when the two trees meet (the path u'..v'), and if it stops with neither,
    no path exists. Often no search is needed, since both ends of a path have
    a neighbor in G - used - u - v. If u' has none, a path must join v' to a
    node that M leaves exposed and that has one; if v' has none as well, or
    no exposed node has one, uv does not extend. Counts of the neighbors
    outside used, and the set of exposed nodes that have some, keep that test
    cheap: a scan of the set stops at the first node that qualifies, and
    drops the stale entries it meets on the way.

    Either way, the matching left over is maximum in G - used - u - v and
    serves as the next M. Each edge is yielded as it is kept, so a caller
    that needs only the first k stops the greedy there. The searches share
    one set of forest lists, which each leaves clean.
    """
    n, adj = g.n, g.adjacency()
    outer, parent, base = [False] * (n + 1), [0] * (n + 1), list(range(n + 1))
    # free[x] counts the neighbors of x outside used; exposed holds every node
    # outside used that M leaves exposed and that has such a neighbor, and
    # sheds the nodes that no longer qualify as a scan meets them
    free = [0] + [len(adj[x]) for x in range(1, n + 1)]
    exposed = {x for x in range(1, n + 1) if not mate[x] and free[x]}
    used: set[int] = set()

    def reaches(x: int, u: int, v: int) -> bool:
        """x has a neighbor in G - used - u - v."""
        return free[x] > 2 or free[x] > (u in adj[x]) + (v in adj[x])

    def exposed_reaches(u: int, v: int) -> bool:
        """Some node that M leaves exposed in G - used has a neighbor in
        G - used - u - v."""
        shed, hit = [], False
        for x in exposed:
            if mate[x] or not free[x]:
                shed.append(x)
            elif reaches(x, u, v):
                hit = True
                break
        exposed.difference_update(shed)
        return hit

    chosen = 0
    for u, v in sorted(g.edges):
        if chosen == nu:
            return
        if u in used or v in used:
            continue
        mu, mv = mate[u], mate[v]
        search = mu and mv and mu != v
        if search:
            ends = reaches(mu, u, v) + reaches(mv, u, v)
            if ends == 0 or ends == 1 and not exposed_reaches(u, v):
                continue  # no augmenting path: uv does not extend
        mate[u] = mate[v] = mate[mu] = mate[mv] = 0  # mate[0] stays 0
        used.update((u, v))
        if search and not _grow_forest(
            adj, mate, (mu, mv), used, outer, parent, base, [], meet=True
        ):  # uv does not extend: restore M
            used.difference_update((u, v))
            mate[u], mate[mu], mate[v], mate[mv] = mu, u, mv, v
            continue
        chosen += 1
        for w in adj[u]:
            free[w] -= 1
        for w in adj[v]:
            free[w] -= 1
        exposed.difference_update((u, v))
        exposed.update(x for x in (mu, mv) if free[x] and not mate[x] and x not in used)
        yield u, v


def oracle_max_matching(g: Graph) -> int:
    return maximum_matching(g)[1]


# -- Tutte-Berge witness (Gallai-Edmonds) ----------------------------------

def tutte_berge_witness(g: Graph, mate: list[int], nu: int) -> frozenset[int]:
    """A minimizer U of (|U| - odd(V\\U) + |V|) / 2 that attains 2 * nu, from
    ``mate``, a maximum matching of size ``nu`` (left as it is).

    U is the neighborhood (outside D) of D, the nodes missed by at least one
    maximum matching (``missed_nodes``).
    """
    adj = g.adjacency()
    outer = missed_nodes(g, mate)
    witness = frozenset(
        w for v in range(1, g.n + 1) if outer[v] for w in adj[v] if not outer[w]
    )
    odd = count_odd_components_excluding(g, witness)
    if 2 * nu != len(witness) - odd + g.n:
        raise AssertionError("witness misses the matching bound")
    return witness


def missed_nodes(g: Graph, mate: list[int]) -> list[bool]:
    """D, the nodes missed by at least one maximum matching, as marks over
    0..n, from ``mate``, a maximum matching (left as it is). D is the set of
    outer nodes of the Edmonds forest grown from every exposed node of one
    maximum matching (Gallai-Edmonds structure theorem; Lovasz & Plummer,
    *Matching Theory*, 1986); the forest search raises if two of its trees
    meet, since the matching was then not maximum."""
    exposed = [v for v in range(1, g.n + 1) if mate[v] == 0]
    return edmonds_search(g.adjacency(), mate, exposed)


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
    A bucket queue (Matula & Beck, *Smallest-last ordering and clustering and
    graph coloring algorithms*, JACM 1983) whose buckets are min-heaps of
    node ids, one per degree, so each pop is the smallest id of the smallest
    degree. A node is pushed into bucket d when its degree becomes d; the
    entry goes stale when the degree drops below d, and is skipped when
    popped. A removed node's degree is set to -1, below every bucket. The
    pointer d never passes the minimum degree: removing a node of degree d
    leaves no node below d - 1, so it steps down by at most one per removal.
    """
    n = g.n
    adj = g.adjacency()
    degree = [0] + [len(adj[v]) for v in range(1, n + 1)]
    buckets: list[list[int]] = [[] for _ in range(max(degree) + 1)]
    for v in range(1, n + 1):
        buckets[degree[v]].append(v)  # ascending ids: already a heap
    heappop, heappush = heapq.heappop, heapq.heappush
    order: list[int] = []
    degeneracy = d = 0
    for _ in range(n):
        while True:
            bucket = buckets[d]
            if not bucket:
                d += 1
            elif degree[v := heappop(bucket)] == d:
                break
        degree[v] = -1
        order.append(v)
        if d > degeneracy:
            degeneracy = d
        for w in adj[v]:
            dw = degree[w]
            if dw > 0:  # w is present: its edge to v still counts
                degree[w] = dw - 1
                heappush(buckets[dw - 1], w)
        if d:
            d -= 1
    return order, degeneracy


def oracle_degeneracy(g: Graph) -> int:
    return peel_order(g)[1]


def k_core(g: Graph, k: int) -> frozenset[int]:
    """Maximal induced subgraph with minimum degree >= k (possibly empty).

    Removes every node of degree below k, counting down the degrees of its
    neighbors still present, until none is left below k: O(n + m) (Batagelj
    & Zaversnik, *An O(m) Algorithm for Cores Decomposition of Networks*,
    2003)."""
    adj = g.adjacency()
    degree = [0] + [len(adj[v]) for v in range(1, g.n + 1)]
    stack = [v for v in range(1, g.n + 1) if degree[v] < k]
    removed = bytearray(g.n + 1)
    for v in stack:
        removed[v] = 1
    while stack:
        for w in adj[stack.pop()]:
            if not removed[w]:
                degree[w] -= 1
                if degree[w] < k:
                    removed[w] = 1
                    stack.append(w)
    return frozenset(v for v in range(1, g.n + 1) if not removed[v])


# -- diameter -------------------------------------------------------------------

#: sources per bit-parallel BFS: a block's masks are ints of at most this many
#: bits, one per node, so memory stays O(n) block-wide ints for any n
BFS_BLOCK = 1024


def bfs_distances(adj: dict[int, tuple[int, ...]], source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def source_blocks(n: int) -> Iterator[range]:
    """The sources 1..n in id-ordered blocks of at most ``BFS_BLOCK``."""
    return (range(lo, min(lo + BFS_BLOCK, n + 1)) for lo in range(1, n + 1, BFS_BLOCK))


def covered_sources(adj: dict[int, tuple[int, ...]], sources: range) -> Iterator[int]:
    """Bit-parallel BFS from every source at once, over a connected graph:
    for depth 0, 1, 2, ... the bitmask (bit i for ``sources[i]``) of the
    sources whose BFS has reached every node within that depth, i.e. whose
    eccentricity is at most that depth. Stops after the first depth at which
    every source is covered.

    ``reach[v]`` is the mask of sources within the depth of v; a level ORs
    into each neighbor of a frontier node the sources that reached it at the
    level before, and keeps what is new (Then et al., *The More the Merrier:
    Efficient Multi-Source Graph Traversal*, PVLDB 2014). In a connected
    graph a source has reached every node within a depth iff its BFS gains no
    node at the next one. A node is on a level's frontier only if some source
    reached it at that depth, so a run costs no more ops (on ints of
    len(sources) bits) than len(sources) separate BFSs, and far fewer when
    the sources' frontiers overlap, as they do at low diameter.
    """
    full = (1 << len(sources)) - 1
    reach = [0] * (len(adj) + 1)
    gained = [0] * (len(adj) + 1)  # the sources that reached v at this depth
    incoming = [0] * (len(adj) + 1)
    frontier = list(sources)
    for bit, s in enumerate(sources):
        reach[s] = gained[s] = 1 << bit
    while frontier:
        touched = []
        for v in frontier:
            new = gained[v]
            for w in adj[v]:
                if not incoming[w]:
                    touched.append(w)
                incoming[w] |= new
        frontier = []
        active = 0
        for w in touched:
            known = reach[w]
            new = (incoming[w] | known) ^ known
            incoming[w] = 0
            gained[w] = new
            if new:
                reach[w] = known | new
                frontier.append(w)
                active |= new
        yield full & ~active


def far_source(g: Graph, k: int) -> dict[int, int] | None:
    """The BFS distances from the smallest node (g has one) whose BFS misses
    a node or reaches depth k, or None when none does. The BFS from node 1
    comes first; only when node 1 does not qualify, in a connected graph,
    does the sieve look further: the lowest source that ``covered_sources``
    leaves uncovered at depth k - 1, in the first block that holds one."""
    adj = g.adjacency()
    dist = bfs_distances(adj, 1)
    if len(dist) < g.n or max(dist.values()) >= k:
        return dist
    for sources in source_blocks(g.n):
        for covered in islice(covered_sources(adj, sources), k):
            pass
        far = ((1 << len(sources)) - 1) & ~covered
        if far:
            return bfs_distances(adj, sources[(far & -far).bit_length() - 1])
    return None


def oracle_diameter(g: Graph) -> int | float:
    """Max over pairs of BFS distance; +infinity iff disconnected; 0 for n=1.

    One BFS from node 1 settles connectivity; the diameter is then the last
    depth ``covered_sources`` yields for any block, the first at which the
    whole block is covered."""
    adj = g.adjacency()
    if g.n and len(bfs_distances(adj, 1)) < g.n:
        return math.inf
    diameter = 0
    for sources in source_blocks(g.n):
        for depth, _ in enumerate(covered_sources(adj, sources)):
            diameter = max(diameter, depth)
    return diameter


# -- chromatic number (branch and bound) ----------------------------------------

def _neighbour_masks(g: Graph) -> list[int]:
    """``nbr[v]``, bit w set iff vw is an edge (bit 0 unused); a search's
    degree is then ``(nbr[v] & alive).bit_count()``."""
    nbr = [0] * (g.n + 1)
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


def k_coloring(g: Graph, k: int) -> dict[int, int] | None:
    """A proper coloring with colors 1..k, or None, by backtracking in a fixed
    order, since the provers encode the witness: nodes in (-degree, id) order
    (the dict's order too), each tries the smallest free color first, and at
    most one new color is opened per step."""
    _refuse_beyond_np_cutoff(g)
    if k < 0:
        return None
    n = g.n
    if n == 0:
        return {}
    if k == 0:
        return None
    nbr = _neighbour_masks(g)
    order = sorted(range(1, n + 1), key=lambda v: (-nbr[v].bit_count(), v))
    # classes[c]: the nodes colored c; a search never opens more than n colors
    classes = [0] * (min(k, n) + 1)
    colors = [0] * (n + 1)

    def assign(idx: int, used: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        for c in range(1, min(k, used + 1) + 1):
            if not classes[c] & nbr[v]:
                classes[c] |= 1 << v
                colors[v] = c
                if assign(idx + 1, max(used, c)):
                    return True
                classes[c] ^= 1 << v
        return False

    return {v: colors[v] for v in order} if assign(0, 0) else None


def _two_colourable(g: Graph) -> bool:
    """Whether g has a proper 2-colouring, in O(n + m): when it has one, the
    parity of BFS depth is one, so every edge joins an odd and an even depth."""
    adj = g.adjacency()
    depth: dict[int, int] = {}
    for root in range(1, g.n + 1):
        if root not in depth:
            depth.update(bfs_distances(adj, root))
    return all((depth[u] ^ depth[v]) & 1 for u, v in g.edges)


def oracle_chromatic(g: Graph) -> int:
    """chi: 0 with no node, 1 with no edge, 2 when a BFS 2-colours g, and
    otherwise the first k >= 3 that ``k_coloring`` colours with."""
    _refuse_beyond_np_cutoff(g)
    if g.n == 0:
        return 0
    if not g.edges:
        return 1
    if _two_colourable(g):
        return 2
    for k in range(3, g.n + 1):
        if k_coloring(g, k) is not None:
            return k
    raise AssertionError("n colors always suffice")


# -- vertex cover / independent set / clique ------------------------------------

def _vc_branch(nbr: list[int], alive: int, budget: int, chosen: list[int]) -> list[int] | None:
    # kernel: resolve the smallest degree-1 node by taking its neighbour
    # (always at least as good); a scan that finds none yields the pivot
    while True:
        pivot = top = 0
        rest = alive
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            degree = (nbr[v] & alive).bit_count()
            if degree == 1:
                break
            if degree > top:
                pivot, top = v, degree
        else:
            break
        if budget == 0:
            return None
        budget -= 1
        w = (nbr[v] & alive).bit_length() - 1
        chosen.append(w)
        alive &= ~(1 << w)
    if not top:
        return list(chosen)
    if budget == 0:
        return None
    # branch 1: the pivot in the cover
    got = _vc_branch(nbr, alive & ~(1 << pivot), budget - 1, chosen + [pivot])
    if got is not None:
        return got
    # branch 2: all neighbours of the pivot in the cover
    if top <= budget:
        neighbours = nbr[pivot] & alive
        ascending = [w for w in range(neighbours.bit_length()) if neighbours >> w & 1]
        return _vc_branch(nbr, alive & ~neighbours, budget - top, chosen + ascending)
    return None


def vertex_cover_at_most(g: Graph, budget: int) -> list[int] | None:
    """A vertex cover of size <= budget, or None, listed in the order taken,
    which is fixed because the provers encode the witness: the smallest-id
    node of degree exactly 1 gives its neighbour first, then the pivot
    (maximum degree, smallest id on ties) enters in branch 1, or its
    neighbours, ascending, in branch 2."""
    _refuse_beyond_np_cutoff(g)
    if budget < 0:
        return None
    return _vc_branch(_neighbour_masks(g), (1 << (g.n + 1)) - 2, budget, [])


def minimum_vertex_cover(g: Graph) -> list[int]:
    """The cover found at budget tau = n - alpha (Gallai's identity), sorted."""
    return sorted(vertex_cover_at_most(g, g.n - len(maximum_independent_set(g))))


def _is_branch(nbr: list[int], alive: int, chosen: list[int], best: list[int]) -> list[int]:
    # taking the smallest node of degree <= 1 into the IS is always optimal;
    # a scan that finds none yields the pivot
    while True:
        pivot, top = 0, -1
        rest = alive
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            degree = (nbr[v] & alive).bit_count()
            if degree <= 1:
                break
            if degree > top:
                pivot, top = v, degree
        else:
            break
        chosen = chosen + [v]
        alive &= ~(nbr[v] | 1 << v)
    if not alive:
        return chosen if len(chosen) > len(best) else best
    if len(chosen) + alive.bit_count() <= len(best):
        return best
    # branch 1: the pivot in the IS (drop it and its neighbourhood)
    best = _is_branch(nbr, alive & ~(nbr[pivot] | 1 << pivot), chosen + [pivot], best)
    # branch 2: the pivot not in the IS
    return _is_branch(nbr, alive & ~(1 << pivot), chosen, best)


def maximum_independent_set(g: Graph) -> list[int]:
    """The first largest IS found, sorted; the order is fixed because the
    provers encode the witness: the smallest-id node of degree <= 1 is taken
    first, the pivot (maximum degree, smallest id on ties) is taken in branch
    1 before it is dropped in branch 2, a branch that cannot beat the best is
    pruned, and only a strictly larger set replaces it."""
    _refuse_beyond_np_cutoff(g)
    return sorted(_is_branch(_neighbour_masks(g), (1 << (g.n + 1)) - 2, [], []))


def maximum_clique(g: Graph) -> list[int]:
    """``maximum_independent_set``'s search, and its order, on the complement."""
    _refuse_beyond_np_cutoff(g)
    everyone = (1 << (g.n + 1)) - 2
    complement = [everyone & ~(ns | 1 << v) for v, ns in enumerate(_neighbour_masks(g))]
    return sorted(_is_branch(complement, everyone, [], []))


# -- the parameter table -----------------------------------------------------------

def degeneracy_at_least(g: Graph, k: int) -> bool:
    """degeneracy >= k, without the peel: for k >= 1 the degeneracy is the
    largest k with a nonempty k-core, and every graph passes at k <= 0."""
    return k <= 0 or bool(k_core(g, k))


def chromatic_at_least(g: Graph, k: int) -> bool:
    """chi >= k: no proper colouring with k - 1 colours. One search at k - 1
    instead of ``oracle_chromatic``'s climb from 1; ``k_coloring`` has none
    below 0 colours, and colours the empty graph with 0."""
    return k_coloring(g, k - 1) is None


def vc_at_least(g: Graph, k: int) -> bool:
    """tau >= k: no vertex cover of size k - 1. One budgeted search instead
    of the independent-set search that gives tau = n - alpha;
    ``vertex_cover_at_most`` has none below budget 0."""
    return vertex_cover_at_most(g, k - 1) is None


class Parameter(NamedTuple):
    oracle: Callable[[Graph], int | float]
    #: adding an edge can only raise the value (matching, degeneracy, chi, tau
    #: and omega grow with the edge set) or only lower it (alpha, diameter)
    adding_an_edge_raises: bool
    #: the test value >= k, where one is cheaper than the optimum
    at_least: Callable[[Graph, int], bool] | None = None


PARAMETERS: dict[str, Parameter] = {
    "matching": Parameter(oracle_max_matching, True),
    "degeneracy": Parameter(oracle_degeneracy, True, degeneracy_at_least),
    "diameter": Parameter(oracle_diameter, False),
    "chromatic": Parameter(oracle_chromatic, True, chromatic_at_least),
    "vc": Parameter(lambda g: g.n - len(maximum_independent_set(g)), True, vc_at_least),
    "is": Parameter(lambda g: len(maximum_independent_set(g)), False),
    "clique": Parameter(lambda g: len(maximum_clique(g)), True),
}


def parameter_value(g: Graph, parameter: str) -> int | float:
    if parameter not in PARAMETERS:
        raise ValueError(f"unknown parameter {parameter!r}")
    return PARAMETERS[parameter].oracle(g)


def parameter_at_least(g: Graph, parameter: str, k: int) -> bool:
    """``parameter_value(g, parameter) >= k``, by the row's threshold test
    where it has one."""
    row = PARAMETERS[parameter]
    return row.at_least(g, k) if row.at_least else row.oracle(g) >= k


def one_edge_candidates(
    g: Graph, parameter: str, value: int | float, k: int, adds: bool
) -> list[tuple[int, int]]:
    """The edges whose addition to g (``adds``) or removal from it may take
    the parameter from ``value``, its value on g, to k != value, in lex
    order: every pair outside g or every edge of g, less those that provably
    cannot. Adding or removing one edge moves every parameter but the
    diameter by at most 1, so for those none can when |value - k| > 1 (one
    chord takes a path's diameter from n - 1 to about n / 2). Otherwise k is
    one step away, a candidate must change the value, and these cannot:

    - matching, adding uv with u or v outside D (``missed_nodes``): the
      matching number rises only if some maximum matching misses both ends;
    - matching, removing an edge outside one maximum matching M: M survives;
    - degeneracy, adding or removing uv with an end outside the value-core:
      a (value + 1)-core after adding uv holds uv and, less uv, has minimum
      degree >= value, so lies in the value-core; and removing an edge
      outside the value-core leaves that core whole;
    - clique, adding uv where u and v have fewer than value - 1 common
      neighbours: a new (value + 1)-clique holds u, v and value - 1 of them.

    The maximum matching is found through this module's ``maximum_matching``
    global, where a tracer wraps it."""
    n = g.n
    if parameter != "diameter" and abs(value - k) > 1:
        return []
    if adds:
        moves = [
            (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
            if (u, v) not in g.edge_set
        ]
    else:
        moves = sorted(g.edges)
    if parameter == "matching":
        mate = maximum_matching(g)[0]
        if adds:
            missed = missed_nodes(g, mate)
            return [(u, v) for u, v in moves if missed[u] and missed[v]]
        return [(u, v) for u, v in moves if mate[u] == v]
    if parameter == "degeneracy":
        core = k_core(g, value)
        return [(u, v) for u, v in moves if u in core and v in core]
    if parameter == "clique" and adds:
        nbr = _neighbour_masks(g)
        return [(u, v) for u, v in moves if (nbr[u] & nbr[v]).bit_count() >= value - 1]
    return moves


def one_edge_variant(
    g: Graph, parameter: str, value: int | float, k: int, adds: bool
) -> Graph | None:
    """The first graph one edge away from g, in ``one_edge_candidates``' lex
    order, on which the parameter crosses from ``value``, its value on g, to
    k != value: at least k when k > value, at most k when k < value. The move
    appends a pair to g's edges when ``adds`` is set and removes an edge
    otherwise; None at once when it can only carry the parameter away from k.
    One ``parameter_at_least`` test, at k or at k + 1, decides each candidate."""
    up = k > value
    if (PARAMETERS[parameter].adding_an_edge_raises == adds) != up:
        return None
    for u, v in one_edge_candidates(g, parameter, value, k, adds):
        if adds:
            candidate = Graph(g.n, g.edges + ((u, v),))
        else:
            candidate = Graph(g.n, tuple(e for e in g.edges if e != (u, v)))
        if parameter_at_least(candidate, parameter, k if up else k + 1) == up:
            return candidate
    return None
