"""Certificate constructors, one per scheme.

Provers are computationally unconstrained. Each builds its witness with the
exact algorithms in ``oracles`` and refuses (NotCertifiable) from that witness
alone when it falls short of the claimed bound: no prover asks a second
oracle first. The equality provers only combine the two one-sided provers,
since the <=k one refuses above k and the >=k one below k. All tie-breaks are
by smallest node id / lexicographic edge order so certificates are
byte-reproducible across runs.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice

from .certs import (
    CertificateBlob,
    encode_coloring,
    encode_core_subset,
    encode_distance_labels,
    encode_equality,
    encode_mm_coloring,
    encode_mm_list,
    encode_node_set,
    encode_peel_order,
    encode_tutte_berge,
)
from .graph import Graph
from .oracles import (
    bfs_distances,
    count_odd_components_excluding,
    edmonds_search,
    k_coloring,
    k_core,
    maximum_clique,
    maximum_independent_set,
    maximum_matching,
    minimum_vertex_cover,
    peel_order,
)


class NotCertifiable(ValueError):
    """The instance does not satisfy the bound the scheme certifies."""


# -- maximum matching ----------------------------------------------------------

def _maximum_mate_list(g: Graph) -> tuple[list[int], int]:
    """A maximum matching of g as a mate list over 1..n (0 = exposed), and
    its size."""
    matching = maximum_matching(g)
    mate = [0] * (g.n + 1)
    for v, w in matching.items():
        mate[v] = w
    return mate, len(matching) // 2


def _lex_min_greedy(g: Graph, mate: list[int], nu: int) -> Iterator[tuple[int, int]]:
    """The edges of the lexicographically smallest maximum matching, in lex
    order, grown from ``mate``, a maximum matching of size ``nu`` (consumed).

    Greedy over edges in lex order, keeping an edge iff the partial choice
    still extends to a maximum matching of the whole graph. Throughout, M is a
    maximum matching of G - used, and an edge uv with both ends free extends
    iff nu(G - used - u - v) = |M| - 1. M without its edges at u and v has
    that size when uv is in M or only one of u, v is matched. If u, v are
    matched to u', v', it has |M| - 2 edges, and u', v' are exposed; every
    other exposed node was exposed under M, and a path between two of them
    would augment M, so uv extends iff a search from u' or from v' in
    G - used - u - v augments. Either way, the matching left over is maximum
    in G - used - u - v and serves as the next M. Each edge is yielded as it
    is kept, so a caller that needs only the first k stops the greedy there.
    """
    adj = g.adjacency()
    chosen = 0
    used: set[int] = set()
    for u, v in sorted(g.edge_set):
        if chosen == nu:
            return
        if u in used or v in used:
            continue
        mu, mv = mate[u], mate[v]
        mate[u] = mate[v] = mate[mu] = mate[mv] = 0  # mate[0] stays 0
        used.update((u, v))
        if (
            mu == v
            or not (mu and mv)
            or edmonds_search(adj, mate, (mu,), used) is None
            or edmonds_search(adj, mate, (mv,), used) is None
        ):
            chosen += 1
            yield u, v
        else:  # uv does not extend: restore M
            used.difference_update((u, v))
            mate[u], mate[mu], mate[v], mate[mv] = mu, u, mv, v


def lex_min_maximum_matching(g: Graph) -> list[tuple[int, int]]:
    """The lexicographically smallest maximum matching (as a sorted edge list)."""
    return list(_lex_min_greedy(g, *_maximum_mate_list(g)))


def prove_mm_atleast_list(g: Graph, k: int) -> CertificateBlob:
    """The first k edges of the lex-min maximum matching: the greedy stops
    once it has kept them."""
    mate, nu = _maximum_mate_list(g)
    if nu < k:
        raise NotCertifiable(f"maximum matching below {k}")
    return encode_mm_list(list(islice(_lex_min_greedy(g, mate, nu), k)), g.n)


def prove_mm_atleast_coloring(g: Graph, k: int) -> CertificateBlob:
    """Vertex coloring on at most max(1, 2*max_degree - 1) colors in which the
    monochromatic edges are exactly a matching of size k: the first k edges
    (lex order) of the deterministic maximum matching."""
    mate, nu = _maximum_mate_list(g)
    if nu < k:
        raise NotCertifiable(f"maximum matching below {k}")
    matched = [(v, mate[v]) for v in range(1, g.n + 1) if v < mate[v]][:k]
    delta = g.max_degree()
    if delta <= 1:
        # the whole graph is a matching; one color satisfies the verifier
        return encode_mm_coloring({v: 1 for v in range(1, g.n + 1)}, 1, g.n)
    domain = 2 * delta - 1
    adj = g.adjacency()
    colors: dict[int, int] = {}
    for u, v in matched:
        banned = {
            colors[w] for w in adj[u] + adj[v] if w in colors and w != u and w != v
        }
        color = next(c for c in range(1, domain + 1) if c not in banned)
        colors[u] = colors[v] = color
    for v in range(1, g.n + 1):
        if v in colors:
            continue
        banned = {colors[w] for w in adj[v] if w in colors}
        colors[v] = next(c for c in range(1, domain + 1) if c not in banned)
    return encode_mm_coloring(colors, domain, g.n)


def gallai_edmonds_witness(g: Graph) -> tuple[frozenset[int], int]:
    """A minimizer U of (|U| - odd(V\\U) + |V|) / 2, and the maximum matching
    size nu that it attains.

    U is the neighborhood (outside D) of D, the nodes missed by at least one
    maximum matching. D is the set of outer nodes of the Edmonds forest grown
    from every exposed node of one maximum matching (Gallai-Edmonds structure
    theorem; Lovasz & Plummer, *Matching Theory*, 1986); the forest search
    raises if two of its trees meet, since the matching was then not maximum.
    """
    mate, nu = _maximum_mate_list(g)
    exposed = [v for v in range(1, g.n + 1) if mate[v] == 0]
    adj = g.adjacency()
    outer = edmonds_search(adj, mate, exposed)
    witness = frozenset(
        w for v in range(1, g.n + 1) if outer[v] for w in adj[v] if not outer[w]
    )
    odd = count_odd_components_excluding(g, witness)
    assert 2 * nu == len(witness) - odd + g.n, "witness misses the matching bound"
    return witness, nu


def prove_mm_atmost(g: Graph, k: int) -> CertificateBlob:
    witness, nu = gallai_edmonds_witness(g)
    if nu > k:
        raise NotCertifiable(f"maximum matching above {k}")
    return encode_tutte_berge(witness, g.n)


# -- degeneracy ------------------------------------------------------------------

def prove_deg_atmost(g: Graph, k: int) -> CertificateBlob:
    order, degeneracy = peel_order(g)
    if degeneracy > k:
        raise NotCertifiable(f"degeneracy above {k}")
    pi = {v: i for i, v in enumerate(order, start=1)}
    return encode_peel_order(pi, g.n)


def prove_deg_atleast(g: Graph, k: int) -> CertificateBlob:
    core = k_core(g, k)
    if k >= 1 and not core:
        raise NotCertifiable(f"degeneracy below {k}")
    return encode_core_subset(core, g.n)


# -- diameter --------------------------------------------------------------------

def prove_diam_atleast(g: Graph, k: int) -> CertificateBlob:
    """Distance labels from the first source (in id order) whose BFS misses a
    node or reaches depth k; such a source exists iff the diameter is at
    least k and the graph has a node to label 0."""
    adj = g.adjacency()
    for source in range(1, g.n + 1):
        dist = bfs_distances(adj, source)
        if len(dist) < g.n or max(dist.values()) >= k:
            break
    else:
        raise NotCertifiable(
            f"diameter below {k}" if g.n else "no node to label 0 in an empty graph"
        )
    labels = {
        v: min(dist.get(v, k + 1), k + 1) for v in range(1, g.n + 1)
    }
    return encode_distance_labels(labels, g.n, k)


# -- coloring --------------------------------------------------------------------

def prove_coloring_atmost(g: Graph, k: int) -> CertificateBlob:
    coloring = k_coloring(g, k)
    if coloring is None:
        raise NotCertifiable(f"chromatic number above {k}")
    return encode_coloring(coloring, g.n, k)


# -- vertex sets (IS / clique / VC) ------------------------------------------------

def prove_is_atleast(g: Graph, k: int) -> CertificateBlob:
    witness = maximum_independent_set(g)
    if len(witness) < k:
        raise NotCertifiable(f"independence number below {k}")
    return encode_node_set("is_atleast", sorted(witness)[:k], g.n)


def prove_clique_atleast(g: Graph, k: int) -> CertificateBlob:
    witness = maximum_clique(g)
    if len(witness) < k:
        raise NotCertifiable(f"clique number below {k}")
    return encode_node_set("clique_atleast", sorted(witness)[:k], g.n)


def prove_vc_atmost(g: Graph, k: int) -> CertificateBlob:
    cover = minimum_vertex_cover(g)
    if len(cover) > k:
        raise NotCertifiable(f"vertex cover above {k}")
    return encode_node_set("vc_atmost", cover, g.n)


# -- equality combinator -------------------------------------------------------------

def prove_mm_equal(g: Graph, k: int) -> CertificateBlob:
    return encode_equality("mm_equal", prove_mm_atmost(g, k), prove_mm_atleast_list(g, k))


def prove_deg_equal(g: Graph, k: int) -> CertificateBlob:
    return encode_equality("deg_equal", prove_deg_atmost(g, k), prove_deg_atleast(g, k))
