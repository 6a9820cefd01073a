"""Certificate constructors, one per scheme.

Provers are computationally unconstrained. Each builds its witness with the
exact algorithms in ``oracles`` and refuses (NotCertifiable) from that witness
alone when it falls short of the claimed bound: no prover asks a second
oracle first. The equality provers only combine the two one-sided proofs,
since the <=k one refuses above k and the >=k one below k; ``mm_equal``
shares one maximum matching between them, which the Tutte-Berge witness
reads before the lex-min greedy consumes it. The matching provers take
``maximum_matching``'s mate list and size as they are: the mate list is the
one format of a matching. All tie-breaks are by smallest
node id / lexicographic edge order so certificates are byte-reproducible
across runs.
"""

from __future__ import annotations

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
    far_source,
    k_coloring,
    k_core,
    lex_min_greedy,
    maximum_clique,
    maximum_independent_set,
    maximum_matching,
    minimum_vertex_cover,
    peel_order,
    tutte_berge_witness,
)


class NotCertifiable(ValueError):
    """The instance does not satisfy the bound the scheme certifies."""


# -- maximum matching ----------------------------------------------------------

def prove_mm_atleast_list(g: Graph, k: int) -> CertificateBlob:
    """The first k edges of the lex-min maximum matching: the greedy stops
    once it has kept them."""
    mate, nu = maximum_matching(g)
    if nu < k:
        raise NotCertifiable(f"maximum matching below {k}")
    return encode_mm_list(list(islice(lex_min_greedy(g, mate, nu), k)), g.n)


def prove_mm_atleast_coloring(g: Graph, k: int) -> CertificateBlob:
    """Vertex coloring on at most max(1, 2*max_degree - 1) colors in which the
    monochromatic edges are exactly a matching of size k: the first k edges
    (lex order) of the deterministic maximum matching."""
    mate, nu = maximum_matching(g)
    if nu < k:
        raise NotCertifiable(f"maximum matching below {k}")
    matched = [(v, mate[v]) for v in range(1, g.n + 1) if v < mate[v]][:k]
    adj, delta = g.adjacency(), g.max_degree()
    if delta <= 1:
        # the whole graph is a matching; one color satisfies the verifier
        return encode_mm_coloring({v: 1 for v in range(1, g.n + 1)}, 1, g.n)
    domain = 2 * delta - 1
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
    size nu that it attains (see ``oracles.tutte_berge_witness``)."""
    mate, nu = maximum_matching(g)
    return tutte_berge_witness(g, mate, nu), nu


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
    return encode_peel_order({v: i for i, v in enumerate(order, start=1)}, g.n)


def prove_deg_atleast(g: Graph, k: int) -> CertificateBlob:
    core = k_core(g, k)
    if k >= 1 and not core:
        raise NotCertifiable(f"degeneracy below {k}")
    return encode_core_subset(core, g.n)


# -- diameter --------------------------------------------------------------------

def prove_diam_atleast(g: Graph, k: int) -> CertificateBlob:
    """Distance labels from the first source (in id order) whose BFS misses a
    node or reaches depth k (``oracles.far_source``); such a source exists
    iff the diameter is at least k and the graph has a node to label 0."""
    if not g.n:
        raise NotCertifiable("no node to label 0 in an empty graph")
    dist = far_source(g, k)
    if dist is None:
        raise NotCertifiable(f"diameter below {k}")
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
    """Both halves from one maximum matching, with the one-sided provers'
    refusals in their order: the witness reads the matching, then the lex-min
    greedy consumes it, keeping all nu = k of its edges."""
    mate, nu = maximum_matching(g)
    witness = tutte_berge_witness(g, mate, nu)
    if nu > k:
        raise NotCertifiable(f"maximum matching above {k}")
    if nu < k:
        raise NotCertifiable(f"maximum matching below {k}")
    return encode_equality(
        "mm_equal",
        encode_tutte_berge(witness, g.n),
        encode_mm_list(list(lex_min_greedy(g, mate, nu)), g.n),
    )


def prove_deg_equal(g: Graph, k: int) -> CertificateBlob:
    return encode_equality("deg_equal", prove_deg_atmost(g, k), prove_deg_atleast(g, k))
