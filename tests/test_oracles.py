"""Oracle ground truth, cross-checked against independent exhaustive searches."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from streamcert.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)
from streamcert.oracles import (
    TooLarge,
    k_core,
    k_coloring,
    maximum_clique,
    maximum_independent_set,
    maximum_matching,
    minimum_vertex_cover,
    oracle_chromatic,
    oracle_degeneracy,
    oracle_diameter,
    oracle_max_matching,
    oracle_tutte_berge,
    parameter_value,
    peel_order,
)

TRIANGLE = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])


# -- independent brute-force routes (kept separate from the oracles on purpose) --

def brute_max_matching(g: Graph) -> int:
    edges = list(g.edge_set)

    def rec(i: int, used: frozenset[int]) -> int:
        if i == len(edges):
            return 0
        best = rec(i + 1, used)
        u, v = edges[i]
        if u not in used and v not in used:
            best = max(best, 1 + rec(i + 1, used | {u, v}))
        return best

    return rec(0, frozenset())


def brute_chromatic(g: Graph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for assignment in itertools.product(range(k), repeat=g.n):
            if all(assignment[u - 1] != assignment[v - 1] for u, v in g.edges):
                return k
    raise AssertionError


def brute_min_vc(g: Graph) -> int:
    nodes = range(1, g.n + 1)
    for size in range(g.n + 1):
        for cand in itertools.combinations(nodes, size):
            chosen = set(cand)
            if all(u in chosen or v in chosen for u, v in g.edges):
                return size
    raise AssertionError


@st.composite
def small_graphs(draw, max_n: int = 7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    else:
        edges = []
    return Graph.from_edges(n, edges)


# -- maximum matching ----------------------------------------------------------

def test_matching_examples():
    assert oracle_max_matching(TRIANGLE) == 1
    assert oracle_max_matching(path_graph(4)) == 2
    assert oracle_max_matching(empty_graph(6)) == 0


def test_matching_mate_map_is_a_matching():
    g = gnp_random_graph(10, 0.4, 3)
    mate = maximum_matching(g)
    for u, v in mate.items():
        assert mate[v] == u and u != v
        assert (min(u, v), max(u, v)) in g.edge_set


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_matching_matches_exhaustive(g):
    assert oracle_max_matching(g) == brute_max_matching(g)


def test_matching_matches_exhaustive_seeded_sweep():
    for seed in range(60):
        g = gnp_random_graph(5 + seed % 8, 0.35, seed)
        assert oracle_max_matching(g) == brute_max_matching(g)


def test_matching_on_blossom_heavy_graphs():
    # odd cycles force blossom contractions
    for n in (3, 5, 7, 9, 11):
        assert oracle_max_matching(cycle_graph(n)) == n // 2
    # two triangles joined by a bridge
    g = Graph.from_edges(6, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)])
    assert oracle_max_matching(g) == brute_max_matching(g) == 3


# -- Tutte-Berge ------------------------------------------------------------------

def test_tutte_berge_examples():
    value, witness = oracle_tutte_berge(star_graph(4))
    assert (value, witness) == (1, frozenset({1}))
    assert oracle_tutte_berge(TRIANGLE)[0] == 1
    value, witness = oracle_tutte_berge(Graph.from_edges(2, [(1, 2)]))
    assert (value, witness) == (1, frozenset())


def test_tutte_berge_rejects_large():
    with pytest.raises(TooLarge):
        oracle_tutte_berge(empty_graph(21))


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=6))
def test_tutte_berge_equals_matching_number(g):
    assert oracle_tutte_berge(g)[0] == oracle_max_matching(g)


# -- degeneracy ---------------------------------------------------------------------

def test_degeneracy_examples():
    assert oracle_degeneracy(path_graph(4)) == 1
    assert oracle_degeneracy(cycle_graph(4)) == 2
    assert oracle_degeneracy(complete_graph(4)) == 3
    assert oracle_degeneracy(empty_graph(5)) == 0


def test_peel_order_orientation_bound():
    # peel ordering orients every edge with at most `degeneracy` later neighbors
    for seed in range(20):
        g = gnp_random_graph(10, 0.4, seed)
        order, degeneracy = peel_order(g)
        assert sorted(order) == list(range(1, g.n + 1))
        position = {v: i for i, v in enumerate(order)}
        adj = g.adjacency()
        out_degrees = [
            sum(1 for w in adj[v] if position[w] > position[v]) for v in order
        ]
        assert max(out_degrees, default=0) <= degeneracy


def test_peel_tie_break_smallest_id():
    # all degrees equal on a cycle: the peel must start at node 1
    assert peel_order(cycle_graph(5))[0][0] == 1


def test_degeneracy_is_minimal_orientation_bound():
    # no ordering of K4 can do better than 3... and the peel achieves exactly 3
    g = complete_graph(4)
    order, degeneracy = peel_order(g)
    assert degeneracy == 3


def test_k_core_examples():
    assert k_core(complete_graph(4), 3) == frozenset({1, 2, 3, 4})
    assert k_core(cycle_graph(4), 2) == frozenset({1, 2, 3, 4})
    assert k_core(path_graph(4), 2) == frozenset()
    # core of a core-with-tail graph
    g = Graph.from_edges(6, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)])
    assert k_core(g, 2) == frozenset({1, 2, 3})


def test_k_core_min_internal_degree():
    for seed in range(20):
        g = gnp_random_graph(12, 0.3, seed)
        for k in range(0, 4):
            core = k_core(g, k)
            adj = g.adjacency()
            for v in core:
                assert sum(1 for w in adj[v] if w in core) >= k


# -- diameter -------------------------------------------------------------------------

def test_diameter_examples():
    assert oracle_diameter(path_graph(4)) == 3
    assert oracle_diameter(TRIANGLE) == 1
    assert oracle_diameter(empty_graph(2)) == math.inf
    assert oracle_diameter(empty_graph(1)) == 0
    assert oracle_diameter(cycle_graph(6)) == 3


# -- chromatic number --------------------------------------------------------------------

def test_chromatic_examples():
    assert oracle_chromatic(cycle_graph(5)) == 3
    assert oracle_chromatic(path_graph(4)) == 2
    assert oracle_chromatic(empty_graph(5)) == 1
    assert oracle_chromatic(complete_graph(6)) == 6


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=6))
def test_chromatic_matches_exhaustive(g):
    assert oracle_chromatic(g) == brute_chromatic(g)


def test_k_coloring_is_proper():
    g = gnp_random_graph(12, 0.4, 9)
    chi = oracle_chromatic(g)
    coloring = k_coloring(g, chi)
    assert coloring is not None
    assert all(coloring[u] != coloring[v] for u, v in g.edges)
    assert k_coloring(g, chi - 1) is None


def test_chromatic_rejects_large():
    with pytest.raises(TooLarge):
        oracle_chromatic(empty_graph(25))


# -- vertex cover / independent set / clique -------------------------------------------------

def vc_is_clique(g):
    return tuple(parameter_value(g, p) for p in ("vc", "is", "clique"))


def test_vc_is_clique_examples():
    assert vc_is_clique(TRIANGLE) == (2, 1, 3)
    assert vc_is_clique(path_graph(4)) == (2, 2, 2)
    assert vc_is_clique(empty_graph(5)) == (0, 5, 1)


@settings(max_examples=50, deadline=None)
@given(small_graphs(max_n=6))
def test_vc_matches_exhaustive_and_complementarity(g):
    vc, independent, _ = vc_is_clique(g)
    assert vc == brute_min_vc(g)
    assert vc + independent == g.n


def test_witnesses_are_valid():
    for seed in range(15):
        g = gnp_random_graph(10, 0.4, seed)
        cover = set(minimum_vertex_cover(g))
        assert all(u in cover or v in cover for u, v in g.edges)
        ind = set(maximum_independent_set(g))
        assert all(not (u in ind and v in ind) for u, v in g.edges)
        clique = maximum_clique(g)
        assert all(
            (min(u, v), max(u, v)) in g.edge_set
            for u, v in itertools.combinations(clique, 2)
        )
        vc, alpha, omega = vc_is_clique(g)
        assert (len(cover), len(ind), len(clique)) == (vc, alpha, omega)


def test_vc_is_clique_rejects_large():
    for parameter in ("vc", "is", "clique"):
        with pytest.raises(TooLarge, match="limited to n <= 24, got n = 25"):
            parameter_value(empty_graph(25), parameter)


def test_parameter_value_refuses_an_unknown_name():
    with pytest.raises(ValueError, match="unknown parameter 'girth'"):
        parameter_value(TRIANGLE, "girth")


def test_matching_agrees_with_tutte_berge_at_mid_sizes():
    # independent equality route beyond the edge-recursion range
    for seed in range(12):
        g = gnp_random_graph(14 + seed % 3, 0.25, seed)
        assert oracle_tutte_berge(g)[0] == oracle_max_matching(g)


def _edmonds_search_calls():
    """Seeded ``(adj, mate, roots, excluded)`` inputs of two kinds. First, a
    random matching (often not maximum, so some searches augment and some
    raise), roots drawn from its exposed nodes and excluded nodes drawn from
    the rest. Second, on sparse graphs, a maximum matching with at most one
    edge dropped, searched from one exposed node or all of them: the search
    then grows blossoms before it augments or stops, and the order in which
    a blossom queues its new outer nodes can show in the path it flips."""
    import random

    rng = random.Random(2024)
    for call in range(2400):
        n = rng.randrange(1, 41)
        g = gnp_random_graph(n, rng.choice((0.05, 0.1, 0.2, 0.4, 0.7)), call)
        edges = list(g.edges)
        rng.shuffle(edges)
        keep = rng.random()
        mate = [0] * (n + 1)
        for u, v in edges:
            if mate[u] == 0 and mate[v] == 0 and rng.random() < keep:
                mate[u], mate[v] = v, u
        exposed = [v for v in range(1, n + 1) if mate[v] == 0]
        roots = rng.sample(exposed, rng.randrange(len(exposed) + 1)) if exposed else []
        if exposed and rng.random() < 0.3:
            roots = exposed  # a whole forest, as the Gallai-Edmonds witness grows
        others = [v for v in range(1, n + 1) if v not in roots]
        excluded = set(rng.sample(others, rng.randrange(len(others) + 1) // 3))
        yield g.adjacency(), mate, roots, excluded
    for call in range(3000):
        n = rng.randrange(20, 60)
        g = gnp_random_graph(n, rng.choice((0.05, 0.1)), call)
        mate = [0] * (n + 1)
        for v, w in maximum_matching(g).items():
            mate[v] = w
        matched = [v for v in range(1, n + 1) if mate[v] > v]
        if matched and rng.random() < 0.7:
            u = rng.choice(matched)
            w = mate[u]
            mate[u] = mate[w] = 0
        exposed = [v for v in range(1, n + 1) if mate[v] == 0]
        roots = [rng.choice(exposed)] if exposed and rng.random() < 0.7 else exposed
        yield g.adjacency(), mate, roots, set()


#: sha256 over each call's mate list after the search and its outcome (the
#: outer marks, None, or the ValueError text), recorded with the search that
#: relabels all n nodes per blossom
PINNED_EDMONDS_SEARCH_SHA256 = "f906c57e94c6559be980394adb3c3471519bde53c98b0e908a4e1a2ce182e191"


def test_edmonds_search_outcomes_pinned():
    import hashlib

    from streamcert.oracles import edmonds_search

    digest = hashlib.sha256()
    for adj, mate, roots, excluded in _edmonds_search_calls():
        try:
            outcome = edmonds_search(adj, mate, roots, excluded)
        except ValueError as exc:
            outcome = str(exc)
        digest.update(f"{mate} {outcome}\n".encode())
    assert digest.hexdigest() == PINNED_EDMONDS_SEARCH_SHA256
