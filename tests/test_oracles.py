"""Oracle ground truth, cross-checked against independent exhaustive searches."""

from __future__ import annotations

import heapq
import itertools
import math
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from streamcert.certs import decode_blob, encode_distance_labels, serialize_certificate
from streamcert.graph import (
    Graph,
    bounded_degree_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_random_graph,
    matching_graph,
    path_graph,
    random_tree,
    star_graph,
)
from streamcert.harness import ACCEPTANCE_CORPUS_SPEC, build_corpus
from streamcert.oracles import (
    BFS_BLOCK,
    PARAMETERS,
    TooLarge,
    _grow_forest,
    chromatic_at_least,
    degeneracy_at_least,
    far_source,
    k_core,
    k_coloring,
    lex_min_greedy,
    maximum_clique,
    maximum_independent_set,
    maximum_matching,
    minimum_vertex_cover,
    missed_nodes,
    one_edge_candidates,
    one_edge_variant,
    oracle_chromatic,
    oracle_degeneracy,
    oracle_diameter,
    oracle_max_matching,
    parameter_at_least,
    parameter_value,
    peel_order,
    source_blocks,
    vc_at_least,
    vertex_cover_at_most,
)
from streamcert.provers import (
    NotCertifiable,
    prove_clique_atleast,
    prove_coloring_atmost,
    prove_diam_atleast,
    prove_is_atleast,
    prove_vc_atmost,
)

import reference
from reference import every_small_graph, oracle_tutte_berge, sparse_gnp_graph, to_networkx

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
    mate, nu = maximum_matching(g)
    assert len(mate) == g.n + 1 and mate[0] == 0
    for u in range(1, g.n + 1):
        v = mate[u]
        if v:
            assert mate[v] == u and u != v
            assert (min(u, v), max(u, v)) in g.edge_set
    assert nu == sum(mate[u] > u for u in range(1, g.n + 1))


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


def _reference_peel_order(g: Graph) -> tuple[list[int], int]:
    """Minimum-degree peeling as written with per-node neighbor sets and
    (degree, id) heap keys."""
    adj = {v: set(ns) for v, ns in g.adjacency().items()}
    heap = [(len(ns), v) for v, ns in adj.items()]
    heapq.heapify(heap)
    removed: set[int] = set()
    order: list[int] = []
    degeneracy = 0
    while heap:
        d, v = heapq.heappop(heap)
        if v in removed or d != len(adj[v]):
            continue
        removed.add(v)
        order.append(v)
        degeneracy = max(degeneracy, d)
        for w in adj[v]:
            adj[w].discard(v)
            heapq.heappush(heap, (len(adj[w]), w))
        adj[v].clear()
    return order, degeneracy


def test_peel_order_matches_the_set_and_tuple_reference():
    # regular and near-regular graphs are all ties: the smallest id must win
    # each of them, as the (degree, id) keys make it
    graphs = [
        builder(n)
        for n in range(1, 12)
        for builder in (star_graph, complete_graph, empty_graph, matching_graph)
    ]
    graphs += [cycle_graph(n) for n in range(3, 12)]
    graphs += [Graph(9, tuple(reversed(cycle_graph(9).edges))), empty_graph(0)]
    graphs += [
        gnp_random_graph(2 + seed % 40, (0.05, 0.1, 0.25, 0.5, 0.8)[seed % 5], seed)
        for seed in range(200)
    ]
    # large enough that the buckets run deep (the star's centre) or wide,
    # each built when its turn comes
    large = (
        build(n)
        for n in (1 << 12, 1 << 14)
        for build in (path_graph, star_graph, cycle_graph, lambda n: sparse_gnp_graph(n, 8, n))
    )
    for g in itertools.chain(graphs, every_small_graph(6).values(), large):
        assert peel_order(g) == _reference_peel_order(g), g


def test_degeneracy_and_k_cores_agree_with_networkx():
    graphs = [
        sparse_gnp_graph(n, c, seed=n + int(10 * c))
        for n in (16, 64, 256, 1024, 4096)
        for c in (1, 3, 8)
    ]
    # bounded_degree_graph shuffles all n^2 / 2 pairs: 8M tuples at 4096
    graphs += [
        bounded_degree_graph(n, max_deg, n * max_deg // 2, seed=n)
        for n in (16, 64, 256)
        for max_deg in (2, 4, 7)
    ]
    for g in graphs:
        nx_graph = to_networkx(g)
        cores = nx.core_number(nx_graph)
        degeneracy = max(cores.values(), default=0)
        assert oracle_degeneracy(g) == degeneracy, g.n
        # nx.k_core keeps the nodes of core number >= k; a call per k costs
        # 0.1 s at n = 4096, so the others read the core numbers directly
        assert k_core(g, degeneracy) == set(nx.k_core(nx_graph, core_number=cores)), g.n
        for k in range(degeneracy + 2):
            assert k_core(g, k) == {v for v, core in cores.items() if core >= k}, (g.n, k)


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


def _reference_distances(g: Graph) -> list[dict[int, int]]:
    """One BFS from every node, in id order: the all-pairs search that
    ``oracle_diameter`` and ``prove_diam_atleast`` ran before the
    bit-parallel sieve."""
    adj = g.adjacency()
    out = []
    for source in range(1, g.n + 1):
        dist = {source: 0}
        queue = [source]
        for v in queue:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        out.append(dist)
    return out


def _reference_diam_proof(g: Graph, k: int, dists, eccs) -> str:
    """The id-order scan: labels from the first source whose BFS misses a
    node or reaches depth k; the certificate's hex or the refusal text."""
    source = next((s for s in range(1, g.n + 1) if eccs[s - 1] >= k), None)
    if source is None:
        return "refused: " + (
            f"diameter below {k}" if g.n else "no node to label 0 in an empty graph"
        )
    dist = dists[source - 1]
    labels = {v: min(dist.get(v, k + 1), k + 1) for v in range(1, g.n + 1)}
    return serialize_certificate(encode_distance_labels(labels, g.n, k)).hex()


def _diam_proof(g: Graph, k: int) -> str:
    try:
        return serialize_certificate(prove_diam_atleast(g, k)).hex()
    except NotCertifiable as exc:
        return f"refused: {exc}"


def _check_diameter_against_reference(g: Graph, ks) -> None:
    dists = _reference_distances(g)
    eccs = [max(d.values()) if len(d) == g.n else math.inf for d in dists]
    assert oracle_diameter(g) == max(eccs, default=0), g
    for k in ks:
        assert _diam_proof(g, k) == _reference_diam_proof(g, k, dists, eccs), (g, k)


def test_diameter_matches_all_pairs_bfs_on_every_small_graph():
    for g in every_small_graph(5).values():
        _check_diameter_against_reference(g, range(g.n + 2))


def test_far_source_is_the_first_node_whose_bfs_misses_a_node_or_reaches_depth_k():
    # every labelled graph with 1 <= n <= 5, the disconnected ones too
    for g in every_small_graph(5).values():
        if not g.n:
            continue
        dists = _reference_distances(g)
        for k in range(g.n + 2):
            expected = next((d for d in dists if len(d) < g.n or max(d.values()) >= k), None)
            assert far_source(g, k) == expected, (g, k)


def test_diameter_matches_all_pairs_bfs_on_seeded_graphs():
    for seed, n in enumerate((8, 13, 21, 55, 120, 200)):
        for degree in (1.5, 3, 8):
            g = gnp_random_graph(n, degree / n, 100 * seed + int(degree))
            _check_diameter_against_reference(g, range(n + 2))


def test_diameter_crosses_source_blocks():
    # a star on 1..1096 with two 2-edge tails at its centre: the two tail
    # ends, 1098 and 1100, are the only nodes of eccentricity 4, so at k = 4
    # the first block (1..1024) holds no far source and the prover's source,
    # like the diameter, comes from the second block
    n = 1100
    g = Graph.from_edges(
        n, [(1, v) for v in range(2, n - 3)] + [(1, n - 3), (n - 3, n - 2), (1, n - 1), (n - 1, n)]
    )
    assert [len(s) for s in source_blocks(n)] == [BFS_BLOCK, n - BFS_BLOCK]
    # every k past the diameter + 1 runs the same full sieve as k = 5
    _check_diameter_against_reference(g, [*range(7), n + 1])
    assert decode_blob(prove_diam_atleast(g, 4), "diam_atleast", n, 4)[n - 2] == 0


def test_diameter_on_a_long_path_crosses_source_blocks():
    # a path from 1100 down the even ids to 2, through 1, then up the odd ids
    # to 1099: node 1 sits in the middle (eccentricity 550), so past k = 550
    # the prover's source comes from the sieve, at k = 1099 (the diameter)
    # from the second block; levels reach depth 1099, far beyond the
    # low-diameter graphs above
    n = 1100
    order = [*range(n, 1, -2), 1, *range(3, n, 2)]
    g = Graph.from_edges(n, zip(order, order[1:]))
    _check_diameter_against_reference(g, [0, 550, n - 1, n])
    assert decode_blob(prove_diam_atleast(g, n - 1), "diam_atleast", n, n - 1)[n - 1] == 0


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


def _differential_graphs():
    yield from every_small_graph(5).values()
    for seed in range(120):
        yield gnp_random_graph(6 + seed % 13, (0.15, 0.3, 0.5, 0.7)[seed % 4], seed)
    yield from (entry.graph for entry in build_corpus(ACCEPTANCE_CORPUS_SPEC, seed=1).entries)


def test_exact_searches_return_what_the_dict_of_sets_reference_returns():
    # the provers encode these witnesses, so the bitmask searches must return
    # the very lists and dicts, not only the sizes, of the searches they replaced
    for g in _differential_graphs():
        independent = reference.maximum_independent_set(g)
        assert maximum_independent_set(g) == independent, g
        assert maximum_clique(g) == reference.maximum_clique(g), g
        tau = g.n - len(independent)
        for budget in (tau - 1, tau, tau + 1):
            assert vertex_cover_at_most(g, budget) == reference.vertex_cover_at_most(g, budget), g
        chi = oracle_chromatic(g)
        for k in (chi - 1, chi, chi + 1):
            assert k_coloring(g, k) == reference.k_coloring(g, k), g


def test_huge_colour_count_and_budget_allocate_nothing_of_their_size():
    g = gnp_random_graph(12, 0.4, 9)
    huge = 1 << 40
    tracemalloc.start()
    try:
        coloring = k_coloring(g, huge)
        cover = vertex_cover_at_most(g, huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coloring == k_coloring(g, g.n) and cover == vertex_cover_at_most(g, g.n)
    assert peak < 64 << 10, peak


def test_vc_is_clique_rejects_large():
    # each exponential search refuses by itself; the optimum searches, the
    # parameter oracles and the provers built on them inherit the refusal,
    # the provers before they could find the claim false
    searches = [
        *(
            lambda g, p=parameter: parameter_value(g, p)
            for parameter in ("vc", "is", "clique", "chromatic")
        ),
        lambda g: k_coloring(g, 0),
        lambda g: vertex_cover_at_most(g, -1),
        maximum_independent_set,
        maximum_clique,
        minimum_vertex_cover,
        lambda g: prove_coloring_atmost(g, 0),
        lambda g: prove_is_atleast(g, 26),
        lambda g: prove_clique_atleast(g, 2),
        lambda g: prove_vc_atmost(g, 0),
    ]
    for search in searches:
        with pytest.raises(TooLarge, match="limited to n <= 24, got n = 25"):
            search(empty_graph(25))


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
        mate = maximum_matching(g)[0]
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


def _searched_forest(adj, mate, roots, excluded, outer, parent, base, queue, meet=False) -> bool:
    """One ``_grow_forest`` run on lists in their entry state. Asserts that
    it leaves them in that state (outer all False, parent all 0, base[v] = v)
    and that an augmentation leaves a matching one edge larger. Returns
    whether it augmented. It runs the search bound at import, which a test
    may patch in ``oracles`` to check each call."""
    n = len(mate) - 1
    size = sum(mate[v] > v for v in range(1, n + 1))
    augmented = _grow_forest(adj, mate, roots, excluded, outer, parent, base, queue, meet)
    assert not any(outer) and not any(parent) and base == list(range(n + 1))
    assert mate[0] == 0
    for v in range(1, n + 1):
        assert not mate[v] or (mate[mate[v]] == v and mate[v] in adj[v])
    assert sum(mate[v] > v for v in range(1, n + 1)) == size + augmented
    return augmented


def test_forest_search_leaves_its_lists_clean(monkeypatch):
    # ``maximum_matching`` and the lex-min greedy share one set of forest
    # lists across their searches, and never reset them
    from streamcert import oracles

    def fresh(n):
        return [False] * (n + 1), [0] * (n + 1), list(range(n + 1)), []

    augmented = met = 0
    for adj, mate, roots, excluded in _edmonds_search_calls():
        n = len(mate) - 1
        before = list(mate)
        try:
            augmented += _searched_forest(adj, mate, roots, excluded, *fresh(n))
        except ValueError:
            # two trees met: with ``meet`` the search flips the path between them
            assert _searched_forest(adj, before, roots, excluded, *fresh(n), meet=True)
            met += 1
    assert augmented > 1000 and met > 1500

    # the greedy's two-root searches, on the lists it shares between them
    searches = []

    def checked(adj, mate, roots, excluded, outer, parent, base, queue, meet):
        assert not any(outer) and not any(parent) and base == list(range(len(base)))
        found = _searched_forest(adj, mate, roots, excluded, outer, parent, base, queue, meet)
        searches.append(found and all(mate[r] for r in roots))  # the trees met
        return found

    # the starting matchings first, so that only the greedy's searches are checked
    starts = [
        (g, *maximum_matching(g))
        for g in (
            gnp_random_graph(10 + seed % 70, (0.05, 0.1, 0.2)[seed % 3], seed)
            for seed in range(600)
        )
    ]
    monkeypatch.setattr(oracles, "_grow_forest", checked)
    for g, mate, nu in starts:
        list(lex_min_greedy(g, mate, nu))
    # 3,081 searches; 1,368 of them flip a path between the two roots
    assert len(searches) > 2500 and sum(searches) > 1000


def test_maximum_matching_is_linear_on_sparse_graphs():
    # one search per exposed node, each touching only its own small tree
    import time

    for g in (star_graph(16384), empty_graph(16384)):
        start = time.perf_counter()
        nu = maximum_matching(g)[1]
        assert time.perf_counter() - start < 2.0
        assert nu == (1 if g.m else 0)


def test_matching_layer_agrees_with_networkx():
    # nu, the lex-min greedy and the Gallai-Edmonds witness, each checked
    # against networkx's blossom algorithm and components, which share no
    # code with ``oracles``
    from streamcert.provers import gallai_edmonds_witness

    graphs = [
        sparse_gnp_graph(n, c, seed)
        for n, c, seeds in ((16, 2, 40), (64, 3, 20), (256, 4, 6), (1024, 3, 2), (1024, 8, 1))
        for seed in range(seeds)
    ]
    for g in graphs:
        nx_graph = to_networkx(g)
        nu = len(nx.max_weight_matching(nx_graph, maxcardinality=True))
        mate, ours = maximum_matching(g)
        assert ours == nu, g.n
        greedy = list(lex_min_greedy(g, mate, nu))
        ends = [x for e in greedy for x in e]
        assert len(greedy) == nu and len(set(ends)) == len(ends), g.n
        assert all(e in g.edge_set for e in greedy), g.n
        witness, _ = gallai_edmonds_witness(g)
        rest = nx_graph.subgraph(v for v in nx_graph if v not in witness)
        odd = sum(len(c) % 2 for c in nx.connected_components(rest))
        assert len(witness) - odd + g.n == 2 * nu, g.n


def test_diameter_and_exact_searches_agree_with_networkx():
    # connected graphs: a random tree with the edges of a sparse G(n, 1/n)
    for n, seeds in ((20, 3), (60, 3), (150, 3), (300, 2)):
        for seed in range(seeds):
            edges = set(random_tree(n, seed).edges) | set(sparse_gnp_graph(n, 1.0, seed).edges)
            g = Graph(n, tuple(sorted(edges)))
            assert oracle_diameter(g) == nx.diameter(to_networkx(g)), (n, seed)
    for n in (8, 12, 16, 20, 24):
        for p in (0.2, 0.4, 0.6):
            for seed in range(4):
                g = gnp_random_graph(n, p, seed)
                nx_graph = to_networkx(g)
                omega = nx.max_weight_clique(nx_graph, weight=None)[1]
                alpha = nx.max_weight_clique(nx.complement(nx_graph), weight=None)[1]
                assert len(maximum_clique(g)) == omega, (n, p, seed)
                assert len(maximum_independent_set(g)) == alpha, (n, p, seed)
                assert len(minimum_vertex_cover(g)) == n - alpha, (n, p, seed)


# -- threshold tests and one-edge moves -------------------------------------------

@pytest.fixture(scope="module")
def small_graph_values():
    """(graph, {parameter: value}) for every labelled graph with n <= 5."""
    return {
        key: (g, {p: parameter_value(g, p) for p in PARAMETERS})
        for key, g in every_small_graph(5).items()
    }


def test_threshold_tests_equal_the_optimum_on_every_small_graph(small_graph_values):
    # n = 0 and k <= 0 included: k_coloring colours the empty graph with 0
    # colours before it checks k = 0, and vertex_cover_at_most(g, -1) is None
    tests = {
        "degeneracy": degeneracy_at_least,
        "chromatic": chromatic_at_least,
        "vc": vc_at_least,
    }
    assert {p for p, row in PARAMETERS.items() if row.at_least} == set(tests)
    for g, values in small_graph_values.values():
        for k in range(-1, g.n + 3):
            for p, value in values.items():
                assert parameter_at_least(g, p, k) == (value >= k), (g, p, k)
                if p in tests:
                    assert tests[p](g, k) == (value >= k), (g, p, k)


def _one_edge_neighbours(small_graph_values, n, mask):
    """(pair, added, neighbour's values) for each pair of 1..n flipped in g."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for i, pair in enumerate(pairs):
        yield pair, not mask >> i & 1, small_graph_values[n, mask ^ 1 << i][1]


def test_one_edge_moves_every_parameter_but_the_diameter_by_at_most_one(small_graph_values):
    diameter_moves = set()
    for (n, mask), (g, values) in small_graph_values.items():
        for _, _, after in _one_edge_neighbours(small_graph_values, n, mask):
            for p, value in values.items():
                if p == "diameter":
                    diameter_moves.add(after[p] - value)
                else:
                    assert abs(after[p] - value) <= 1, (g, p)
    assert any(math.isfinite(d) and abs(d) > 1 for d in diameter_moves)


def test_a_chord_moves_a_paths_diameter_by_more_than_one():
    for n in range(5, 12):
        path = path_graph(n)
        chorded = Graph(n, path.edges + ((1, n),))
        assert (oracle_diameter(path), oracle_diameter(chorded)) == (n - 1, n // 2)


def test_one_edge_candidates_keep_every_move_that_reaches_k(small_graph_values):
    # the pruning rules drop only moves that cannot take the value to k
    kept = dropped = 0
    for (n, mask), (g, values) in small_graph_values.items():
        moves = list(_one_edge_neighbours(small_graph_values, n, mask))
        for p, value in values.items():
            for k in range(n + 2):
                if k == value:
                    continue
                for adds in (True, False):
                    candidates = set(one_edge_candidates(g, p, value, k, adds))
                    for pair, added, after in moves:
                        if added != adds:
                            continue
                        if after[p] == k:
                            assert pair in candidates, (g, p, k, pair)
                        kept += pair in candidates
                        dropped += pair not in candidates
    assert dropped > kept


def test_one_edge_variant_is_the_blind_lex_search_on_every_small_graph(small_graph_values):
    # all 7 parameters, both moves, every k != value in 0..n+1, the diameter
    # and independent-set moves the fuzzer never requests included: the first
    # flipped pair in lex order whose neighbour crosses from value to k
    checked = found = 0
    for (n, mask), (g, values) in small_graph_values.items():
        moves = list(_one_edge_neighbours(small_graph_values, n, mask))
        for p, value in values.items():
            for k in range(n + 2):
                if k == value:
                    continue
                for adds in (True, False):
                    pair = next(
                        (
                            pair for pair, added, after in moves
                            if added == adds and (after[p] >= k if k > value else after[p] <= k)
                        ),
                        None,
                    )
                    if pair is None:
                        expected = None
                    elif adds:
                        expected = Graph(n, g.edges + (pair,))
                    else:
                        expected = Graph(n, tuple(e for e in g.edges if e != pair))
                    got = one_edge_variant(g, p, value, k, adds)
                    assert got == expected, (g, p, k, adds)
                    checked += 1
                    found += got is not None
    assert (checked, found) == (91724, 9832)


def test_missed_nodes_are_the_nodes_some_maximum_matching_misses():
    for seed in range(20):
        g = gnp_random_graph(8, 0.3, seed)
        missed = missed_nodes(g, maximum_matching(g)[0])
        nu = oracle_max_matching(g)
        for v in range(1, g.n + 1):
            rest = Graph.from_edges(g.n, [e for e in g.edges if v not in e])
            assert missed[v] == (oracle_max_matching(rest) == nu), (seed, v)
