"""Prover outputs: pinned examples plus structural certificate invariants."""

from __future__ import annotations

import math

import pytest

from streamcert.certs import FieldPastU32, decode_blob, encode_equality, serialize_certificate
from streamcert.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_random_graph,
    matching_graph,
    path_graph,
    star_graph,
)
from streamcert.oracles import (
    count_odd_components_excluding,
    k_core,
    lex_min_greedy,
    maximum_matching,
    oracle_degeneracy,
    oracle_max_matching,
)
from streamcert.provers import (
    NotCertifiable,
    gallai_edmonds_witness,
    prove_clique_atleast,
    prove_coloring_atmost,
    prove_deg_atleast,
    prove_deg_atmost,
    prove_deg_equal,
    prove_diam_atleast,
    prove_is_atleast,
    prove_mm_atleast_coloring,
    prove_mm_atleast_list,
    prove_mm_atmost,
    prove_mm_equal,
    prove_vc_atmost,
)
from streamcert.schemes import SCHEMES
from streamcert.stream import make_stream
from streamcert.verifiers import run_verifier

from reference import bounded_degree_graph, every_small_graph

TRIANGLE = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])


# -- matching list -----------------------------------------------------------------

def test_mm_list_examples():
    cert = prove_mm_atleast_list(TRIANGLE, 1)
    assert decode_blob(cert, "mm_atleast_list", 3, 1) == ((1, 2),)
    cert = prove_mm_atleast_list(path_graph(4), 2)
    assert decode_blob(cert, "mm_atleast_list", 4, 2) == ((1, 2), (3, 4))
    with pytest.raises(NotCertifiable):
        prove_mm_atleast_list(TRIANGLE, 2)


def test_lex_min_matching_is_maximum_and_lex_minimal():
    for seed in range(12):
        g = gnp_random_graph(9, 0.35, seed)
        matching = list(lex_min_greedy(g, *maximum_matching(g)))
        assert len(matching) == oracle_max_matching(g)
        used = [x for e in matching for x in e]
        assert len(set(used)) == len(used)
        assert all(e in g.edge_set for e in matching)
        assert matching == sorted(matching)


def test_mm_list_truncates():
    g = matching_graph(8)  # edges (1,2),(3,4),(5,6),(7,8)
    cert = prove_mm_atleast_list(g, 2)
    assert decode_blob(cert, "mm_atleast_list", 8, 2) == ((1, 2), (3, 4))


def test_mm_list_is_the_lex_min_prefix_at_every_k():
    from streamcert.certs import encode_mm_list

    for seed in range(40):
        g = gnp_random_graph(4 + seed % 30, (0.1, 0.25, 0.5)[seed % 3], seed)
        full = list(lex_min_greedy(g, *maximum_matching(g)))
        for k in range(len(full) + 1):
            assert prove_mm_atleast_list(g, k) == encode_mm_list(full[:k], g.n), (seed, k)
        with pytest.raises(NotCertifiable):
            prove_mm_atleast_list(g, len(full) + 1)


# -- matching coloring --------------------------------------------------------------

def _coloring_cert_stats(g, k):
    cert = prove_mm_atleast_coloring(g, k)
    domain, colors = decode_blob(cert, "mm_atleast_coloring", g.n, k)
    adj = g.adjacency()
    mono = [(u, v) for u, v in g.edges if colors[u] == colors[v]]
    same_color_neighbors = {
        v: sum(1 for w in adj[v] if colors[w] == colors[v]) for v in range(1, g.n + 1)
    }
    return domain, colors, mono, same_color_neighbors


def test_mm_coloring_single_edge_forced_color():
    g = Graph.from_edges(2, [(1, 2)])
    domain, colors, mono, _ = _coloring_cert_stats(g, 1)
    assert domain == 1 and colors[1] == colors[2] == 1 and len(mono) == 1


def test_mm_coloring_path3():
    g = path_graph(3)
    domain, colors, mono, _ = _coloring_cert_stats(g, 1)
    assert domain == 2 * 2 - 1
    assert colors[1] == colors[2] != colors[3]
    assert mono == [(1, 2)]


def test_mm_coloring_triangle_exactly_one_mono_edge():
    _, _, mono, neighbors = _coloring_cert_stats(TRIANGLE, 1)
    assert len(mono) == 1
    assert max(neighbors.values()) <= 1


def test_mm_coloring_structural_invariants_random():
    for seed in range(25):
        g = bounded_degree_graph(20, 5, 30, seed)
        nu = oracle_max_matching(g)
        if nu == 0:
            continue
        k = max(1, nu - (seed % 2))
        domain, colors, mono, neighbors = _coloring_cert_stats(g, k)
        delta = g.max_degree()
        assert domain == max(1, 2 * delta - 1)
        assert max(colors[1:]) <= domain
        assert len(mono) >= k
        assert max(neighbors.values()) <= 1


def test_mm_coloring_not_certifiable():
    with pytest.raises(NotCertifiable):
        prove_mm_atleast_coloring(TRIANGLE, 2)


# -- Tutte-Berge witness ---------------------------------------------------------------

def test_mm_atmost_examples():
    cert = prove_mm_atmost(star_graph(4), 1)
    assert decode_blob(cert, "mm_atmost", 4, 1) == frozenset({1})
    cert = prove_mm_atmost(matching_graph(4), 2)
    assert decode_blob(cert, "mm_atmost", 4, 2) == frozenset()
    with pytest.raises(NotCertifiable):
        prove_mm_atmost(TRIANGLE, 0)


def test_gallai_edmonds_satisfies_matching_equality():
    for seed in range(20):
        g = gnp_random_graph(11, 0.3, seed)
        witness, nu = gallai_edmonds_witness(g)
        assert nu == oracle_max_matching(g)
        odd = count_odd_components_excluding(g, witness)
        assert 2 * nu == len(witness) - odd + g.n


# -- degeneracy -------------------------------------------------------------------------

def test_deg_atmost_examples():
    cert = prove_deg_atmost(path_graph(4), 1)
    pi = decode_blob(cert, "deg_atmost", 4, 1)
    adj = path_graph(4).adjacency()
    for v in range(1, 5):
        assert sum(1 for w in adj[v] if pi[w] > pi[v]) <= 1
    with pytest.raises(NotCertifiable):
        prove_deg_atmost(complete_graph(4), 2)
    cert = prove_deg_atmost(empty_graph(3), 0)
    assert decode_blob(cert, "deg_atmost", 3, 0) == [0, 1, 2, 3]


def test_deg_atmost_order_bound_random():
    for seed in range(15):
        g = gnp_random_graph(12, 0.35, seed)
        k = oracle_degeneracy(g)
        pi = decode_blob(prove_deg_atmost(g, k), "deg_atmost", g.n, k)
        adj = g.adjacency()
        assert max(
            sum(1 for w in adj[v] if pi[w] > pi[v]) for v in range(1, g.n + 1)
        ) <= k


def test_deg_atleast_examples():
    cert = prove_deg_atleast(complete_graph(4), 3)
    assert decode_blob(cert, "deg_atleast", 4, 3) == frozenset({1, 2, 3, 4})
    cert = prove_deg_atleast(cycle_graph(4), 2)
    assert decode_blob(cert, "deg_atleast", 4, 2) == frozenset({1, 2, 3, 4})
    with pytest.raises(NotCertifiable):
        prove_deg_atleast(path_graph(4), 2)


def test_deg_atleast_emits_k_core():
    g = Graph.from_edges(6, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)])
    cert = prove_deg_atleast(g, 2)
    assert decode_blob(cert, "deg_atleast", 6, 2) == k_core(g, 2) == frozenset({1, 2, 3})


def _set_based_k_core(g, k):
    """The k-core by a peel over a dict of neighbor sets with a FIFO queue:
    a second, independent route for ``k_core``."""
    from collections import deque

    adj = {v: set(ns) for v, ns in g.adjacency().items()}
    queue = deque(v for v, ns in adj.items() if len(ns) < k)
    dead = set(queue)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            adj[w].discard(v)
            if w not in dead and len(adj[w]) < k:
                dead.add(w)
                queue.append(w)
        adj[v].clear()
    return frozenset(v for v in range(1, g.n + 1) if v not in dead)


def test_k_core_and_deg_equal_against_their_references():
    def one_sided(g, k):
        return encode_equality("deg_equal", prove_deg_atmost(g, k), prove_deg_atleast(g, k))

    for g in _differential_graphs():
        degeneracy = oracle_degeneracy(g)
        for k in range(degeneracy + 2):
            assert k_core(g, k) == _set_based_k_core(g, k), (g, k)
        # the prover: its certificate, or its refusal, "above k" before "below k"
        for k in range(max(degeneracy - 1, 0), degeneracy + 2):
            assert _outcome(prove_deg_equal, g, k) == _outcome(one_sided, g, k), (g, k)


# -- diameter ---------------------------------------------------------------------------

def test_diam_examples():
    cert = prove_diam_atleast(path_graph(4), 3)
    assert decode_blob(cert, "diam_atleast", 4, 3) == [0, 0, 1, 2, 3]
    cert = prove_diam_atleast(path_graph(4), 2)
    assert decode_blob(cert, "diam_atleast", 4, 2) == [0, 0, 1, 2, 3]
    with pytest.raises(NotCertifiable):
        prove_diam_atleast(TRIANGLE, 2)


def test_diam_labels_structure():
    for g, k in [
        (cycle_graph(9), 4),
        (gnp_random_graph(10, 0.25, 4), 2),
        (matching_graph(6), 5),  # disconnected: anything goes
    ]:
        value = k if not math.isinf(k) else k
        cert = prove_diam_atleast(g, k)
        labels = decode_blob(cert, "diam_atleast", g.n, k)
        assert 0 in labels[1:]
        assert max(labels[1:]) >= k
        assert all(abs(labels[u] - labels[v]) <= 1 for u, v in g.edges)


def test_diam_refuses_a_label_past_u32_by_name():
    # an unreachable node is labelled k + 1, which fits a u32 field only
    # while k <= 2^32 - 2
    with pytest.raises(FieldPastU32) as err:
        prove_diam_atleast(empty_graph(3), 2**32 - 1)
    assert str(err.value) == "field 4294967296 past u32"
    cert = prove_diam_atleast(empty_graph(3), 2**32 - 2)
    assert decode_blob(cert, "diam_atleast", 3, 2**32 - 2) == [0, 0, 2**32 - 1, 2**32 - 1]


# -- coloring ----------------------------------------------------------------------------

def test_coloring_examples():
    cert = prove_coloring_atmost(cycle_graph(5), 3)
    colors = decode_blob(cert, "coloring_atmost", 5, 3)
    assert all(colors[u] != colors[v] for u, v in cycle_graph(5).edges)
    cert = prove_coloring_atmost(path_graph(4), 2)
    colors = decode_blob(cert, "coloring_atmost", 4, 2)
    assert colors[1:] in ([1, 2, 1, 2], [2, 1, 2, 1])  # alternating bipartition
    with pytest.raises(NotCertifiable):
        prove_coloring_atmost(cycle_graph(5), 2)


# -- node sets ----------------------------------------------------------------------------

def test_set_cert_examples():
    cert = prove_clique_atleast(TRIANGLE, 3)
    assert decode_blob(cert, "clique_atleast", 3, 3) == (1, 2, 3)
    cert = prove_vc_atmost(path_graph(4), 2)
    cover = decode_blob(cert, "vc_atmost", 4, 2)
    assert len(cover) <= 2
    assert all(u in cover or v in cover for u, v in path_graph(4).edges)
    with pytest.raises(NotCertifiable):
        prove_is_atleast(TRIANGLE, 2)


def test_set_cert_is_truncated_to_k():
    cert = prove_is_atleast(empty_graph(5), 3)
    assert len(decode_blob(cert, "is_atleast", 5, 3)) == 3


# -- equality ---------------------------------------------------------------------------

def test_equality_provers():
    blob = prove_mm_equal(path_graph(4), 2)
    le, ge = decode_blob(blob, "mm_equal", 4, 2)
    assert le.scheme == "mm_atmost" and ge.scheme == "mm_atleast_list"
    with pytest.raises(NotCertifiable):
        prove_mm_equal(path_graph(4), 1)
    blob = prove_deg_equal(TRIANGLE, 2)
    le, ge = decode_blob(blob, "deg_equal", 3, 2)
    assert le.scheme == "deg_atmost" and ge.scheme == "deg_atleast"
    with pytest.raises(NotCertifiable):
        prove_deg_equal(TRIANGLE, 1)


def _outcome(prover, g, k):
    """A prover's certificate bytes, or its refusal text."""
    try:
        return serialize_certificate(prover(g, k)).hex()
    except NotCertifiable as exc:
        return f"refused: {exc}"


def test_mm_equal_runs_one_maximum_matching(monkeypatch):
    from streamcert import provers

    def one_sided(g, k):
        return encode_equality("mm_equal", prove_mm_atmost(g, k), prove_mm_atleast_list(g, k))

    calls = []
    matching = provers.maximum_matching
    monkeypatch.setattr(provers, "maximum_matching", lambda g: calls.append(g) or matching(g))
    for seed in range(60):
        g = gnp_random_graph(2 + seed % 30, (0.08, 0.15, 0.3, 0.6)[seed % 4], seed)
        nu = oracle_max_matching(g)
        for k in range(max(nu - 1, 0), nu + 2):
            calls.clear()
            got = _outcome(prove_mm_equal, g, k)
            assert len(calls) == 1, (g, k)
            assert got == _outcome(one_sided, g, k), (g, k)
    # the le half refuses first, as it did when the halves were proved apart
    assert _outcome(prove_mm_equal, TRIANGLE, 0) == "refused: maximum matching above 0"
    assert _outcome(prove_mm_equal, TRIANGLE, 2) == "refused: maximum matching below 2"


# -- legality sweep -----------------------------------------------------------------------

def _legality_graphs():
    """Seeded graphs with n <= 12, the empty, one-node and one-edge graphs,
    and a disconnected graph (a triangle, a path and an isolated node)."""
    for seed in range(12):
        yield gnp_random_graph(2 + seed % 11, (0.2, 0.4, 0.7)[seed % 3], seed)
    yield empty_graph(0)
    yield empty_graph(1)
    yield complete_graph(1)
    yield complete_graph(2)
    yield Graph.from_edges(7, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6)])


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_provers_refuse_exactly_the_illegal_claims(scheme):
    from streamcert.oracles import parameter_value

    info = SCHEMES[scheme]
    for g in _legality_graphs():
        value = parameter_value(g, info.parameter)
        top = g.n + 1 if math.isinf(value) else int(value) + 2
        for k in range(top + 1):
            if scheme == "diam_atleast" and g.n == 0 and k == 0:
                # the one legal claim refused: diameter 0 >= 0 holds, but
                # distance labels need a node labelled 0 (prove_diam_atleast)
                with pytest.raises(NotCertifiable, match="no node to label 0"):
                    info.prover(g, k)
            elif info.legal(value, k):
                cert = info.prover(g, k)
                verdict, _ = run_verifier(scheme, make_stream(g, k, "given"), cert)
                assert verdict.accepted, (g, k, verdict)
            else:
                with pytest.raises(NotCertifiable):
                    info.prover(g, k)


def test_honest_certificates_complete_at_every_legal_k_on_every_small_graph():
    # every labelled graph with n <= 5, all 12 schemes, every legal k in
    # 0..n+2 and k = 2^32 + 1: the honest certificate is accepted under lex
    # and rev within the space bound, or the prover refuses by name
    from collections import Counter

    from streamcert.oracles import PARAMETERS, TooLarge, parameter_value
    from streamcert.verifiers import space_bound

    trials = 0
    refused = Counter()
    for g in every_small_graph(5).values():
        values = {p: parameter_value(g, p) for p in PARAMETERS}
        for scheme, info in SCHEMES.items():
            for k in (*range(g.n + 3), 2**32 + 1):
                if not info.legal(values[info.parameter], k):
                    continue
                try:
                    cert = info.prover(g, k)
                except (NotCertifiable, TooLarge, FieldPastU32) as exc:
                    refused[scheme, type(exc).__name__] += 1
                    continue
                bound = space_bound(scheme, g.n, k)
                for order in ("lex", "rev"):
                    verdict, report = run_verifier(scheme, make_stream(g, k, order), cert)
                    assert verdict.accepted, (scheme, g, k, order, verdict)
                    assert report.peak_state_bits <= bound, (scheme, g, k, order)
                    trials += 1
    assert trials == 109_490
    # the empty graph has no node to label 0, and a disconnected graph's
    # unreachable label k + 1 is past u32 at k = 2^32 + 1 (327 graphs)
    assert refused == {
        ("diam_atleast", "NotCertifiable"): 1,
        ("diam_atleast", "FieldPastU32"): 327,
    }


# -- determinism --------------------------------------------------------------------------

def test_provers_are_deterministic():
    g = gnp_random_graph(10, 0.4, 11)
    from streamcert.schemes import legal_thresholds

    for info in SCHEMES.values():
        value = {
            "matching": oracle_max_matching(g),
            "degeneracy": oracle_degeneracy(g),
        }.get(info.parameter)
        if value is None:
            from streamcert.oracles import parameter_value

            value = parameter_value(g, info.parameter)
        for k in legal_thresholds(info, value, g.n):
            first = info.prover(g, k)
            second = info.prover(g, k)
            assert first == second


def test_outputs_depend_on_the_edge_set_alone():
    import random

    from streamcert.graph import parse_graph_file
    from streamcert.oracles import PARAMETERS
    from streamcert.schemes import legal_thresholds

    cases = 0
    for seed in range(150):
        g = gnp_random_graph(3 + seed % 14, (0.15, 0.3, 0.5)[seed % 3], seed)
        edges = list(g.edges)
        random.Random(seed).shuffle(edges)
        twin = Graph.from_edges(
            g.n, ((v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(edges))
        )
        assert twin.edge_set == g.edge_set
        values = {name: p.oracle(g) for name, p in PARAMETERS.items()}
        assert values == {name: p.oracle(twin) for name, p in PARAMETERS.items()}, g
        for name, info in SCHEMES.items():
            for k in legal_thresholds(info, values[info.parameter], g.n):
                assert serialize_certificate(info.prover(g, k)) == serialize_certificate(
                    info.prover(twin, k)
                ), (name, g, k)
                cases += 1
    assert cases == 3285

    # the neighbour lists are sorted tuples, built once, whatever the stored order
    shuffled, _ = parse_graph_file("5 6 1\n4 5\n3 1\n2 5\n1 2\n5 1\n3 2\n")
    for g in (cycle_graph(7), shuffled):
        adj = g.adjacency()
        assert adj is g.adjacency()
        assert all(type(ns) is tuple and list(ns) == sorted(ns) for ns in adj.values())
    assert cycle_graph(7).adjacency()[7] == (1, 6)
    assert shuffled.adjacency() == {1: (2, 3, 5), 2: (1, 3, 5), 3: (1, 2), 4: (5,), 5: (1, 2, 4)}


# -- matching provers pinned --------------------------------------------------------------

PETERSEN = Graph.from_edges(
    10,
    [(i, i % 5 + 1) for i in range(1, 6)]
    + [(i, i + 5) for i in range(1, 6)]
    + [(5 + i, 5 + (i + 1) % 5 + 1) for i in range(1, 6)],
)


def _matching_pin_graphs():
    """Seeded sparse G(n, 8/n) plus graphs that force blossom contractions."""
    for n in range(20, 201, 20):
        yield f"gnp{n}", gnp_random_graph(n, 8 / n, n)
    for n in range(2, 10):
        yield f"K{n}", complete_graph(n)
    for n in (3, 5, 7, 9, 11, 15):
        yield f"C{n}", cycle_graph(n)
    yield "petersen", PETERSEN
    for seed in range(6):
        yield f"dense12s{seed}", gnp_random_graph(12, 0.7, seed)


#: sha256 over the matched pairs and the serialized matching certificates of
#: ``_matching_pin_graphs``, recorded with the n+1-run Gallai-Edmonds search
#: and the one-blossom-run-per-edge lex-min greedy
PINNED_MATCHING_SHA256 = "279060dcaf6f557cc222eb1be33c7cde038d2a72862b4fcd25477c214c0959ea"


def test_matching_provers_pinned():
    import hashlib

    from streamcert.certs import serialize_certificate

    digest = hashlib.sha256()

    def add(name, label, blob):
        digest.update(f"{name} {label} {serialize_certificate(blob).hex()}\n".encode())

    for name, g in _matching_pin_graphs():
        mate, nu = maximum_matching(g)
        pairs = [(v, mate[v]) for v in range(1, g.n + 1) if mate[v]]
        digest.update(f"{name} mate {pairs}\n".encode())
        add(name, "atmost", prove_mm_atmost(g, nu))
        add(name, "list", prove_mm_atleast_list(g, nu))
        add(name, "list-1", prove_mm_atleast_list(g, nu - 1))
        add(name, "equal", prove_mm_equal(g, nu))
        add(name, "coloring", prove_mm_atleast_coloring(g, nu))
    assert digest.hexdigest() == PINNED_MATCHING_SHA256


# -- matching provers against their definitions ------------------------------------------

def _reference_lex_min(g):
    """The greedy by definition: one maximum-matching oracle call per candidate."""
    target = oracle_max_matching(g)
    chosen, used = [], set()
    for u, v in sorted(g.edge_set):
        if len(chosen) == target:
            break
        if u in used or v in used:
            continue
        blocked = used | {u, v}
        rest = Graph.from_edges(
            g.n, (e for e in g.edges if e[0] not in blocked and e[1] not in blocked)
        )
        if oracle_max_matching(rest) == target - len(chosen) - 1:
            chosen.append((u, v))
            used.update((u, v))
    return chosen


def _reference_missable(g):
    """D(G) by definition: v is missed by some maximum matching iff nu(G - v) = nu."""
    nu = oracle_max_matching(g)
    return {
        v
        for v in range(1, g.n + 1)
        if oracle_max_matching(Graph.from_edges(g.n, (e for e in g.edges if v not in e))) == nu
    }


def _differential_graphs():
    for seed in range(500):
        n = 2 + seed % 39
        p = (0.05, 0.1, 0.2, 0.35, 0.5, 0.7)[seed // 39 % 6]
        yield gnp_random_graph(n, p, seed)
    for seed in range(12):
        yield gnp_random_graph(40, (0.06, 0.12, 0.3)[seed % 3], 1000 + seed)


def test_matching_provers_agree_with_their_definitions():
    from streamcert.oracles import edmonds_search

    for g in _differential_graphs():
        assert list(lex_min_greedy(g, *maximum_matching(g))) == _reference_lex_min(g), g
        missable = _reference_missable(g)
        mate = maximum_matching(g)[0]
        exposed = [v for v in range(1, g.n + 1) if mate[v] == 0]
        adj = g.adjacency()
        outer = edmonds_search(adj, mate, exposed)
        assert {v for v in range(1, g.n + 1) if outer[v]} == missable, g
        expected = frozenset(w for v in missable for w in adj[v] if w not in missable)
        assert gallai_edmonds_witness(g)[0] == expected, g


def _two_search_greedy(g, mate, nu):
    """The lex-min greedy as it stood with up to two single-root searches per
    candidate, one from each freed mate, and no stranded-mate test."""
    from streamcert.oracles import edmonds_search

    adj = g.adjacency()
    chosen, used = [], set()
    for u, v in sorted(g.edges):
        if len(chosen) == nu:
            break
        if u in used or v in used:
            continue
        mu, mv = mate[u], mate[v]
        mate[u] = mate[v] = mate[mu] = mate[mv] = 0
        used.update((u, v))
        if (
            mu == v
            or not (mu and mv)
            or edmonds_search(adj, mate, (mu,), used) is None
            or edmonds_search(adj, mate, (mv,), used) is None
        ):
            chosen.append((u, v))
        else:
            used.difference_update((u, v))
            mate[u], mate[mu], mate[v], mate[mv] = mu, u, mv, v
    return chosen


def test_lex_min_greedy_matches_the_two_search_greedy():
    def graphs():
        yield from every_small_graph(6).values()
        for seed in range(300):
            yield gnp_random_graph(7 + seed % 53, (0.04, 0.08, 0.15, 0.3)[seed % 4], seed)

    for g in graphs():
        mate, nu = maximum_matching(g)
        expected = _two_search_greedy(g, list(mate), nu)
        assert list(lex_min_greedy(g, mate, nu)) == expected, g


def test_lex_min_greedy_search_count(monkeypatch):
    # a search guard that does not time: one search per candidate, and none
    # for a stranded mate (442 searches with two single-root searches per
    # candidate)
    from streamcert import oracles

    g = gnp_random_graph(1000, 8 / 1000, 1000)
    mate, nu = maximum_matching(g)  # before the patch: its searches are not counted
    calls = []
    search = oracles._grow_forest
    monkeypatch.setattr(
        oracles, "_grow_forest", lambda *args, **kw: calls.append(1) or search(*args, **kw)
    )
    list(lex_min_greedy(g, mate, nu))
    assert len(calls) <= 218


def test_provers_import_no_search_internals():
    # each search, with the forest lists or sieve masks it shares, is known
    # to ``oracles`` alone; dunders such as __builtins__ are shared by every
    # module
    from streamcert import oracles, provers

    oracle_values = list(vars(oracles).values())
    shared = [
        name
        for name, value in vars(provers).items()
        if name.startswith("_")
        and not name.startswith("__")
        and any(value is other for other in oracle_values)
    ]
    assert shared == []
    for name in (
        "edmonds_search",
        "covered_sources",
        "source_blocks",
        "bfs_distances",
        "count_odd_components_excluding",
    ):
        assert not hasattr(provers, name), name


def test_forest_search_raises_on_a_matching_that_is_not_maximum(monkeypatch):
    from streamcert import oracles, provers

    # path 1-2-3-4 with only the middle edge matched: 1-2-3-4 augments it
    mate = [0, 0, 3, 2, 0]
    with pytest.raises(ValueError):
        oracles.edmonds_search(path_graph(4).adjacency(), mate, [1, 4])
    checked = 0
    for seed in range(40):
        g = gnp_random_graph(6 + seed % 20, 0.3, seed)
        mate = maximum_matching(g)[0]
        matched = [v for v in range(1, g.n + 1) if mate[v] > v]
        if not matched:
            continue
        u = matched[seed % len(matched)]
        w = mate[u]
        mate[u] = mate[w] = 0  # the dropped edge uw now augments
        exposed = [v for v in range(1, g.n + 1) if mate[v] == 0]
        with pytest.raises(ValueError):
            oracles.edmonds_search(g.adjacency(), mate, exposed)
        checked += 1
    assert checked >= 30

    # the witness prover refuses a starting matching that is not maximum
    monkeypatch.setattr(provers, "maximum_matching", lambda g: ([0, 0, 3, 2, 0], 1))
    with pytest.raises(ValueError):
        gallai_edmonds_witness(path_graph(4))
