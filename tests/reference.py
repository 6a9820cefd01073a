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
- ``bounded_degree_graph``: a seeded random graph of bounded degree, by
  shuffling all n(n - 1)/2 pairs, so keep n small.
- ``to_networkx``: a graph as an ``nx.Graph`` on the nodes 1..n, for the
  tests that check the library against networkx, which shares no code with
  it.
- ``k_coloring``, ``vertex_cover_at_most``, ``maximum_independent_set`` and
  ``maximum_clique``: the exact searches as they ran on a dict of neighbour
  sets, copied at each branch, before ``oracles`` moved them onto neighbour
  bitmasks. They make the same moves in the same order, so the library's
  searches must return exactly what these return (the provers encode those
  witnesses). They do not refuse large graphs; callers keep n small.
- ``random_bytes_certificates``: the fuzzer's ``random_bytes`` loop as it
  drew through ``rng.randrange`` and ``rng.randbytes``, before
  ``harness._fuzz_certificates`` drew the same values from
  ``rng.getrandbits`` directly.
- ``run_trials``: the campaigns' trial loop as it built a verifier for
  every certificate, including one that fails to decode, and every order's
  stream up front, before ``harness._run_trials`` read each certificate's
  init reject off ``verifiers.init_verdict``, which builds no verifier for
  one that fails to decode, and built the streams at the first survivor.
- ``gadget_predicate``: the property each lower-bound family in
  ``streamcert.gadgets`` encodes, as the family stated it before its first
  ``applicable`` claim took that role, on the library's matching, degeneracy
  and diameter oracles and this module's colouring and cover searches.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Sequence

import networkx as nx

from streamcert.certs import CertificateBlob
from streamcert.graph import Graph
from streamcert.harness import CorpusEntry, TrialRecord
from streamcert.oracles import TooLarge, oracle_degeneracy, oracle_diameter, oracle_max_matching
from streamcert.stream import make_stream
from streamcert.verifiers import SCHEME_VERIFIERS, run_verifier

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


# -- the fuzzer's random_bytes draws ----------------------------------------------

def random_bytes_certificates(
    scheme: str, base: CertificateBlob | None, trials: int, rng: random.Random
) -> list[tuple[str, CertificateBlob]]:
    """``trials`` certificates of random bytes, each a length below
    max(2 * base length, 16) (8 bytes when there is no base), that many
    bytes, and a declared size below 8 * length + 2 bits."""
    base_len = len(base.payload) if base else 8
    certs = []
    for i in range(trials):
        length = rng.randrange(0, max(2 * base_len, 16))
        payload = rng.randbytes(length)
        bits = rng.randrange(0, 8 * length + 2)
        certs.append((f"random:{i}", CertificateBlob(scheme, payload, bits)))
    return certs


# -- the trial loop ---------------------------------------------------------------

def run_trials(
    scheme: str,
    entry: CorpusEntry,
    k: int,
    certs: Sequence[tuple[str, CertificateBlob]],
    orders: Sequence[str],
) -> tuple[list[TrialRecord], list[tuple[str, str, CertificateBlob]]]:
    """Run each (cert_id, certificate) under each order; returns the records,
    certificate-major, and the (order, cert_id, certificate) of each accept.

    Each order's stream is built once, and none when there is no
    certificate. Each certificate's verifier is built once as an init probe.
    One that rejected at init has read no item and never accepts (the run
    contract in ``verifiers``), so its reason and peak are read once and make
    its whole batch of records, one reject per order. A survivor's probe is
    dropped, and it gets a ``run_verifier`` for each order, which builds
    (and decodes) it again: 1 + len(orders) builds in all, so a traced run
    sees every stream."""
    records: list[TrialRecord] = []
    accepts: list[tuple[str, str, CertificateBlob]] = []
    if not certs:
        return records, accepts
    name, n = entry.name, entry.graph.n
    streams = [(order, make_stream(entry.graph, k, order)) for order in orders]
    verifier_cls = SCHEME_VERIFIERS[scheme]
    new_record = tuple.__new__
    for cert_id, cert in certs:
        verifier = verifier_cls(n, k, cert)
        if verifier.rejected:
            reason, peak = verifier.finalize().reason, verifier.peak_state_bits()
            bits = cert.semantic_bits
            # built by tuple.__new__, in C: TrialRecord's own __new__ is Python
            # code, and these records are most of a fuzz campaign's
            records += [
                new_record(
                    TrialRecord, (scheme, name, k, order, cert_id, "reject", reason, peak, bits)
                )
                for order, _ in streams
            ]
            continue
        for order, stream in streams:
            verdict, report = run_verifier(scheme, stream, cert)
            records.append(
                TrialRecord(
                    scheme, name, k, order, cert_id,
                    verdict.decision, verdict.reason,
                    report.peak_state_bits, report.certificate_bits,
                )
            )
            if verdict.accepted:
                accepts.append((order, cert_id, cert))
    return records, accepts


# -- the gadget families' reductions ----------------------------------------------

def gadget_predicate(family: str, size: int) -> Callable[[Graph], bool]:
    """The graph property that ``FAMILY_BUILDERS[family].build(size)``
    encodes: it holds on G_{x,y} iff the family's two_party(x, y) does."""
    universe = width = r = size
    cover_bound = 4 * (width - 1) + 4 * (width.bit_length() - 1)
    return {
        "disj_matching": lambda g: oracle_max_matching(g) == universe,
        "disj_degeneracy": lambda g: oracle_degeneracy(g) <= 1,
        "disj_diameter8": lambda g: oracle_diameter(g) >= 8,
        "holzer_diameter2": lambda g: oracle_diameter(g) == 2,
        "bitgadget_vc": lambda g: vertex_cover_at_most(g, cover_bound) is None,
        "perm_coloring": lambda g: k_coloring(g, r) is not None,
    }[family]
