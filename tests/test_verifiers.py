"""Verifier behaviour: accept/reject per scheme, init-time rejection of bad
certificates, order invariance, and metered space under the declared bounds."""

from __future__ import annotations

import pytest

from streamcert.certs import (
    CertificateBlob,
    encode_coloring,
    encode_core_subset,
    encode_distance_labels,
    encode_mm_coloring,
    encode_mm_list,
    encode_node_set,
    encode_peel_order,
    encode_tutte_berge,
)
from streamcert.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    matching_graph,
    path_graph,
    star_graph,
)
from streamcert.provers import (
    prove_deg_atleast,
    prove_deg_atmost,
    prove_mm_atleast_list,
    prove_mm_atmost,
)
from streamcert.stream import make_stream
from streamcert.verifiers import (
    SCHEME_VERIFIERS,
    run_verifier,
    space_bound,
    verify,
    verify_equality,
)

TRIANGLE = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
ORDERS = ("given", "rev", "lex", "shuffle:0", "shuffle:5")


def run_all_orders(scheme, g, k, cert):
    verdicts = {
        run_verifier(scheme, make_stream(g, k, order), cert)[0].decision
        for order in ORDERS
    }
    assert len(verdicts) == 1, f"verdict depends on order: {verdicts}"
    return verdicts.pop() == "accept"


# -- mm_atleast_list ------------------------------------------------------------

def test_mm_list_accepts_honest():
    cert = prove_mm_atleast_list(TRIANGLE, 1)
    assert run_all_orders("mm_atleast_list", TRIANGLE, 1, cert)


def test_mm_list_rejects_nonexistent_edge():
    cert = encode_mm_list([(1, 4)], 4)  # valid ids on n=4, but not a triangle edge
    g = Graph.from_edges(4, [(1, 2), (1, 3), (2, 3)])
    verdict, _ = run_verifier("mm_atleast_list", make_stream(g, 1, "given"), cert)
    assert verdict.reason == "missing-cert-edge"


def test_mm_list_rejects_shared_endpoint():
    cert = encode_mm_list([(1, 2), (2, 3)], 4)
    verdict, _ = run_verifier(
        "mm_atleast_list", make_stream(path_graph(4), 2, "given"), cert
    )
    assert verdict.reason == "cert-not-matching"


def test_mm_list_rejects_wrong_count():
    cert = encode_mm_list([(1, 2)], 4)
    verdict, _ = run_verifier(
        "mm_atleast_list", make_stream(path_graph(4), 2, "given"), cert
    )
    assert verdict.reason == "cert-size-mismatch"


# -- mm_atleast_coloring ----------------------------------------------------------

def test_mm_coloring_accepts_single_edge():
    g = Graph.from_edges(2, [(1, 2)])
    cert = encode_mm_coloring({1: 1, 2: 1}, 1, 2)
    assert run_all_orders("mm_atleast_coloring", g, 1, cert)


def test_mm_coloring_rejects_double_flag():
    g = path_graph(3)
    cert = encode_mm_coloring({1: 1, 2: 1, 3: 1}, 1, 3)
    verdict, _ = run_verifier(
        "mm_atleast_coloring", make_stream(g, 1, "given"), cert
    )
    assert verdict.reason == "flag-conflict"


def test_mm_coloring_rejects_too_few_flags():
    g = path_graph(3)
    cert = encode_mm_coloring({1: 1, 2: 1, 3: 2}, 2, 3)
    verdict, _ = run_verifier(
        "mm_atleast_coloring", make_stream(g, 2, "given"), cert
    )
    assert verdict.reason == "too-few-monochromatic"


# -- mm_atmost ----------------------------------------------------------------------

def test_mm_atmost_star_accepts():
    cert = encode_tutte_berge({1}, 4)
    assert run_all_orders("mm_atmost", star_graph(4), 1, cert)


def test_mm_atmost_path_rejects_empty_witness():
    cert = encode_tutte_berge(set(), 4)
    verdict, _ = run_verifier("mm_atmost", make_stream(path_graph(4), 1, "given"), cert)
    assert verdict.reason == "tutte-berge-violated"


def test_mm_atmost_triangle_accepts_empty_witness():
    cert = encode_tutte_berge(set(), 3)
    assert run_all_orders("mm_atmost", TRIANGLE, 1, cert)


def test_mm_atmost_forest_isolated_and_u_nodes_counted():
    # path 1-2-3 plus isolated 4; U = {2} leaves odd singletons {1}, {3}, {4}
    g = Graph.from_edges(4, [(1, 2), (2, 3)])
    cert = encode_tutte_berge({2}, 4)
    verdict, _ = run_verifier("mm_atmost", make_stream(g, 1, "given"), cert)
    assert verdict.accepted  # 2k=2 >= 1 - 3 + 4


# -- deg_atmost ------------------------------------------------------------------------

def test_deg_atmost_honest_path():
    cert = prove_deg_atmost(path_graph(4), 1)
    assert run_all_orders("deg_atmost", path_graph(4), 1, cert)


def test_deg_atmost_k4_rejects_any_permutation():
    import itertools

    g = complete_graph(4)
    for perm in itertools.permutations(range(1, 5)):
        cert = encode_peel_order(dict(zip(range(1, 5), perm)), 4)
        verdict, _ = run_verifier("deg_atmost", make_stream(g, 2, "given"), cert)
        assert verdict.reason == "counter-exceeded"


def test_deg_atmost_edgeless_identity():
    cert = encode_peel_order({1: 1, 2: 2, 3: 3}, 3)
    assert run_all_orders("deg_atmost", empty_graph(3), 0, cert)


def test_deg_atmost_rejects_non_permutation():
    cert = encode_peel_order({1: 1, 2: 1, 3: 3}, 3)
    verdict, _ = run_verifier("deg_atmost", make_stream(path_graph(3), 1, "given"), cert)
    assert verdict.reason == "not-a-permutation"


# -- deg_atleast -----------------------------------------------------------------------

def test_deg_atleast_k4():
    cert = encode_core_subset(range(1, 5), 4)
    assert run_all_orders("deg_atleast", complete_graph(4), 3, cert)


def test_deg_atleast_c4():
    cert = encode_core_subset(range(1, 5), 4)
    assert run_all_orders("deg_atleast", cycle_graph(4), 2, cert)


def test_deg_atleast_path_rejects():
    cert = encode_core_subset(range(1, 5), 4)
    verdict, _ = run_verifier("deg_atleast", make_stream(path_graph(4), 2, "given"), cert)
    assert verdict.reason == "counter-short"


def test_deg_atleast_rejects_empty_subset():
    cert = encode_core_subset([], 4)
    verdict, _ = run_verifier("deg_atleast", make_stream(path_graph(4), 1, "given"), cert)
    assert verdict.reason == "empty-subset"


# -- diam_atleast -------------------------------------------------------------------------

def test_diam_accepts_path_labels():
    cert = encode_distance_labels({1: 0, 2: 1, 3: 2, 4: 3}, 4, 3)
    assert run_all_orders("diam_atleast", path_graph(4), 3, cert)


def test_diam_rejects_shortcut():
    cert = encode_distance_labels({1: 0, 2: 1, 3: 2}, 3, 2)
    verdict, _ = run_verifier("diam_atleast", make_stream(TRIANGLE, 2, "given"), cert)
    assert verdict.reason == "shortcut"


def test_diam_rejects_no_anchor():
    cert = encode_distance_labels({1: 2, 2: 2, 3: 2}, 3, 1)
    verdict, _ = run_verifier("diam_atleast", make_stream(TRIANGLE, 1, "given"), cert)
    assert verdict.reason == "no-anchor"  # no 0 label


def test_diam_disconnected_cap_labels():
    g = matching_graph(4)  # edges (1,2),(3,4): disconnected
    cert = encode_distance_labels({1: 0, 2: 1, 3: 5, 4: 5}, 4, 4)
    assert run_all_orders("diam_atleast", g, 4, cert)


# -- coloring_atmost ------------------------------------------------------------------------

def test_coloring_accepts_proper():
    colors = {1: 1, 2: 2, 3: 1, 4: 2, 5: 3}
    cert = encode_coloring(colors, 5, 3)
    assert run_all_orders("coloring_atmost", cycle_graph(5), 3, cert)


def test_coloring_rejects_monochromatic():
    cert = encode_coloring({1: 1, 2: 1}, 2, 2)
    g = Graph.from_edges(2, [(1, 2)])
    verdict, _ = run_verifier("coloring_atmost", make_stream(g, 2, "given"), cert)
    assert verdict.reason == "monochromatic-edge"


def test_coloring_any_two_coloring_of_c5_rejects():
    import itertools

    for bits in itertools.product((1, 2), repeat=5):
        cert = encode_coloring(dict(enumerate(bits, 1)), 5, 2)
        verdict, _ = run_verifier(
            "coloring_atmost", make_stream(cycle_graph(5), 2, "given"), cert
        )
        assert not verdict.accepted


def test_coloring_rejects_out_of_range():
    cert = encode_coloring({1: 3, 2: 1}, 2, 2)  # declared for k=2, color 3 illegal
    g = Graph.from_edges(2, [(1, 2)])
    verdict, _ = run_verifier("coloring_atmost", make_stream(g, 2, "given"), cert)
    assert verdict.reason == "color-out-of-range"


# -- node set schemes ---------------------------------------------------------------------------

def test_clique_triangle():
    cert = encode_node_set("clique_atleast", [1, 2, 3], 3)
    assert run_all_orders("clique_atleast", TRIANGLE, 3, cert)


def test_is_path():
    cert = encode_node_set("is_atleast", [1, 3], 4)
    assert run_all_orders("is_atleast", path_graph(4), 2, cert)


def test_vc_rejects_uncovered_edge():
    cert = encode_node_set("vc_atmost", [2], 4)
    verdict, _ = run_verifier("vc_atmost", make_stream(path_graph(4), 1, "given"), cert)
    assert verdict.reason == "uncovered-edge"


def test_is_rejects_internal_edge():
    cert = encode_node_set("is_atleast", [1, 2], 4)
    verdict, _ = run_verifier("is_atleast", make_stream(path_graph(4), 2, "given"), cert)
    assert verdict.reason == "edge-inside-set"


def test_clique_rejects_wrong_count():
    cert = encode_node_set("clique_atleast", [1, 2, 4], 4)
    verdict, _ = run_verifier(
        "clique_atleast", make_stream(path_graph(4), 3, "given"), cert
    )
    assert verdict.reason == "clique-count-mismatch"


def test_node_set_rejects_duplicates_and_size():
    raw = encode_node_set("is_atleast", [2, 2], 4)
    verdict, _ = run_verifier("is_atleast", make_stream(path_graph(4), 2, "given"), raw)
    assert verdict.reason == "duplicate-node"
    cert = encode_node_set("vc_atmost", [1, 2, 3], 4)
    verdict, _ = run_verifier("vc_atmost", make_stream(path_graph(4), 2, "given"), cert)
    assert verdict.reason == "wrong-set-size"


def test_duplicate_node_check_bears_on_soundness():
    # [1, 1, 3] names two distinct nodes, yet has k = 3 entries: without the
    # duplicate check it would pass as an independent set of size 3
    from streamcert.oracles import parameter_value
    from streamcert.stream import ORDER_BATTERY

    g = path_graph(4)
    assert parameter_value(g, "is") == 2
    cert = encode_node_set("is_atleast", [1, 1, 3], 4)
    for order in ORDER_BATTERY:
        verdict, _ = run_verifier("is_atleast", make_stream(g, 3, order), cert)
        assert not verdict.accepted, order


# -- equality combinator -----------------------------------------------------------------------

def test_equality_matching_example():
    g = path_graph(4)
    certs = (prove_mm_atmost(g, 2), prove_mm_atleast_list(g, 2))
    verdict, report = verify_equality(
        "mm_atmost", "mm_atleast_list", 4, 2, certs, make_stream(g, 2, "given")
    )
    assert verdict.accepted
    # same certificates presented at k=1 must fail
    verdict, _ = verify_equality(
        "mm_atmost", "mm_atleast_list", 4, 1, certs, make_stream(g, 1, "given")
    )
    assert not verdict.accepted


def test_equality_degeneracy_example():
    certs = (prove_deg_atmost(TRIANGLE, 2), prove_deg_atleast(TRIANGLE, 2))
    verdict, report = verify_equality(
        "deg_atmost", "deg_atleast", 3, 2, certs, make_stream(TRIANGLE, 2, "given")
    )
    assert verdict.accepted


def test_equality_space_report_sums_sides():
    g = path_graph(4)
    le, ge = prove_mm_atmost(g, 2), prove_mm_atleast_list(g, 2)
    _, le_rep = run_verifier("mm_atmost", make_stream(g, 2, "given"), le)
    _, ge_rep = run_verifier("mm_atleast_list", make_stream(g, 2, "given"), ge)
    _, eq_rep = verify_equality(
        "mm_atmost", "mm_atleast_list", 4, 2, (le, ge), make_stream(g, 2, "given")
    )
    assert eq_rep.peak_state_bits == le_rep.peak_state_bits + ge_rep.peak_state_bits
    assert eq_rep.certificate_bits == le.semantic_bits + ge.semantic_bits


# -- shared contract ----------------------------------------------------------------------------

def test_malformed_certificates_reject_at_init():
    g = path_graph(4)
    for scheme in (
        "mm_atleast_list",
        "mm_atleast_coloring",
        "mm_atmost",
        "deg_atmost",
        "deg_atleast",
        "diam_atleast",
        "coloring_atmost",
        "is_atleast",
        "clique_atleast",
        "vc_atmost",
        "mm_equal",
        "deg_equal",
    ):
        for payload in (b"", b"\x00", b"\xff" * 3, b"\x00" * 64):
            cert = CertificateBlob(scheme, payload, 1)
            verdict, _ = run_verifier(scheme, make_stream(g, 1, "given"), cert)
            assert not verdict.accepted


def test_wrong_scheme_tag_rejects():
    cert = encode_tutte_berge({1}, 4)
    verdict, _ = run_verifier("deg_atleast", make_stream(path_graph(4), 1, "given"), cert)
    assert verdict.reason == "malformed-certificate"


def test_sticky_rejection_drains_stream():
    from streamcert.verifiers import SCHEME_VERIFIERS

    cert = encode_coloring({1: 1, 2: 1, 3: 2, 4: 2}, 4, 2)
    verifier = SCHEME_VERIFIERS["coloring_atmost"](4, 2, cert)
    verifier.feed([(1, 2), (2, 3), (3, 4)])  # (1, 2) is monochromatic: rejects
    verdict = verifier.finalize()
    assert verdict.reason == "monochromatic-edge"


def test_repeated_edge_fools_the_documented_schemes():
    # outside the simple-graph promise: one repeated edge passes a false
    # claim in the schemes the module docstring lists
    from streamcert.certs import encode_equality
    from streamcert.stream import EdgeStream

    mm_list = encode_mm_list([(1, 2), (3, 4)], 4)  # one edge, nu = 1 < 2
    core = encode_core_subset({1, 2}, 2)  # one edge, degeneracy 1 < 2
    fooled = {
        "mm_atleast_list": (EdgeStream(4, 2, ((1, 2), (1, 2))), mm_list),
        "clique_atleast": (
            EdgeStream(3, 3, ((1, 2), (2, 3), (1, 2))),  # the path 1-2-3
            encode_node_set("clique_atleast", [1, 2, 3], 3),
        ),
        "deg_atleast": (EdgeStream(2, 2, ((1, 2), (1, 2))), core),
        "mm_equal": (
            EdgeStream(4, 2, ((1, 2), (1, 2))),
            encode_equality("mm_equal", encode_tutte_berge(set(), 4), mm_list),
        ),
        "deg_equal": (
            EdgeStream(2, 2, ((1, 2), (1, 2))),
            encode_equality("deg_equal", encode_peel_order({1: 1, 2: 2}, 2), core),
        ),
    }
    for scheme, (stream, cert) in fooled.items():
        assert run_verifier(scheme, stream, cert)[0].accepted, scheme


def test_feed_streams_nothing_after_a_reject():
    def edges_then_fail(*edges):
        yield from edges
        raise AssertionError("stream item read after a reject")

    verifier = SCHEME_VERIFIERS["coloring_atmost"](4, 2, CertificateBlob("coloring_atmost", b"", 1))
    verifier.feed(edges_then_fail())
    assert verifier.finalize().reason == "malformed-certificate"
    cert = encode_coloring({1: 1, 2: 1, 3: 2, 4: 2}, 4, 2)
    verifier = SCHEME_VERIFIERS["coloring_atmost"](4, 2, cert)
    verifier.feed(edges_then_fail((2, 3), (1, 2)))
    assert verifier.finalize().reason == "monochromatic-edge"


def test_verifiers_that_reject_for_one_reason_share_one_verdict():
    """Two verifiers that reject for the same reason return equal verdicts,
    one shared object, for a base reason at init and mid-stream and for the
    equality combinator's ``le:`` and ``ge:`` forms; a Verdict is frozen,
    which is what makes sharing it safe."""
    import dataclasses

    from streamcert.certs import encode_equality

    g = path_graph(4)

    def verdicts(scheme, k, certs):
        return [run_verifier(scheme, make_stream(g, k, "given"), cert)[0] for cert in certs]

    peel = prove_deg_atmost(g, 1)
    dead_le, dead_ge = CertificateBlob("deg_atmost", b"", 1), CertificateBlob("deg_atleast", b"", 1)
    cases = {
        "malformed-certificate": verdicts("deg_atmost", 1, [dead_le, encode_tutte_berge({1}, 4)]),
        "monochromatic-edge": verdicts("coloring_atmost", 2, [
            encode_coloring({1: 1, 2: 1, 3: 2, 4: 1}, 4, 2),  # (1, 2) is monochromatic
            encode_coloring({1: 2, 2: 1, 3: 1, 4: 2}, 4, 2),  # (2, 3) is monochromatic
        ]),
        "le:malformed-certificate": verdicts("deg_equal", 1, [
            encode_equality("deg_equal", dead_le, encode_core_subset({1, 2}, 4)),
            encode_equality("deg_equal", dead_le, encode_core_subset({3, 4}, 4)),
        ]),
        "ge:malformed-certificate": verdicts("deg_equal", 1, [
            encode_equality("deg_equal", peel, dead_ge),
            encode_equality("deg_equal", peel, CertificateBlob("deg_atleast", b"\x07", 1)),
        ]),
    }
    for reason, (first, second) in cases.items():
        assert first.reason == reason and not first.accepted
        assert first == second and first is second, reason
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.reason = "ok"
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.decision = "accept"


@pytest.mark.parametrize(
    "scheme, n, k, cert, bound, reason",
    [
        ("mm_atleast_list", 4, 2, encode_mm_list([(1, 2), (3, 4)], 4), 2, "missing-cert-edge"),
        (
            "clique_atleast", 3, 3, encode_node_set("clique_atleast", [1, 2, 3], 3),
            3, "clique-count-mismatch",
        ),
    ],
)
def test_edge_counter_stops_at_its_bound(scheme, n, k, cert, bound, reason):
    # a certificate edge repeated past the counter's bound (outside the
    # promise) rejects at the first hit beyond it, and nothing after is read
    from streamcert.stream import EdgeStream

    def edges_then_fail(*edges):
        yield from edges
        raise AssertionError("stream item read after a reject")

    stream = EdgeStream(n, k, edges_then_fail(*[(1, 2)] * (bound + 1)))
    verifier = SCHEME_VERIFIERS[scheme](stream.n, stream.k, cert)
    verifier.feed(stream.edges)
    assert verifier.rejected
    assert verifier.finalize().reason == reason
    assert verifier._count == bound


#: per scheme that can reject mid-stream: (n, k, certificate, first item,
#: the item that rejects, the reason)
MID_STREAM_REJECTS = {
    "mm_atleast_coloring": (
        4, 1, encode_mm_coloring({1: 1, 2: 1, 3: 1, 4: 2}, 2, 4),
        (1, 2), (2, 3), "flag-conflict",
    ),
    "diam_atleast": (
        4, 2, encode_distance_labels({1: 0, 2: 1, 3: 2, 4: 2}, 4, 2),
        (1, 2), (1, 3), "shortcut",
    ),
    "is_atleast": (4, 2, encode_node_set("is_atleast", [1, 2], 4), (3, 4), (1, 2), "edge-inside-set"),
    "vc_atmost": (4, 1, encode_node_set("vc_atmost", [1], 4), (1, 2), (3, 4), "uncovered-edge"),
    "deg_atmost": (
        3, 1, encode_peel_order({1: 1, 2: 2, 3: 3}, 3), (1, 2), (1, 3), "counter-exceeded",
    ),
}


@pytest.mark.parametrize("scheme", list(MID_STREAM_REJECTS))
def test_feed_stops_reading_at_a_mid_stream_reject(scheme):
    n, k, cert, first, bad, reason = MID_STREAM_REJECTS[scheme]

    def stream():
        yield first
        yield bad
        raise AssertionError("stream item read after a reject")

    verifier = SCHEME_VERIFIERS[scheme](n, k, cert)
    verifier.feed(stream())
    assert verifier.finalize().reason == reason


@pytest.mark.parametrize("scheme", list(SCHEME_VERIFIERS))
def test_feed_can_be_split(scheme):
    """One ``feed`` call, two calls on a split of the items, and one call on
    a generator give the same verdict and peak: each edge loop writes its
    state back, and the equality combinator reads a one-shot input once."""
    from streamcert.harness import _scaling_instance

    g, k, cert, _ = _scaling_instance(scheme, 64)
    edges = make_stream(g, k, "shuffle:3").edges
    for threshold in (k - 1, k, k + 1):
        if threshold < 0:
            continue

        def run(*parts):
            verifier = SCHEME_VERIFIERS[scheme](g.n, threshold, cert)
            for part in parts:
                verifier.feed(part)
            return verifier.finalize(), verifier.peak_state_bits()

        whole = run(edges)
        if threshold == k:
            assert whole[0].accepted
        for i in (0, 1, len(edges) // 3, len(edges) // 2, len(edges) - 1, len(edges)):
            assert run(edges[:i], edges[i:]) == whole, (threshold, i)
        assert run(e for e in edges) == whole, threshold


@pytest.mark.parametrize("scheme", list(SCHEME_VERIFIERS))
def test_finalize_is_idempotent(scheme):
    from streamcert.harness import _scaling_instance

    g, k, cert, _ = _scaling_instance(scheme, 16)
    decisions = set()
    for threshold in (k, k + 1):
        verifier = SCHEME_VERIFIERS[scheme](g.n, threshold, cert)
        verifier.feed(g.edges)
        first = verifier.finalize()
        peak = verifier.peak_state_bits()
        assert verifier.finalize() == first
        assert verifier.peak_state_bits() == peak
        decisions.add(first.decision)
    assert "accept" in decisions


def test_spec_entry_point_checks_echo():
    g = path_graph(4)
    cert = prove_mm_atleast_list(g, 2)
    with pytest.raises(ValueError):
        verify("mm_atleast_list", 4, 1, cert, make_stream(g, 2, "given"))
    verdict, _ = verify("mm_atleast_list", 4, 2, cert, make_stream(g, 2, "given"))
    assert verdict.accepted


def test_space_bounds_on_random_graphs():
    from streamcert.harness import build_corpus, run_completeness

    corpus = build_corpus(["gnp:8..12:0.35:6"], seed=2)
    for scheme in ("mm_atleast_list", "mm_atmost", "deg_atmost", "coloring_atmost"):
        report = run_completeness(scheme, corpus, orders=("given", "rev"))
        assert report.ok, report.failures[:3]
        for record in report.records:
            n = next(e.graph.n for e in corpus.entries if e.name == record.graph)
            assert record.peak_bits <= space_bound(scheme, n, record.k)


def test_decision_independent_of_reason_for_all_orders():
    # verdicts across orders agree even for rejecting certificates
    g = cycle_graph(6)
    cert = encode_node_set("is_atleast", [1, 2, 4], 6)
    decisions = {
        run_verifier("is_atleast", make_stream(g, 3, order), cert)[0].decision
        for order in ORDERS
    }
    assert decisions == {"reject"}


def test_diam_monotone_on_paths():
    # on a path of length L, honest certificates exist and verify iff k <= L
    from streamcert.provers import NotCertifiable, prove_diam_atleast

    for length in range(1, 13):
        g = path_graph(length + 1)
        for k in range(0, length + 3):
            if k <= length:
                cert = prove_diam_atleast(g, k)
                assert run_all_orders("diam_atleast", g, k, cert)
            else:
                with pytest.raises(NotCertifiable):
                    prove_diam_atleast(g, k)
                # transplanted honest labels for the true diameter must fail
                stale = prove_diam_atleast(g, length)
                verdict, _ = run_verifier(
                    "diam_atleast", make_stream(g, k, "given"), stale
                )
                assert not verdict.accepted


def test_clique_all_triples_of_c5_reject():
    import itertools

    g = cycle_graph(5)
    for triple in itertools.combinations(range(1, 6), 3):
        cert = encode_node_set("clique_atleast", list(triple), 5)
        for order in ("given", "rev", "lex"):
            verdict, _ = run_verifier("clique_atleast", make_stream(g, 3, order), cert)
            assert not verdict.accepted


#: every ``self.reject`` call in ``verifiers.py``, as (class, method, reason
#: constant or f-string prefix); a new reject site must be listed here
REJECT_SITES = sorted([
    ("StreamingVerifier", "__init__", "R_MALFORMED"),
    ("MMListVerifier", "_setup", "R_CERT_SIZE"),
    ("MMListVerifier", "_setup", "R_NOT_MATCHING"),
    ("MMListVerifier", "_consume", "R_MISSING_EDGE"),
    ("MMListVerifier", "_finalize", "R_MISSING_EDGE"),
    ("MMColoringVerifier", "_consume", "R_FLAG_CONFLICT"),
    ("MMColoringVerifier", "_finalize", "R_FEW_MONO"),
    ("MMAtMostVerifier", "_finalize", "R_TUTTE_BERGE"),
    ("DegAtMostVerifier", "_setup", "R_NOT_PERMUTATION"),
    ("DegAtMostVerifier", "_consume", "R_COUNTER_OVER"),
    ("DegAtLeastVerifier", "_setup", "R_EMPTY_SUBSET"),
    ("DegAtLeastVerifier", "_finalize", "R_COUNTER_SHORT"),
    ("DiamAtLeastVerifier", "_setup", "R_NO_ANCHOR"),
    ("DiamAtLeastVerifier", "_consume", "R_SHORTCUT"),
    ("ColoringAtMostVerifier", "_setup", "R_COLOR_RANGE"),
    ("ColoringAtMostVerifier", "_consume", "R_MONO_EDGE"),
    ("_NodeSetVerifier", "_setup", "R_DUPLICATE_NODE"),
    ("_NodeSetVerifier", "_setup", "R_WRONG_SIZE"),
    ("_NodeSetVerifier", "_setup", "R_WRONG_SIZE"),
    ("ISAtLeastVerifier", "_consume", "R_EDGE_IN_SET"),
    ("CliqueAtLeastVerifier", "_consume", "R_CLIQUE_COUNT"),
    ("CliqueAtLeastVerifier", "_finalize", "R_CLIQUE_COUNT"),
    ("VCAtMostVerifier", "_consume", "R_UNCOVERED"),
    ("EqualityVerifier", "_finalize", "le:"),
    ("EqualityVerifier", "_finalize", "ge:"),
])


def test_every_reject_goes_through_reject():
    """``Verdict`` is built only by ``finalize`` and for ``ACCEPT``, no
    ``_finalize`` returns a value, the sticky reason is written only by
    ``reject`` (and set to None at init), and every ``self.reject`` call is
    one of ``REJECT_SITES``."""
    import ast
    from pathlib import Path

    import streamcert.verifiers as verifiers

    tree = ast.parse(Path(verifiers.__file__).read_text())
    verdict_sites, reason_writes, sites = [], [], []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.FunctionDef)):  # a constant or a helper
            if any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "Verdict"
                   for c in ast.walk(node)):
                name = node.name if isinstance(node, ast.FunctionDef) else node.targets[0].id
                verdict_sites.append(("<module>", name))
        if not isinstance(node, ast.ClassDef):
            continue
        for fn in node.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            where = (node.name, fn.name)
            for sub in ast.walk(fn):
                if fn.name == "_finalize" and isinstance(sub, ast.Return):
                    assert sub.value is None, where
                if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "Verdict":
                    verdict_sites.append(where)
                if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                    targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                    if any(getattr(t, "attr", None) == "_reject_reason" for t in targets):
                        reason_writes.append((*where, ast.unparse(sub.value)))
                func = getattr(sub, "func", None)
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(func, ast.Attribute)
                    and func.attr == "reject"
                    and getattr(func.value, "id", None) == "self"
                ):
                    (arg,) = sub.args
                    reason = arg.id if isinstance(arg, ast.Name) else arg.values[0].value
                    sites.append((*where, reason))
    assert sorted(verdict_sites) == [("<module>", "ACCEPT"), ("StreamingVerifier", "finalize")]
    assert sorted(reason_writes) == [
        ("StreamingVerifier", "__init__", "None"), ("StreamingVerifier", "reject", "reason")
    ]
    assert sorted(sites) == REJECT_SITES
