"""Corpus construction, campaign reports, fuzzing, and space scaling."""

from __future__ import annotations

import pytest

from streamcert.harness import (
    FuzzPolicy,
    build_corpus,
    fuzz_instance,
    run_completeness,
    run_soundness,
    run_space_scaling,
    _attach,
)
from streamcert.graph import complete_graph
from streamcert.schemes import BASE_SCHEMES, SCHEMES

CORPUS_SPEC = ["paths:2..7", "cycles:3..7", "stars:3..6", "gnp:6..9:0.3:8", "empty:4"]


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CORPUS_SPEC, seed=11)


def test_corpus_is_deterministic_and_annotated(corpus):
    again = build_corpus(CORPUS_SPEC, seed=11)
    assert [e.name for e in again.entries] == [e.name for e in corpus.entries]
    assert all(e.graph == f.graph for e, f in zip(corpus.entries, again.entries))
    for entry in corpus.entries:
        assert set(entry.values) == {
            "matching", "degeneracy", "diameter", "chromatic", "vc", "is", "clique"
        }
    other = build_corpus(CORPUS_SPEC, seed=12)
    assert [e.graph for e in other.entries] != [e.graph for e in corpus.entries]


def test_corpus_spec_examples():
    paths = build_corpus(["paths:2..10"], seed=0)
    assert len(paths) == 9
    gnp = build_corpus(["gnp:12:0.3:10"], seed=1)
    assert len(gnp) == 10 and all(e.graph.n == 12 for e in gnp.entries)
    empty = build_corpus(["empty:5"], seed=0)
    assert empty.entries[0].values["matching"] == 0


def test_completeness_all_schemes(corpus):
    orders = ("given", "rev", "lex", "shuffle:0")
    for scheme in BASE_SCHEMES + ("mm_equal", "deg_equal"):
        report = run_completeness(scheme, corpus, orders)
        assert report.ok, (scheme, report.failures[:3])
        assert report.instances > 0


def test_completeness_report_lines_deterministic(corpus):
    a = run_completeness("vc_atmost", corpus, ("given", "rev"))
    b = run_completeness("vc_atmost", corpus, ("given", "rev"))
    assert "\n".join(a.lines()) == "\n".join(b.lines())


def test_soundness_modes(corpus):
    for scheme in ("mm_atmost", "deg_atleast", "coloring_atmost", "clique_atleast"):
        for mode, trials in (("random_bytes", 25), ("bit_flip", 25), ("structured_wrong", 4)):
            report = run_soundness(
                scheme, corpus, FuzzPolicy(mode, trials, seed=3), ("given", "rev")
            )
            assert report.ok, (scheme, mode, report.failures[:2])
            assert report.records


def test_soundness_exhaustive_tb_vectors_on_k4():
    # all 16 possible membership vectors for K4 at k=1 must reject
    from streamcert.certs import encode_tutte_berge
    from streamcert.stream import make_stream
    from streamcert.verifiers import run_verifier

    g = complete_graph(4)
    for mask in range(16):
        u_set = {i + 1 for i in range(4) if mask >> i & 1}
        cert = encode_tutte_berge(u_set, 4)
        for order in ("given", "rev", "lex"):
            verdict, _ = run_verifier("mm_atmost", make_stream(g, 1, order), cert)
            assert not verdict.accepted


def test_fuzz_instance_against_legal_value():
    entry = _attach("k4", complete_graph(4))
    records, breaches = fuzz_instance(
        "deg_atmost", entry, 2, FuzzPolicy("structured_wrong", 4, 0)
    )
    assert records and not breaches


@pytest.mark.parametrize(
    "code, message",
    [
        # an odd-component count off by one: the witness no longer attains nu
        (
            "from streamcert import graph, oracles, provers\n"
            "oracles.count_odd_components_excluding = lambda g, u: 1\n"
            "try:\n"
            "    provers.prove_mm_atmost(graph.path_graph(4), 2)\n",
            "witness misses the matching bound",
        ),
        # an independence number one too high: vc + is no longer equals n
        (
            "from streamcert import graph, harness\n"
            "value = harness.parameter_value\n"
            "harness.parameter_value = lambda g, p: value(g, p) + (p == 'is')\n"
            "try:\n"
            "    harness._attach('k4', graph.complete_graph(4))\n",
            "cover/IS complementarity violated",
        ),
    ],
    ids=["witness", "complementarity"],
)
def test_invariant_checks_fire_under_python_dash_O(code, message):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", code + "except AssertionError as exc:\n    print(exc)\n"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == message + "\n"


def test_scaling_all_schemes_small_sizes():
    for scheme in BASE_SCHEMES + ("mm_equal", "deg_equal"):
        report = run_space_scaling(scheme, [64, 128, 256])
        assert report.ok, (scheme, [r.line() for r in report.rows])
        for row in report.rows:
            assert row.cert_bits == row.formula_bits
            assert row.peak_bits <= row.bound_bits


def test_scaling_families_are_legal_from_their_minimum_n():
    from streamcert.certs import decode_blob
    from streamcert.graph import validate_graph
    from streamcert.harness import SCALING_FAMILIES, _scaling_instance
    from streamcert.oracles import parameter_value

    assert set(SCALING_FAMILIES) == set(SCHEMES)
    for scheme, family in SCALING_FAMILIES.items():
        info, low = SCHEMES[scheme], family.min_n
        for n in range(low, low + 4):
            g, k, cert, _ = _scaling_instance(scheme, n)
            validate_graph(g)
            decode_blob(cert, scheme, n, k)  # node ids in 1..n
            assert info.legal(parameter_value(g, info.parameter), k), (scheme, n)
        report = run_space_scaling(scheme, [low])
        assert report.ok, (scheme, report.lines())
        with pytest.raises(ValueError):
            _scaling_instance(scheme, low - 1)


def test_scaling_closed_forms_are_their_provers_certificates():
    # the four NP schemes' witnesses are written out because their provers
    # refuse n > 24; up to there the two must agree byte for byte
    from streamcert.certs import serialize_certificate
    from streamcert.harness import SCALING_FAMILIES

    closed = {s: f for s, f in SCALING_FAMILIES.items() if f.witness is not None}
    assert set(closed) == {"coloring_atmost", "is_atleast", "clique_atleast", "vc_atmost"}
    for scheme, family in closed.items():
        for n in range(family.min_n, 25):
            g, k, _ = family.instance(n)
            honest = SCHEMES[scheme].prover(g, k)
            witness = family.witness(n)
            assert serialize_certificate(witness) == serialize_certificate(honest), (scheme, n)


def test_scaling_slope_is_sublinear_for_log_space_schemes():
    report = run_space_scaling("diam_atleast", [256, 1024, 4096, 16384])
    assert report.loglog_slope < 0.5  # peak bits grow like log n, not n


def test_scaling_report_lines():
    report = run_space_scaling("vc_atmost", [64, 128])
    lines = report.lines()
    assert len(lines) == 3 and lines[-1].startswith("scheme=vc_atmost loglog_slope=")


#: sha256 of the space-scaling report lines of all 12 schemes at
#: PINNED_SCALING_SIZES, recorded while each scaling certificate was built by
#: hand with ``encode_*`` calls; odd n are left out, where ``mm_atmost``'s
#: prover gives a Tutte-Berge witness with a lower peak than the hand-built one
PINNED_SCALING_SIZES = (4, 6, 8, 16, 256, 1024, 4096, 16384)
PINNED_SCALING_SHA256 = "8b0ffb75578242f454596a1ac094db585adb46a9950e8bc84b2f48ca2c5ace6e"


def test_scaling_report_lines_pinned():
    import hashlib

    digest = hashlib.sha256()
    for scheme in SCHEMES:
        for line in run_space_scaling(scheme, PINNED_SCALING_SIZES).lines():
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PINNED_SCALING_SHA256


def test_soundness_reports_byte_identical(corpus):
    policy = FuzzPolicy("random_bytes", 10, seed=7)
    a = run_soundness("diam_atleast", corpus, policy, ("given", "rev"))
    b = run_soundness("diam_atleast", corpus, policy, ("given", "rev"))
    assert "\n".join(a.lines()) == "\n".join(b.lines())


#: sha256 of the soundness report lines, reject reasons included, of every
#: base scheme in every fuzz mode on PINNED_CORPUS, recorded when every
#: stream item was fed to every verifier; a mismatch means some trial's
#: decision, reason, peak or certificate size changed
PINNED_CORPUS = ("paths:3..6", "cycles:3..6", "stars:3..5", "gnp:6..9:0.35:5")
PINNED_SOUNDNESS_SHA256 = "a91d9bc850f85041d4d1f21adb77c4550bdcfe592778718df0bcfacae894069d"


def test_soundness_report_lines_pinned():
    import hashlib

    corpus = build_corpus(PINNED_CORPUS, seed=17)
    digest = hashlib.sha256()
    trials = 0
    for scheme in BASE_SCHEMES:
        for mode, budget in (("random_bytes", 40), ("bit_flip", 40), ("structured_wrong", 2)):
            report = run_soundness(scheme, corpus, FuzzPolicy(mode, budget, seed=5))
            assert report.ok, (scheme, mode, report.failures[:2])
            for line in report.lines():
                digest.update(line.encode() + b"\n")
            trials += len(report.records)
    assert trials > 10_000
    assert digest.hexdigest() == PINNED_SOUNDNESS_SHA256


#: sha256 of the same campaign's lines for the two equality schemes, recorded
#: before fuzzed certificates that reject at init were run once for all
#: orders and before the hopeless one-edge searches were skipped
PINNED_EQUALITY_SOUNDNESS_SHA256 = (
    "619c8205072bd489de4aa5c092ca5588a9a7fb33c9f0bd8c24179c38810a57a7"
)


def test_equality_soundness_report_lines_pinned():
    import hashlib

    corpus = build_corpus(PINNED_CORPUS, seed=17)
    digest = hashlib.sha256()
    trials = 0
    for scheme in ("mm_equal", "deg_equal"):
        for mode, budget in (("random_bytes", 40), ("bit_flip", 40), ("structured_wrong", 2)):
            report = run_soundness(scheme, corpus, FuzzPolicy(mode, budget, seed=5))
            assert report.ok, (scheme, mode, report.failures[:2])
            for line in report.lines():
                digest.update(line.encode() + b"\n")
            trials += len(report.records)
    assert trials > 10_000
    assert digest.hexdigest() == PINNED_EQUALITY_SOUNDNESS_SHA256


#: sha256 of the completeness report lines and failures of all 12 schemes on
#: PINNED_CORPUS (seed 11) under four orders, recorded while
#: ``run_completeness`` kept a trial loop of its own
PINNED_COMPLETENESS_SHA256 = (
    "56319541c62b1691754d2fcf125f49b86d117b049241fb5a0aee1bda3b9fd466"
)


def test_completeness_report_lines_pinned():
    import hashlib

    corpus = build_corpus(PINNED_CORPUS, seed=11)
    digest = hashlib.sha256()
    trials = 0
    for scheme in SCHEMES:
        report = run_completeness(scheme, corpus, ("given", "rev", "lex", "shuffle:0"))
        for line in report.lines() + list(report.failures):
            digest.update(line.encode() + b"\n")
        trials += len(report.records)
    assert trials == 1408
    assert digest.hexdigest() == PINNED_COMPLETENESS_SHA256


_GE = (
    [[0], [0, 1], [1, 2], [2, 3], [3, 4]],
    [[1], [2], [3], [4], [5]],
)
_LE = (
    [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]],
    [[], [0], [1], [2], [3]],
)
_EQ = (
    [[0], [1], [2], [3], [4]],
    [[1], [2, 0], [3, 1], [4, 2], [5, 3]],
)

#: (legal, illegal) thresholds of each scheme at values 0..4 with n = 5,
#: recorded while the thresholds were written out per direction
PINNED_THRESHOLDS = {
    "mm_atleast_list": _GE,
    "mm_atleast_coloring": _GE,
    "mm_atmost": _LE,
    "deg_atmost": _LE,
    "deg_atleast": _GE,
    "diam_atleast": _GE,
    "coloring_atmost": _LE,
    "is_atleast": _GE,
    "clique_atleast": _GE,
    "vc_atmost": _LE,
    "mm_equal": _EQ,
    "deg_equal": _EQ,
}


def test_thresholds_pinned():
    import math

    from streamcert.schemes import illegal_thresholds, legal_thresholds

    assert set(PINNED_THRESHOLDS) == set(SCHEMES)
    for scheme, (legal, illegal) in PINNED_THRESHOLDS.items():
        info = SCHEMES[scheme]
        assert [legal_thresholds(info, v, 5) for v in range(5)] == legal, scheme
        assert [illegal_thresholds(info, v) for v in range(5)] == illegal, scheme
        for v in range(5):
            assert all(info.legal(v, k) for k in legal[v]), (scheme, v)
            assert not any(info.legal(v, k) for k in illegal[v]), (scheme, v)
    diam = SCHEMES["diam_atleast"]
    assert legal_thresholds(diam, math.inf, 5) == [1, 5]
    assert illegal_thresholds(diam, math.inf) == []


def test_fuzz_instance_matches_a_fresh_run_per_certificate_and_order(monkeypatch):
    """Each record of ``fuzz_instance`` and of ``run_completeness`` equals
    the one a fresh ``run_verifier`` gives for its (certificate, order), and
    is a ``TrialRecord``, whether the certificate rejects at init or not,
    and every certificate that survives init is streamed under every order."""
    from streamcert import harness
    from streamcert.harness import TrialRecord, _fuzz_certificates
    from streamcert.schemes import illegal_thresholds, legal_thresholds
    from streamcert.stream import SOUNDNESS_ORDERS, make_stream
    from streamcert.verifiers import SCHEME_VERIFIERS, run_verifier

    replayed = []

    def traced_run_verifier(scheme, stream, cert):
        replayed.append((cert, stream.edges))
        return run_verifier(scheme, stream, cert)

    def fresh_runs(scheme, entry, k, certs):
        """(records, replays, verifiers that survive init) of a fresh run per
        (certificate, order), where only a surviving certificate is replayed."""
        streams = [make_stream(entry.graph, k, order) for order in SOUNDNESS_ORDERS]
        expected, expected_replays, live = [], [], []
        for cert_id, cert in certs:
            verifier = SCHEME_VERIFIERS[scheme](entry.graph.n, k, cert)
            if not verifier.rejected:
                live.append(verifier)
                expected_replays += [(cert, s.edges) for s in streams]
            for order, stream in zip(SOUNDNESS_ORDERS, streams):
                verdict, report = run_verifier(scheme, stream, cert)
                expected.append(TrialRecord(
                    scheme, entry.name, k, order, cert_id,
                    verdict.decision, verdict.reason,
                    report.peak_state_bits, report.certificate_bits,
                ))
        return expected, expected_replays, live

    monkeypatch.setattr(harness, "run_verifier", traced_run_verifier)
    corpus = build_corpus(["paths:3..5", "cycles:4..5", "stars:4", "gnp:6..8:0.4:2"], seed=23)
    survivors = one_half_rejected = honest = 0
    for scheme, info in SCHEMES.items():
        for mode, budget in (("random_bytes", 12), ("bit_flip", 24), ("structured_wrong", 2)):
            policy = FuzzPolicy(mode, budget, seed=9)
            for entry in corpus.entries:
                for k in illegal_thresholds(info, entry.value(info.parameter)):
                    replayed.clear()
                    records, breaches = fuzz_instance(scheme, entry, k, policy)
                    assert not breaches
                    certs = _fuzz_certificates(info, entry, k, policy)
                    expected, expected_replays, live = fresh_runs(scheme, entry, k, certs)
                    assert records == expected, (scheme, mode, entry.name, k)
                    assert all(type(r) is TrialRecord for r in records)
                    assert replayed == expected_replays, (scheme, mode, entry.name, k)
                    survivors += len(live)
                    if info.direction == "eq":
                        one_half_rejected += sum(
                            verifier._le.rejected != verifier._ge.rejected for verifier in live
                        )
        replayed.clear()
        report = run_completeness(scheme, corpus, SOUNDNESS_ORDERS)
        assert report.ok, (scheme, report.failures[:2])
        expected, expected_replays = [], []
        for entry in corpus.entries:
            for k in legal_thresholds(info, entry.value(info.parameter), entry.graph.n):
                cert = info.prover(entry.graph, k)
                records, replays, _ = fresh_runs(scheme, entry, k, [("honest", cert)])
                expected += records
                expected_replays += replays
        assert report.records == tuple(expected), scheme
        assert all(type(r) is TrialRecord for r in report.records)
        assert replayed == expected_replays, scheme
        honest += len(expected)
    assert survivors > 0
    assert one_half_rejected > 0  # an equality certificate with one half dead at init
    assert honest > 0


def test_fuzz_instance_builds_one_verifier_per_certificate(monkeypatch):
    """``fuzz_instance`` builds each certificate's verifier once, whatever
    the number of orders, and writes one record per (certificate, order)."""
    from streamcert import harness
    from streamcert.harness import _fuzz_certificates
    from streamcert.schemes import illegal_thresholds
    from streamcert.stream import SOUNDNESS_ORDERS
    from streamcert.verifiers import SCHEME_VERIFIERS

    built = []

    def counting(cls):
        class Counting(cls):
            def __init__(self, n, k, cert):
                built.append(cert)
                super().__init__(n, k, cert)

        return Counting

    monkeypatch.setattr(
        harness, "SCHEME_VERIFIERS", {s: counting(c) for s, c in SCHEME_VERIFIERS.items()}
    )
    corpus = build_corpus(["paths:3..5", "cycles:4", "gnp:6..7:0.4:2"], seed=29)
    certificates = 0
    for scheme in ("deg_atmost", "mm_atmost", "diam_atleast", "mm_equal"):
        info = SCHEMES[scheme]
        for mode, budget in (("random_bytes", 6), ("bit_flip", 6), ("structured_wrong", 2)):
            policy = FuzzPolicy(mode, budget, seed=4)
            for entry in corpus.entries:
                for k in illegal_thresholds(info, entry.value(info.parameter)):
                    built.clear()
                    records, _ = fuzz_instance(scheme, entry, k, policy)
                    certs = _fuzz_certificates(info, entry, k, policy)
                    assert built == [cert for _, cert in certs], (scheme, mode, entry.name, k)
                    assert [r.cert_id for r in records] == [
                        cert_id for cert_id, _ in certs for _ in SOUNDNESS_ORDERS
                    ]
                    assert [r.order for r in records] == list(SOUNDNESS_ORDERS) * len(certs)
                    certificates += len(certs)
    assert certificates > 0


def test_trial_record_is_an_immutable_tuple_with_a_fixed_line():
    from streamcert.harness import TrialRecord

    assert TrialRecord._fields == (
        "scheme", "graph", "k", "order", "cert_id", "decision", "reason",
        "peak_bits", "cert_bits",
    )
    record = TrialRecord(
        "deg_atmost", "path-4", 2, "shuffle:1", "flip:17", "reject",
        "malformed-certificate", 24, 8,
    )
    with pytest.raises(AttributeError):
        record.decision = "accept"
    assert record.line() == (
        "scheme=deg_atmost graph=path-4 k=2 order=shuffle:1 cert=flip:17 "
        "verdict=reject reason=malformed-certificate peak_bits=24 cert_bits=8"
    )


def _brute_one_edge_variant(info, g, k):
    """Lex search over every graph one edge away from g, with no shortcut."""
    from streamcert.graph import Graph
    from streamcert.oracles import parameter_value

    if info.direction in ("ge", "eq"):
        pairs = [(u, v) for u in range(1, g.n + 1) for v in range(u + 1, g.n + 1)]
        candidates = [Graph(g.n, g.edges + (e,)) for e in pairs if e not in g.edge_set]
    else:
        candidates = [
            Graph(g.n, tuple(e for e in g.edges if e != drop)) for drop in sorted(g.edges)
        ]
    for candidate in candidates:
        if info.legal(parameter_value(candidate, info.parameter), k):
            return candidate
    return None


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_one_edge_variant_skip_agrees_with_exhaustive_search(scheme):
    from streamcert.harness import _one_edge_variant
    from streamcert.oracles import parameter_value

    info = SCHEMES[scheme]
    corpus = build_corpus(
        ["paths:2..5", "cycles:3..5", "cliques:3..4", "stars:4", "empty:3",
         "gnp:5..8:0.4:4"],
        seed=31,
    )
    checked = 0
    for entry in corpus.entries:
        g = entry.graph
        assert g.n <= 8
        value = parameter_value(g, info.parameter)
        for k in range(g.n + 2):
            if info.legal(value, k):
                continue
            got = _one_edge_variant(info, g, k, value)
            assert got == _brute_one_edge_variant(info, g, k), (entry.name, k)
            checked += 1
    assert checked > 0
