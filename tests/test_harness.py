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
from streamcert.schemes import BASE_SCHEMES

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
    from streamcert.harness import SCALING_MIN_N, _scaling_instance
    from streamcert.oracles import parameter_value
    from streamcert.schemes import SCHEMES

    assert set(SCALING_MIN_N) == set(SCHEMES)
    for scheme, low in SCALING_MIN_N.items():
        info = SCHEMES[scheme]
        for n in range(low, low + 4):
            g, k, cert, _ = _scaling_instance(scheme, n)
            validate_graph(g)
            decode_blob(cert, scheme, n, k)  # node ids in 1..n
            assert info.legal(parameter_value(g, info.parameter), k), (scheme, n)
        report = run_space_scaling(scheme, [low])
        assert report.ok, (scheme, report.lines())
        with pytest.raises(ValueError):
            _scaling_instance(scheme, low - 1)


def test_scaling_slope_is_sublinear_for_log_space_schemes():
    report = run_space_scaling("diam_atleast", [256, 1024, 4096, 16384])
    assert report.loglog_slope < 0.5  # peak bits grow like log n, not n


def test_scaling_report_lines():
    report = run_space_scaling("vc_atmost", [64, 128])
    lines = report.lines()
    assert len(lines) == 3 and lines[-1].startswith("scheme=vc_atmost loglog_slope=")


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
