"""Certificate codecs: roundtrips, strictness against garbage, file format."""

from __future__ import annotations

import pytest

from streamcert.certs import (
    CODECS,
    CertificateBlob,
    MalformedCertificate,
    decode_blob,
    deserialize_certificate,
    encode_core_subset,
    encode_distance_labels,
    encode_equality,
    encode_mm_coloring,
    encode_mm_list,
    encode_node_set,
    encode_peel_order,
    encode_tutte_berge,
    serialize_certificate,
)
from streamcert.meter import ceil_log2, id_bits


def test_mm_list_roundtrip():
    blob = encode_mm_list([(3, 4), (1, 2)], n=6)
    assert blob.semantic_bits == 5 * id_bits(6)
    edges = decode_blob(blob, "mm_atleast_list", 6, 2)
    assert edges == ((1, 2), (3, 4))  # canonical order


def test_mm_list_rejects_out_of_range():
    blob = encode_mm_list([(1, 9)], n=6)
    with pytest.raises(MalformedCertificate):
        decode_blob(blob, "mm_atleast_list", 6, 1)


def test_trailing_garbage_rejected():
    blob = encode_mm_list([(1, 2)], n=4)
    padded = CertificateBlob(blob.scheme, blob.payload + b"\x00", blob.semantic_bits)
    with pytest.raises(MalformedCertificate):
        decode_blob(padded, "mm_atleast_list", 4, 1)


def test_truncation_rejected():
    blob = encode_peel_order({1: 1, 2: 2, 3: 3}, 3)
    cut = CertificateBlob(blob.scheme, blob.payload[:-1], blob.semantic_bits)
    with pytest.raises(MalformedCertificate):
        decode_blob(cut, "deg_atmost", 3, 1)


def test_declared_bits_must_match_formula():
    blob = encode_tutte_berge({1}, 8)
    lying = CertificateBlob(blob.scheme, blob.payload, blob.semantic_bits + 1)
    with pytest.raises(MalformedCertificate):
        decode_blob(lying, "mm_atmost", 8, 1)


def test_declared_bits_capped_by_payload():
    blob = CertificateBlob("mm_atmost", b"\x00", 9)
    with pytest.raises(MalformedCertificate):
        decode_blob(blob, "mm_atmost", 8, 1)


def test_wrong_tag_rejected():
    blob = encode_tutte_berge({1}, 8)
    with pytest.raises(MalformedCertificate):
        decode_blob(blob, "deg_atmost", 8, 1)


def test_bitvector_padding_must_be_zero():
    blob = encode_tutte_berge({1}, 4)  # one byte, low nibble is padding
    dirty = CertificateBlob(blob.scheme, bytes([blob.payload[0] | 0x01]), 4)
    with pytest.raises(MalformedCertificate):
        decode_blob(dirty, "mm_atmost", 4, 1)


def test_tutte_berge_bits_exactly_n():
    for n in (1, 7, 8, 9, 64):
        assert encode_tutte_berge({1}, n).semantic_bits == n


def test_core_subset_picks_smaller_form():
    # 2 members on 64 nodes: list costs 2*6 = 12 < 64
    small = encode_core_subset([5, 9], 64)
    assert small.semantic_bits == 2 * ceil_log2(64)
    # all members: bit vector wins
    full = encode_core_subset(range(1, 65), 64)
    assert full.semantic_bits == 64
    for blob, n in ((small, 64), (full, 64)):
        members = decode_blob(blob, "deg_atleast", n, 2)
        assert isinstance(members, frozenset)


def test_core_subset_list_must_ascend():
    good = encode_core_subset([2, 4], 32)
    # corrupt: duplicate entry
    bad_payload = good.payload[:5] + good.payload[5:9] + good.payload[5:9]
    blob = CertificateBlob("deg_atleast", bad_payload, good.semantic_bits)
    with pytest.raises(MalformedCertificate):
        decode_blob(blob, "deg_atleast", 32, 2)


def test_distance_label_bits_formula():
    labels = {v: min(v - 1, 4) for v in range(1, 9)}
    blob = encode_distance_labels(labels, 8, 3)
    assert blob.semantic_bits == 8 * ceil_log2(5)
    with pytest.raises(MalformedCertificate):
        # label above the k+1 cap
        decode_blob(blob, "diam_atleast", 8, 2)


def test_mm_coloring_domain_checked():
    blob = encode_mm_coloring({1: 1, 2: 1}, 1, 2)
    assert blob.semantic_bits == 0  # single-color domain carries no information
    assert decode_blob(blob, "mm_atleast_coloring", 2, 1) == (1, [0, 1, 1])
    wild = CertificateBlob(blob.scheme, blob.payload[:4] + b"\x00\x00\x00\x07" * 2, 0)
    with pytest.raises(MalformedCertificate):
        decode_blob(wild, "mm_atleast_coloring", 2, 1)


def test_node_set_roundtrip_and_bits():
    blob = encode_node_set("is_atleast", [4, 2], 9)
    assert blob.semantic_bits == 3 * id_bits(9)
    assert decode_blob(blob, "is_atleast", 9, 2) == (2, 4)


def test_equality_container_roundtrip():
    le = encode_tutte_berge({1}, 4)
    ge = encode_mm_list([(1, 2)], 4)
    blob = encode_equality("mm_equal", le, ge)
    assert blob.semantic_bits == le.semantic_bits + ge.semantic_bits
    inner_le, inner_ge = decode_blob(blob, "mm_equal", 4, 1)
    assert inner_le == le and inner_ge == ge


def test_file_format_roundtrip():
    blob = encode_node_set("vc_atmost", [2], 5)
    raw = serialize_certificate(blob)
    assert raw[0] == CODECS["vc_atmost"][0]
    assert deserialize_certificate(raw) == blob


def test_file_format_total_on_garbage():
    assert deserialize_certificate(b"").scheme == "invalid"
    assert deserialize_certificate(b"\x07").scheme == "invalid"
    junk = deserialize_certificate(bytes([250]) + b"\x00" * 8 + b"xyz")
    assert junk.scheme == "unknown:250"


# -- property-based roundtrips -----------------------------------------------------

from hypothesis import given, settings, strategies as st

from streamcert.certs import encode_coloring


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_roundtrip_properties(data):
    n = data.draw(st.integers(min_value=1, max_value=40), label="n")
    nodes = st.integers(min_value=1, max_value=n)

    edges = data.draw(
        st.lists(st.tuples(nodes, nodes).filter(lambda e: e[0] != e[1]),
                 max_size=n // 2, unique_by=lambda e: frozenset(e)),
        label="edges",
    )
    seen = set()
    matching = []
    for u, v in edges:
        if u not in seen and v not in seen:
            matching.append((u, v))
            seen.update((u, v))
    blob = encode_mm_list(matching, n)
    assert decode_blob(blob, "mm_atleast_list", n, len(matching)) == tuple(
        sorted(tuple(sorted(e)) for e in matching)
    )

    members = data.draw(st.sets(nodes), label="members")
    blob = encode_core_subset(members, n)
    assert decode_blob(blob, "deg_atleast", n, 2) == frozenset(members)
    blob = encode_tutte_berge(members, n)
    assert decode_blob(blob, "mm_atmost", n, 1) == frozenset(members)
    blob = encode_node_set("vc_atmost", members, n)
    assert set(decode_blob(blob, "vc_atmost", n, len(members))) == members

    k = data.draw(st.integers(min_value=1, max_value=12), label="k")
    labels = {v: data.draw(st.integers(min_value=0, max_value=k + 1)) for v in range(1, n + 1)}
    blob = encode_distance_labels(labels, n, k)
    assert decode_blob(blob, "diam_atleast", n, k)[1:] == [labels[v] for v in range(1, n + 1)]

    colors = {v: data.draw(st.integers(min_value=1, max_value=k)) for v in range(1, n + 1)}
    blob = encode_coloring(colors, n, k)
    assert decode_blob(blob, "coloring_atmost", n, k)[1:] == [colors[v] for v in range(1, n + 1)]

    domain = data.draw(st.integers(min_value=1, max_value=12), label="domain")
    shades = [data.draw(st.integers(min_value=1, max_value=domain)) for _ in range(n)]
    blob = encode_mm_coloring(dict(enumerate(shades, start=1)), domain, n)
    assert decode_blob(blob, "mm_atleast_coloring", n, k) == (domain, [0, *shades])

    perm = list(range(1, n + 1))
    data.draw(st.randoms(use_true_random=False), label="rng").shuffle(perm)
    pi = dict(enumerate(perm, start=1))
    blob = encode_peel_order(pi, n)
    assert decode_blob(blob, "deg_atmost", n, k)[1:] == perm

    le, ge = encode_peel_order(pi, n), encode_core_subset(members, n)
    blob = encode_equality("deg_equal", le, ge)
    assert blob.semantic_bits == le.semantic_bits + ge.semantic_bits
    inner_le, inner_ge = decode_blob(blob, "deg_equal", n, k)
    assert decode_blob(inner_le, "deg_atmost", n, k)[1:] == perm
    assert decode_blob(inner_ge, "deg_atleast", n, k) == frozenset(members)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=48))
def test_file_roundtrip_is_total(data):
    # unknown tags and headerless files included: a BREACH line can print any blob
    assert serialize_certificate(deserialize_certificate(data)) == data


#: sha256 of every honest certificate over PINNED_CORPUS, recorded before the
#: scheme tables were merged; a mismatch means some certificate's bytes changed
PINNED_CORPUS = ("paths:2..7", "cycles:3..7", "cliques:2..6", "stars:3..7",
                 "trees:4..10:6", "gnp:6..10:0.4:6", "gadgets")
PINNED_SHA256 = "e6a95e8f33a1d10bec611eb6968ef6529e77666c9257736a9deb6f953421c519"


def test_honest_certificate_bytes_pinned():
    import hashlib

    from streamcert.harness import build_corpus
    from streamcert.schemes import SCHEMES, legal_thresholds

    corpus = build_corpus(PINNED_CORPUS, 11)
    digest = hashlib.sha256()
    for name, info in SCHEMES.items():
        for entry in corpus.entries:
            value = entry.value(info.parameter)
            for k in legal_thresholds(info, value, entry.graph.n):
                raw = serialize_certificate(info.prover(entry.graph, k)).hex()
                digest.update(f"{name} {entry.name} k={k} {raw}\n".encode())
    assert digest.hexdigest() == PINNED_SHA256


# -- decoder outcomes pinned -------------------------------------------------------

#: sha256 of every codec's outcome (malformed, or the decoded value and its
#: bit count) on the payloads of ``_pinned_payloads``, recorded with the
#: field-by-field decoders; a mismatch means a decoder accepts a different set
#: of payloads or decodes one to a different value
PINNED_DECODE_SHA256 = "8176618b5e8194f93d7774223c02c9463738b6cca556c4d729ee60bef6a3033e"


def _canonical(value) -> str:
    """A repr that fixes the decoded types and does not depend on set order."""
    if isinstance(value, (frozenset, set)):
        return f"{type(value).__name__}{sorted(value)!r}"
    if isinstance(value, (tuple, list)):
        inner = ",".join(_canonical(x) for x in value)
        return f"{type(value).__name__}[{inner}]"
    return f"{type(value).__name__}:{value!r}"


def _pinned_payloads():
    """(scheme, n, k, payload) over a seeded mix: honest certificates and their
    bit flips, truncations, +-4-byte lengths, u32 fields set to boundary
    values or 0xFFFFFFFF, swapped or doubled neighbouring fields, and random
    bytes."""
    import random

    from streamcert.harness import build_corpus
    from streamcert.schemes import SCHEMES, legal_thresholds

    rng = random.Random(20260)
    corpus = build_corpus(("paths:2..6", "cycles:3..6", "stars:3..5", "gnp:6..9:0.4:4"), 5)
    for name, info in SCHEMES.items():
        for entry in corpus.entries:
            n = entry.graph.n
            for k in legal_thresholds(info, entry.value(info.parameter), n):
                honest = info.prover(entry.graph, k).payload
                yield name, n, k, honest
                for _ in range(10):
                    flipped = bytearray(honest)
                    if flipped:
                        pos = rng.randrange(8 * len(flipped))
                        flipped[pos // 8] ^= 0x80 >> (pos % 8)
                    yield name, n, k, bytes(flipped)
                for cut in {0, 1, len(honest) // 2, max(len(honest) - 1, 0)}:
                    yield name, n, k, honest[:cut]
                yield name, n, k, honest + rng.randbytes(4)
                yield name, n, k, honest[:-4]
                for off in (0, 1):
                    yield name, n, k, honest[:off] + b"\xff\xff\xff\xff" + honest[off + 4:]
                for value in (0, 1, k, k + 1, k + 2, n, n + 1, 0xFFFFFFFF):
                    if len(honest) >= 4:
                        off = rng.randrange(len(honest) - 3)
                        field = value.to_bytes(4, "big")
                        yield name, n, k, honest[:off] + field + honest[off + 4:]
                if len(honest) >= 8:  # two adjacent fields swapped, or one doubled
                    head = len(honest) % 4  # the subset form byte, if any
                    off = head + 4 * rng.randrange((len(honest) - head) // 4 - 1)
                    a, b = honest[off:off + 4], honest[off + 4:off + 8]
                    yield name, n, k, honest[:off] + b + a + honest[off + 8:]
                    yield name, n, k, honest[:off] + a + a + honest[off + 8:]
                yield name, n, k, rng.randbytes(len(honest))
                for _ in range(4):
                    yield name, n, k, rng.randbytes(rng.randrange(2 * len(honest) + 16))
        # small fields, half of them sorted, in the three layouts: a count and
        # its ids, one field per node, a color domain and one field per node
        for _ in range(60):
            n, k, count = rng.randrange(1, 10), rng.randrange(0, 5), rng.randrange(0, 5)
            width = 2 * count if name == "mm_atleast_list" else count
            for header, size in (([count], width), ([], n), ([rng.randrange(0, 4)], n)):
                fields = [rng.randrange(0, n + 2) for _ in range(size)]
                if rng.random() < 0.5:
                    fields.sort()
                body = b"".join(x.to_bytes(4, "big") for x in header + fields)
                yield name, n, k, (b"\x00" if name == "deg_atleast" else b"") + body


def test_decoder_outcomes_pinned():
    import hashlib

    digest = hashlib.sha256()
    count = 0
    for name, n, k, payload in _pinned_payloads():
        _, decode = CODECS[name]
        try:
            outcome = _canonical(decode(payload, n, k))
        except MalformedCertificate:
            outcome = "malformed"
        digest.update(f"{name} n={n} k={k} {payload.hex()} {outcome}\n".encode())
        count += 1
    assert count > 10_000
    assert digest.hexdigest() == PINNED_DECODE_SHA256
