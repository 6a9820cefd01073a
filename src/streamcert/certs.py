"""Certificate container and per-scheme codecs.

A certificate is a scheme-tagged read-only byte payload with a declared
semantic bit count. Byte payloads use fixed-width fields (u8/u32/u64
big-endian, MSB-first bit vectors) for simplicity; the declared
``semantic_bits`` is the information-theoretic size and is what space
accounting reports. Declared sizes must match the scheme's closed-form
formula exactly, with L = ceil(log2(n+1)):

  mm_atleast_list      (1 + 2*count) * L
  mm_atleast_coloring  n * ceil(log2(C))      C = declared color-domain size
  mm_atmost            n                      (membership bit vector)
  deg_atmost           n * ceil(log2(n))      (one order value per node)
  deg_atleast          min over forms: list = count * ceil(log2(n)), bits = n
  diam_atleast         n * ceil(log2(k+2))    (labels in 0..k+1)
  coloring_atmost      n * ceil(log2(k))      (colors in 1..k)
  is/clique/vc         (1 + count) * L        (count then node ids)
  mm_equal, deg_equal  sum of the two embedded certificates

Decoders are total over arbitrary byte strings: every structural defect
(truncation, trailing bytes, out-of-range fields, nonzero padding, declared
size off the formula) raises MalformedCertificate, which verifiers turn into
a reject at init. A run of fixed-width u32 fields is length-checked against
its field count before any field is read, then read in one step and
range-checked as a whole, so a forged count costs O(1), not a read per field.

Each scheme's tag byte and decoder live in one table, ``CODECS``; the
tag/name lookups are derived from it.

File format: 1 tag byte, u64 big-endian semantic_bits, then the payload.
"""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass
from typing import Callable

from .meter import ceil_log2, id_bits


class MalformedCertificate(ValueError):
    pass


@dataclass(frozen=True)
class CertificateBlob:
    scheme: str
    payload: bytes
    semantic_bits: int


# -- primitive readers --------------------------------------------------------

#: array typecode of an unsigned 32-bit machine integer
_U32 = next(code for code in "IL" if array(code).itemsize == 4)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self._take(8), "big")

    def raw(self, nbytes: int) -> bytes:
        return self._take(nbytes)

    def u32s(self, count: int) -> array:
        """The ``count`` u32 fields that must make up the rest of the payload,
        read in one step once the length is known to match."""
        end = self.off + 4 * count
        if end > len(self.data):
            raise MalformedCertificate("truncated payload")
        if end < len(self.data):
            raise MalformedCertificate("trailing bytes in payload")
        fields = array(_U32, self.data[self.off :])
        if sys.byteorder == "little":
            fields.byteswap()
        self.off = end
        return fields

    def _take(self, nbytes: int) -> bytes:
        if self.off + nbytes > len(self.data):
            raise MalformedCertificate("truncated payload")
        out = self.data[self.off : self.off + nbytes]
        self.off += nbytes
        return out

    def done(self) -> None:
        if self.off != len(self.data):
            raise MalformedCertificate("trailing bytes in payload")


def _pack_bitvector(members: frozenset[int] | set[int], n: int) -> bytes:
    out = bytearray((n + 7) // 8)
    for v in members:
        idx = v - 1
        out[idx >> 3] |= 0x80 >> (idx & 7)
    return bytes(out)


def _unpack_bitvector(data: bytes, n: int) -> frozenset[int]:
    if len(data) != (n + 7) // 8:
        raise MalformedCertificate("bit vector has wrong length")
    members = set()
    for idx in range(n):
        if data[idx >> 3] & (0x80 >> (idx & 7)):
            members.add(idx + 1)
    # padding bits beyond n must be zero (no trailing garbage)
    if n % 8:
        if data[-1] & ((1 << (8 - n % 8)) - 1):
            raise MalformedCertificate("nonzero padding bits")
    return frozenset(members)


def _check_range(fields: array, lo: int, hi: int, what: str) -> None:
    if fields:
        low, high = min(fields), max(fields)
        if low < lo or high > hi:
            bad = low if low < lo else high
            raise MalformedCertificate(f"{what} {bad} out of {lo}..{hi}")


# -- per-scheme encode/decode -------------------------------------------------

def encode_mm_list(edges, n: int) -> CertificateBlob:
    edges = sorted(tuple(sorted(e)) for e in edges)
    payload = struct.pack(">I", len(edges)) + b"".join(
        struct.pack(">II", u, v) for u, v in edges
    )
    bits = (1 + 2 * len(edges)) * id_bits(n)
    return CertificateBlob("mm_atleast_list", payload, bits)


def decode_mm_list(payload: bytes, n: int, k: int):
    r = _Reader(payload)
    count = r.u32()
    ids = r.u32s(2 * count)
    _check_range(ids, 1, n, "node id")
    pairs = iter(ids)
    return tuple(zip(pairs, pairs)), (1 + 2 * count) * id_bits(n)


def encode_mm_coloring(colors: dict[int, int], domain: int, n: int) -> CertificateBlob:
    payload = struct.pack(">I", domain) + b"".join(
        struct.pack(">I", colors[v]) for v in range(1, n + 1)
    )
    return CertificateBlob(
        "mm_atleast_coloring", payload, n * ceil_log2(max(domain, 1))
    )


def decode_mm_coloring(payload: bytes, n: int, k: int):
    r = _Reader(payload)
    domain = r.u32()
    if domain < 1:
        raise MalformedCertificate("color domain must be >= 1")
    colors = r.u32s(n)
    _check_range(colors, 1, domain, "color")
    return (domain, [0, *colors]), n * ceil_log2(domain)  # 1-indexed


def encode_tutte_berge(u_set, n: int) -> CertificateBlob:
    return CertificateBlob("mm_atmost", _pack_bitvector(set(u_set), n), n)


def decode_tutte_berge(payload: bytes, n: int, k: int):
    return _unpack_bitvector(payload, n), n


def encode_peel_order(pi: dict[int, int], n: int) -> CertificateBlob:
    payload = b"".join(struct.pack(">I", pi[v]) for v in range(1, n + 1))
    return CertificateBlob("deg_atmost", payload, n * ceil_log2(max(n, 1)))


def decode_peel_order(payload: bytes, n: int, k: int):
    pi = _Reader(payload).u32s(n)
    _check_range(pi, 1, n, "order value")
    return [0, *pi], n * ceil_log2(max(n, 1))


_CORE_LIST, _CORE_BITS = 0, 1


def core_subset_list_bits(count: int, n: int) -> int:
    return count * ceil_log2(max(n, 1))


def encode_core_subset(members, n: int) -> CertificateBlob:
    members = sorted(set(members))
    if core_subset_list_bits(len(members), n) < n:
        payload = bytes([_CORE_LIST]) + struct.pack(">I", len(members)) + b"".join(
            struct.pack(">I", v) for v in members
        )
        bits = core_subset_list_bits(len(members), n)
    else:
        payload = bytes([_CORE_BITS]) + _pack_bitvector(set(members), n)
        bits = n
    return CertificateBlob("deg_atleast", payload, bits)


def decode_core_subset(payload: bytes, n: int, k: int):
    r = _Reader(payload)
    form = r.u8()
    if form == _CORE_LIST:
        count = r.u32()
        members = r.u32s(count)
        _check_range(members, 1, n, "node id")
        if members.tolist() != sorted(set(members)):
            raise MalformedCertificate("subset ids must be strictly ascending")
        return frozenset(members), core_subset_list_bits(count, n)
    if form == _CORE_BITS:
        members = _unpack_bitvector(r.raw((n + 7) // 8), n)
        r.done()
        return members, n
    raise MalformedCertificate(f"unknown subset form {form}")


def encode_distance_labels(labels: dict[int, int], n: int, k: int) -> CertificateBlob:
    payload = b"".join(struct.pack(">I", labels[v]) for v in range(1, n + 1))
    return CertificateBlob("diam_atleast", payload, n * ceil_log2(k + 2))


def decode_distance_labels(payload: bytes, n: int, k: int):
    labels = _Reader(payload).u32s(n)
    _check_range(labels, 0, k + 1, "label")
    return [0, *labels], n * ceil_log2(k + 2)


def encode_coloring(colors: dict[int, int], n: int, k: int) -> CertificateBlob:
    payload = b"".join(struct.pack(">I", colors[v]) for v in range(1, n + 1))
    return CertificateBlob("coloring_atmost", payload, n * ceil_log2(max(k, 1)))


def decode_coloring(payload: bytes, n: int, k: int):
    # color range is the verifier's check (distinct reject reason)
    colors = _Reader(payload).u32s(n)
    return [0, *colors], n * ceil_log2(max(k, 1))


def encode_node_set(scheme: str, members, n: int) -> CertificateBlob:
    members = sorted(members)
    payload = struct.pack(">I", len(members)) + b"".join(
        struct.pack(">I", v) for v in members
    )
    return CertificateBlob(scheme, payload, (1 + len(members)) * id_bits(n))


def decode_node_set(payload: bytes, n: int, k: int):
    r = _Reader(payload)
    count = r.u32()
    members = r.u32s(count)
    _check_range(members, 1, n, "node id")
    return tuple(members), (1 + count) * id_bits(n)


def encode_equality(scheme: str, le_blob: CertificateBlob, ge_blob: CertificateBlob) -> CertificateBlob:
    payload = b"".join(
        bytes([SCHEME_TAGS[b.scheme]])
        + struct.pack(">QI", b.semantic_bits, len(b.payload))
        + b.payload
        for b in (le_blob, ge_blob)
    )
    return CertificateBlob(
        scheme, payload, le_blob.semantic_bits + ge_blob.semantic_bits
    )


def decode_equality(payload: bytes, n: int, k: int):
    r = _Reader(payload)
    inner = []
    for _ in range(2):
        tag = r.u8()
        if tag not in TAG_SCHEMES:
            raise MalformedCertificate(f"unknown inner scheme tag {tag}")
        bits = r.u64()
        length = r.u32()
        inner.append(CertificateBlob(TAG_SCHEMES[tag], r.raw(length), bits))
    r.done()
    return tuple(inner), inner[0].semantic_bits + inner[1].semantic_bits


#: the wire format's one per-scheme listing: scheme -> (tag byte, decoder)
CODECS: dict[str, tuple[int, Callable]] = {
    "mm_atleast_list": (1, decode_mm_list),
    "mm_atleast_coloring": (2, decode_mm_coloring),
    "mm_atmost": (3, decode_tutte_berge),
    "deg_atmost": (4, decode_peel_order),
    "deg_atleast": (5, decode_core_subset),
    "diam_atleast": (6, decode_distance_labels),
    "coloring_atmost": (7, decode_coloring),
    "is_atleast": (8, decode_node_set),
    "clique_atleast": (9, decode_node_set),
    "vc_atmost": (10, decode_node_set),
    "mm_equal": (11, decode_equality),
    "deg_equal": (12, decode_equality),
}
SCHEME_TAGS: dict[str, int] = {name: tag for name, (tag, _) in CODECS.items()}
TAG_SCHEMES: dict[int, str] = {tag: name for name, tag in SCHEME_TAGS.items()}

#: the file format names every tag byte, so that reading and writing a
#: certificate file round-trip any byte string
_FILE_SCHEMES = {tag: TAG_SCHEMES.get(tag, f"unknown:{tag}") for tag in range(256)}
_FILE_TAGS = {name: tag for tag, name in _FILE_SCHEMES.items()}
_INVALID = "invalid"  # a file too short to hold the header


def decode_blob(blob: CertificateBlob, scheme: str, n: int, k: int):
    """Decode and fully validate a blob against a scheme's codec.

    Raises MalformedCertificate on a wrong tag, structural defects, or a
    declared semantic size off the codec formula.
    """
    if blob.scheme != scheme:
        raise MalformedCertificate(
            f"certificate tagged {blob.scheme!r}, expected {scheme!r}"
        )
    if blob.semantic_bits > 8 * len(blob.payload):
        raise MalformedCertificate("declared bits exceed payload capacity")
    _, decode = CODECS[scheme]
    obj, expected_bits = decode(blob.payload, n, k)
    if blob.semantic_bits != expected_bits:
        raise MalformedCertificate(
            f"declared {blob.semantic_bits} bits, codec formula gives {expected_bits}"
        )
    return obj


# -- certificate files --------------------------------------------------------

def serialize_certificate(blob: CertificateBlob) -> bytes:
    if blob.scheme == _INVALID:
        return blob.payload
    tag = _FILE_TAGS[blob.scheme]
    return bytes([tag]) + struct.pack(">Q", blob.semantic_bits) + blob.payload


def deserialize_certificate(data: bytes) -> CertificateBlob:
    """Total parser: any byte string yields a blob (possibly one that cannot
    verify), and ``serialize_certificate`` gives the same bytes back."""
    if len(data) < 9:
        return CertificateBlob(_INVALID, data, 0)
    scheme = _FILE_SCHEMES[data[0]]
    bits = int.from_bytes(data[1:9], "big")
    return CertificateBlob(scheme, data[9:], bits)
