"""Certificate container and per-scheme codecs.

A certificate is a scheme-tagged read-only byte payload with a declared
semantic bit count. Byte payloads use fixed-width fields (u8/u32/u64
big-endian, MSB-first bit vectors) for simplicity; the declared
``semantic_bits`` is the information-theoretic size and is what space
accounting reports. It must match the codec's closed-form formula exactly.

Seven codecs are runs of u32 fields, and each is one ``U32Layout`` row: its
head field (none, a count or a colour domain), body length, field range, bit
formula and decoded shape. The row is the codec's decoder and its encoders'
packer, so each formula is written once, in its row. The is/clique/vc node
sets share a row, and the list form of ``deg_atleast`` is a row behind a form
byte. Three codecs keep their own code: ``mm_atmost`` is an n-bit membership
vector; ``deg_atleast`` takes the smaller of its list form and an n-bit
vector; ``mm_equal`` and ``deg_equal`` embed two certificates and declare the
sum of their bits. A u32 field holds 0..2^32 - 1, and an encoder given a
field past that raises FieldPastU32.

Decoders are total over arbitrary byte strings: every structural defect
(truncation, trailing bytes, out-of-range fields, nonzero padding, declared
size off the formula) raises MalformedCertificate, which verifiers turn into
a reject at init. A u32 row is length-checked against its field count before
any field is read, then read in one step and range-checked as a whole, so a
forged count costs O(1), not a read per field.

Each scheme's tag byte and decoder live in one table, ``CODECS``; the
tag/name lookups are derived from it.

File format: 1 tag byte, u64 big-endian semantic_bits, then the payload.
"""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass
from itertools import chain, compress
from typing import Callable

from .meter import ceil_log2, id_bits


class MalformedCertificate(ValueError):
    pass


class FieldPastU32(ValueError):
    """An encoder's field does not fit a u32 (``diam_atleast`` labels an
    unreachable node k + 1, so k >= 2^32 - 1 cannot be encoded)."""


@dataclass(frozen=True)
class CertificateBlob:
    scheme: str
    payload: bytes
    semantic_bits: int


# -- primitive fields ---------------------------------------------------------

#: array typecode of an unsigned 32-bit machine integer, and whether its
#: machine byte order differs from the wire's big-endian one
_U32 = next(code for code in "IL" if array(code).itemsize == 4)
_SWAP = sys.byteorder == "little"


def _pack_bitvector(members: frozenset[int] | set[int], n: int) -> bytes:
    out = bytearray((n + 7) // 8)
    for v in members:
        idx = v - 1
        out[idx >> 3] |= 0x80 >> (idx & 7)
    return bytes(out)


#: each byte's eight bits, most significant first: node 8i + j + 1 is in a
#: bit vector when bit j of its byte i is set
_BYTE_BITS = tuple(
    tuple(byte >> shift & 1 for shift in range(7, -1, -1)) for byte in range(256)
)


def _unpack_bitvector(data: bytes, n: int) -> frozenset[int]:
    if len(data) != (n + 7) // 8:
        raise MalformedCertificate("bit vector has wrong length")
    # padding bits beyond n must be zero (no trailing garbage)
    if n % 8 and data[-1] & ((1 << (8 - n % 8)) - 1):
        raise MalformedCertificate("nonzero padding bits")
    bits = chain.from_iterable(map(_BYTE_BITS.__getitem__, data))
    return frozenset(compress(range(1, n + 1), bits))


# -- u32 field layouts --------------------------------------------------------

@dataclass(frozen=True, slots=True)
class U32Layout:
    """A codec whose payload is a run of u32 fields: ``heads`` head fields
    (0, or 1 for a count or a colour domain; a row without one reads its head
    as 0), then ``body(head, n)`` body fields, each in ``span(head, n, k)``
    unless ``span`` is None. ``bits(head, n, k)`` is the codec formula and
    ``shape(body, head)`` the decoded value.

    Called as ``decode(payload, n, k)``, a layout is its codec's decoder;
    ``blob`` is its encoders' packer.
    """

    heads: int
    body: Callable[[int, int], int]
    span: Callable[[int, int, int], tuple[int, int]] | None
    bits: Callable[[int, int, int], int]
    shape: Callable[[array, int], object]

    def __call__(self, payload: bytes, n: int, k: int):
        start = 4 * self.heads
        # a payload shorter than its head fails the length check: size >= start
        head = int.from_bytes(payload[:start], "big")
        size = start + 4 * self.body(head, n)
        if len(payload) != size:
            raise MalformedCertificate(f"payload of {len(payload)} bytes, layout needs {size}")
        body = array(_U32, payload[start:])
        if _SWAP:
            body.byteswap()
        if self.span is not None and body:
            lo, hi = self.span(head, n, k)
            low, high = min(body), max(body)
            if low < lo or high > hi:
                raise MalformedCertificate(f"field {low if low < lo else high} out of {lo}..{hi}")
        return self.shape(body, head), self.bits(head, n, k)

    def blob(self, scheme: str, fields: list[int], n: int, k: int = 0) -> CertificateBlob:
        """The certificate whose fields, head first, are ``fields``; a field
        outside 0..2^32 - 1 raises FieldPastU32."""
        try:
            packed = array(_U32, fields)
        except OverflowError:
            field = next(f for f in fields if not 0 <= f <= 0xFFFFFFFF)
            raise FieldPastU32(f"field {field} past u32") from None
        if _SWAP:
            packed.byteswap()
        head = fields[0] if self.heads else 0
        return CertificateBlob(scheme, packed.tobytes(), self.bits(head, n, k))


def _per_node(head: int, n: int) -> int:
    return n


def _node_ids(head: int, n: int, k: int) -> tuple[int, int]:
    return 1, n


def _one_indexed(body: array, head: int) -> list[int]:
    return [0, *body]


def _ascending_set(ids: array, count: int) -> frozenset[int]:
    if ids.tolist() != sorted(set(ids)):
        raise MalformedCertificate("subset ids must be strictly ascending")
    return frozenset(ids)


_MM_LIST = U32Layout(  # a count, then its edges as id pairs
    heads=1, body=lambda count, n: 2 * count, span=_node_ids,
    bits=lambda count, n, k: (1 + 2 * count) * id_bits(n),
    shape=lambda ids, count: tuple(zip(ids[::2], ids[1::2])),
)
_MM_COLORING = U32Layout(  # a colour domain, then a colour per node
    # the span refuses every colour of a zero domain; at n = 0 the empty
    # colouring is vacuous, and its verifier accepts it only at k = 0
    heads=1, body=_per_node, span=lambda domain, n, k: (1, domain),
    bits=lambda domain, n, k: n * ceil_log2(max(domain, 1)),
    shape=lambda colors, domain: (domain, [0, *colors]),
)
_PEEL_ORDER = U32Layout(  # an order value per node
    heads=0, body=_per_node, span=_node_ids,
    bits=lambda _, n, k: n * ceil_log2(max(n, 1)), shape=_one_indexed,
)
_DISTANCE_LABELS = U32Layout(  # a label in 0..k+1 per node
    heads=0, body=_per_node, span=lambda _, n, k: (0, k + 1),
    bits=lambda _, n, k: n * ceil_log2(k + 2), shape=_one_indexed,
)
_COLORING = U32Layout(  # a colour per node; its range is the verifier's check
    heads=0, body=_per_node, span=None,
    bits=lambda _, n, k: n * ceil_log2(max(k, 1)), shape=_one_indexed,
)
_NODE_SET = U32Layout(  # a count, then its node ids
    heads=1, body=lambda count, n: count, span=_node_ids,
    bits=lambda count, n, k: (1 + count) * id_bits(n),
    shape=lambda ids, count: tuple(ids),
)
_SUBSET_LIST = U32Layout(  # a count, then its node ids ascending
    heads=1, body=lambda count, n: count, span=_node_ids,
    bits=lambda count, n, k: count * ceil_log2(max(n, 1)), shape=_ascending_set,
)


# -- per-scheme encode/decode -------------------------------------------------

def encode_mm_list(edges, n: int) -> CertificateBlob:
    edges = sorted(tuple(sorted(e)) for e in edges)
    return _MM_LIST.blob("mm_atleast_list", [len(edges), *(v for e in edges for v in e)], n)


def encode_mm_coloring(colors: dict[int, int], domain: int, n: int) -> CertificateBlob:
    fields = [domain, *(colors[v] for v in range(1, n + 1))]
    return _MM_COLORING.blob("mm_atleast_coloring", fields, n)


def encode_tutte_berge(u_set, n: int) -> CertificateBlob:
    return CertificateBlob("mm_atmost", _pack_bitvector(set(u_set), n), n)


def decode_tutte_berge(payload: bytes, n: int, k: int):
    return _unpack_bitvector(payload, n), n


def encode_peel_order(pi: dict[int, int], n: int) -> CertificateBlob:
    return _PEEL_ORDER.blob("deg_atmost", [pi[v] for v in range(1, n + 1)], n)


_CORE_LIST, _CORE_BITS = 0, 1


def encode_core_subset(members, n: int) -> CertificateBlob:
    members = sorted(set(members))
    listed = _SUBSET_LIST.blob("deg_atleast", [len(members), *members], n)
    if listed.semantic_bits < n:
        payload, bits = bytes([_CORE_LIST]) + listed.payload, listed.semantic_bits
    else:
        payload, bits = bytes([_CORE_BITS]) + _pack_bitvector(members, n), n
    return CertificateBlob("deg_atleast", payload, bits)


def decode_core_subset(payload: bytes, n: int, k: int):
    if not payload:
        raise MalformedCertificate("truncated payload")
    form = payload[0]
    if form == _CORE_LIST:
        return _SUBSET_LIST(payload[1:], n, k)
    if form == _CORE_BITS:
        return _unpack_bitvector(payload[1:], n), n
    raise MalformedCertificate(f"unknown subset form {form}")


def encode_distance_labels(labels: dict[int, int], n: int, k: int) -> CertificateBlob:
    return _DISTANCE_LABELS.blob("diam_atleast", [labels[v] for v in range(1, n + 1)], n, k)


def encode_coloring(colors: dict[int, int], n: int, k: int) -> CertificateBlob:
    return _COLORING.blob("coloring_atmost", [colors[v] for v in range(1, n + 1)], n, k)


def encode_node_set(scheme: str, members, n: int) -> CertificateBlob:
    members = sorted(members)
    return _NODE_SET.blob(scheme, [len(members), *members], n)


#: an embedded certificate's header: tag byte, u64 semantic_bits, u32 length
_INNER = struct.Struct(">BQI")


def encode_equality(scheme: str, le_blob: CertificateBlob, ge_blob: CertificateBlob) -> CertificateBlob:
    """Embed the two halves. A half with no codec (a file's ``invalid`` or
    ``unknown:<tag>`` blob) goes under tag 0, which no codec uses, so the
    pair decodes as malformed instead of failing here."""
    payload = b"".join(
        _INNER.pack(CODECS.get(b.scheme, (0,))[0], b.semantic_bits, len(b.payload)) + b.payload
        for b in (le_blob, ge_blob)
    )
    return CertificateBlob(
        scheme, payload, le_blob.semantic_bits + ge_blob.semantic_bits
    )


def decode_equality(payload: bytes, n: int, k: int):
    inner, end = [], 0
    for _ in range(2):
        if len(payload) < end + _INNER.size:
            raise MalformedCertificate("truncated payload")
        tag, bits, length = _INNER.unpack_from(payload, end)
        scheme = _FILE_SCHEMES[tag]
        if scheme not in CODECS:
            raise MalformedCertificate(f"unknown inner scheme tag {tag}")
        start, end = end + _INNER.size, end + _INNER.size + length
        if end > len(payload):
            raise MalformedCertificate("truncated payload")
        inner.append(CertificateBlob(scheme, payload[start:end], bits))
    if end != len(payload):
        raise MalformedCertificate("trailing bytes in payload")
    return tuple(inner), inner[0].semantic_bits + inner[1].semantic_bits


#: the wire format's one per-scheme listing: scheme -> (tag byte, decoder)
CODECS: dict[str, tuple[int, Callable]] = {
    "mm_atleast_list": (1, _MM_LIST),
    "mm_atleast_coloring": (2, _MM_COLORING),
    "mm_atmost": (3, decode_tutte_berge),
    "deg_atmost": (4, _PEEL_ORDER),
    "deg_atleast": (5, decode_core_subset),
    "diam_atleast": (6, _DISTANCE_LABELS),
    "coloring_atmost": (7, _COLORING),
    "is_atleast": (8, _NODE_SET),
    "clique_atleast": (9, _NODE_SET),
    "vc_atmost": (10, _NODE_SET),
    "mm_equal": (11, decode_equality),
    "deg_equal": (12, decode_equality),
}

#: the file format names every tag byte, so that reading and writing a
#: certificate file round-trip any byte string
_FILE_SCHEMES = {tag: f"unknown:{tag}" for tag in range(256)}
_FILE_SCHEMES.update((tag, name) for name, (tag, _) in CODECS.items())
_FILE_TAGS = {name: tag for tag, name in _FILE_SCHEMES.items()}
_INVALID = "invalid"  # a file too short to hold the header


def decode_blob(blob: CertificateBlob, scheme: str, n: int, k: int):
    """Decode and fully validate a blob against a scheme's codec.

    Raises MalformedCertificate on a wrong tag, structural defects, or a
    declared semantic size off the codec formula, the one size rule: the
    bits may exceed the payload's (``coloring_atmost`` at k > 2^32).
    """
    if blob.scheme != scheme:
        raise MalformedCertificate(
            f"certificate tagged {blob.scheme!r}, expected {scheme!r}"
        )
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
