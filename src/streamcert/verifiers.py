"""Space-metered one-pass streaming verifiers, one per scheme.

Shared run contract: every reject goes through ``reject``, which sets a
sticky reason. The constructor validates certificate decodability and may
reject; ``feed``, the only way to push stream items, hands them to the
class's ``_consume``, one loop over the items that returns at the first
reject, and passes nothing when the verifier rejected at init, so
``run_verifier`` streams nothing to such a verifier; ``feed`` may be called
again with the items that follow, since each ``_consume`` writes its state
back. ``finalize`` runs the class's ``_finalize`` end check, which rejects
through ``reject`` too, when nothing rejected before it, and then returns
the one Verdict of the reason, the same one on every call and for every
verifier that rejects for that reason. Rejection is
sticky, so the items a rejected verifier skips cannot change its verdict.
A verifier that rejects at init has read no item, so its verdict and peak
depend on the certificate, n and k alone, never on the stream or its order.
A certificate that fails to decode is rejected as ``malformed-certificate``
at the scratch peak by every class. ``init_verdict`` gives every init
reject, (reason, peak), and builds no verifier for such a certificate.
The certificate is random-access read-only memory and is never charged to
the meter; decoded views of it held by the Python object are caches over
that read-only memory, not verifier state.

Stream promise: the items are the edges of a simple graph on 1..n, each
exactly once, with no self-loops. The verifiers do not check it, and a
repeated edge cannot be told apart from a new one in O(log n) space. A
crossed-certificate search (every graph on n <= 4 streamed with one edge
repeated, against the honest certificates of the graphs legal at k and every
node subset) finds a false claim that passes in these schemes and in no
other: ``mm_atleast_list`` and ``clique_atleast`` (an edge counted twice),
``deg_atleast`` (both counters stepped twice), and ``mm_equal`` and
``deg_equal`` through those halves. In the others a repeat changes nothing
or only moves toward a reject. The counters of ``mm_atleast_list``,
``clique_atleast`` and ``deg_atmost`` stop at k, k(k-1)/2 and k: a hit past
that rejects at once, with the reason the end check would give, so no count
outgrows its width.

Every verifier registers a fixed scratch allowance (8 registers of
ceil(log2(n+2)) bits, for loop indices and edge endpoints) plus its declared
state components. Each verifier class is the record of its scheme's checking
side: the ``space_bound(n, k)`` classmethod, next to the components the class
registers, gives the closed-form ceiling its peak must stay under.

A new scheme touches four places, one per layer:
  1. ``certs.CODECS``: its tag byte and decoder (plus an ``encode_*``); a
     codec of u32 fields is one ``certs.U32Layout`` row, which holds its bit
     formula and serves as its decoder and its encoder's packer;
  2. its verifier class here, which registers in ``SCHEME_VERIFIERS`` by
     setting ``scheme`` (``_setup`` from the decoded certificate, the
     ``_consume`` edge loop, and the ``_finalize`` end check if it has one,
     each rejecting only through ``reject``, since ``finalize`` builds the
     one Verdict), with ``space_bound`` overridden when the scheme registers
     more than the shared allowance;
  3. ``schemes.SCHEMES``: its parameter, direction and prover;
  4. ``harness.SCALING_FAMILIES``: its scaling family's row, the smallest
     legal n and a map from n to a graph, a k and the expected certificate
     bits; the prover builds the certificate, except for an NP scheme, whose
     row adds a closed-form witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .certs import CertificateBlob, MalformedCertificate, decode_blob
from .meter import SpaceMeter, SpaceReport, ceil_log2
from .stream import EdgeStream

# reject reason codes (diagnostic only; never part of the accept decision)
R_MALFORMED = "malformed-certificate"
R_CERT_SIZE = "cert-size-mismatch"
R_NOT_MATCHING = "cert-not-matching"
R_MISSING_EDGE = "missing-cert-edge"
R_FLAG_CONFLICT = "flag-conflict"
R_FEW_MONO = "too-few-monochromatic"
R_TUTTE_BERGE = "tutte-berge-violated"
R_NOT_PERMUTATION = "not-a-permutation"
R_COUNTER_OVER = "counter-exceeded"
R_COUNTER_SHORT = "counter-short"
R_EMPTY_SUBSET = "empty-subset"
R_NO_ANCHOR = "no-anchor"
R_SHORTCUT = "shortcut"
R_MONO_EDGE = "monochromatic-edge"
R_COLOR_RANGE = "color-out-of-range"
R_DUPLICATE_NODE = "duplicate-node"
R_WRONG_SIZE = "wrong-set-size"
R_EDGE_IN_SET = "edge-inside-set"
R_CLIQUE_COUNT = "clique-count-mismatch"
R_UNCOVERED = "uncovered-edge"
R_OK = "ok"


@dataclass(frozen=True)
class Verdict:
    decision: str  # "accept" | "reject"
    reason: str

    @property
    def accepted(self) -> bool:
        return self.decision == "accept"


ACCEPT = Verdict("accept", R_OK)


@cache
def scratch_bits(n: int) -> int:
    return 8 * ceil_log2(n + 2)


class StreamingVerifier:
    """Base class: sticky rejection, scratch registration, cert decoding."""

    scheme = ""

    def __init__(self, n: int, k: int, cert: CertificateBlob):
        self.n = n
        self.k = k
        self.meter = SpaceMeter()
        self.meter.register("scratch", scratch_bits(n))
        self._reject_reason: str | None = None
        self._verdict: Verdict | None = None
        try:
            decoded = decode_blob(cert, self.scheme, n, k)
        except MalformedCertificate:
            return self.reject(R_MALFORMED)
        self._setup(decoded)

    def _setup(self, decoded) -> None:
        raise NotImplementedError

    def _consume(self, edges) -> None:
        """The edge loop: read ``edges`` in order, with the state held in
        locals and written back at the end, and return at the first reject,
        so no item after it is read."""
        raise NotImplementedError

    def _finalize(self) -> None:
        """The end-of-stream check, run once and only when nothing rejected
        before it: a failed check calls ``reject``."""

    @property
    def rejected(self) -> bool:
        """Whether a reject is already set (sticky: it stays set)."""
        return self._reject_reason is not None

    def reject(self, reason: str) -> None:
        if self._reject_reason is None:
            self._reject_reason = reason

    def feed(self, edges) -> None:
        """Consume stream items in order, up to the first reject."""
        if self._reject_reason is None:
            self._consume(edges)

    #: the Verdict of each reject reason, and ACCEPT for None, shared by
    #: every verifier: a Verdict is frozen, and the reasons are a finite set
    #: (``R_*`` and their ``le:`` and ``ge:`` forms)
    _verdicts: dict[str | None, Verdict] = {None: ACCEPT}

    def finalize(self) -> Verdict:
        if self._verdict is None:
            if self._reject_reason is None:
                self._finalize()
            reason = self._reject_reason
            if reason not in self._verdicts:
                self._verdicts[reason] = Verdict("reject", reason)
            self._verdict = self._verdicts[reason]
        return self._verdict

    def peak_state_bits(self) -> int:
        return self.meter.peak_bits

    @classmethod
    def space_bound(cls, n: int, k: int) -> int:
        """Closed-form ceiling on the peak: the shared allowance of 64
        registers of ceil(log2(n+2)) bits, which covers the scratch and any
        O(log n) counters."""
        return 64 * ceil_log2(n + 2)


class MMListVerifier(StreamingVerifier):
    """Accept iff the certificate is a matching of size exactly k and exactly
    k streamed edges belong to it. Sound: with each edge streamed once, the
    k disjoint pairs are all edges, a k-edge matching, so nu >= k.

    The size check bears on soundness: more than k pairs can share the 2k
    distinct endpoints the matching check asks for, and then k hits need not
    be disjoint. Without it, for k = 2 the pairs (1,2), (2,3), (3,4) would
    count 2 hits on the stream (1,2), (2,3), whose nu is 1. Fewer than k
    pairs fail the matching check, and could not reach the count k anyway.
    The stop at hit k + 1 cannot fire under the stream promise: each edge
    arrives once, so k pairs give at most k hits. It only guards the width."""

    scheme = "mm_atleast_list"

    def _setup(self, edges) -> None:
        if len(edges) != self.k:
            return self.reject(R_CERT_SIZE)
        endpoints = [x for e in edges for x in e]
        if len(set(endpoints)) != 2 * self.k:
            return self.reject(R_NOT_MATCHING)
        # both orientations, so a streamed pair is looked up as it comes
        self._cert_edges = frozenset(e for u, v in edges for e in ((u, v), (v, u)))
        self.meter.register("matched_counter", ceil_log2(self.k + 1))
        self._count = 0

    def _consume(self, edges) -> None:
        cert_edges, k = self._cert_edges, self.k
        count = self._count
        for u, v in edges:
            if (u, v) in cert_edges:
                if count == k:
                    self._count = count
                    return self.reject(R_MISSING_EDGE)
                count += 1
        self._count = count

    def _finalize(self) -> None:
        if self._count != self.k:
            self.reject(R_MISSING_EDGE)


class MMColoringVerifier(StreamingVerifier):
    """One flag bit per vertex; a vertex on two monochromatic edges rejects;
    accept iff at least 2k flags end up set. Sound: with no vertex on two
    monochromatic edges, those edges are a matching of >= k edges."""

    scheme = "mm_atleast_coloring"

    def _setup(self, decoded) -> None:
        _, self._colors = decoded
        self.meter.register("flags", self.n)
        self.meter.register("flag_count", ceil_log2(self.n + 1))
        self._flag = bytearray(self.n + 1)
        self._set_count = 0

    def _consume(self, edges) -> None:
        colors, flag = self._colors, self._flag
        set_count = self._set_count
        for u, v in edges:
            if colors[u] == colors[v]:
                if flag[u] or flag[v]:
                    return self.reject(R_FLAG_CONFLICT)
                flag[u] = flag[v] = 1
                set_count += 2
        self._set_count = set_count

    def _finalize(self) -> None:
        if self._set_count < 2 * self.k:
            self.reject(R_FEW_MONO)

    @classmethod
    def space_bound(cls, n: int, k: int) -> int:
        return n + super().space_bound(n, k)  # flags


class MMAtMostVerifier(StreamingVerifier):
    """Spanning forest of the graph minus U via union-find; accept iff
    2k >= |U| - odd(V \\ U) + n at the end of the stream. Sound: the forest
    counts odd(V \\ U) exactly, and 2 nu <= |U| - odd(V \\ U) + n for every U
    (Tutte-Berge).

    The forest only grows while the stream lasts, so its width is charged
    once, at the top of ``_finalize``, at its final size: the peak is the same
    as when charged edge by edge, and it is read after ``finalize``."""

    scheme = "mm_atmost"

    def _setup(self, u_set) -> None:
        self._u_set = u_set
        n = self.n
        self._id_width = ceil_log2(n + 1)
        self.meter.register("uf_parents", n * self._id_width)
        self.meter.register("forest_edges", 0)
        self._parent = list(range(n + 1))
        self._forest_size = 0

    def _consume(self, edges) -> None:
        u_set, parent = self._u_set, self._parent
        forest_size = self._forest_size
        for u, v in edges:
            if u in u_set or v in u_set:
                continue
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[u] = v
                forest_size += 1
        self._forest_size = forest_size

    def _finalize(self) -> None:
        self.meter.resize("forest_edges", 2 * self._forest_size * self._id_width)
        # the stored forest is no longer needed once components are settled;
        # its freed budget covers the size-counting array
        self.meter.resize("forest_edges", 0)
        self.meter.register("component_sizes", self.n * self._id_width)
        u_set, parent = self._u_set, self._parent
        sizes = [0] * (self.n + 1)
        for v in range(1, self.n + 1):
            if v not in u_set:
                while parent[v] != v:
                    parent[v] = v = parent[parent[v]]
                sizes[v] += 1
        odd = sum(1 for s in sizes if s % 2 == 1)
        if 2 * self.k < len(self._u_set) - odd + self.n:
            self.reject(R_TUTTE_BERGE)

    @classmethod
    def space_bound(cls, n: int, k: int) -> int:
        forest = 2 * max(n - 1, 0) * ceil_log2(n + 1)
        parents = n * ceil_log2(n + 1)
        return forest + parents + super().space_bound(n, k)


class DegAtMostVerifier(StreamingVerifier):
    """Per-vertex counters; each edge increments the endpoint earlier in the
    certified order, and an increment past k rejects at once; accept iff no
    counter exceeds k. Sound: then every subgraph's earliest vertex in the
    certified permutation has degree <= k in it, so the degeneracy is <= k.

    The permutation check bears on that: among tied positions the earlier
    endpoint is chosen by the item's order, (u, v) charging v. With every
    position tied, the triangle streamed as (1, 2), (2, 3), (3, 1) charges
    each node once and would pass "degeneracy <= 1"; its degeneracy is 2."""

    scheme = "deg_atmost"

    def _setup(self, pi) -> None:
        n = self.n
        self.meter.register("perm_bitmap", n)
        seen = bytearray(n + 1)
        for v in range(1, n + 1):
            value = pi[v]
            if seen[value]:
                return self.reject(R_NOT_PERMUTATION)
            seen[value] = 1
        self.meter.resize("perm_bitmap", 0)
        self._pi = pi
        self.meter.register("counters", n * ceil_log2(self.k + 2))
        self._count = [0] * (n + 1)

    def _consume(self, edges) -> None:
        pi, count, k = self._pi, self._count, self.k
        for u, v in edges:
            w = u if pi[u] < pi[v] else v
            if count[w] == k:
                return self.reject(R_COUNTER_OVER)
            count[w] += 1

    @classmethod
    def space_bound(cls, n: int, k: int) -> int:
        return n * ceil_log2(k + 2) + super().space_bound(n, k)  # counters


class DegAtLeastVerifier(StreamingVerifier):
    """Counters (saturating at k) for the certified subset; both endpoints of
    an internal edge are incremented; accept iff all reach k. Sound: for
    k >= 1 the subset is nonempty and induces minimum degree >= k."""

    scheme = "deg_atleast"

    def _setup(self, members) -> None:
        if self.k >= 1 and not members:
            return self.reject(R_EMPTY_SUBSET)
        self._members = members
        # a decoded view of the certified subset, indexed by node id
        self._member = member = bytearray(self.n + 1)
        for v in members:
            member[v] = 1
        # one counter per member, charged as such; the list is indexed by
        # node id so the edge loop needs no lookup by key
        self.meter.register("counters", len(members) * ceil_log2(self.k + 1))
        self._count = [0] * (self.n + 1)

    def _consume(self, edges) -> None:
        member, count, k = self._member, self._count, self.k
        for u, v in edges:
            if member[u] and member[v]:
                if count[u] < k:
                    count[u] += 1
                if count[v] < k:
                    count[v] += 1

    def _finalize(self) -> None:
        count, k = self._count, self.k
        if any(count[v] < k for v in self._members):
            self.reject(R_COUNTER_SHORT)

    @classmethod
    def space_bound(cls, n: int, k: int) -> int:
        return n * ceil_log2(k + 2) + super().space_bound(n, k)  # counters


class DiamAtLeastVerifier(StreamingVerifier):
    """Distance labels: needs a 0 label and a label >= k up front; any edge
    whose endpoint labels differ by more than 1 is a shortcut and rejects.
    Sound: labels then differ by at most d(u, v), so the nodes labelled 0 and
    >= k are at distance >= k (or disconnected), and D >= k."""

    scheme = "diam_atleast"

    def _setup(self, labels) -> None:
        body = labels[1:]
        if not body or min(body) > 0 or max(body) < self.k:
            return self.reject(R_NO_ANCHOR)
        self._labels = labels

    def _consume(self, edges) -> None:
        labels = self._labels
        for u, v in edges:
            diff = labels[u] - labels[v]
            if diff > 1 or diff < -1:
                return self.reject(R_SHORTCUT)


class ColoringAtMostVerifier(StreamingVerifier):
    """Reject on any monochromatic edge (colors must lie in 1..k). Sound: an
    accepted certificate is a proper k-coloring, so chi <= k."""

    scheme = "coloring_atmost"

    def _setup(self, colors) -> None:
        for c in colors[1:]:
            if not 1 <= c <= self.k:
                return self.reject(R_COLOR_RANGE)
        self._colors = colors

    def _consume(self, edges) -> None:
        colors = self._colors
        for u, v in edges:
            if colors[u] == colors[v]:
                return self.reject(R_MONO_EDGE)


class _NodeSetVerifier(StreamingVerifier):
    exact_size = True

    def _setup(self, members) -> None:
        if len(set(members)) != len(members):
            return self.reject(R_DUPLICATE_NODE)
        if self.exact_size:
            if len(members) != self.k:
                return self.reject(R_WRONG_SIZE)
        elif len(members) > self.k:
            return self.reject(R_WRONG_SIZE)
        self._members = frozenset(members)


class ISAtLeastVerifier(_NodeSetVerifier):
    """No streamed edge may land inside the certified independent set.
    Sound: the k distinct nodes are then independent, so alpha >= k."""

    scheme = "is_atleast"

    def _consume(self, edges) -> None:
        members = self._members
        for u, v in edges:
            if u in members and v in members:
                return self.reject(R_EDGE_IN_SET)


class CliqueAtLeastVerifier(_NodeSetVerifier):
    """Count streamed edges inside the certified set; accept iff the count is
    k(k-1)/2. Sound: k distinct nodes span at most that many distinct edges,
    so every pair is an edge, and omega >= k. The stop past k(k-1)/2 hits
    cannot fire under the stream promise: each edge arrives once, so k
    distinct nodes give at most k(k-1)/2 hits. It only guards the width."""

    scheme = "clique_atleast"

    def _setup(self, members) -> None:
        super()._setup(members)
        if not self.rejected:
            self.meter.register("pair_counter", 2 * ceil_log2(self.n + 1))
            self._count = 0

    def _consume(self, edges) -> None:
        members, pairs = self._members, self.k * (self.k - 1) // 2
        count = self._count
        for u, v in edges:
            if u in members and v in members:
                if count == pairs:
                    self._count = count
                    return self.reject(R_CLIQUE_COUNT)
                count += 1
        self._count = count

    def _finalize(self) -> None:
        if self._count != self.k * (self.k - 1) // 2:
            self.reject(R_CLIQUE_COUNT)


class VCAtMostVerifier(_NodeSetVerifier):
    """Every streamed edge must touch the certified cover (size <= k).
    Sound: an accepted certificate is a vertex cover, so tau <= k."""

    scheme = "vc_atmost"
    exact_size = False

    def _consume(self, edges) -> None:
        members = self._members
        for u, v in edges:
            if u not in members and v not in members:
                return self.reject(R_UNCOVERED)


class EqualityVerifier(StreamingVerifier):
    """Lemma-style combinator: run the <=k and >=k verifiers on one pass and
    accept iff both accept. Peak space is the sum of the two runs. Sound:
    each half is sound alone, so both accept only when the value is k."""

    #: the (<=k, >=k) verifier classes run side by side
    sub_verifiers: tuple[type[StreamingVerifier], type[StreamingVerifier]]
    #: the two halves, built by ``_setup``; None when the certificate is malformed
    _le = _ge = None

    def _setup(self, decoded) -> None:
        le_blob, ge_blob = decoded
        le_cls, ge_cls = self.sub_verifiers
        self._le = le_cls(self.n, self.k, le_blob)
        self._ge = ge_cls(self.n, self.k, ge_blob)

    def _consume(self, edges) -> None:
        """Feed ``le`` the items, then ``ge`` the same items. This gives the
        verdicts and peaks of the one lockstep pass: the two halves share no
        state, so neither sees how its reads interleave with the other's;
        and this verifier can reject only at init, so past init it reads the
        whole stream, and each half gets every item up to its own reject.
        A one-shot iterable is read once, into a tuple both halves share."""
        if not isinstance(edges, (tuple, list)):
            edges = tuple(edges)
        self._le.feed(edges)
        self._ge.feed(edges)

    def _finalize(self) -> None:
        le = self._le.finalize()
        ge = self._ge.finalize()
        if not le.accepted:
            self.reject(f"le:{le.reason}")
        elif not ge.accepted:
            self.reject(f"ge:{ge.reason}")

    def peak_state_bits(self) -> int:
        if self._le is None:
            return self.meter.peak_bits
        return self._le.peak_state_bits() + self._ge.peak_state_bits()

    @classmethod
    def space_bound(cls, n: int, k: int) -> int:
        return sum(sub.space_bound(n, k) for sub in cls.sub_verifiers)


class MMEqualVerifier(EqualityVerifier):
    scheme = "mm_equal"
    sub_verifiers = (MMAtMostVerifier, MMListVerifier)


class DegEqualVerifier(EqualityVerifier):
    scheme = "deg_equal"
    sub_verifiers = (DegAtMostVerifier, DegAtLeastVerifier)


#: every class above whose ``scheme`` is set, in definition order
SCHEME_VERIFIERS: dict[str, type[StreamingVerifier]] = {
    cls.scheme: cls
    for cls in globals().values()
    if isinstance(cls, type) and issubclass(cls, StreamingVerifier) and cls.scheme
}


def space_bound(scheme: str, n: int, k: int) -> int:
    """Closed-form ceiling the scheme's measured peak never exceeds."""
    return SCHEME_VERIFIERS[scheme].space_bound(n, k)


def init_verdict(
    scheme: str, n: int, k: int, cert: CertificateBlob
) -> tuple[str, int] | None:
    """The init reject, (reason, peak), of ``scheme``'s verifier for ``cert``,
    or None when it survives init. A certificate that fails to decode rejects
    as ``R_MALFORMED`` at ``scratch_bits(n)`` (``__init__`` registers the
    scratch, then decodes), which one decode gives, with no verifier or meter
    built; any other builds its verifier once. ``decode_blob`` and
    ``SCHEME_VERIFIERS`` are read from this module's globals, where a tracer
    or a test wraps them."""
    try:
        decode_blob(cert, scheme, n, k)
    except MalformedCertificate:
        return R_MALFORMED, scratch_bits(n)
    verifier = SCHEME_VERIFIERS[scheme](n, k, cert)
    if verifier.rejected:
        return verifier.finalize().reason, verifier.peak_state_bits()
    return None


def run_verifier(
    scheme: str, stream: EdgeStream, cert: CertificateBlob
) -> tuple[Verdict, SpaceReport]:
    verifier = SCHEME_VERIFIERS[scheme](stream.n, stream.k, cert)
    verifier.feed(stream.edges)
    verdict = verifier.finalize()
    return verdict, SpaceReport(verifier.peak_state_bits(), cert.semantic_bits)
