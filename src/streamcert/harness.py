"""Experiment driver: corpora, completeness/soundness campaigns, certificate
fuzzing, and space-scaling measurement.

Every campaign is seeded and iterates in sorted order, so reports are
byte-identical across re-runs. A soundness breach (an accepted certificate on
an illegal instance) is reported with a full reproducer: graph name, stream
order, and certificate bytes.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import gadgets
from .certs import (
    CertificateBlob,
    deserialize_certificate,
    encode_coloring,
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
from .graph import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_random_graph,
    matching_graph,
    path_graph,
    random_tree,
    star_graph,
    validate_graph,
)
from .meter import SpaceReport, ceil_log2, id_bits
from .oracles import NP_ORACLE_MAX_N, PARAMETERS, TooLarge, parameter_value
from .provers import NotCertifiable
from .schemes import SCHEMES, SchemeInfo, illegal_thresholds, legal_thresholds
from .stream import ORDER_BATTERY, SOUNDNESS_ORDERS, make_stream
from .verifiers import SCHEME_VERIFIERS, run_verifier, space_bound


# -- corpus ---------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    name: str
    graph: Graph
    values: dict[str, int | float]

    def value(self, parameter: str) -> int | float:
        return self.values[parameter]


@dataclass(frozen=True)
class Corpus:
    seed: int
    entries: tuple[CorpusEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)


def _attach(name: str, g: Graph) -> CorpusEntry:
    validate_graph(g)
    if g.n > NP_ORACLE_MAX_N:
        raise TooLarge(g.n, NP_ORACLE_MAX_N, f"{name}: n={g.n} beyond exact-oracle cutoff")
    values = {p: parameter_value(g, p) for p in PARAMETERS}
    assert values["vc"] + values["is"] == g.n, "cover/IS complementarity violated"
    return CorpusEntry(name, g, values)


def _parse_span(token: str) -> range:
    if ".." in token:
        lo, hi = token.split("..")
        return range(int(lo), int(hi) + 1)
    v = int(token)
    return range(v, v + 1)


#: (short name, family, input pairs): for each gadget family, one pair on
#: which its two-party function holds and one on which it fails, in corpus order
_GADGET_PICKS = (
    ("matching", gadgets.disj_matching_family(4),
     [({1, 2}, {3, 4}), ({1, 2}, {2, 3})]),
    ("degeneracy", gadgets.disj_degeneracy_family(4),
     [({1, 2}, {3, 4}), ({1, 3}, {3, 4})]),
    ("holzer", gadgets.holzer_diameter2_family(3),
     [((0, 0, 0), (0, 0, 0)), ((1, 0, 0), (1, 0, 0))]),
    ("diam8", gadgets.disj_diameter8_family(3), [({1}, {2}), ({1}, {1})]),
    ("bitvc", gadgets.bitgadget_vc_family(2),
     [((1, 1, 1, 1), (1, 1, 1, 1)), ((1, 1, 0, 0), (0, 0, 1, 1))]),
    ("perm", gadgets.perm_coloring_family(3),
     [((1, 2, 3), (1, 2, 3)), ((1, 2, 3), (2, 1, 3))]),
)


def _standard_gadget_entries() -> list[tuple[str, Graph]]:
    return [
        (f"gadget-{short}-{fam.render(x)}-{fam.render(y)}", fam.build(x, y).graph)
        for short, fam, pairs in _GADGET_PICKS
        for x, y in pairs
    ]


def build_corpus(spec: Sequence[str], seed: int) -> Corpus:
    """Deterministic corpus from family descriptors.

    Grammar (one family per string):
      paths:LO..HI | cycles:LO..HI | cliques:LO..HI | stars:LO..HI |
      matchings:LO..HI | empty:N | trees:LO..HI:COUNT |
      gnp:LO..HI:P:COUNT | gadgets
    """
    rng = random.Random(seed)
    entries: list[CorpusEntry] = []
    for item in spec:
        parts = item.split(":")
        kind = parts[0]
        if kind == "paths":
            entries += [_attach(f"path-{n}", path_graph(n)) for n in _parse_span(parts[1])]
        elif kind == "cycles":
            entries += [_attach(f"cycle-{n}", cycle_graph(n)) for n in _parse_span(parts[1])]
        elif kind == "cliques":
            entries += [_attach(f"clique-{n}", complete_graph(n)) for n in _parse_span(parts[1])]
        elif kind == "stars":
            entries += [_attach(f"star-{n}", star_graph(n)) for n in _parse_span(parts[1])]
        elif kind == "matchings":
            entries += [_attach(f"matching-{n}", matching_graph(n)) for n in _parse_span(parts[1])]
        elif kind == "empty":
            entries += [_attach(f"empty-{n}", empty_graph(n)) for n in _parse_span(parts[1])]
        elif kind == "trees":
            span, count = _parse_span(parts[1]), int(parts[2])
            for i in range(count):
                n = rng.choice(list(span))
                s = rng.randrange(1 << 30)
                entries.append(_attach(f"tree-n{n}-i{i}", random_tree(n, s)))
        elif kind == "gnp":
            span, p, count = _parse_span(parts[1]), float(parts[2]), int(parts[3])
            for i in range(count):
                n = rng.choice(list(span))
                s = rng.randrange(1 << 30)
                entries.append(_attach(f"gnp-n{n}-p{p}-i{i}", gnp_random_graph(n, p, s)))
        elif kind == "gadgets":
            entries += [_attach(name, g) for name, g in _standard_gadget_entries()]
        else:
            raise ValueError(f"unknown corpus family {kind!r}")
    return Corpus(seed, tuple(entries))


#: corpus used by the acceptance campaigns
ACCEPTANCE_CORPUS_SPEC: tuple[str, ...] = (
    "paths:2..12",
    "cycles:3..12",
    "cliques:2..10",
    "stars:2..12",
    "matchings:2..12",
    "empty:2",
    "empty:5",
    "trees:4..16:100",
    "gnp:6..16:0.2:70",
    "gnp:6..16:0.35:80",
    "gnp:8..16:0.5:70",
    "gadgets",
)


# -- campaign records -------------------------------------------------------------

@dataclass(frozen=True)
class TrialRecord:
    scheme: str
    graph: str
    k: int
    order: str
    cert_id: str
    decision: str
    reason: str
    peak_bits: int
    cert_bits: int

    def line(self) -> str:
        return (
            f"scheme={self.scheme} graph={self.graph} k={self.k} "
            f"order={self.order} cert={self.cert_id} verdict={self.decision} "
            f"reason={self.reason} peak_bits={self.peak_bits} "
            f"cert_bits={self.cert_bits}"
        )


@dataclass(frozen=True)
class CampaignReport:
    scheme: str
    kind: str
    records: tuple[TrialRecord, ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def instances(self) -> int:
        return len({(r.graph, r.k) for r in self.records})

    def lines(self) -> list[str]:
        return [r.line() for r in self.records]


# -- completeness -----------------------------------------------------------------

def run_completeness(
    scheme: str, corpus: Corpus, orders: Sequence[str] = ORDER_BATTERY
) -> CampaignReport:
    """Prove every legal (graph, k) in the corpus and verify under each order."""
    info = SCHEMES[scheme]
    records: list[TrialRecord] = []
    failures: list[str] = []
    for entry in corpus.entries:
        value = entry.value(info.parameter)
        for k in legal_thresholds(info, value, entry.graph.n):
            try:
                cert = info.prover(entry.graph, k)
            except (NotCertifiable, TooLarge) as exc:
                failures.append(f"{entry.name} k={k}: prover refused: {exc}")
                continue
            for order in orders:
                verdict, report = run_verifier(
                    scheme, make_stream(entry.graph, k, order), cert
                )
                records.append(
                    TrialRecord(
                        scheme, entry.name, k, order, "honest",
                        verdict.decision, verdict.reason,
                        report.peak_state_bits, report.certificate_bits,
                    )
                )
                if not verdict.accepted:
                    failures.append(
                        f"{entry.name} k={k} order={order}: "
                        f"honest certificate rejected ({verdict.reason})"
                    )
                if report.peak_state_bits > space_bound(scheme, entry.graph.n, k):
                    failures.append(
                        f"{entry.name} k={k} order={order}: space bound exceeded"
                    )
    return CampaignReport(scheme, "completeness", tuple(records), tuple(failures))


# -- soundness --------------------------------------------------------------------

#: the certificate mutators ``FuzzPolicy.mode`` names, in campaign order
FUZZ_MODES = ("random_bytes", "bit_flip", "structured_wrong")


@dataclass(frozen=True)
class FuzzPolicy:
    mode: str  # one of FUZZ_MODES
    trials: int
    seed: int


def _nearest_legal_cert(info: SchemeInfo, g: Graph, value: int | float) -> CertificateBlob | None:
    """Honest certificate of the same graph at its own (legal) parameter value."""
    if math.isinf(value):
        return None
    try:
        return info.prover(g, int(value))
    except (NotCertifiable, TooLarge):
        return None


def _one_edge_variant(
    info: SchemeInfo, g: Graph, k: int, value: int | float
) -> Graph | None:
    """A graph one edge away from g that is legal at k, if any (lex search).

    ``value`` is g's own parameter value. A ge or eq scheme adds an edge and
    a le scheme removes one; when that move can only carry the parameter
    further from k, no candidate is legal and the search is skipped."""
    adds = info.direction in ("ge", "eq")
    raises = PARAMETERS[info.parameter].adding_an_edge_raises == adds
    if (value > k) if raises else (value < k):
        return None
    if adds:
        candidates = [
            Graph(g.n, g.edges + (e,))
            for e in sorted(
                (u, v)
                for u in range(1, g.n + 1)
                for v in range(u + 1, g.n + 1)
                if (u, v) not in g.edge_set
            )
        ]
    else:
        candidates = [
            Graph(g.n, tuple(e for e in g.edges if e != drop))
            for drop in sorted(g.edge_set)
        ]
    for candidate in candidates:
        if info.legal(parameter_value(candidate, info.parameter), k):
            return candidate
    return None


def _fuzz_certificates(
    info: SchemeInfo, entry: CorpusEntry, k: int, policy: FuzzPolicy
) -> list[tuple[str, CertificateBlob]]:
    rng = random.Random((policy.seed, entry.name, info.name, k).__repr__())
    value = entry.value(info.parameter)
    base = _nearest_legal_cert(info, entry.graph, value)
    certs: list[tuple[str, CertificateBlob]] = []
    if policy.mode == "random_bytes":
        base_len = len(base.payload) if base else 8
        for i in range(policy.trials):
            length = rng.randrange(0, max(2 * base_len, 16))
            payload = rng.randbytes(length)
            bits = rng.randrange(0, 8 * length + 2)
            certs.append((f"random:{i}", CertificateBlob(info.name, payload, bits)))
    elif policy.mode == "bit_flip":
        if base is None:
            return []
        raw = serialize_certificate(base)
        nbits = 8 * len(raw)
        positions = (
            range(nbits) if nbits <= policy.trials
            else sorted(rng.sample(range(nbits), policy.trials))
        )
        for pos in positions:
            flipped = bytearray(raw)
            flipped[pos // 8] ^= 0x80 >> (pos % 8)
            certs.append((f"flip:{pos}", deserialize_certificate(bytes(flipped))))
    elif policy.mode == "structured_wrong":
        if base is not None:
            certs.append(("transplant:k", base))
        variant = _one_edge_variant(info, entry.graph, k, value)
        if variant is not None:
            try:
                certs.append(("transplant:graph", info.prover(variant, k)))
            except (NotCertifiable, TooLarge):
                pass
    else:
        raise ValueError(f"unknown fuzz mode {policy.mode!r}")
    return certs


def fuzz_instance(
    scheme: str,
    entry: CorpusEntry,
    k: int,
    fuzz: FuzzPolicy,
    orders: Sequence[str] = SOUNDNESS_ORDERS,
) -> tuple[list[TrialRecord], list[str]]:
    """Fuzz one illegal (graph, k) instance; returns (records, breaches).

    Each order's stream is built once and replayed to every certificate.
    Each certificate's verifier is built once. One that rejected at init has
    read no item (the run contract in ``verifiers``), so its verdict and peak
    are the record of every order; a survivor gets a ``run_verifier`` for
    each order."""
    info = SCHEMES[scheme]
    records: list[TrialRecord] = []
    breaches: list[str] = []
    certs = _fuzz_certificates(info, entry, k, fuzz)
    if not certs:
        return records, breaches
    streams = [(order, make_stream(entry.graph, k, order)) for order in orders]
    verifier_cls = SCHEME_VERIFIERS[scheme]
    for cert_id, cert in certs:
        verifier = verifier_cls(entry.graph.n, k, cert)
        if verifier.rejected:
            dead = verifier.finalize(), SpaceReport(verifier.peak_state_bits(), cert.semantic_bits)
            outcomes = [dead] * len(streams)
        else:
            outcomes = [run_verifier(scheme, stream, cert) for _, stream in streams]
        for (order, _), (verdict, report) in zip(streams, outcomes):
            records.append(
                TrialRecord(
                    scheme, entry.name, k, order, cert_id,
                    verdict.decision, verdict.reason,
                    report.peak_state_bits, report.certificate_bits,
                )
            )
            if verdict.accepted:
                breaches.append(
                    f"BREACH {scheme} graph={entry.name} k={k} "
                    f"order={order} cert={cert_id} seed={fuzz.seed} "
                    f"bytes={serialize_certificate(cert).hex()}"
                )
    return records, breaches


def run_soundness(
    scheme: str,
    corpus: Corpus,
    fuzz: FuzzPolicy,
    orders: Sequence[str] = SOUNDNESS_ORDERS,
) -> CampaignReport:
    """Fuzz certificates against illegal instances; any accept is a breach."""
    info = SCHEMES[scheme]
    records: list[TrialRecord] = []
    breaches: list[str] = []
    for entry in corpus.entries:
        value = entry.value(info.parameter)
        for k in illegal_thresholds(info, value):
            got_records, got_breaches = fuzz_instance(scheme, entry, k, fuzz, orders)
            records += got_records
            breaches += got_breaches
    return CampaignReport(scheme, f"soundness[{fuzz.mode}]", tuple(records), tuple(breaches))


# -- space scaling ------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingRow:
    scheme: str
    n: int
    k: int
    m: int
    peak_bits: int
    bound_bits: int
    cert_bits: int
    formula_bits: int
    accepted: bool

    def line(self) -> str:
        return (
            f"scheme={self.scheme} n={self.n} k={self.k} m={self.m} "
            f"peak_bits={self.peak_bits} bound_bits={self.bound_bits} "
            f"cert_bits={self.cert_bits} formula_bits={self.formula_bits} "
            f"verdict={'accept' if self.accepted else 'reject'}"
        )


@dataclass(frozen=True)
class ScalingReport:
    scheme: str
    rows: tuple[ScalingRow, ...]
    loglog_slope: float

    @property
    def ok(self) -> bool:
        return all(
            row.accepted
            and row.peak_bits <= row.bound_bits
            and row.cert_bits == row.formula_bits
            for row in self.rows
        )

    def lines(self) -> list[str]:
        out = [row.line() for row in self.rows]
        out.append(f"scheme={self.scheme} loglog_slope={self.loglog_slope:.4f}")
        return out


#: smallest n at which each scheme's scaling family is a valid graph with a
#: legal claim: a cycle needs 3 nodes, the independent set {2, 3} and the
#: triangle {1, 2, 3} need 3, and the equality families' star needs an edge
SCALING_MIN_N: dict[str, int] = {
    "mm_atleast_list": 1,
    "mm_atleast_coloring": 1,
    "mm_atmost": 1,
    "deg_atmost": 1,
    "deg_atleast": 3,
    "diam_atleast": 1,
    "coloring_atmost": 1,
    "is_atleast": 3,
    "clique_atleast": 3,
    "vc_atmost": 1,
    "mm_equal": 2,
    "deg_equal": 2,
}


def _scaling_instance(scheme: str, n: int) -> tuple[Graph, int, CertificateBlob, int]:
    """A legal instance at size n with a closed-form honest certificate.

    Returns (graph, k, certificate, expected certificate bits). Certificates
    are built directly (the exponential provers are capped at small n); each
    is the same object the honest prover would emit for these families.
    Raises ValueError below the family's ``SCALING_MIN_N``.
    """
    low = SCALING_MIN_N.get(scheme)
    if low is not None and n < low:
        raise ValueError(f"{scheme} scaling family needs n >= {low}, got {n}")
    L = id_bits(n)
    if scheme == "mm_atleast_list":
        g, k = matching_graph(n), min(4, n // 2)
        cert = encode_mm_list(list(g.edges)[:k], n)
        return g, k, cert, (1 + 2 * k) * L
    if scheme == "mm_atleast_coloring":
        g, k = matching_graph(n), n // 2
        cert = encode_mm_coloring({v: 1 for v in range(1, n + 1)}, 1, n)
        return g, k, cert, 0
    if scheme == "mm_atmost":
        g, k = path_graph(n), (n + 1) // 2
        return g, k, encode_tutte_berge(frozenset(), n), n
    if scheme == "deg_atmost":
        g, k = path_graph(n), 1
        cert = encode_peel_order({v: v for v in range(1, n + 1)}, n)
        return g, k, cert, n * ceil_log2(n)
    if scheme == "deg_atleast":
        g, k = cycle_graph(n), 2
        cert = encode_core_subset(range(1, n + 1), n)
        return g, k, cert, n
    if scheme == "diam_atleast":
        g, k = path_graph(n), n - 1
        cert = encode_distance_labels({v: v - 1 for v in range(1, n + 1)}, n, k)
        return g, k, cert, n * ceil_log2(k + 2)
    if scheme == "coloring_atmost":
        g, k = path_graph(n), 2
        cert = encode_coloring({v: 1 + (v % 2) for v in range(1, n + 1)}, n, k)
        return g, k, cert, n
    if scheme == "is_atleast":
        g, k = star_graph(n), 2
        return g, k, encode_node_set("is_atleast", [2, 3], n), 3 * L
    if scheme == "clique_atleast":
        edges = [(1, 2), (1, 3), (2, 3)] + [(v, v + 1) for v in range(3, n)]
        g, k = Graph.from_edges(n, edges), 3
        return g, k, encode_node_set("clique_atleast", [1, 2, 3], n), 4 * L
    if scheme == "vc_atmost":
        g, k = star_graph(n), 1
        return g, k, encode_node_set("vc_atmost", [1], n), 2 * L
    if scheme == "mm_equal":
        g, k = star_graph(n), 1
        le = encode_tutte_berge(frozenset({1}), n)
        ge = encode_mm_list([(1, 2)], n)
        return g, k, encode_equality("mm_equal", le, ge), n + 3 * L
    if scheme == "deg_equal":
        g, k = star_graph(n), 1
        le = encode_peel_order(
            {v: (v - 1 if v > 1 else n) for v in range(1, n + 1)}, n
        )
        ge = encode_core_subset(range(1, n + 1), n)
        return g, k, encode_equality("deg_equal", le, ge), n * ceil_log2(n) + n
    raise ValueError(f"no scaling family for {scheme!r}")


def run_space_scaling(scheme: str, sizes: Iterable[int]) -> ScalingReport:
    rows = []
    for n in sizes:
        g, k, cert, formula_bits = _scaling_instance(scheme, n)
        verdict, report = run_verifier(scheme, make_stream(g, k, "given"), cert)
        rows.append(
            ScalingRow(
                scheme, n, k, g.m,
                report.peak_state_bits, space_bound(scheme, n, k),
                report.certificate_bits, formula_bits, verdict.accepted,
            )
        )
    if len(rows) >= 2:
        slope = statistics.linear_regression(
            [math.log2(r.n) for r in rows], [math.log2(max(r.peak_bits, 1)) for r in rows]
        ).slope
    else:
        slope = 0.0
    return ScalingReport(scheme, tuple(rows), slope)
