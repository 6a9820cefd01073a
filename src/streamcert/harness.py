"""Experiment driver: corpora, completeness/soundness campaigns, certificate
fuzzing, and space-scaling measurement.

Every campaign runs the certificates of a (graph, k) instance through one
trial loop, ``_run_trials``, which writes one ``TrialRecord`` per (certificate,
order): completeness the honest certificate of a legal instance, soundness the
fuzzed certificates of an illegal one.

Every campaign is seeded and iterates in sorted order, so reports are
byte-identical across re-runs. A soundness breach (an accepted certificate on
an illegal instance) is reported with a full reproducer: graph name, stream
order, and certificate bytes.
"""

from __future__ import annotations

import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from . import gadgets
from .certs import (
    CertificateBlob,
    deserialize_certificate,
    encode_coloring,
    encode_node_set,
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
from .meter import ceil_log2, id_bits
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
    if values["vc"] + values["is"] != g.n:
        raise AssertionError("cover/IS complementarity violated")
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
        (
            f"gadget-{short}-{fam.domain.render(x)}-{fam.domain.render(y)}",
            fam.build(x, y).graph,
        )
        for short, fam, pairs in _GADGET_PICKS
        for x, y in pairs
    ]


#: corpus families with one graph per size, which the CLI also takes as
#: builtin graphs (K4, C5, ...): family -> (entry-name prefix, letter, builder)
SIZED_FAMILIES = {
    "paths": ("path", "P", path_graph),
    "cycles": ("cycle", "C", cycle_graph),
    "cliques": ("clique", "K", complete_graph),
    "stars": ("star", "S", star_graph),
    "matchings": ("matching", "M", matching_graph),
    "empty": ("empty", "E", empty_graph),
}


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
        if kind in SIZED_FAMILIES:
            prefix, _, build = SIZED_FAMILIES[kind]
            entries += [_attach(f"{prefix}-{n}", build(n)) for n in _parse_span(parts[1])]
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


# -- the trial loop ---------------------------------------------------------------
#
# A campaign keeps one TrialRecord per (certificate, order) trial; criterion 2
# builds about seven million of them, so a record is a plain tuple with named
# fields, built without any per-field setattr.

class TrialRecord(NamedTuple):
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

    def reasons(self) -> Counter[str]:
        """How the trials split by reason (an accept's is ``ok``): a
        diagnostic, never read by the accept decision."""
        return Counter([r.reason for r in self.records])


def format_reasons(reasons: Counter[str]) -> str:
    """A reason histogram as ``reason:count`` pairs, sorted by reason and
    joined by commas."""
    return ",".join(f"{reason}:{count}" for reason, count in sorted(reasons.items()))


def _run_trials(
    scheme: str,
    entry: CorpusEntry,
    k: int,
    certs: Sequence[tuple[str, CertificateBlob]],
    orders: Sequence[str],
) -> tuple[list[TrialRecord], list[tuple[str, str, CertificateBlob]]]:
    """Run each (cert_id, certificate) under each order; returns the records,
    certificate-major, and the (order, cert_id, certificate) of each accept.

    Each order's stream is built once, and none when there is no
    certificate. Each certificate's verifier is built once. One that rejected
    at init has read no item and never accepts (the run contract in
    ``verifiers``), so its reason and peak are read once and make its whole
    batch of records, one reject per order; a survivor gets a
    ``run_verifier`` for each order."""
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


# -- completeness -----------------------------------------------------------------

def run_completeness(
    scheme: str, corpus: Corpus, orders: Sequence[str] = ORDER_BATTERY
) -> CampaignReport:
    """Prove every legal (graph, k) in the corpus and run the honest
    certificate under each order through the trial loop; a prover refusal,
    a reject, or a peak over the scheme's space bound is a failure."""
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
            trials, _ = _run_trials(scheme, entry, k, [("honest", cert)], orders)
            bound = space_bound(scheme, entry.graph.n, k)
            for r in trials:
                where = f"{entry.name} k={k} order={r.order}"
                if r.decision != "accept":
                    failures.append(f"{where}: honest certificate rejected ({r.reason})")
                if r.peak_bits > bound:
                    failures.append(f"{where}: space bound exceeded")
            records += trials
    return CampaignReport(tuple(records), tuple(failures))


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
    """A graph one edge away from g that is legal at k, if any: candidates
    are built one at a time in lex order, and the first legal one is returned.

    ``value`` is g's own parameter value. A ge or eq scheme adds an edge and
    a le scheme removes one; when that move can only carry the parameter
    further from k, no candidate is legal and the search is skipped."""
    adds = info.direction in ("ge", "eq")
    raises = PARAMETERS[info.parameter].adding_an_edge_raises == adds
    if (value > k) if raises else (value < k):
        return None
    if adds:
        candidates = (
            Graph(g.n, g.edges + ((u, v),))
            for u in range(1, g.n + 1)
            for v in range(u + 1, g.n + 1)
            if (u, v) not in g.edge_set
        )
    else:
        candidates = (
            Graph(g.n, tuple(e for e in g.edges if e != drop))
            for drop in sorted(g.edges)
        )
    legal = (c for c in candidates if info.legal(parameter_value(c, info.parameter), k))
    return next(legal, None)


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

    The fuzzed certificates go through the trial loop (``_run_trials``);
    each accept is a breach, reported with its certificate bytes."""
    certs = _fuzz_certificates(SCHEMES[scheme], entry, k, fuzz)
    records, accepts = _run_trials(scheme, entry, k, certs, orders)
    breaches = [
        f"BREACH {scheme} graph={entry.name} k={k} "
        f"order={order} cert={cert_id} seed={fuzz.seed} "
        f"bytes={serialize_certificate(cert).hex()}"
        for order, cert_id, cert in accepts
    ]
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
    return CampaignReport(tuple(records), tuple(breaches))


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


class ScalingFamily(NamedTuple):
    """A scheme's space-scaling family: ``instance`` maps n >= ``min_n`` to
    a legal (graph, k, expected certificate bits). The bits are written out
    here, not read from the codec, so that the size check compares the codec
    with a second account of its formula. ``witness`` maps n to a closed-form
    certificate for the NP schemes, whose provers refuse n > 24; every other
    scheme's certificate is its prover's."""

    min_n: int
    instance: Callable[[int], tuple[Graph, int, int]]
    witness: Callable[[int], CertificateBlob] | None = None


#: one scaling family per scheme. A cycle, the independent set {2, 3} and the
#: triangle {1, 2, 3} need 3 nodes, and so do the 2-colouring of a path and
#: the cover {1} of a star before they match their provers' witnesses; the
#: equality families' star needs an edge
SCALING_FAMILIES: dict[str, ScalingFamily] = {
    "mm_atleast_list": ScalingFamily(1, lambda n: (
        matching_graph(n), min(4, n // 2), (1 + 2 * min(4, n // 2)) * id_bits(n))),
    "mm_atleast_coloring": ScalingFamily(1, lambda n: (matching_graph(n), n // 2, 0)),
    "mm_atmost": ScalingFamily(1, lambda n: (path_graph(n), (n + 1) // 2, n)),
    "deg_atmost": ScalingFamily(1, lambda n: (path_graph(n), 1, n * ceil_log2(n))),
    "deg_atleast": ScalingFamily(3, lambda n: (cycle_graph(n), 2, n)),
    "diam_atleast": ScalingFamily(1, lambda n: (path_graph(n), n - 1, n * ceil_log2(n + 1))),
    "coloring_atmost": ScalingFamily(
        3, lambda n: (path_graph(n), 2, n),
        lambda n: encode_coloring({v: 1 + v % 2 for v in range(1, n + 1)}, n, 2)),
    "is_atleast": ScalingFamily(
        3, lambda n: (star_graph(n), 2, 3 * id_bits(n)),
        lambda n: encode_node_set("is_atleast", [2, 3], n)),
    "clique_atleast": ScalingFamily(
        3, lambda n: (Graph.from_edges(n, [(1, 2), (1, 3), (2, 3)] + [
            (v, v + 1) for v in range(3, n)]), 3, 4 * id_bits(n)),
        lambda n: encode_node_set("clique_atleast", [1, 2, 3], n)),
    "vc_atmost": ScalingFamily(
        3, lambda n: (star_graph(n), 1, 2 * id_bits(n)),
        lambda n: encode_node_set("vc_atmost", [1], n)),
    "mm_equal": ScalingFamily(2, lambda n: (star_graph(n), 1, n + 3 * id_bits(n))),
    "deg_equal": ScalingFamily(2, lambda n: (star_graph(n), 1, n * ceil_log2(n) + n)),
}


def _scaling_instance(scheme: str, n: int) -> tuple[Graph, int, CertificateBlob, int]:
    """A legal instance at size n from the scheme's ``SCALING_FAMILIES`` row:
    (graph, k, certificate, expected certificate bits). The certificate is
    the row's closed-form witness if it has one, else the honest prover's.
    Raises ValueError below the family's smallest n.
    """
    family = SCALING_FAMILIES[scheme]
    if n < family.min_n:
        raise ValueError(f"{scheme} scaling family needs n >= {family.min_n}, got {n}")
    g, k, bits = family.instance(n)
    cert = family.witness(n) if family.witness else SCHEMES[scheme].prover(g, k)
    return g, k, cert, bits


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
