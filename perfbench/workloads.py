"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and runs one
round of ops over them in ``run_round``. A run repeats rounds until its time
is up. Every round runs the same ops on the same graphs and certificates;
stream orders are drawn fresh for each round of ``stream_verify`` and
``prove_verify``. Round 0 depends on the seed alone, so the outcome digest
is taken over round 0.

All calls into streamcert go through module attributes (``harness.x``,
``stream.x``, ...), so the tracer sees them when it is installed.
"""

from __future__ import annotations

import gc
import math
import random
import time
import traceback
from dataclasses import dataclass, field

from streamcert import certs, graph, harness, oracles, schemes, stream, verifiers
from streamcert.stream import SOUNDNESS_ORDERS

from gate import check_fuzzed, check_honest
from reference import scale

perf = time.perf_counter


@dataclass
class OpResult:
    key: str  # identity of the op: the same key in every round
    seconds: float  # latency of the whole op
    verify_s: float  # latency of its verification part
    trials: int  # verifier runs
    certs: int  # distinct certificates checked
    edges: int  # stream items fed to verifiers
    problems: list[str] = field(default_factory=list)
    #: factor from time as measured to time at the reference speed, from the
    #: reference samples just before and just after the op (see ``reference.py``)
    scale: float = 1.0

    def at_reference(self, seconds: float) -> float:
        """``seconds`` measured during this op, at the reference speed."""
        return seconds * self.scale


class Workload:
    name = ""
    #: traced entry points that must record calls on this workload
    required: tuple[str, ...] = ()

    def setup(self, seed: int, scale: str):
        raise NotImplementedError

    def ops(self, inputs, round_index: int) -> list[tuple]:
        """The round's ops as (key, args) pairs; ``run_op(key, *args)`` runs one."""
        raise NotImplementedError

    def run_op(self, key, *args, digest) -> OpResult:
        raise NotImplementedError

    def run_round(self, inputs, round_index: int, digest, on_op=None,
                  reference=None) -> list[OpResult]:
        """Run every op of the round; ``on_op`` is called before each one.

        Each op starts from a collected heap, so that no op pays for the
        garbage of the one before it. With a ``reference``, a reference
        sample is taken before each op and after the last one, and each
        op's ``scale`` comes from the samples on either side of it.
        """
        out, samples = [], []
        for key, args in self.ops(inputs, round_index):
            gc.collect()
            if reference is not None:
                samples.append(reference.sample())
            if on_op is not None:
                on_op()
            try:
                out.append(self.run_op(key, *args, digest=digest))
            except Exception as exc:  # an op that raises is a failed op
                traceback.print_exc()
                inf = float("inf")
                out.append(OpResult(key, inf, inf, 0, 0, 0, [f"raised {exc!r}"]))
        if reference is not None:
            gc.collect()
            samples.append(reference.sample())
            for op, before, after in zip(out, samples, samples[1:]):
                op.scale = scale([before, after])
        return out


def _order_rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


# -- soundness_fuzz -------------------------------------------------------------

#: criterion 2's certificate mix per illegal instance
FUZZ_MIX = (("random_bytes", 200), ("bit_flip", 200), ("structured_wrong", 2))
#: corpus entries fuzzed per round
FUZZ_ENTRIES = {"full": 16, "tiny": 2}


class SoundnessFuzz(Workload):
    """Criterion 2's calls on a sample of the acceptance corpus built from the seed.

    The sample is the entries at evenly spaced quantiles of edge count, so
    every seed fuzzes graphs of the same sizes while the graphs themselves
    and the fuzzed bytes change with the seed.
    """

    name = "soundness_fuzz"
    required = (
        "make_stream", "run_verifier", "decode_blob", "verifier.__init__",
        "verifier.finalize", "meter.resize", "prove", "maximum_matching",
        "parameter_value", "fuzz_instance",
    )

    def setup(self, seed, scale):
        corpus = harness.build_corpus(harness.ACCEPTANCE_CORPUS_SPEC, seed)
        by_size = sorted(corpus.entries, key=lambda e: (e.graph.m, e.graph.n, e.name))
        count = FUZZ_ENTRIES[scale]
        entries = [by_size[(2 * i + 1) * len(by_size) // (2 * count)] for i in range(count)]
        ops = []
        for scheme in schemes.BASE_SCHEMES:
            info = schemes.SCHEMES[scheme]
            for entry in entries:
                if schemes.illegal_thresholds(info, entry.value(info.parameter)):
                    ops.append((scheme, entry))
        return seed, ops

    def ops(self, inputs, round_index):
        seed, ops = inputs
        return [(f"{scheme}/{entry.name}", (seed, scheme, entry)) for scheme, entry in ops]

    def run_op(self, key, seed, scheme, entry, digest):
        corpus = harness.Corpus(seed, (entry,))
        records, failures = [], []
        t0 = perf()
        for mode, budget in FUZZ_MIX:
            report = harness.run_soundness(
                scheme, corpus, harness.FuzzPolicy(mode, budget, seed), SOUNDNESS_ORDERS
            )
            records += report.records
            failures += report.failures
        seconds = perf() - t0
        n = entry.graph.n
        problems = check_fuzzed(
            scheme, records, failures, lambda k: verifiers.space_bound(scheme, n, k)
        )
        if digest is not None:
            for r in records:
                digest.add(r.decision, r.peak_bits, r.cert_bits)
        return OpResult(
            key, seconds, seconds, len(records),
            len({(r.k, r.cert_id) for r in records}), len(records) * entry.graph.m,
            problems,
        )


# -- stream_verify --------------------------------------------------------------

def _honest_instance(scheme: str, n: int):
    """(graph, k, certificate) of the ``streamcert scale`` family for a scheme,
    built from the public generators and encoders."""
    if scheme == "mm_atleast_list":
        g, k = graph.matching_graph(n), min(4, n // 2)
        return g, k, certs.encode_mm_list(list(g.edges)[:k], n)
    if scheme == "mm_atleast_coloring":
        g, k = graph.matching_graph(n), n // 2
        return g, k, certs.encode_mm_coloring({v: 1 for v in range(1, n + 1)}, 1, n)
    if scheme == "mm_atmost":
        return graph.path_graph(n), (n + 1) // 2, certs.encode_tutte_berge(frozenset(), n)
    if scheme == "deg_atmost":
        return graph.path_graph(n), 1, certs.encode_peel_order({v: v for v in range(1, n + 1)}, n)
    if scheme == "deg_atleast":
        return graph.cycle_graph(n), 2, certs.encode_core_subset(range(1, n + 1), n)
    if scheme == "diam_atleast":
        labels = {v: v - 1 for v in range(1, n + 1)}
        return graph.path_graph(n), n - 1, certs.encode_distance_labels(labels, n, n - 1)
    if scheme == "coloring_atmost":
        colors = {v: 1 + (v % 2) for v in range(1, n + 1)}
        return graph.path_graph(n), 2, certs.encode_coloring(colors, n, 2)
    if scheme == "is_atleast":
        return graph.star_graph(n), 2, certs.encode_node_set("is_atleast", [2, 3], n)
    if scheme == "clique_atleast":
        edges = [(1, 2), (1, 3), (2, 3)] + [(v, v + 1) for v in range(3, n)]
        return graph.Graph.from_edges(n, edges), 3, certs.encode_node_set("clique_atleast", [1, 2, 3], n)
    if scheme == "vc_atmost":
        return graph.star_graph(n), 1, certs.encode_node_set("vc_atmost", [1], n)
    if scheme == "mm_equal":
        le = certs.encode_tutte_berge(frozenset({1}), n)
        ge = certs.encode_mm_list([(1, 2)], n)
        return graph.star_graph(n), 1, certs.encode_equality("mm_equal", le, ge)
    if scheme == "deg_equal":
        le = certs.encode_peel_order({v: (v - 1 if v > 1 else n) for v in range(1, n + 1)}, n)
        ge = certs.encode_core_subset(range(1, n + 1), n)
        return graph.star_graph(n), 1, certs.encode_equality("deg_equal", le, ge)
    raise ValueError(f"no honest family for {scheme!r}")


#: node count of the honest instances
STREAM_N = {"full": 1 << 14, "tiny": 1 << 8}
#: ops per scheme in a round, each under its own fresh order
STREAM_SLOTS = {"full": 9, "tiny": 1}


class StreamVerify(Workload):
    """``streamcert verify`` without argparse and file I/O, at n = 2^14."""

    name = "stream_verify"
    required = (
        "make_stream", "run_verifier", "decode_blob", "verifier.__init__",
        "verifier.finalize", "meter.resize", "parse_graph_file",
    )

    def setup(self, seed, scale):
        n = STREAM_N[scale]
        instances = []
        for scheme in schemes.SCHEMES:
            g, k, cert = _honest_instance(scheme, n)
            text = graph.format_graph_file(g, k)
            data = certs.serialize_certificate(cert)
            del g, cert
            parsed, k = graph.parse_graph_file(text)
            instances.append((scheme, parsed, k, data, verifiers.space_bound(scheme, n, k)))
        return seed, instances, STREAM_SLOTS[scale]

    def ops(self, inputs, round_index):
        seed, instances, slots = inputs
        rng = _order_rng(self.name, seed, round_index)
        return [
            (f"{inst[0]}/{slot}", (inst, f"shuffle:{rng.randrange(1 << 30)}"))
            for slot in range(slots)
            for inst in instances
        ]

    def run_op(self, key, instance, order, digest):
        scheme, g, k, data, bound = instance
        t0 = perf()
        s = stream.make_stream(g, k, order)
        cert = certs.deserialize_certificate(data)
        verdict, report = verifiers.run_verifier(scheme, s, cert)
        seconds = perf() - t0
        problems = check_honest(scheme, g.n, k, verdict, report, cert, bound)
        if digest is not None:
            digest.add(verdict.decision, report.peak_state_bits, report.certificate_bits)
        return OpResult(key, seconds, seconds, 1, 1, len(s.edges), problems)


# -- prove_verify ---------------------------------------------------------------

#: the schemes whose provers run in polynomial time
PROVE_SCHEMES = (
    "mm_atleast_list", "mm_atleast_coloring", "mm_atmost", "deg_atmost",
    "deg_atleast", "diam_atleast", "mm_equal", "deg_equal",
)
#: node counts of the G(n, 8/n) graphs, one graph per count. Many mid-sized
#: graphs rather than a few large ones, so that no single graph's structure
#: sets much of a round's proving time.
PROVE_SIZES = {"full": tuple(range(100, 200, 5)), "tiny": (20, 30)}


class ProveVerify(Workload):
    """Prove seeded G(n, 8/n) graphs at a legal k, then verify under a shuffle."""

    name = "prove_verify"
    required = (
        "make_stream", "run_verifier", "decode_blob", "verifier.__init__",
        "verifier.finalize", "meter.resize", "prove", "maximum_matching",
        "parameter_value",
    )

    def setup(self, seed, scale):
        rng = random.Random(f"prove_verify:{seed}")
        ops = []
        for n in PROVE_SIZES[scale]:
            g = graph.gnp_random_graph(n, 8 / n, rng.randrange(1 << 30))
            values = {}
            for scheme in PROVE_SCHEMES:
                info = schemes.SCHEMES[scheme]
                if info.parameter not in values:
                    values[info.parameter] = oracles.parameter_value(g, info.parameter)
                value = values[info.parameter]
                k = n if math.isinf(value) else int(value)
                if not info.legal(value, k):
                    raise AssertionError(f"{scheme}: k={k} is not legal for value {value}")
                ops.append((scheme, g, k, verifiers.space_bound(scheme, n, k)))
        return seed, ops

    def ops(self, inputs, round_index):
        seed, ops = inputs
        rng = _order_rng(self.name, seed, round_index)
        return [(f"{op[0]}/n{op[1].n}", (op, f"shuffle:{rng.randrange(1 << 30)}")) for op in ops]

    def run_op(self, key, op, order, digest):
        scheme, g, k, bound = op
        t0 = perf()
        cert = schemes.SCHEMES[scheme].prover(g, k)
        t1 = perf()
        s = stream.make_stream(g, k, order)
        verdict, report = verifiers.run_verifier(scheme, s, cert)
        t2 = perf()
        problems = check_honest(scheme, g.n, k, verdict, report, cert, bound)
        if digest is not None:
            digest.add(
                verdict.decision, report.peak_state_bits, report.certificate_bits,
                certs.serialize_certificate(cert).hex(),
            )
        return OpResult(key, t2 - t0, t2 - t1, 1, 1, g.m, problems)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (SoundnessFuzz(), StreamVerify(), ProveVerify())
}
