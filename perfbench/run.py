"""streamcert benchmark: one workload per run, one process, one thread.

Usage (from the repository root):

    python3 perfbench/run.py --workload soundness_fuzz --seed 1 --seconds 25 --trace 0

A run sets up its inputs from the seed three times or more (``setup_s`` is
the median), then repeats rounds of ops in a closed loop with a single client
until ``--seconds`` have passed. Every op passes the correctness gate, and
round 0's outcome digest must match the one recorded for the seed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics. Human-readable
lines start with ``#``; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
#: set-ups per run: at least the first number, and more until the second
#: number of seconds have gone into set-up, up to the third
SETUP_REPEATS = (3, 3.0, 30)


def _import_program() -> None:
    """Import streamcert from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import streamcert
    except ImportError as exc:
        sys.exit(f"cannot import streamcert from {src}: {exc}")
    if Path(streamcert.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"streamcert was imported from {streamcert.__file__}, not from {src}")


def _percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def throughputs(rounds, scaled: bool = True) -> dict[str, float]:
    """Work of a round over its op time, median over the rounds.

    Op times are scaled to the reference speed unless ``scaled`` is false.
    """
    def rate(results, work):
        op_s = sum(op.at_reference(op.seconds) if scaled else op.seconds for op in results)
        return sum(work(op) for op in results) / op_s

    return {
        name: statistics.median(rate(results, work) for results in rounds)
        for name, work in (
            ("trials_per_s", lambda op: op.trials),
            ("certs_per_s", lambda op: op.certs),
            ("edges_per_s", lambda op: op.edges),
        )
    }


def verify_ms(rounds) -> list[float]:
    """Each op's verification latency at reference speed, median over rounds."""
    by_key: dict = {}
    for results in rounds:
        for op in results:
            by_key.setdefault(op.key, []).append(1000 * op.at_reference(op.verify_s))
    return sorted(statistics.median(times) for times in by_key.values())


def end_to_end(setup_times, rounds) -> dict[str, tuple[float, str]]:
    latencies = verify_ms(rounds)
    tput = throughputs(rounds)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "trials_per_s": (tput["trials_per_s"], "1/s"),
        "certs_per_s": (tput["certs_per_s"], "1/s"),
        "edges_per_s": (tput["edges_per_s"], "1/s"),
        "verify_p50_ms": (_percentile(latencies, 50), "ms"),
        "verify_p90_ms": (_percentile(latencies, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced_rounds, untraced_rounds) -> dict[str, tuple[float, str]]:
    from workloads import PROVE_SCHEMES
    from streamcert.schemes import SCHEMES

    setups = [p for p in tracer.passes if p.kind == "setup"]
    rounds = [p for p in tracer.passes if p.kind == "round"]

    def timed(table, name, key=None):
        """Median seconds per set-up plus median seconds per round."""
        def one(p):
            return sum(v for (n, k), v in getattr(p, table).items()
                       if n == name and (key is None or k == key))
        return statistics.median(map(one, setups)) + statistics.median(map(one, rounds))

    def count(name):
        return setups[0].counts[name] + rounds[0].counts[name]

    def calls(name):
        return sum(v for (n, _), v in setups[0].calls.items() if n == name) + sum(
            v for (n, _), v in rounds[0].calls.items() if n == name)

    def share(num, den):
        return num / den if den else 0.0

    builds = count("stream.builds")
    distinct = len(setups[0].streams) + len(rounds[0].streams)
    runs = count("verifiers.runs")
    edges = count("verifiers.edges_streamed")
    untraced = throughputs(untraced_rounds)["trials_per_s"]
    traced = throughputs(traced_rounds)["trials_per_s"]
    records = sum(op.trials for op in traced_rounds[0]) if calls("fuzz_instance") else 0
    m = {
        "graph.parse_s": (timed("self_s", "parse_graph_file"), "s"),
        "stream.make_s": (timed("self_s", "make_stream"), "s"),
        "stream.builds": (builds, "count"),
        "stream.distinct_share": (share(distinct, builds), "share"),
        "certs.decode_s": (timed("self_s", "decode_blob"), "s"),
        "certs.decodes": (count("certs.decodes"), "count"),
        "certs.malformed_share": (share(count("certs.malformed"), count("certs.decodes")), "share"),
        "verifiers.init_s": (timed("self_s", "verifier.__init__"), "s"),
        "verifiers.edge_loop_s": (timed("self_s", "run_verifier"), "s"),
        "verifiers.finalize_s": (timed("self_s", "verifier.finalize"), "s"),
        "verifiers.runs": (runs, "count"),
        "verifiers.edges_streamed": (edges, "count"),
        "verifiers.dead_edge_share": (share(count("verifiers.dead_edges"), edges), "share"),
    }
    for scheme in SCHEMES:
        streamed = sum(p.counts["verifiers.edges." + scheme] for p in rounds)
        loop_s = sum(p.self_s["run_verifier", scheme] for p in rounds)
        m[f"verifiers.edges_per_s.{scheme}"] = (share(streamed, loop_s), "1/s")
    m["meter.resize_calls"] = (count("meter.resize_calls"), "count")
    m["provers.prove_s"] = (timed("outer_s", "prove"), "s")
    m["provers.self_s"] = (timed("self_s", "prove"), "s")
    m["provers.calls"] = (calls("prove"), "count")
    for scheme in PROVE_SCHEMES:
        m[f"provers.prove_s.{scheme}"] = (timed("outer_s", "prove", scheme), "s")
    m["oracles.blossom_calls"] = (count("oracles.blossom_calls"), "count")
    m["oracles.matching_s"] = (timed("outer_s", "maximum_matching"), "s")
    m["oracles.parameter_value_s"] = (timed("outer_s", "parameter_value"), "s")
    m["oracles.parameter_value_calls"] = (calls("parameter_value"), "count")
    m["oracles.self_s"] = (
        timed("self_s", "maximum_matching") + timed("self_s", "parameter_value"), "s")
    m["harness.self_s"] = (timed("self_s", "fuzz_instance"), "s")
    m["harness.fuzz_instance_calls"] = (calls("fuzz_instance"), "count")
    m["harness.records_per_trial"] = (share(records, rounds[0].counts["verifiers.runs"]), "ratio")
    m["trace.overhead_share"] = (share(untraced - traced, untraced), "share")
    m["trace.spans"] = (sum(rounds[0].calls.values()), "count")
    return m


def _required_calls_missing(tracer, workload) -> list[str]:
    missing = []
    for name in workload.required:
        if name == "meter.resize":
            seen = sum(p.counts["meter.resize_calls"] for p in tracer.passes)
        else:
            seen = sum(v for p in tracer.passes for (n, _), v in p.calls.items() if n == name)
        if seen == 0:
            missing.append(name)
    return missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the smoke test")
    parser.add_argument("--record", action="store_true",
                        help="write round 0's digest into perfbench/digests.json")
    args = parser.parse_args(argv)

    _import_program()
    from gate import Digest, DigestBook
    from reference import REF_S, Reference, scale
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    def traced(kind, on):
        return tracer.recording(kind) if on else nullcontext()

    reference = Reference()
    setup_raw, setup_times, ref_samples = [], [], []
    inputs = None
    least, budget_s, most = SETUP_REPEATS
    while len(setup_raw) < least or (sum(setup_raw) < budget_s and len(setup_raw) < most):
        inputs = None
        gc.collect()
        near = reference.block()
        t0 = time.perf_counter()
        with traced("setup", tracer is not None):
            inputs = workload.setup(args.seed, args.scale)
        setup_raw.append(time.perf_counter() - t0)
        gc.collect()
        near += reference.block()
        ref_samples += near
        setup_times.append(setup_raw[-1] * scale(near))

    # the inputs live for the whole run: keep them out of every collection
    gc.collect()
    gc.freeze()
    digest = Digest()
    rounds, traced_rounds = [], []
    min_rounds = 2 if tracer is not None else 1
    start = time.perf_counter()
    index = 0
    while index < min_rounds or time.perf_counter() - start < args.seconds:
        on = tracer is not None and index % 2 == 1
        with traced("round", on):
            results = workload.run_round(
                inputs, index, digest if index == 0 else None,
                on_op=tracer.begin_op if on else None, reference=reference,
            )
        (traced_rounds if on else rounds).append(results)
        index += 1

    all_ops = [op for results in rounds + traced_rounds for op in results]
    failed = [op for op in all_ops if op.problems]
    key = f"{workload.name}/{args.scale}/{args.seed}"
    # a run with failed ops is compared with the records but never recorded
    local = None if args.record or failed else OUT / "digests.json"
    book = DigestBook(HERE / "digests.json", local)
    if args.record and not failed:
        book.record(key, digest.hexdigest())
        digest_ok, digest_note = True, "recorded in perfbench/digests.json"
    else:
        digest_ok, digest_note = book.check(key, digest.hexdigest())

    if tracer is not None:
        missing = _required_calls_missing(tracer, workload)
        if missing:
            sys.exit(f"trace blind: no calls recorded for {', '.join(missing)} "
                     f"on {workload.name}; an import change bypassed the wrappers")
        metrics = per_layer(tracer, traced_rounds, rounds)
        tracer.write_spans(OUT / f"spans-{workload.name}-seed{args.seed}.tsv")
    else:
        metrics = end_to_end(setup_times, rounds)

    ops_per_round = len(rounds[0])
    print(f"# python {platform.python_version()} nproc {os.cpu_count()} "
          f"workload {workload.name} seed {args.seed} scale {args.scale} trace {args.trace}")
    print(f"# rounds {len(rounds)} untraced + {len(traced_rounds)} traced, "
          f"{ops_per_round} ops per round")
    print(f"# set-ups {len(setup_times)} at reference speed: min {min(setup_times):.4f} s, "
          f"median {statistics.median(setup_times):.4f} s, max {max(setup_times):.4f} s; "
          f"as measured: median {statistics.median(setup_raw):.4f} s")
    op_ref = statistics.median(REF_S / op.scale for results in rounds for op in results)
    print(f"# reference loop: mean sample {1000 * statistics.fmean(ref_samples):.3f} ms "
          f"around set-ups, median around an op {1000 * op_ref:.3f} ms; "
          f"{1000 * REF_S:.3f} ms at reference speed")
    raw = throughputs(rounds, scaled=False)
    print("# as measured, median over rounds: " + ", ".join(
        f"{name} {value:.6g} 1/s" for name, value in raw.items()))
    print(f"# ops attempted {len(all_ops)} failed {len(failed)} "
          f"failed_op_share {len(failed) / len(all_ops):.6f}")
    print(f"# trials {sum(op.trials for op in all_ops)} "
          f"edges {sum(op.edges for op in all_ops)}")
    print(f"# verify_p50_ms and verify_p90_ms: percentiles over {ops_per_round} ops, "
          f"each its median of {len(rounds)} untraced rounds")
    print(f"# digest {digest.hexdigest()} over {digest.rows} trials of round 0: {digest_note}")
    if tracer is not None:
        print(f"# spans kept {len(tracer.spans)} dropped {tracer.dropped}")
    for op in failed[:10]:
        for problem in op.problems[:3]:
            print(f"# FAILED {op.key}: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")

    correct = not failed and digest_ok
    print(json.dumps({
        "correct": correct,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
