"""In-memory span tracer for the traced benchmark run.

The tracer wraps streamcert's public entry points at the module attribute
where their callers look them up, and restores every attribute on exit.
Nothing inside ``src/`` changes. Each wrapped call becomes a span: name,
scheme key, start, end, parent span and op id. Self time is a span's
duration minus the time its child spans cover.

Spans are aggregated into one ``Pass`` per set-up and per round, so counts
can be compared pass by pass. Raw spans are kept in memory up to a cap and
written out once, when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from streamcert import graph, harness, meter, oracles, provers, schemes, stream, verifiers
from streamcert.certs import MalformedCertificate

#: wrapped entry point -> the layer (package module) it belongs to
LAYER_OF = {
    "parse_graph_file": "graph",
    "make_stream": "stream",
    "decode_blob": "certs",
    "run_verifier": "verifiers",
    "verifier.__init__": "verifiers",
    "verifier.finalize": "verifiers",
    "prove": "provers",
    "maximum_matching": "oracles",
    "parameter_value": "oracles",
    "fuzz_instance": "harness",
}

SPAN_CAP = 200_000


@dataclass
class Pass:
    """Aggregates of one set-up or one round."""

    kind: str  # "setup" | "round"
    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    outer_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    calls: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    streams: set = field(default_factory=set)


class Tracer:
    def __init__(self) -> None:
        self.passes: list[Pass] = []
        self.current: Pass | None = None
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = 0
        self._stack: list[list] = []
        self._depth: Counter = Counter()
        self._next_id = 0

    def begin_op(self) -> None:
        """Give the spans that follow, up to the next call, a new op id."""
        self.op_id += 1

    # -- spans ----------------------------------------------------------------

    def wrap(self, name, fn, key_of=None, after=None, on_error=None):
        """Return ``fn`` wrapped so each call records a span named ``name``."""
        tracer = self
        layer = LAYER_OF[name]
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            depth = tracer._depth
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            outermost = depth[layer] == 0
            depth[layer] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer.current, exc)
                raise
            finally:
                t1 = perf()
                depth[layer] -= 1
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                key = key_of(args) if key_of is not None else ""
                current = tracer.current
                current.self_s[name, key] += duration - frame[1]
                if outermost:
                    current.outer_s[name, key] += duration
                current.calls[name, key] += 1
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (tracer.op_id, span_id, parent, name, key, t0, t1)
                    )
                else:
                    tracer.dropped += 1
            if after is not None:
                after(current, args, result)
            return result

        return wrapper

    @contextmanager
    def recording(self, kind: str):
        """Trace one set-up or round: install the wrappers, then restore them."""
        self.current = Pass(kind)
        restore = self._install()
        try:
            yield self.current
        finally:
            for obj, attr, original in reversed(restore):
                if isinstance(obj, dict):
                    obj[attr] = original
                else:
                    setattr(obj, attr, original)
            self.passes.append(self.current)
            self.current = None

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("op\tspan\tparent\tname\tkey\tstart_s\tend_s\n")
            for op, span, parent, name, key, t0, t1 in self.spans:
                out.write(f"{op}\t{span}\t{parent}\t{name}\t{key}\t{t0:.9f}\t{t1:.9f}\n")

    # -- installation ----------------------------------------------------------

    def _install(self) -> list[tuple]:
        restore: list[tuple] = []

        def patch(obj, attr, wrapped):
            original = obj[attr] if isinstance(obj, dict) else getattr(obj, attr)
            restore.append((obj, attr, original))
            if isinstance(obj, dict):
                obj[attr] = wrapped
            else:
                setattr(obj, attr, wrapped)

        def stream_built(p, args, result):
            g, k, order = args[0], args[1], args[2] if len(args) > 2 else "given"
            p.counts["stream.builds"] += 1
            p.streams.add((g.n, g.edges, k, order))

        def verifier_ran(p, args, result):
            scheme, edges = args[0], len(args[1].edges)
            p.counts["verifiers.runs"] += 1
            p.counts["verifiers.edges_streamed"] += edges
            p.counts["verifiers.edges." + scheme] += edges
            reason = result[0].reason
            if reason == verifiers.R_MALFORMED or reason.endswith(":" + verifiers.R_MALFORMED):
                p.counts["verifiers.dead_edges"] += edges

        def decoded(p, args, result):
            p.counts["certs.decodes"] += 1

        def decode_failed(p, exc):
            p.counts["certs.decodes"] += 1
            if isinstance(exc, MalformedCertificate):
                p.counts["certs.malformed"] += 1

        def matched(p, args, result):
            p.counts["oracles.blossom_calls"] += 1

        make_stream = self.wrap("make_stream", stream.make_stream, after=stream_built)
        patch(stream, "make_stream", make_stream)
        patch(harness, "make_stream", make_stream)

        run_verifier = self.wrap(
            "run_verifier", verifiers.run_verifier, key_of=lambda a: a[0], after=verifier_ran
        )
        patch(verifiers, "run_verifier", run_verifier)
        patch(harness, "run_verifier", run_verifier)

        patch(verifiers, "decode_blob", self.wrap(
            "decode_blob", verifiers.decode_blob, key_of=lambda a: a[1],
            after=decoded, on_error=decode_failed,
        ))
        base = verifiers.StreamingVerifier
        patch(base, "__init__", self.wrap(
            "verifier.__init__", base.__init__, key_of=lambda a: a[0].scheme
        ))
        patch(base, "finalize", self.wrap(
            "verifier.finalize", base.finalize, key_of=lambda a: a[0].scheme
        ))

        tracer = self
        resize = meter.SpaceMeter.resize

        def counted_resize(self_, name, new_width_bits):
            tracer.current.counts["meter.resize_calls"] += 1
            return resize(self_, name, new_width_bits)

        patch(meter.SpaceMeter, "resize", counted_resize)

        # provers: the registry entries callers use, and the module globals
        # the equality provers call through
        wrapped_provers = {}
        for name, info in list(schemes.SCHEMES.items()):
            fn = info.prover
            wrapped = self.wrap("prove", fn, key_of=lambda a, name=name: name)
            wrapped_provers[fn.__name__] = wrapped
            patch(schemes.SCHEMES, name, replace(info, prover=wrapped))
        for fn_name, wrapped in wrapped_provers.items():
            patch(provers, fn_name, wrapped)

        maximum_matching = self.wrap("maximum_matching", oracles.maximum_matching, after=matched)
        patch(oracles, "maximum_matching", maximum_matching)
        patch(provers, "maximum_matching", maximum_matching)

        parameter_value = self.wrap("parameter_value", oracles.parameter_value)
        patch(oracles, "parameter_value", parameter_value)
        patch(harness, "parameter_value", parameter_value)

        patch(graph, "parse_graph_file", self.wrap("parse_graph_file", graph.parse_graph_file))
        patch(harness, "fuzz_instance", self.wrap(
            "fuzz_instance", harness.fuzz_instance, key_of=lambda a: a[0]
        ))
        return restore
