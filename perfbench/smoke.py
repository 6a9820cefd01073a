"""Smoke test of the benchmark at a tiny load.

    python3 perfbench/smoke.py

1. Runs every workload at ``--scale tiny``, untraced and traced, and checks
   that the result line names every metric of BENCHMARK.json with its unit.
2. Plants wrong outcomes and checks that the correctness gate trips on each:
   an accept on an illegal instance, a rejected honest certificate, a peak
   over the space bound, a certificate off its codec formula, an op that
   raises, a changed digest, and a traced entry point that records no calls.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for workload in spec["workloads"]:
            name = workload["name"]
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace),
                 "--scale", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            what = f"{name} trace={trace}"
            if proc.returncode != 0:
                check(False, f"{what}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{what}: result keys")
            check(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
                  f"{what}: correct, {result['attempted']} ops attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{what}: every {section} metric printed with its unit")


@contextlib.contextmanager
def patched(obj, attr, value):
    original = obj[attr] if isinstance(obj, dict) else getattr(obj, attr)
    if isinstance(obj, dict):
        obj[attr] = value
    else:
        setattr(obj, attr, value)
    try:
        yield
    finally:
        if isinstance(obj, dict):
            obj[attr] = original
        else:
            setattr(obj, attr, original)


def planted() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import run
    from gate import DigestBook
    from streamcert import harness, schemes, stream, verifiers
    from streamcert.meter import SpaceReport
    from streamcert.verifiers import Verdict
    from tracer import Tracer
    from workloads import WORKLOADS

    def problems(workload_name):
        workload = WORKLOADS[workload_name]
        inputs = workload.setup(SEED, "tiny")
        return [p for op in workload.run_round(inputs, 0, None) for p in op.problems]

    def accept_all(scheme, s, cert):
        if cert.scheme != scheme:  # keep the breach line printable
            return Verdict("reject", "planted"), SpaceReport(0, cert.semantic_bits)
        return Verdict("accept", "ok"), SpaceReport(0, cert.semantic_bits)

    with patched(harness, "run_verifier", accept_all):
        found = problems("soundness_fuzz")
        check(any("accepted" in p for p in found), "fuzzed certificate accepted -> op fails")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "soundness_fuzz", "--seed", str(SEED),
                             "--seconds", "0", "--scale", "tiny"])
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        check(code != 0 and not result["correct"] and result["failed"] > 0,
              "planted accept -> run reports correct=false")

    real_run_verifier = verifiers.run_verifier

    def reject_all(scheme, s, cert):
        _, report = real_run_verifier(scheme, s, cert)
        return Verdict("reject", "planted"), report

    with patched(verifiers, "run_verifier", reject_all):
        found = problems("stream_verify")
        check(any("honest certificate rejected" in p for p in found),
              "honest certificate rejected -> op fails")

    def overfull(scheme, s, cert):
        verdict, report = real_run_verifier(scheme, s, cert)
        return verdict, SpaceReport(1 << 40, report.certificate_bits)

    with patched(verifiers, "run_verifier", overfull):
        found = problems("prove_verify")
        check(any("> bound" in p for p in found), "peak over space_bound -> op fails")

    info = schemes.SCHEMES["deg_atmost"]

    def off_formula(g, k):
        cert = info.prover(g, k)
        return dataclasses.replace(cert, semantic_bits=cert.semantic_bits + 1)

    with patched(schemes.SCHEMES, "deg_atmost", dataclasses.replace(info, prover=off_formula)):
        found = problems("prove_verify")
        check(any("formula gives" in p for p in found), "semantic_bits off formula -> op fails")

    def boom(*args, **kwargs):
        raise RuntimeError("planted")

    with patched(stream, "make_stream", boom):
        found = problems("stream_verify")
        check(any("raised" in p for p in found), "op that raises -> op fails")

    book = DigestBook(HERE / "digests.json", None)
    book.committed["planted/tiny/0"] = "0" * 64
    ok, _ = book.check("planted/tiny/0", "1" * 64)
    check(not ok, "changed digest -> run fails")

    tracer = Tracer()
    workload = WORKLOADS["stream_verify"]
    inputs = workload.setup(SEED, "tiny")
    with tracer.recording("round"):
        workload.run_round(inputs, 0, None)
    missing = run._required_calls_missing(tracer, WORKLOADS["soundness_fuzz"])
    check("fuzz_instance" in missing, "entry point with zero calls -> trace reports it")


def main() -> int:
    metric_names()
    planted()
    print(f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
