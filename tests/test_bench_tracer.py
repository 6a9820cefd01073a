"""The benchmark's tracer still sees every entry point it wraps.

``perfbench/tracer.py`` wraps streamcert's entry points at the module
attribute where their callers look them up. A change that drops or
re-imports one of those names leaves its wrapper blind, which ``run.py
--trace 1`` reports only as "trace blind". This test catches it in the
suite: one tiny set-up and one round per workload, both traced.

It runs in a fresh interpreter, because the benchmark imports its own
modules by bare name (``reference``, ``gate``), and ``tests/`` has a
``reference`` module of its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_TRACE_EVERY_WORKLOAD = """
import json, sys
sys.path[:0] = sys.argv[1:]
from run import _required_calls_missing
from tracer import Tracer
from workloads import WORKLOADS

out = {}
for name, workload in WORKLOADS.items():
    tracer = Tracer()
    # set-up is traced too: parameter_value and parse_graph_file run only there
    with tracer.recording("setup"):
        inputs = workload.setup(0, "tiny")
    with tracer.recording("round"):
        results = workload.run_round(inputs, 0, None, on_op=tracer.begin_op)
    out[name] = {
        "ops": len(results),
        "missing": _required_calls_missing(tracer, workload),
        "problems": [p for op in results for p in op.problems],
    }
print(json.dumps(out))
"""


def test_tracer_records_every_required_call_on_every_workload():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-c", _TRACE_EVERY_WORKLOAD, str(ROOT / "src"), str(ROOT / "perfbench")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert sorted(report) == ["prove_verify", "soundness_fuzz", "stream_verify"]
    for name, result in report.items():
        assert result["ops"] > 0, name
        assert result["missing"] == [], (name, result["missing"])
        assert result["problems"] == [], (name, result["problems"][:3])
