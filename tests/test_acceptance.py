"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All tolerances are pinned here: exact equalities for oracle agreement and
certificate sizes, hard inequalities for space bounds, zero-failure targets
for the completeness/soundness/gadget sweeps.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from streamcert.certs import decode_blob, encode_equality
from streamcert.gadgets import (
    bitgadget_vc_family,
    check_gadget_equivalence,
    disj_degeneracy_family,
    disj_diameter8_family,
    disj_matching_family,
    holzer_diameter2_family,
    perm_coloring_family,
)
from streamcert.graph import bounded_degree_graph, gnp_random_graph
from streamcert.harness import (
    ACCEPTANCE_CORPUS_SPEC,
    FuzzPolicy,
    build_corpus,
    format_reasons,
    run_completeness,
    run_soundness,
    run_space_scaling,
)
from streamcert.meter import ceil_log2
from streamcert.oracles import oracle_degeneracy, oracle_max_matching
from streamcert.provers import NotCertifiable, prove_mm_atleast_coloring
from streamcert.schemes import BASE_SCHEMES, SCHEMES
from streamcert.stream import ORDER_BATTERY, SOUNDNESS_ORDERS, make_stream
from streamcert.verifiers import run_verifier

from reference import oracle_tutte_berge

SEED = 2026
SCALING_SIZES = (2**8, 2**10, 2**12, 2**14)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(ACCEPTANCE_CORPUS_SPEC, seed=SEED)


def test_criterion_1_completeness_sweep(corpus):
    """Honest certificates accepted under all 23 orders, >= 500 legal
    instances per scheme, zero failures."""
    failures: list[str] = []
    min_instances = math.inf
    assert len(ORDER_BATTERY) == 23
    for scheme in BASE_SCHEMES:
        report = run_completeness(scheme, corpus, ORDER_BATTERY)
        min_instances = min(min_instances, report.instances)
        failures.extend(f"{scheme}: {f}" for f in report.failures)
    ok = not failures and min_instances >= 500
    _report(
        "1 completeness",
        ok,
        f"{len(BASE_SCHEMES)} schemes, >= {min_instances} legal instances each, "
        f"23 orders, {len(failures)} failures",
    )
    assert not failures, failures[:5]
    assert min_instances >= 500


def test_criterion_2_soundness_sweep(corpus):
    """Every fuzzed certificate rejected on illegal instances under 5 orders:
    200 random payloads + 200 bit-flips + near-miss transplants per instance."""
    breaches: list[str] = []
    min_instances = math.inf
    trials = 0
    reasons: Counter[str] = Counter()
    assert len(SOUNDNESS_ORDERS) == 5
    for scheme in BASE_SCHEMES:
        per_scheme_instances = set()
        for mode, budget in (
            ("random_bytes", 200),
            ("bit_flip", 200),
            ("structured_wrong", 2),
        ):
            report = run_soundness(
                scheme, corpus, FuzzPolicy(mode, budget, SEED), SOUNDNESS_ORDERS
            )
            breaches.extend(report.failures)
            trials += len(report.records)
            reasons += report.reasons()
            per_scheme_instances |= {(r.graph, r.k) for r in report.records}
        min_instances = min(min_instances, len(per_scheme_instances))
    ok = not breaches and min_instances >= 300
    _report(
        "2 soundness",
        ok,
        f"{len(BASE_SCHEMES)} schemes, >= {min_instances} illegal instances each, "
        f"{trials} trials, {len(breaches)} acceptances, "
        f"reasons={format_reasons(reasons)}",
    )
    assert not breaches, breaches[:5]
    assert min_instances >= 300


def test_criterion_3_tutte_berge_oracle_equality():
    """Exhaustive Tutte-Berge minimum equals the matching number exactly on
    1,000 seeded random graphs with n <= 12."""
    mismatches = 0
    for seed in range(1000):
        n = 4 + seed % 9  # 4..12
        p = (0.2, 0.35, 0.5)[seed % 3]
        g = gnp_random_graph(n, p, seed)
        if oracle_tutte_berge(g)[0] != oracle_max_matching(g):
            mismatches += 1
    _report("3 tutte-berge", mismatches == 0, f"1000 graphs, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_4_gadget_iff_equivalences():
    """Exhaustive / sampled sweeps of every gadget family against the oracles."""
    sweeps = [
        (holzer_diameter2_family(4), None),
        (disj_matching_family(4), None),
        (disj_degeneracy_family(4), None),
        (perm_coloring_family(3), None),
        # note: the full (x, y) space at width 2 is 2^4 * 2^4 = 256 pairs,
        # so the exhaustive sweep covers every instance
        (bitgadget_vc_family(2), None),
        (disj_diameter8_family(3), 1000),
    ]
    details = []
    total_mismatches = 0
    for family, count in sweeps:
        report = check_gadget_equivalence(family, count, seed=SEED)
        total_mismatches += len(report.mismatches)
        details.append(f"{family.name}:{len(report.records)}")
    ok = total_mismatches == 0
    _report("4 gadgets", ok, f"{'; '.join(details)}; {total_mismatches} mismatches")
    assert ok


def test_criterion_5_space_bounds_and_certificate_sizes():
    """Measured peak bits below the closed-form ceiling and certificate sizes
    exactly on the codec formula, for n in {2^8, 2^10, 2^12, 2^14}."""
    violations = []
    for scheme in BASE_SCHEMES + ("mm_equal", "deg_equal"):
        report = run_space_scaling(scheme, SCALING_SIZES)
        for row in report.rows:
            if not row.accepted:
                violations.append(f"{scheme} n={row.n}: honest run rejected")
            if row.peak_bits > row.bound_bits:
                violations.append(
                    f"{scheme} n={row.n}: peak {row.peak_bits} > bound {row.bound_bits}"
                )
            if row.cert_bits != row.formula_bits:
                violations.append(
                    f"{scheme} n={row.n}: cert {row.cert_bits} != formula {row.formula_bits}"
                )
            if scheme == "mm_atmost" and row.cert_bits != row.n:
                violations.append(f"membership vector must be exactly n bits at n={row.n}")
            if scheme == "diam_atleast" and row.cert_bits != row.n * ceil_log2(row.k + 2):
                violations.append(f"distance labels must be n*ceil(log2(k+2)) bits at n={row.n}")
    ok = not violations
    _report(
        "5 space-bounds",
        ok,
        f"12 schemes x {len(SCALING_SIZES)} sizes up to n=16384, "
        f"{len(violations)} violations",
    )
    assert not violations, violations[:5]


def test_criterion_6_two_delta_coloring_construction():
    """500 seeded graphs with max degree <= 6 and n <= 200: the coloring
    certificate stays within max(1, 2*Delta - 1) colors, marks >= k
    monochromatic edges, gives every vertex at most one same-colored
    neighbor, and verifies under the whole order battery."""
    failures = []
    checked = 0
    for i in range(500):
        n = 20 + (i * 7) % 181  # 20..200
        max_deg = 1 + i % 6  # 1..6, exercising the single-color edge case too
        g = bounded_degree_graph(n, max_deg, m_target=(n * 3) // 2, seed=i)
        nu = oracle_max_matching(g)
        if nu == 0:
            continue
        k = max(1, nu - (i % 3))
        checked += 1
        try:
            cert = prove_mm_atleast_coloring(g, k)
        except NotCertifiable:
            failures.append(f"graph {i}: prover refused a legal instance")
            continue
        domain, colors = decode_blob(cert, "mm_atleast_coloring", g.n, k)
        delta = g.max_degree()
        if domain > max(1, 2 * delta - 1) or max(colors[1:]) > domain:
            failures.append(f"graph {i}: color domain over 2*Delta-1")
        adj = g.adjacency()
        mono = sum(1 for u, v in g.edges if colors[u] == colors[v])
        if mono < k:
            failures.append(f"graph {i}: only {mono} monochromatic edges for k={k}")
        for v in range(1, g.n + 1):
            if sum(1 for w in adj[v] if colors[w] == colors[v]) > 1:
                failures.append(f"graph {i}: vertex {v} has 2 same-colored neighbors")
                break
        for order in ORDER_BATTERY:
            verdict, _ = run_verifier(
                "mm_atleast_coloring", make_stream(g, k, order), cert
            )
            if not verdict.accepted:
                failures.append(f"graph {i} order {order}: rejected ({verdict.reason})")
                break
    ok = not failures and checked >= 490
    _report("6 coloring-construction", ok, f"{checked} graphs, {len(failures)} failures")
    assert not failures, failures[:5]
    assert checked >= 490


def test_criterion_7_equality_combinator(corpus):
    """An equality certificate, its two halves packed by encode_equality,
    is accepted exactly when the oracle value equals k, for k in
    {value-1, value, value+1}, on all corpus graphs with n <= 12."""
    pairs = {
        "matching": ("mm_equal", "mm_atmost", "mm_atleast_list", oracle_max_matching),
        "degeneracy": ("deg_equal", "deg_atmost", "deg_atleast", oracle_degeneracy),
    }
    disagreements = []
    checked = 0
    for entry in corpus.entries:
        g = entry.graph
        if g.n > 12:
            continue
        for parameter, (scheme, le_scheme, ge_scheme, oracle) in pairs.items():
            value = oracle(g)
            for k in (value - 1, value, value + 1):
                if k < 0:
                    continue
                certs = []
                for half in (le_scheme, ge_scheme):
                    info = SCHEMES[half]
                    try:
                        certs.append(info.prover(g, k))
                    except NotCertifiable:
                        # transplant the honest certificate from the true value
                        certs.append(info.prover(g, value))
                verdict, _ = run_verifier(
                    scheme, make_stream(g, k, "given"), encode_equality(scheme, *certs)
                )
                checked += 1
                if verdict.accepted != (k == value):
                    disagreements.append(
                        f"{entry.name} {parameter} k={k} value={value}: "
                        f"{verdict.decision}"
                    )
    ok = not disagreements and checked > 0
    _report("7 equality", ok, f"{checked} checks, {len(disagreements)} disagreements")
    assert not disagreements, disagreements[:5]
