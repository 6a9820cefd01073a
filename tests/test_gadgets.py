"""Gadget families: pinned examples, partition invariants, equivalence sweeps,
and split-stream (one side fully before the other) verdict invariance."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import re
import time

import pytest

from streamcert.gadgets import (
    FAMILY_BUILDERS,
    BadSizes,
    _assemble,
    bitgadget_vc_family,
    check_gadget_equivalence,
    disj_degeneracy_family,
    disj_diameter8_family,
    disj_matching_family,
    holzer_diameter2_family,
    perm_coloring_family,
)
from streamcert.graph import MAX_NODES_OR_EDGES, GraphError, validate_graph
from streamcert.oracles import (
    TooLarge,
    minimum_vertex_cover,
    oracle_degeneracy,
    oracle_diameter,
    oracle_max_matching,
    parameter_value,
)
from streamcert.schemes import SCHEMES
from streamcert.stream import make_stream
from streamcert.verifiers import run_verifier

from reference import gadget_predicate


# -- pinned examples ----------------------------------------------------------------

def test_disj_matching_examples():
    build = disj_matching_family(4).build
    assert oracle_max_matching(build({1, 2}, {3, 4}).graph) == 4
    assert oracle_max_matching(build({1, 2}, {2, 3}).graph) < 4
    assert oracle_max_matching(disj_matching_family(2).build({1}, {2}).graph) == 2
    with pytest.raises(BadSizes):
        build({1}, {2, 3})
    # a side is read as a set: a repeated element counts once
    assert build([1, 2, 2], {3, 4}) == build({1, 2}, {3, 4})


def test_disj_degeneracy_examples():
    build = disj_degeneracy_family(4).build
    assert oracle_degeneracy(build({1, 2}, {3, 4}).graph) == 1
    assert oracle_degeneracy(build({1, 2}, {2, 4}).graph) >= 2
    inst = build(set(), set())
    assert inst.graph.edges == ((5, 6),)  # the single a-b edge
    assert oracle_degeneracy(inst.graph) == 1


def test_disj_diameter8_examples():
    build = disj_diameter8_family(3).build
    assert oracle_diameter(build({1}, {1}).graph) == 6
    assert oracle_diameter(build({1}, {2}).graph) >= 8
    assert oracle_diameter(disj_diameter8_family(1).build(set(), set()).graph) >= 8


def test_holzer_examples():
    build = holzer_diameter2_family(4).build
    zero = (0,) * 6
    assert oracle_diameter(build(zero, zero).graph) == 2
    common = (1, 0, 0, 0, 0, 0)
    assert oracle_diameter(build(common, common).graph) >= 3
    other = (0, 1, 0, 0, 0, 0)
    assert oracle_diameter(build(common, other).graph) == 2
    with pytest.raises(BadSizes):
        build((0,) * 5, (0,) * 5)


def test_bitgadget_examples():
    family = bitgadget_vc_family(2)
    ones = (1,) * 4
    inst = family.build(ones, ones)
    assert len(minimum_vertex_cover(inst.graph)) == 4 * (2 - 1) + 4 * 1  # = 8
    disjoint = family.build((1, 1, 0, 0), (0, 0, 1, 1))
    assert len(minimum_vertex_cover(disjoint.graph)) >= 9
    x, y = (0, 0, 0, 0), (1, 1, 1, 1)
    assert family.two_party(x, y)  # no common 1 position
    assert len(minimum_vertex_cover(family.build(x, y).graph)) >= 9


def test_perm_coloring_examples():
    from streamcert.oracles import oracle_chromatic

    build = perm_coloring_family(3).build
    ident, swap, cyc = (1, 2, 3), (2, 1, 3), (2, 3, 1)
    assert oracle_chromatic(build(ident, ident).graph) <= 3
    assert oracle_chromatic(build(ident, swap).graph) > 3
    assert oracle_chromatic(build(cyc, cyc).graph) <= 3


@pytest.mark.parametrize(
    "builder,size",
    [
        (disj_matching_family, 0),
        (disj_matching_family, -2),
        (disj_degeneracy_family, 0),
        (disj_degeneracy_family, -1),
        (disj_diameter8_family, 0),
        (holzer_diameter2_family, 1),
        (holzer_diameter2_family, 0),
        (bitgadget_vc_family, 1),
        (perm_coloring_family, 2),
        (perm_coloring_family, -1),
        (disj_matching_family, 3),
        (bitgadget_vc_family, 3),
        (bitgadget_vc_family, 6),
    ],
)
def test_family_refuses_sizes_below_its_minimum(builder, size):
    with pytest.raises(BadSizes):
        builder(size)


#: each family's ceiling, its first refused size, and the inputs of its
#: largest instance at a size: full sets, all-zero vectors, the identity
CEILINGS = {
    "disj_matching": (131072, 131074, lambda n: (range(1, n // 2 + 1),) * 2),
    "disj_degeneracy": (131071, 131072, lambda n: (range(1, n + 1),) * 2),
    "disj_diameter8": (32767, 32768, lambda n: (range(1, n + 1),) * 2),
    "holzer_diameter2": (511, 512, lambda p: ((0,) * (p * (p - 1) // 2),) * 2),
    "bitgadget_vc": (128, 256, lambda n: ((0,) * (n * n),) * 2),
    "perm_coloring": (209, 210, lambda r: (range(1, r + 1),) * 2),
}


@pytest.mark.parametrize("name", CEILINGS)
def test_family_ceiling_bounds_its_largest_instance(name):
    """At its ceiling a family's largest instance has at most
    MAX_NODES_OR_EDGES nodes and edges; the next size is refused before any
    layout."""
    ceiling, refused, largest = CEILINGS[name]
    build = FAMILY_BUILDERS[name].build
    graph = build(ceiling).build(*largest(ceiling)).graph
    assert max(graph.n, graph.m) <= MAX_NODES_OR_EDGES
    start = time.perf_counter()
    with pytest.raises(BadSizes, match=rf"^{name} needs \w <= {ceiling}, got {refused}$"):
        build(refused)
    assert time.perf_counter() - start < 0.1


# -- structural invariants --------------------------------------------------------------

FAMILIES = [
    (disj_matching_family(4), (frozenset({1, 2}), frozenset({2, 4}))),
    (disj_degeneracy_family(4), (frozenset({1, 3}), frozenset({2}))),
    (disj_diameter8_family(3), (frozenset({2}), frozenset({1, 3}))),
    (holzer_diameter2_family(3), ((0, 1, 1), (1, 0, 1))),
    (bitgadget_vc_family(2), ((0, 1, 1, 0), (1, 0, 1, 0))),
    (perm_coloring_family(3), ((2, 3, 1), (1, 3, 2))),
]


@pytest.mark.parametrize("family,inputs", FAMILIES, ids=lambda fi: str(fi)[:24])
def test_partition_invariant(family, inputs):
    x, y = inputs
    inst = family.build(x, y)
    validate_graph(inst.graph)
    groups = (set(inst.fixed_edges), set(inst.alice_edges), set(inst.bob_edges))
    assert sum(map(len, groups)) == inst.graph.m  # disjoint union
    assert set.union(*groups) == set(inst.graph.edge_set)
    assert inst.split_point == len(inst.fixed_edges) + len(inst.alice_edges)


def test_overlapping_edge_groups_are_refused():
    # the same pair on both sides, written in opposite orientations
    with pytest.raises(GraphError, match=r"duplicate edge \(1, 2\)"):
        _assemble(3, [], [(1, 2)], [(2, 1), (2, 3)])


@pytest.mark.parametrize("family,inputs", FAMILIES, ids=lambda fi: str(fi)[:24])
def test_sides_depend_only_on_own_input(family, inputs):
    x, y = inputs
    others = [(b, a) for a, b in [inputs]]  # swapped pair as a second sample
    inst = family.build(x, y)
    for x2, y2 in others:
        same_x = family.build(x, y2)
        assert same_x.alice_edges == inst.alice_edges
        assert same_x.fixed_edges == inst.fixed_edges
        same_y = family.build(x2, y)
        assert same_y.bob_edges == inst.bob_edges
        assert same_y.fixed_edges == inst.fixed_edges


# -- equivalence sweeps --------------------------------------------------------------------

@pytest.mark.parametrize(
    "family",
    [
        disj_matching_family(2),
        disj_degeneracy_family(3),
        holzer_diameter2_family(3),
        perm_coloring_family(3),
        bitgadget_vc_family(2),
    ],
    ids=lambda f: f.name,
)
def test_exhaustive_equivalence_small(family):
    report = check_gadget_equivalence(family)
    assert report.ok, report.mismatches[:3]
    assert len(report.records) == family.input_space


def test_sampled_equivalence():
    report = check_gadget_equivalence(disj_diameter8_family(2), count=60, seed=9)
    assert report.ok and len(report.records) == 60


def test_sampled_equivalence_builds_each_distinct_pair_once():
    # 1,000 draws from a space of 64 pairs, as in criterion 4
    family = disj_diameter8_family(3)
    built = []

    def layout(x, y):
        built.append((x, y))
        return family.layout(x, y)

    report = check_gadget_equivalence(
        dataclasses.replace(family, layout=layout), count=1000, seed=2026
    )
    assert len(report.records) == 1000
    assert len(built) == len(set(built)) == family.input_space
    assert report.ok


def test_exhaustive_gate():
    with pytest.raises(TooLarge):
        check_gadget_equivalence(holzer_diameter2_family(5))


@pytest.mark.parametrize(
    "build, size, message",
    [
        (bitgadget_vc_family, 128, "bitgadget_vc[N=128]: at least 2^32768"),
        (holzer_diameter2_family, 511, "holzer_diameter2[p=511]: at least 2^260610"),
    ],
    ids=["bitvc", "holzer"],
)
def test_exhaustive_gate_refuses_before_any_layout(build, size, message):
    """The quadratic layouts of bitvc and holzer wait for the first build, so
    the gate refuses a family at its ceiling in far less than they take."""
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=re.escape(message + " instances exceed")):
        check_gadget_equivalence(build(size))
    assert time.perf_counter() - start < 1.0


def test_report_lines_are_stable():
    fam = disj_matching_family(2)
    a = check_gadget_equivalence(fam).lines()
    b = check_gadget_equivalence(fam).lines()
    assert a == b and all(line.startswith("gadget=") for line in a)


def test_gadget_report_lines_pinned():
    """sha256 over exhaustive and seeded-sample report lines of every family
    and their input-space sizes: sweep order, sampler draws, render strings
    and family names must not drift."""
    lines = []
    for family in [
        disj_matching_family(2), disj_matching_family(4),
        disj_degeneracy_family(1), disj_degeneracy_family(4),
        disj_diameter8_family(1), disj_diameter8_family(3),
        holzer_diameter2_family(2), holzer_diameter2_family(3),
        bitgadget_vc_family(2), perm_coloring_family(3),
    ]:
        lines += check_gadget_equivalence(family).lines()
    for seed in (0, 1, 7):
        for family in [
            disj_matching_family(8), disj_degeneracy_family(5),
            disj_diameter8_family(3), holzer_diameter2_family(5),
            bitgadget_vc_family(2), perm_coloring_family(4),
        ]:
            lines += check_gadget_equivalence(family, count=20, seed=seed).lines()
    sizes = [
        (disj_matching_family, (2, 4, 6, 8)),
        (disj_degeneracy_family, range(1, 7)),
        (disj_diameter8_family, range(1, 7)),
        (holzer_diameter2_family, range(2, 7)),
        (bitgadget_vc_family, (2, 4, 8)),
        (perm_coloring_family, range(3, 7)),
    ]
    for builder, span in sizes:
        for size in span:
            family = builder(size)
            lines.append(f"{family.name} input_space={family.input_space}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert len(lines) == 1116
    assert digest == (
        "904e4c3f90d9231ae59775e3c996e02a4a3979ca0e4ae4b07dfb48dc1d6f1d43"
    )


#: the sweeps of ``test_gadget_report_lines_pinned``: each family at a size,
#: exhaustively (no count) or by 20 pairs from each of the seeds 0, 1 and 7
PINNED_SWEEPS = [
    ("disj_matching", 2, None), ("disj_matching", 4, None),
    ("disj_degeneracy", 1, None), ("disj_degeneracy", 4, None),
    ("disj_diameter8", 1, None), ("disj_diameter8", 3, None),
    ("holzer_diameter2", 2, None), ("holzer_diameter2", 3, None),
    ("bitgadget_vc", 2, None), ("perm_coloring", 3, None),
    ("disj_matching", 8, 20), ("disj_degeneracy", 5, 20), ("disj_diameter8", 3, 20),
    ("holzer_diameter2", 5, 20), ("bitgadget_vc", 2, 20), ("perm_coloring", 4, 20),
]


@pytest.mark.parametrize("name,size,count", PINNED_SWEEPS, ids=str)
def test_every_applicable_claim_agrees_with_the_judged_one(name, size, count):
    """On every instance the pinned sweeps build, each ``applicable`` triple,
    decided from the parameter's full value, says what ``judge`` says of the
    first, and what the family's predicate in ``reference`` says."""
    family = FAMILY_BUILDERS[name].build(size)
    graphs = []

    def layout(x, y):
        instance = family.layout(x, y)
        graphs.append(instance.graph)
        return instance

    logged = dataclasses.replace(family, layout=layout)
    for seed in (0,) if count is None else (0, 1, 7):
        check_gadget_equivalence(logged, count, seed)
    stated = gadget_predicate(name, size)
    for g in graphs:
        judged = family.judge(g)
        assert stated(g) == judged, (family.name, g)
        values = {}
        for scheme, k, legal_when in family.applicable:
            info = SCHEMES[scheme]
            if info.parameter not in values:
                values[info.parameter] = parameter_value(g, info.parameter)
            assert (info.legal(values[info.parameter], k) == legal_when) == judged, (
                family.name, scheme, g
            )


def test_gadget_instances_pinned():
    """sha256 over every small instance's size and edge groups, in order:
    the graph, the fixed/Alice/Bob partition and so the split point must not
    drift."""
    lines = []
    for family in [
        disj_matching_family(2), disj_matching_family(4),
        disj_degeneracy_family(1), disj_degeneracy_family(3),
        disj_diameter8_family(1), disj_diameter8_family(2),
        holzer_diameter2_family(2), holzer_diameter2_family(3),
        bitgadget_vc_family(2), perm_coloring_family(3),
    ]:
        render = family.domain.render
        side = list(family.domain.all_inputs())
        for x in side:
            for y in side:
                inst = family.build(x, y)
                lines.append(
                    f"{family.name} {render(x)} {render(y)} n={inst.graph.n} "
                    f"fixed={inst.fixed_edges} alice={inst.alice_edges} "
                    f"bob={inst.bob_edges}"
                )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert len(lines) == 488
    assert digest == (
        "463dbd9f023eae2a44f984350758c9dd6dd31175daae8c4df29f7a6f34ddcd1f"
    )


# -- split-stream replay ----------------------------------------------------------------------

@pytest.mark.parametrize("family,inputs", FAMILIES, ids=lambda fi: str(fi)[:24])
def test_split_stream_matches_shuffled_verdict(family, inputs):
    """Alice-then-Bob order gives the same verdict as shuffles, for every
    scheme whose instance (graph, k) is legal/illegal per the gadget."""
    x, y = inputs
    for pair in [inputs, (inputs[1], inputs[0])]:
        try:
            inst = family.build(*pair)
        except BadSizes:
            continue
        holds = family.two_party(*pair)
        for scheme, k, legal_when in family.applicable:
            info = SCHEMES[scheme]
            legal = holds == legal_when
            if legal:
                cert = info.prover(inst.graph, k)
            else:
                # honest-shaped certificate for the graph's own value
                from streamcert.oracles import parameter_value

                value = parameter_value(inst.graph, info.parameter)
                if math.isinf(value):
                    continue
                cert = info.prover(inst.graph, int(value))
            orders = [f"split:{inst.split_point}", "given", "shuffle:1", "rev"]
            verdicts = {
                run_verifier(scheme, make_stream(inst.graph, k, order), cert)[0].decision
                for order in orders
            }
            assert len(verdicts) == 1
            assert verdicts == ({"accept"} if legal else {"reject"})


@pytest.mark.parametrize(
    "family,x,y",
    [
        (disj_matching_family(4), {1, 5}, {2, 3}),
        (disj_matching_family(4), {1, 2, 3}, {2, 3}),
        (disj_matching_family(4), [1, 1], {2, 3}),
        (disj_degeneracy_family(3), {4}, set()),
        (disj_diameter8_family(2), set(), {3}),
        (holzer_diameter2_family(3), (0, 0, 0), (0, 0, 0, 0)),
        (bitgadget_vc_family(2), (0, 0, 0), (0, 0, 0, 0)),
        (perm_coloring_family(3), (1, 1, 2), (1, 2, 3)),
        (perm_coloring_family(3), (1, 2, 3), (1, 2, 4)),
    ],
    ids=[
        "disj_matching-outside", "disj_matching-not-half", "disj_matching-repeat",
        "disj_degeneracy-outside", "disj_diameter8-outside", "holzer_diameter2-length",
        "bitgadget_vc-length", "perm_coloring-not-a-permutation", "perm_coloring-outside",
    ],
)
def test_gadget_input_refusals(family, x, y):
    """One case per domain rule: a subset of 1..N (of size N/2 for
    disj_matching), a vector of the right length, a permutation of 1..r."""
    with pytest.raises(BadSizes, match=re.escape(f"{family.name}: inputs ")):
        family.build(x, y)
