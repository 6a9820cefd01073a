"""Gadget families: pinned examples, partition invariants, equivalence sweeps,
and split-stream (one side fully before the other) verdict invariance."""

from __future__ import annotations

import hashlib
import math

import pytest

from streamcert.gadgets import (
    BadSizes,
    _assemble,
    bitgadget_vc_family,
    check_gadget_equivalence,
    disj_degeneracy_family,
    disj_diameter8_family,
    disj_matching_family,
    gadget_bitgadget_vc,
    gadget_disj_degeneracy,
    gadget_disj_diameter8,
    gadget_disj_matching,
    gadget_holzer_diameter2,
    gadget_perm_coloring,
    holzer_diameter2_family,
    perm_coloring_family,
)
from streamcert.graph import DuplicateEdge, validate_graph
from streamcert.oracles import (
    TooLarge,
    minimum_vertex_cover,
    oracle_degeneracy,
    oracle_diameter,
    oracle_max_matching,
)
from streamcert.schemes import SCHEMES
from streamcert.stream import make_stream
from streamcert.verifiers import run_verifier


# -- pinned examples ----------------------------------------------------------------

def test_disj_matching_examples():
    assert oracle_max_matching(gadget_disj_matching({1, 2}, {3, 4}, 4).graph) == 4
    assert oracle_max_matching(gadget_disj_matching({1, 2}, {2, 3}, 4).graph) < 4
    assert oracle_max_matching(gadget_disj_matching({1}, {2}, 2).graph) == 2
    with pytest.raises(BadSizes):
        gadget_disj_matching({1}, {2, 3}, 4)


def test_disj_degeneracy_examples():
    assert oracle_degeneracy(gadget_disj_degeneracy({1, 2}, {3, 4}, 4).graph) == 1
    assert oracle_degeneracy(gadget_disj_degeneracy({1, 2}, {2, 4}, 4).graph) >= 2
    inst = gadget_disj_degeneracy(set(), set(), 4)
    assert inst.graph.edges == ((5, 6),)  # the single a-b edge
    assert oracle_degeneracy(inst.graph) == 1


def test_disj_diameter8_examples():
    assert oracle_diameter(gadget_disj_diameter8({1}, {1}, 3).graph) == 6
    assert oracle_diameter(gadget_disj_diameter8({1}, {2}, 3).graph) >= 8
    assert oracle_diameter(gadget_disj_diameter8(set(), set(), 1).graph) >= 8


def test_holzer_examples():
    zero = (0,) * 6
    assert oracle_diameter(gadget_holzer_diameter2(zero, zero, 4).graph) == 2
    common = (1, 0, 0, 0, 0, 0)
    assert oracle_diameter(gadget_holzer_diameter2(common, common, 4).graph) >= 3
    other = (0, 1, 0, 0, 0, 0)
    assert oracle_diameter(gadget_holzer_diameter2(common, other, 4).graph) == 2
    with pytest.raises(BadSizes):
        gadget_holzer_diameter2((0,) * 5, (0,) * 5, 4)


def test_bitgadget_examples():
    ones = (1,) * 4
    inst = gadget_bitgadget_vc(ones, ones, 2)
    assert len(minimum_vertex_cover(inst.graph)) == 4 * (2 - 1) + 4 * 1  # = 8
    disjoint = gadget_bitgadget_vc((1, 1, 0, 0), (0, 0, 1, 1), 2)
    assert len(minimum_vertex_cover(disjoint.graph)) >= 9
    mixed = gadget_bitgadget_vc((0, 0, 0, 0), (1, 1, 1, 1), 2)
    assert mixed.predicate_expected  # no common 1 position
    assert len(minimum_vertex_cover(mixed.graph)) >= 9
    with pytest.raises(BadSizes):
        gadget_bitgadget_vc((1, 1), (1, 1), 3)  # not a power of two


def test_perm_coloring_examples():
    from streamcert.oracles import oracle_chromatic

    ident, swap, cyc = (1, 2, 3), (2, 1, 3), (2, 3, 1)
    assert oracle_chromatic(gadget_perm_coloring(ident, ident, 3).graph) <= 3
    assert oracle_chromatic(gadget_perm_coloring(ident, swap, 3).graph) > 3
    assert oracle_chromatic(gadget_perm_coloring(cyc, cyc, 3).graph) <= 3
    with pytest.raises(BadSizes):
        gadget_perm_coloring((1, 2), (2, 1), 2)


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
    assert inst.predicate_expected == family.two_party(x, y)


def test_overlapping_edge_groups_are_refused():
    # the same pair on both sides, written in opposite orientations
    with pytest.raises(DuplicateEdge, match=r"duplicate edge \(1, 2\)"):
        _assemble("overlap", 3, [], [(1, 2)], [(2, 1), (2, 3)], (), (), True)


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
    report = check_gadget_equivalence(family, "exhaustive")
    assert report.ok, report.mismatches[:3]
    assert len(report.records) == family.input_space


def test_sampled_equivalence():
    report = check_gadget_equivalence(
        disj_diameter8_family(2), "sample", count=60, seed=9
    )
    assert report.ok and len(report.records) == 60


def test_exhaustive_gate():
    with pytest.raises(TooLarge):
        check_gadget_equivalence(holzer_diameter2_family(5), "exhaustive")


def test_report_lines_are_stable():
    fam = disj_matching_family(2)
    a = check_gadget_equivalence(fam, "exhaustive").lines()
    b = check_gadget_equivalence(fam, "exhaustive").lines()
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
        lines += check_gadget_equivalence(family, "exhaustive").lines()
    for seed in (0, 1, 7):
        for family in [
            disj_matching_family(8), disj_degeneracy_family(5),
            disj_diameter8_family(3), holzer_diameter2_family(5),
            bitgadget_vc_family(2), perm_coloring_family(4),
        ]:
            lines += check_gadget_equivalence(
                family, "sample", count=20, seed=seed
            ).lines()
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
