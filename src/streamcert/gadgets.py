"""Two-party lower-bound graph families and their iff-equivalence checks.

Each family builds graphs G = (V, E ∪ A_x ∪ B_y) where A_x depends only on
the left input and B_y only on the right input, together with the predicate
the construction encodes (e.g. "has a perfect matching"). The equivalence
checker rebuilds every requested instance, evaluates the predicate with the
exact oracles, evaluates the two-party function directly, and reports any
disagreement. The stored edge order is fixed-then-Alice-then-Bob so the
stream order "split:<split_point>" reproduces the one-side-then-the-other
order the reductions rely on.

Both sides of a family draw their private input from one ``InputDomain``
(half-size subsets, all subsets, bit vectors or permutations), which fixes the
exhaustive sweep order, the seeded sampler and the rendering of inputs in
report lines. ``FAMILY_BUILDERS`` is the registry of families: the CLI takes
its gadget names and size flags from it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

from .graph import Graph, validate_graph
from .oracles import (
    TooLarge,
    k_coloring,
    oracle_degeneracy,
    oracle_diameter,
    oracle_max_matching,
    vertex_cover_at_most,
)

EXHAUSTIVE_SWEEP_LIMIT = 1 << 16


class BadSizes(ValueError):
    """A family size below its minimum, or inputs that do not fit the size."""


def _require_size(family: str, symbol: str, value: int, low: int) -> None:
    if value < low:
        raise BadSizes(f"{family} needs {symbol} >= {low}, got {value}")


def _norm_edges(edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) if u < v else (v, u) for u, v in edges)


@dataclass(frozen=True)
class GadgetInstance:
    family: str
    graph: Graph
    fixed_edges: tuple[tuple[int, int], ...]
    alice_edges: tuple[tuple[int, int], ...]
    bob_edges: tuple[tuple[int, int], ...]
    x: object
    y: object
    predicate_expected: bool

    @property
    def split_point(self) -> int:
        """Stream index separating Alice's items (fixed + A_x) from Bob's."""
        return len(self.fixed_edges) + len(self.alice_edges)


def _assemble(
    family: str, n: int, fixed, alice, bob, x, y, expected: bool
) -> GadgetInstance:
    fixed, alice, bob = _norm_edges(fixed), _norm_edges(alice), _norm_edges(bob)
    graph = Graph(n, fixed + alice + bob)
    validate_graph(graph)
    return GadgetInstance(family, graph, fixed, alice, bob, x, y, expected)


@dataclass(frozen=True)
class InputDomain:
    """The private inputs of one side: ``size`` of them, listed by
    ``all_inputs()`` in sweep order, drawn one at a time by ``draw(rng)`` and
    printed in report lines by ``render``."""

    size: int
    all_inputs: Callable[[], Iterable[object]]
    draw: Callable[[random.Random], object]
    render: Callable[[object], str]


def _render_set(x) -> str:
    return ",".join(map(str, sorted(x))) if x else "-"


def half_subsets(universe: int) -> InputDomain:
    """The universe/2-element subsets of 1..universe, in lexicographic order."""
    half = universe // 2
    pool = list(range(1, universe + 1))
    return InputDomain(
        math.comb(universe, half),
        lambda: map(frozenset, itertools.combinations(pool, half)),
        lambda rng: frozenset(rng.sample(pool, half)),
        _render_set,
    )


def all_subsets(universe: int) -> InputDomain:
    """Every subset of 1..universe, by size, then lexicographically."""
    pool = range(1, universe + 1)
    return InputDomain(
        2**universe,
        lambda: (
            frozenset(c)
            for size in range(universe + 1)
            for c in itertools.combinations(pool, size)
        ),
        lambda rng: frozenset(v for v in pool if rng.random() < 0.5),
        _render_set,
    )


def bit_vectors(length: int) -> InputDomain:
    """Every 0/1 tuple of the given length, in lexicographic order."""
    return InputDomain(
        2**length,
        lambda: itertools.product((0, 1), repeat=length),
        lambda rng: tuple(rng.randrange(2) for _ in range(length)),
        lambda x: "".join(map(str, x)),
    )


def permutations(r: int) -> InputDomain:
    """Every permutation of 1..r as a tuple, in lexicographic order."""
    base = list(range(1, r + 1))

    def draw(rng: random.Random) -> tuple[int, ...]:
        perm = base[:]
        rng.shuffle(perm)
        return tuple(perm)

    return InputDomain(
        math.factorial(r),
        lambda: itertools.permutations(base),
        draw,
        lambda x: ",".join(map(str, x)),
    )


@dataclass(frozen=True)
class GadgetFamily:
    name: str
    build: Callable[[object, object], GadgetInstance]
    two_party: Callable[[object, object], bool]
    predicate: Callable[[Graph], bool]
    #: where both Alice's and Bob's inputs come from
    domain: InputDomain
    #: (scheme, threshold, legal_when) triples: the streaming schemes whose
    #: instance (graph, threshold) is legal exactly when two_party(...) is
    #: legal_when, used by split-order replay tests.
    applicable: tuple[tuple[str, int, bool], ...] = field(default=())

    @property
    def render(self) -> Callable[[object], str]:
        return self.domain.render

    @property
    def input_space(self) -> int:
        """Number of (x, y) pairs."""
        return self.domain.size**2


def _sets_disjoint(x, y) -> bool:
    return not (frozenset(x) & frozenset(y))


def _bits_disjoint(x, y) -> bool:
    return not any(a and b for a, b in zip(x, y))


# -- perfect matching from set disjointness ------------------------------------

def gadget_disj_matching(x, y, universe: int) -> GadgetInstance:
    """Bipartite graph on 2*universe nodes: Alice matches her elements to the
    first half of the right side, Bob his to the second half. A perfect
    matching exists iff the element sets are disjoint."""
    x, y = frozenset(x), frozenset(y)
    if universe % 2 or len(x) != universe // 2 or len(y) != universe // 2:
        raise BadSizes(f"need |x| = |y| = {universe}/2 halves of [universe]")
    if not (x | y) <= set(range(1, universe + 1)):
        raise BadSizes("elements outside the universe")
    half = universe // 2
    alice = [(xi, universe + slot) for slot, xi in enumerate(sorted(x), start=1)]
    bob = [
        (yi, universe + half + slot) for slot, yi in enumerate(sorted(y), start=1)
    ]
    return _assemble(
        "disj_matching", 2 * universe, [], alice, bob, x, y, _sets_disjoint(x, y)
    )


def disj_matching_family(universe: int) -> GadgetFamily:
    _require_size("disj_matching", "N", universe, 2)
    if universe % 2:
        raise BadSizes(f"disj_matching needs N even, got {universe}")
    return GadgetFamily(
        name=f"disj_matching[N={universe}]",
        build=lambda x, y: gadget_disj_matching(x, y, universe),
        two_party=_sets_disjoint,
        predicate=lambda g: oracle_max_matching(g) == universe,
        domain=half_subsets(universe),
        applicable=(
            ("mm_atleast_list", universe, True),
            ("mm_atleast_coloring", universe, True),
            ("mm_atmost", universe - 1, False),
        ),
    )


# -- 1-degeneracy from set disjointness -----------------------------------------

def gadget_disj_degeneracy(x, y, universe: int) -> GadgetInstance:
    """Alice stars {a,b} ∪ x at a; Bob paths b through y. The union is a tree
    (1-degenerate) iff the sets are disjoint, else a cycle closes through a,b."""
    x, y = frozenset(x), frozenset(y)
    if not (x | y) <= set(range(1, universe + 1)):
        raise BadSizes("elements outside the universe")
    a, b = universe + 1, universe + 2
    alice = [(a, b)] + [(a, xi) for xi in sorted(x)]
    path = [b] + sorted(y)
    bob = list(zip(path, path[1:]))
    return _assemble(
        "disj_degeneracy", universe + 2, [], alice, bob, x, y, _sets_disjoint(x, y)
    )


def disj_degeneracy_family(universe: int) -> GadgetFamily:
    _require_size("disj_degeneracy", "N", universe, 1)
    return GadgetFamily(
        name=f"disj_degeneracy[N={universe}]",
        build=lambda x, y: gadget_disj_degeneracy(x, y, universe),
        two_party=_sets_disjoint,
        predicate=lambda g: oracle_degeneracy(g) <= 1,
        domain=all_subsets(universe),
        applicable=(("deg_atmost", 1, True), ("deg_atleast", 2, False)),
    )


# -- diameter >= 8 from set disjointness -----------------------------------------

def gadget_disj_diameter8(x, y, universe: int) -> GadgetInstance:
    """Three node rows joined through bottleneck pairs; Alice's elements
    shortcut rows 1-2, Bob's rows 2-3. A common element gives a u-v path of
    length 6; otherwise every u-v route is forced through both bottlenecks
    and the diameter stays at least 8."""
    x, y = frozenset(x), frozenset(y)
    if universe < 1:
        raise BadSizes("universe must be >= 1")
    if not (x | y) <= set(range(1, universe + 1)):
        raise BadSizes("elements outside the universe")
    row1 = lambda i: i
    row2 = lambda i: universe + i
    row3 = lambda i: 2 * universe + i
    u, v, a, b = (3 * universe + d for d in (1, 2, 3, 4))
    t1, t2, t3, t4 = (3 * universe + d for d in (5, 6, 7, 8))
    alice = [(u, a), (b, v), (t1, t2), (t3, t4)]
    for i in range(1, universe + 1):
        alice += [
            (a, row1(i)),
            (row3(i), b),
            (row1(i), t1),
            (t2, row2(i)),
            (row2(i), t3),
            (t4, row3(i)),
        ]
    alice += [(row1(i), row2(i)) for i in sorted(x)]
    bob = [(row2(j), row3(j)) for j in sorted(y)]
    return _assemble(
        "disj_diameter8",
        3 * universe + 8,
        [],
        alice,
        bob,
        x,
        y,
        _sets_disjoint(x, y),
    )


def disj_diameter8_family(universe: int) -> GadgetFamily:
    _require_size("disj_diameter8", "N", universe, 1)
    return GadgetFamily(
        name=f"disj_diameter8[N={universe}]",
        build=lambda x, y: gadget_disj_diameter8(x, y, universe),
        two_party=_sets_disjoint,
        predicate=lambda g: oracle_diameter(g) >= 8,
        domain=all_subsets(universe),
        applicable=(("diam_atleast", 8, True),),
    )


# -- diameter-2 family (Holzer-style) ----------------------------------------------

def _pair_index(p: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]


def gadget_holzer_diameter2(x, y, p: int) -> GadgetInstance:
    """Two fans a_0..a_p and b_0..b_p joined by rungs a_i-b_i; bit vectors
    (indexed by pairs i<j) switch a-side and b-side edges OFF where the bit is
    1. Diameter stays 2 iff no pair is missing on both sides."""
    pairs = _pair_index(p)
    if len(x) != len(pairs) or len(y) != len(pairs):
        raise BadSizes(f"inputs must have length p(p-1)/2 = {len(pairs)}")
    a = lambda i: 1 + i
    b = lambda i: p + 2 + i
    fixed = (
        [(a(i), b(i)) for i in range(p + 1)]
        + [(a(0), a(i)) for i in range(1, p + 1)]
        + [(b(0), b(i)) for i in range(1, p + 1)]
    )
    alice = [(a(i), a(j)) for idx, (i, j) in enumerate(pairs) if x[idx] == 0]
    bob = [(b(i), b(j)) for idx, (i, j) in enumerate(pairs) if y[idx] == 0]
    return _assemble(
        "holzer_diameter2",
        2 * (p + 1),
        fixed,
        alice,
        bob,
        tuple(x),
        tuple(y),
        _bits_disjoint(x, y),
    )


def holzer_diameter2_family(p: int) -> GadgetFamily:
    _require_size("holzer_diameter2", "p", p, 2)
    return GadgetFamily(
        name=f"holzer_diameter2[p={p}]",
        build=lambda x, y: gadget_holzer_diameter2(x, y, p),
        two_party=_bits_disjoint,
        predicate=lambda g: oracle_diameter(g) == 2,
        domain=bit_vectors(p * (p - 1) // 2),
        applicable=(("diam_atleast", 3, False),),
    )


# -- minimum vertex cover bit gadget ------------------------------------------------

def gadget_bitgadget_vc(x, y, width: int) -> GadgetInstance:
    """Four cliques A, B, A', B' wired to true/false bit nodes by the binary
    representation of each index, bit nodes cross-linked into 4-cycles; zero
    bits of x add A-side a_i-a'_j edges, zero bits of y the mirrored B-side
    edges. The minimum vertex cover exceeds 4(width-1) + 4*log(width) exactly
    when the bit vectors are disjoint."""
    logw = width.bit_length() - 1
    if width < 2 or (1 << logw) != width:
        raise BadSizes("width must be a power of two, >= 2")
    if len(x) != width * width or len(y) != width * width:
        raise BadSizes(f"inputs must have length {width * width}")

    a = lambda i: 1 + i
    b = lambda i: width + 1 + i
    ap = lambda i: 2 * width + 1 + i
    bp = lambda i: 3 * width + 1 + i
    groups = ["fa", "ta", "fb", "tb", "fap", "tap", "fbp", "tbp"]

    def bit_node(group: str, j: int) -> int:
        return 4 * width + groups.index(group) * logw + 1 + j

    def wire(members, f_group, t_group):
        for i, node in enumerate(members):
            for j in range(logw):
                yield (node, bit_node(t_group if i >> j & 1 else f_group, j))

    def clique(members):
        return itertools.combinations(members, 2)

    a_nodes = [a(i) for i in range(width)]
    b_nodes = [b(i) for i in range(width)]
    ap_nodes = [ap(i) for i in range(width)]
    bp_nodes = [bp(i) for i in range(width)]

    alice = (
        list(clique(a_nodes))
        + list(clique(ap_nodes))
        + list(wire(a_nodes, "fa", "ta"))
        + list(wire(ap_nodes, "fap", "tap"))
        + [(bit_node("fa", j), bit_node("ta", j)) for j in range(logw)]
        + [(bit_node("fap", j), bit_node("tap", j)) for j in range(logw)]
    )
    bob = (
        list(clique(b_nodes))
        + list(clique(bp_nodes))
        + list(wire(b_nodes, "fb", "tb"))
        + list(wire(bp_nodes, "fbp", "tbp"))
        + [(bit_node("fb", j), bit_node("tb", j)) for j in range(logw)]
        + [(bit_node("fbp", j), bit_node("tbp", j)) for j in range(logw)]
    )
    fixed = (
        [(bit_node("fa", j), bit_node("tb", j)) for j in range(logw)]
        + [(bit_node("ta", j), bit_node("fb", j)) for j in range(logw)]
        + [(bit_node("fap", j), bit_node("tbp", j)) for j in range(logw)]
        + [(bit_node("tap", j), bit_node("fbp", j)) for j in range(logw)]
    )
    alice += [
        (a(i), ap(j))
        for i in range(width)
        for j in range(width)
        if x[i * width + j] == 0
    ]
    bob += [
        (b(i), bp(j))
        for i in range(width)
        for j in range(width)
        if y[i * width + j] == 0
    ]
    return _assemble(
        "bitgadget_vc",
        4 * width + 8 * logw,
        fixed,
        alice,
        bob,
        tuple(x),
        tuple(y),
        _bits_disjoint(x, y),
    )


def bitgadget_vc_family(width: int) -> GadgetFamily:
    _require_size("bitgadget_vc", "N", width, 2)
    logw = width.bit_length() - 1
    if 1 << logw != width:
        raise BadSizes(f"bitgadget_vc needs N a power of two, got {width}")
    cover_bound = 4 * (width - 1) + 4 * logw
    return GadgetFamily(
        name=f"bitgadget_vc[N={width}]",
        build=lambda x, y: gadget_bitgadget_vc(x, y, width),
        two_party=_bits_disjoint,
        predicate=lambda g: vertex_cover_at_most(g, cover_bound) is None,
        domain=bit_vectors(width * width),
        applicable=(("vc_atmost", cover_bound, False),),
    )


# -- k-colorability permutation gadget ------------------------------------------------

def gadget_perm_coloring(sigma, tau, r: int) -> GadgetInstance:
    """Two cocktail-party blocks (complete minus a perfect matching between the
    i-th nodes of the two columns); Alice links first columns by everything
    off her permutation, Bob mirrors on second columns. r-colorable iff the
    permutations coincide."""
    if r < 3:
        raise BadSizes("r must be >= 3")
    sigma, tau = tuple(sigma), tuple(tau)
    for perm in (sigma, tau):
        if sorted(perm) != list(range(1, r + 1)):
            raise BadSizes("inputs must be permutations of 1..r")

    def block(offset: int):
        col1 = lambda i: offset + i
        col2 = lambda i: offset + r + i
        edges = list(itertools.combinations([col1(i) for i in range(1, r + 1)], 2))
        edges += list(itertools.combinations([col2(i) for i in range(1, r + 1)], 2))
        edges += [
            (col1(i), col2(j))
            for i in range(1, r + 1)
            for j in range(1, r + 1)
            if i != j
        ]
        return edges

    p_col1 = lambda i: i
    p_col2 = lambda i: r + i
    q_col1 = lambda i: 2 * r + i
    q_col2 = lambda i: 3 * r + i
    e_sigma = [
        (p_col1(i), q_col1(j))
        for i in range(1, r + 1)
        for j in range(1, r + 1)
        if j != sigma[i - 1]
    ]
    e_tau = [
        (p_col2(i), q_col2(j))
        for i in range(1, r + 1)
        for j in range(1, r + 1)
        if j != tau[i - 1]
    ]
    alice = block(0) + block(2 * r) + e_sigma
    return _assemble(
        "perm_coloring", 4 * r, [], alice, e_tau, sigma, tau, sigma == tau
    )


def perm_coloring_family(r: int) -> GadgetFamily:
    _require_size("perm_coloring", "r", r, 3)
    return GadgetFamily(
        name=f"perm_coloring[r={r}]",
        build=lambda s, t: gadget_perm_coloring(s, t, r),
        two_party=lambda s, t: tuple(s) == tuple(t),
        predicate=lambda g: k_coloring(g, r) is not None,
        domain=permutations(r),
        applicable=(("coloring_atmost", r, True),),
    )


class FamilyBuilder(NamedTuple):
    build: Callable[[int], GadgetFamily]
    #: the CLI flag that sets the family's size (``--n``, ``--p`` or ``--r``)
    size_flag: str
    #: short CLI names accepted besides the canonical one
    aliases: tuple[str, ...] = ()


FAMILY_BUILDERS: dict[str, FamilyBuilder] = {
    "disj_matching": FamilyBuilder(disj_matching_family, "n"),
    "disj_degeneracy": FamilyBuilder(disj_degeneracy_family, "n"),
    "disj_diameter8": FamilyBuilder(disj_diameter8_family, "n", ("diam8",)),
    "holzer_diameter2": FamilyBuilder(holzer_diameter2_family, "p", ("holzer",)),
    "bitgadget_vc": FamilyBuilder(bitgadget_vc_family, "n", ("bitvc",)),
    "perm_coloring": FamilyBuilder(perm_coloring_family, "r", ("perm",)),
}


@dataclass(frozen=True)
class EquivalenceRecord:
    x: str
    y: str
    two_party: bool
    predicate: bool

    @property
    def match(self) -> bool:
        return self.two_party == self.predicate

    def line(self, family: str) -> str:
        return (
            f"gadget={family} x={self.x} y={self.y} "
            f"f={int(self.two_party)} predicate={int(self.predicate)} "
            f"match={int(self.match)}"
        )


@dataclass(frozen=True)
class EquivalenceReport:
    family: str
    records: tuple[EquivalenceRecord, ...]

    @property
    def mismatches(self) -> tuple[EquivalenceRecord, ...]:
        return tuple(r for r in self.records if not r.match)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def lines(self) -> list[str]:
        return [r.line(self.family) for r in self.records]


def check_gadget_equivalence(
    family: GadgetFamily, instance_space: str = "exhaustive",
    count: int = 0, seed: int = 0,
) -> EquivalenceReport:
    """Sweep (x, y) inputs and assert predicate(G_{x,y}) == f(x, y) pointwise."""
    if instance_space == "exhaustive":
        if family.input_space > EXHAUSTIVE_SWEEP_LIMIT:
            raise TooLarge(
                family.input_space, EXHAUSTIVE_SWEEP_LIMIT,
                f"{family.name}: {family.input_space} instances exceed the "
                f"exhaustive gate {EXHAUSTIVE_SWEEP_LIMIT}",
            )
        side = list(family.domain.all_inputs())
        inputs = ((x, y) for x in side for y in side)
    elif instance_space == "sample":
        rng = random.Random(seed)
        draw = family.domain.draw
        # x is drawn before its y: the seeded sequence fixes both
        inputs = ((draw(rng), draw(rng)) for _ in range(count))
    else:
        raise ValueError(f"unknown instance space {instance_space!r}")

    records = []
    for x, y in inputs:
        instance = family.build(x, y)
        records.append(
            EquivalenceRecord(
                family.render(x),
                family.render(y),
                family.two_party(x, y),
                family.predicate(instance.graph),
            )
        )
    return EquivalenceReport(family.name, tuple(records))
