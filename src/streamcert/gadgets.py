"""Two-party lower-bound graph families and their iff-equivalence checks.

Each family builds graphs G = (V, E ∪ A_x ∪ B_y) where A_x depends only on
the left input and B_y only on the right input, together with the predicate
the construction encodes (e.g. "has a perfect matching"). The equivalence
checker rebuilds every requested instance, evaluates the predicate with the
exact oracles, evaluates the two-party function directly, and reports any
disagreement. The stored edge order is fixed-then-Alice-then-Bob so the
stream order "split:<split_point>" reproduces the one-side-then-the-other
order the reductions rely on.

``<name>_family(size)`` is the only constructor of a family. It refuses a
size outside the family's range, whose ceiling keeps every instance within
``MAX_NODES_OR_EDGES`` nodes and edges, lays out what depends on the size
alone (node numbering, and the edges no input switches) once, and returns a
``GadgetFamily`` whose ``layout(x, y)`` closure assembles one instance.

Both sides of a family draw their private input from one ``InputDomain``
(half-size subsets, all subsets, bit vectors or permutations), which fixes the
exhaustive sweep order, the seeded sampler, the inputs that ``build(x, y)``
lets through to ``layout`` and the rendering of inputs in report lines.
``FAMILY_BUILDERS`` is the one table of families and their names: the CLI
accepts a canonical or short name and passes ``--size`` to the row's builder,
and the corpus names its gadget entries by the short name.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import reprlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

from .graph import MAX_NODES_OR_EDGES, Graph, validate_graph
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
    """A family size outside its range, or inputs that do not fit the size."""


def _require_size(family: str, symbol: str, value: int, low: int, high: int) -> None:
    if not low <= value <= high:
        bound = f">= {low}" if value < low else f"<= {high}"
        raise BadSizes(f"{family} needs {symbol} {bound}, got {value}")


@dataclass(frozen=True)
class GadgetInstance:
    graph: Graph
    fixed_edges: tuple[tuple[int, int], ...]
    alice_edges: tuple[tuple[int, int], ...]
    bob_edges: tuple[tuple[int, int], ...]

    @property
    def split_point(self) -> int:
        """Stream index separating Alice's items (fixed + A_x) from Bob's."""
        return len(self.fixed_edges) + len(self.alice_edges)


def _assemble(n: int, fixed: list, alice: list, bob: Iterable) -> GadgetInstance:
    graph = Graph.from_edges(n, [*fixed, *alice, *bob])
    validate_graph(graph)
    a, b = len(fixed), len(fixed) + len(alice)
    return GadgetInstance(graph, graph.edges[:a], graph.edges[a:b], graph.edges[b:])


@dataclass(frozen=True)
class InputDomain:
    """The private inputs of one side: ``size`` of them, listed by
    ``all_inputs()`` in sweep order, drawn one at a time by ``draw(rng)``,
    recognised by ``fits(x)`` and printed in report lines by ``render``."""

    size: int
    all_inputs: Callable[[], Iterable[object]]
    draw: Callable[[random.Random], object]
    fits: Callable[[object], bool]
    render: Callable[[object], str]


def _render_set(x) -> str:
    return ",".join(map(str, sorted(x))) if x else "-"


def half_subsets(universe: int) -> InputDomain:
    """The universe/2-element subsets of 1..universe, in lexicographic order."""
    half = universe // 2
    pool = list(range(1, universe + 1))
    members = frozenset(pool)
    return InputDomain(
        math.comb(universe, half),
        lambda: map(frozenset, itertools.combinations(pool, half)),
        lambda rng: frozenset(rng.sample(pool, half)),
        lambda x: len(s := frozenset(x)) == half and s <= members,
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
        frozenset(pool).issuperset,
        _render_set,
    )


def bit_vectors(length: int) -> InputDomain:
    """Every 0/1 tuple of the given length, in lexicographic order."""
    return InputDomain(
        2**length,
        lambda: itertools.product((0, 1), repeat=length),
        lambda rng: tuple(rng.randrange(2) for _ in range(length)),
        lambda x: len(x) == length,
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
        lambda x: sorted(x) == base,
        lambda x: ",".join(map(str, x)),
    )


@dataclass(frozen=True)
class GadgetFamily:
    name: str
    #: ``build`` unchecked: the instance of two inputs that fit ``domain``
    layout: Callable[[object, object], GadgetInstance]
    two_party: Callable[[object, object], bool]
    predicate: Callable[[Graph], bool]
    #: where both Alice's and Bob's inputs come from
    domain: InputDomain
    #: (scheme, threshold, legal_when) triples: the streaming schemes whose
    #: instance (graph, threshold) is legal exactly when two_party(...) is
    #: legal_when, used by split-order replay tests.
    applicable: tuple[tuple[str, int, bool], ...] = field(default=())

    @property
    def input_space(self) -> int:
        """Number of (x, y) pairs."""
        return self.domain.size**2

    def build(self, x, y) -> GadgetInstance:
        """G_{x,y}, or BadSizes unless both inputs fit ``domain``. Each is read
        twice, so it is a collection, not a one-shot iterator."""
        if not (self.domain.fits(x) and self.domain.fits(y)):
            raise BadSizes(f"{self.name}: inputs {reprlib.repr((x, y))} are not in its domain")
        return self.layout(x, y)


def _sets_disjoint(x, y) -> bool:
    return not (frozenset(x) & frozenset(y))


def _bits_disjoint(x, y) -> bool:
    return not any(a and b for a, b in zip(x, y))


# -- perfect matching from set disjointness ------------------------------------

def disj_matching_family(universe: int) -> GadgetFamily:
    """Bipartite graph on 2*universe nodes: Alice matches her elements to the
    first half of the right side, Bob his to the second half. A perfect
    matching exists iff the element sets are disjoint."""
    _require_size("disj_matching", "N", universe, 2, MAX_NODES_OR_EDGES // 2)
    if universe % 2:
        raise BadSizes(f"disj_matching needs N even, got {universe}")
    half = universe // 2

    def layout(x, y) -> GadgetInstance:
        x, y = frozenset(x), frozenset(y)
        alice = [(xi, universe + slot) for slot, xi in enumerate(sorted(x), start=1)]
        bob = [
            (yi, universe + half + slot) for slot, yi in enumerate(sorted(y), start=1)
        ]
        return _assemble(2 * universe, [], alice, bob)

    return GadgetFamily(
        name=f"disj_matching[N={universe}]",
        layout=layout,
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

def disj_degeneracy_family(universe: int) -> GadgetFamily:
    """Alice stars {a,b} ∪ x at a; Bob paths b through y. The union is a tree
    (1-degenerate) iff the sets are disjoint, else a cycle closes through a,b."""
    # at most 2N + 1 edges
    _require_size("disj_degeneracy", "N", universe, 1, (MAX_NODES_OR_EDGES - 1) // 2)
    a, b = universe + 1, universe + 2

    def layout(x, y) -> GadgetInstance:
        x, y = frozenset(x), frozenset(y)
        alice = [(a, b)] + [(a, xi) for xi in sorted(x)]
        path = [b] + sorted(y)
        return _assemble(universe + 2, [], alice, zip(path, path[1:]))

    return GadgetFamily(
        name=f"disj_degeneracy[N={universe}]",
        layout=layout,
        two_party=_sets_disjoint,
        predicate=lambda g: oracle_degeneracy(g) <= 1,
        domain=all_subsets(universe),
        applicable=(("deg_atmost", 1, True), ("deg_atleast", 2, False)),
    )


# -- diameter >= 8 from set disjointness -----------------------------------------

def disj_diameter8_family(universe: int) -> GadgetFamily:
    """Three node rows joined through bottleneck pairs; Alice's elements
    shortcut rows 1-2, Bob's rows 2-3. A common element gives a u-v path of
    length 6; otherwise every u-v route is forced through both bottlenecks
    and the diameter stays at least 8."""
    # at most 8N + 4 edges
    _require_size("disj_diameter8", "N", universe, 1, (MAX_NODES_OR_EDGES - 4) // 8)
    row1 = lambda i: i
    row2 = lambda i: universe + i
    row3 = lambda i: 2 * universe + i
    u, v, a, b = (3 * universe + d for d in (1, 2, 3, 4))
    t1, t2, t3, t4 = (3 * universe + d for d in (5, 6, 7, 8))
    frame = [(u, a), (b, v), (t1, t2), (t3, t4)]
    for i in range(1, universe + 1):
        frame += [
            (a, row1(i)),
            (row3(i), b),
            (row1(i), t1),
            (t2, row2(i)),
            (row2(i), t3),
            (t4, row3(i)),
        ]

    def layout(x, y) -> GadgetInstance:
        x, y = frozenset(x), frozenset(y)
        alice = frame + [(row1(i), row2(i)) for i in sorted(x)]
        bob = [(row2(j), row3(j)) for j in sorted(y)]
        return _assemble(3 * universe + 8, [], alice, bob)

    return GadgetFamily(
        name=f"disj_diameter8[N={universe}]",
        layout=layout,
        two_party=_sets_disjoint,
        predicate=lambda g: oracle_diameter(g) >= 8,
        domain=all_subsets(universe),
        applicable=(("diam_atleast", 8, True),),
    )


# -- diameter-2 family (Holzer-style) ----------------------------------------------

def holzer_diameter2_family(p: int) -> GadgetFamily:
    """Two fans a_0..a_p and b_0..b_p joined by rungs a_i-b_i; bit vectors
    (indexed by pairs i<j) switch a-side and b-side edges OFF where the bit is
    1. Diameter stays 2 iff no pair is missing on both sides."""
    # at most (p + 1)^2 edges
    _require_size("holzer_diameter2", "p", p, 2, math.isqrt(MAX_NODES_OR_EDGES) - 1)
    bits = p * (p - 1) // 2  # one per pair i < j, in lex order
    a = lambda i: 1 + i
    b = lambda i: p + 2 + i
    fixed = (
        [(a(i), b(i)) for i in range(p + 1)]
        + [(a(0), a(i)) for i in range(1, p + 1)]
        + [(b(0), b(i)) for i in range(1, p + 1)]
    )

    def layout(x, y) -> GadgetInstance:
        pairs = list(itertools.combinations(range(1, p + 1), 2))
        alice = [(a(i), a(j)) for (i, j), z in zip(pairs, x) if z == 0]
        bob = [(b(i), b(j)) for (i, j), z in zip(pairs, y) if z == 0]
        return _assemble(2 * (p + 1), fixed, alice, bob)

    return GadgetFamily(
        name=f"holzer_diameter2[p={p}]",
        layout=layout,
        two_party=_bits_disjoint,
        predicate=lambda g: oracle_diameter(g) == 2,
        domain=bit_vectors(bits),
        applicable=(("diam_atleast", 3, False),),
    )


# -- minimum vertex cover bit gadget ------------------------------------------------

def bitgadget_vc_family(width: int) -> GadgetFamily:
    """Four cliques A, B, A', B' wired to true/false bit nodes by the binary
    representation of each index, bit nodes cross-linked into 4-cycles; zero
    bits of x add A-side a_i-a'_j edges, zero bits of y the mirrored B-side
    edges. The minimum vertex cover exceeds 4(width-1) + 4*log(width) exactly
    when the bit vectors are disjoint."""
    # at most 4N^2 - 2N + 4N log N + 8 log N edges: 269,888 at N = 256
    _require_size("bitgadget_vc", "N", width, 2, 128)
    logw = width.bit_length() - 1
    if 1 << logw != width:
        raise BadSizes(f"bitgadget_vc needs N a power of two, got {width}")
    cover_bound = 4 * (width - 1) + 4 * logw

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

    def rungs(f_group, t_group):
        return [(bit_node(f_group, j), bit_node(t_group, j)) for j in range(logw)]

    def side(node, prime, f, t, fp, tp):
        """One side's input-free edges: its two cliques, their members wired
        to the bit nodes of their index, and its two false-true bit pairs."""
        members = [node(i) for i in range(width)]
        primes = [prime(i) for i in range(width)]
        return [
            *itertools.combinations(members, 2),
            *itertools.combinations(primes, 2),
            *wire(members, f, t),
            *wire(primes, fp, tp),
            *rungs(f, t),
            *rungs(fp, tp),
        ]

    @functools.cache
    def frames():
        """Both sides' frames, O(width^2) edges, laid out on the first build."""
        return side(a, ap, "fa", "ta", "fap", "tap"), side(b, bp, "fb", "tb", "fbp", "tbp")

    fixed = rungs("fa", "tb") + rungs("ta", "fb")
    fixed += rungs("fap", "tbp") + rungs("tap", "fbp")

    def layout(x, y) -> GadgetInstance:
        alice_frame, bob_frame = frames()
        # input bit c stands for the cell (i, j) = divmod(c, width)
        alice = alice_frame + [(a(c // width), ap(c % width)) for c, z in enumerate(x) if z == 0]
        bob = bob_frame + [(b(c // width), bp(c % width)) for c, z in enumerate(y) if z == 0]
        return _assemble(4 * width + 8 * logw, fixed, alice, bob)

    return GadgetFamily(
        name=f"bitgadget_vc[N={width}]",
        layout=layout,
        two_party=_bits_disjoint,
        predicate=lambda g: vertex_cover_at_most(g, cover_bound) is None,
        domain=bit_vectors(width * width),
        applicable=(("vc_atmost", cover_bound, False),),
    )


# -- k-colorability permutation gadget ------------------------------------------------

def perm_coloring_family(r: int) -> GadgetFamily:
    """Two cocktail-party blocks (complete minus a perfect matching between the
    i-th nodes of the two columns); Alice links first columns by everything
    off her permutation, Bob mirrors on second columns. r-colorable iff the
    permutations coincide."""
    # 6r(r - 1) edges: 260,832 at r = 209, 263,340 at r = 210
    _require_size("perm_coloring", "r", r, 3, math.isqrt(MAX_NODES_OR_EDGES // 6))
    ids = list(range(1, r + 1))

    def block(offset: int) -> list[tuple[int, int]]:
        col1 = [offset + i for i in ids]
        col2 = [offset + r + i for i in ids]
        edges = list(itertools.combinations(col1, 2))
        edges += itertools.combinations(col2, 2)
        edges += [(offset + i, offset + r + j) for i in ids for j in ids if i != j]
        return edges

    blocks = block(0) + block(2 * r)

    def layout(sigma, tau) -> GadgetInstance:
        sigma, tau = tuple(sigma), tuple(tau)
        # columns: p_col1 = i, p_col2 = r + i, q_col1 = 2r + j, q_col2 = 3r + j
        e_sigma = [(i, 2 * r + j) for i in ids for j in ids if j != sigma[i - 1]]
        e_tau = [(r + i, 3 * r + j) for i in ids for j in ids if j != tau[i - 1]]
        return _assemble(4 * r, [], blocks + e_sigma, e_tau)

    return GadgetFamily(
        name=f"perm_coloring[r={r}]",
        layout=layout,
        two_party=lambda s, t: tuple(s) == tuple(t),
        predicate=lambda g: k_coloring(g, r) is not None,
        domain=permutations(r),
        applicable=(("coloring_atmost", r, True),),
    )


class FamilyBuilder(NamedTuple):
    #: the family at one size (the paper's N, p or r), the CLI's ``--size``
    build: Callable[[int], GadgetFamily]
    #: the CLI's other name for the family, and its corpus entries' prefix
    short: str


FAMILY_BUILDERS: dict[str, FamilyBuilder] = {
    "disj_matching": FamilyBuilder(disj_matching_family, "matching"),
    "disj_degeneracy": FamilyBuilder(disj_degeneracy_family, "degeneracy"),
    "disj_diameter8": FamilyBuilder(disj_diameter8_family, "diam8"),
    "holzer_diameter2": FamilyBuilder(holzer_diameter2_family, "holzer"),
    "bitgadget_vc": FamilyBuilder(bitgadget_vc_family, "bitvc"),
    "perm_coloring": FamilyBuilder(perm_coloring_family, "perm"),
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
    family: GadgetFamily, count: int | None = None, seed: int = 0
) -> EquivalenceReport:
    """Sweep (x, y) inputs and assert predicate(G_{x,y}) == f(x, y) pointwise.

    With no ``count`` every pair runs once; with one, ``count`` pairs are
    drawn from ``seed`` with replacement, so a count above ``input_space``
    repeats pairs (criterion 4 draws 1,000 pairs from ``disj_diameter8[N=3]``'s
    64). Each distinct pair is built and judged once per call, and a repeated
    draw repeats its record."""
    if count is None:
        space = family.input_space
        if space > EXHAUSTIVE_SWEEP_LIMIT:
            # stated by bit length: the space is unbounded in the size, and
            # past 4,300 digits Python refuses to write an int in decimal
            raise TooLarge(
                f"{family.name}: at least 2^{space.bit_length() - 1} instances "
                f"exceed the exhaustive gate {EXHAUSTIVE_SWEEP_LIMIT}"
            )
        side = list(family.domain.all_inputs())
        inputs = ((x, y) for x in side for y in side)
    else:
        rng = random.Random(seed)
        draw = family.domain.draw
        # x is drawn before its y: the seeded sequence fixes both
        inputs = ((draw(rng), draw(rng)) for _ in range(count))

    judged: dict[tuple[object, object], EquivalenceRecord] = {}
    records = []
    for x, y in inputs:
        record = judged.get((x, y))
        if record is None:
            record = judged[x, y] = EquivalenceRecord(
                family.domain.render(x),
                family.domain.render(y),
                family.two_party(x, y),
                family.predicate(family.build(x, y).graph),
            )
        records.append(record)
    return EquivalenceReport(family.name, tuple(records))
