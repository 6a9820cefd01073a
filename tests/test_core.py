"""Graph container, stream orders, and the space meter."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from streamcert.graph import (
    Graph,
    GraphError,
    format_graph_file,
    gnp_random_graph,
    parse_graph_file,
    path_graph,
    star_graph,
    validate_graph,
)
from streamcert.meter import SpaceMeter, ceil_log2, id_bits
from streamcert.stream import ORDER_BATTERY, OrderSpecError, make_stream

TRIANGLE = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])


# -- validation ------------------------------------------------------------------

def test_validate_ok():
    validate_graph(TRIANGLE)


def test_validate_self_loop():
    with pytest.raises(GraphError) as err:
        validate_graph(Graph.from_edges(2, [(1, 1)]))
    assert str(err.value) == "self-loop at node 1"


def test_validate_duplicate_edge():
    with pytest.raises(GraphError) as err:
        validate_graph(Graph.from_edges(2, [(1, 2), (2, 1)]))
    assert str(err.value) == "duplicate edge (1, 2)"


def test_validate_out_of_range():
    with pytest.raises(GraphError, match="node 3 out of range"):
        validate_graph(Graph.from_edges(2, [(1, 3)]))
    with pytest.raises(GraphError, match="node 0 out of range"):
        validate_graph(Graph.from_edges(2, [(0, 2)]))


#: (n, stored edges, the message validate_graph raises, or None): pairs built
#: with ``Graph(n, ...)`` may be stored unnormalized, and in every case the
#: first bad edge in stored order is the one named
VALIDATION_CASES = [
    (3, ((2, 1), (3, 2)), None),
    (3, ((1, 3), (3, 2), (2, 1)), None),
    (0, (), None),
    (3, (), None),
    (-1, (), "node -1 out of range"),
    (-1, ((1, 2),), "node -1 out of range"),
    (2, ((1, 2), (2, 1)), "duplicate edge (1, 2)"),
    (2, ((2, 1), (1, 2)), "duplicate edge (1, 2)"),
    (3, ((0, 1),), "node 0 out of range"),
    (3, ((1, 4),), "node 4 out of range"),
    (3, ((-2, 1),), "node -2 out of range"),
    (3, ((5, 0),), "node 5 out of range"),
    (3, ((2, 2),), "self-loop at node 2"),
    (3, ((1, 2), (3, 3), (0, 1), (1, 2)), "self-loop at node 3"),
    (3, ((1, 2), (2, 1), (3, 3)), "duplicate edge (1, 2)"),
    (3, ((2, 3), (4, 1), (1, 1)), "node 4 out of range"),
    (3, ((1, 2), (2, 3), (3, 1), (0, 0)), "self-loop at node 0"),
]


@pytest.mark.parametrize("n,edges,message", VALIDATION_CASES)
def test_validate_names_the_first_bad_edge(n, edges, message):
    if message is None:
        validate_graph(Graph(n, edges))
        return
    with pytest.raises(GraphError) as err:
        validate_graph(Graph(n, edges))
    assert str(err.value) == message


def test_graph_normalizes_pairs():
    g = Graph.from_edges(3, [(3, 1), (2, 3)])
    assert g.edges == ((1, 3), (2, 3))
    assert g.edge_set == frozenset({(1, 3), (2, 3)})


# -- streams ----------------------------------------------------------------------

def test_stream_lex_order():
    s = make_stream(TRIANGLE, 1, "lex")
    assert s.k == 1 and s.edges == ((1, 2), (1, 3), (2, 3))


def test_stream_reversed():
    s = make_stream(TRIANGLE, 1, "rev")
    assert s.edges == ((2, 3), (1, 3), (1, 2))


def test_stream_shuffle_deterministic():
    a = make_stream(TRIANGLE, 1, "shuffle:7")
    b = make_stream(TRIANGLE, 1, "shuffle:7")
    assert a == b


def test_shuffle_gives_the_permutation_of_random_shuffle():
    import random

    from streamcert.stream import _shuffle

    for length in [*range(301), 16384]:
        for seed in (0, 1, 7, 2**31 + 5):
            expected, items = list(range(length)), list(range(length))
            reference, rng = random.Random(seed), random.Random(seed)
            reference.shuffle(expected)
            _shuffle(items, rng)
            assert items == expected, (length, seed)
            # the same draws were made, so the generators stay in step
            assert rng.getrandbits(64) == reference.getrandbits(64), (length, seed)


def test_split_order_shuffles_both_sides_as_random_shuffle_does():
    import random

    g = gnp_random_graph(30, 0.3, 4)
    for idx in (0, 1, 17, g.m // 2, g.m):
        for seed in (0, 3, 99):
            rng = random.Random(seed)
            first, second = list(g.edges[:idx]), list(g.edges[idx:])
            rng.shuffle(first)
            rng.shuffle(second)
            assert make_stream(g, 1, f"split:{idx}:{seed}").edges == tuple(first + second)
    reference = list(g.edges)
    random.Random(0).shuffle(reference)
    assert make_stream(g, 1, "split:0").edges == tuple(reference)


def test_stream_split_keeps_sides_separate():
    g = path_graph(6)
    s = make_stream(g, 2, "split:3:5")
    assert sorted(s.edges[:3]) == sorted(g.edges[:3])
    assert sorted(s.edges[3:]) == sorted(g.edges[3:])


def test_stream_bad_specs():
    with pytest.raises(OrderSpecError):
        make_stream(TRIANGLE, 1, "bogus")
    with pytest.raises(OrderSpecError):
        make_stream(TRIANGLE, 1, "split:9")
    with pytest.raises(OrderSpecError):
        make_stream(TRIANGLE, 1, "reversed")
    with pytest.raises(ValueError):
        make_stream(TRIANGLE, -1, "given")


def test_order_battery_size():
    assert len(ORDER_BATTERY) == 23


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=19),
    st.sampled_from(["given", "rev", "lex", "shuffle:3", "split:4", "split:2:9"]),
)
def test_stream_is_permutation(seed, spec):
    g = gnp_random_graph(9, 0.4, seed)
    s = make_stream(g, 1, spec)
    assert sorted(s.edges) == sorted(g.edge_set)


# -- meter -------------------------------------------------------------------------

def test_ceil_log2():
    assert [ceil_log2(x) for x in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
    assert id_bits(15) == 4 and id_bits(16) == 5


def test_meter_resize_peak():
    m = SpaceMeter()
    m.register("counter", 7)
    m.resize("counter", 9)
    assert m.peak_bits >= 9
    m.resize("counter", 0)
    assert m.peak_bits == 9  # peak is sticky


def test_meter_sums_live_components():
    m = SpaceMeter()
    m.register("a", 5)
    m.register("b", 6)
    assert m.peak_bits >= 11


def test_meter_constant_run():
    m = SpaceMeter()
    m.register("a", 5)
    m.register("b", 6)
    assert m.peak_bits == 11


def test_meter_unknown_component():
    m = SpaceMeter()
    with pytest.raises(KeyError):
        m.resize("ghost", 3)
    with pytest.raises(KeyError):  # the name is looked up before the width is checked
        m.resize("ghost", -1)


def test_meter_rejects_negative_width():
    m = SpaceMeter()
    with pytest.raises(ValueError):
        m.register("a", -1)


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=50)),
    min_size=1, max_size=20,
))
def test_meter_monotone_peak(steps):
    """Interleaved ``register`` and ``resize`` calls, a step per (component,
    width): the peak is always the running maximum of the live sum."""
    m = SpaceMeter()
    widths: dict[str, int] = {}
    live_sums, peaks = [], []
    for slot, w in steps:
        name = f"c{slot}"
        if name in widths:
            m.resize(name, w)
        else:
            m.register(name, w)
        widths[name] = w
        live_sums.append(sum(widths.values()))
        peaks.append(m.peak_bits)
        assert m.peak_bits == max(live_sums)
    assert peaks == sorted(peaks)


# -- graph files ---------------------------------------------------------------------

def test_graph_file_roundtrip():
    g = star_graph(5)
    text = format_graph_file(g, 2)
    g2, k = parse_graph_file(text)
    assert k == 2 and g2.edges == g.edges and g2.n == 5


#: graph files the parser refuses, each with its exact message
GRAPH_FILE_ERRORS = [
    ("", "empty graph file"),
    ("2 1 0\n", "header says 1 edges, file has 0"),  # missing edge line
    ("2 1 0\n1 1\n", "self-loop at node 1"),
    ("2 1 -1\n1 2\n", "threshold k must be non-negative"),
    ("2 2 0\n1 2\n1 2\n", "duplicate edge (1, 2)"),
    ("2 2 0\n2 1\n1 2\n", "duplicate edge (1, 2)"),
    ("2 1 x\n1 2\n", "bad header: invalid literal for int() with base 10: 'x'"),
    ("3 3 0\n1 2\n3 4\n0 0\n", "node 4 out of range"),
    ("-1 0 0\n", "node -1 out of range"),
]


def test_graph_file_errors():
    for text, message in GRAPH_FILE_ERRORS:
        with pytest.raises(GraphError) as err:
            parse_graph_file(text)
        assert str(err.value) == message


@pytest.mark.parametrize("spec", ["shuffle:x", "split:1:x"])
def test_stream_refuses_non_integer_seeds(spec):
    with pytest.raises(OrderSpecError, match="bad"):
        make_stream(TRIANGLE, 1, spec)


@pytest.mark.parametrize(
    "text,message",
    [
        ("2 1\n1 2\n", "header must be: n m k"),
        ("2 1 0\n1\n", "bad edge line: '1'"),
        ("2 1 0\n1 x\n", "bad edge line: '1 x'"),
        ("3 2 0\n\n 1\t2 3 \n1 x\n", "bad edge line: '1\\t2 3'"),
    ],
    ids=["two-field-header", "one-field-edge", "non-integer-edge", "first-bad-line"],
)
def test_graph_file_refusals(text, message):
    with pytest.raises(GraphError) as err:
        parse_graph_file(text)
    assert str(err.value) == message
