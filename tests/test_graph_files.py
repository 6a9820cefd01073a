"""Graph text files: the parser against a line-by-line reference, and round trips."""

from __future__ import annotations

import random

import pytest

from streamcert.graph import (
    Graph,
    GraphError,
    format_graph_file,
    gnp_random_graph,
    parse_graph_file,
    random_tree,
    validate_graph,
)
from streamcert.harness import SIZED_FAMILIES


# -- the reference: the parser as it was written line by line ----------------------

def _reference_validate(n: int, edges: tuple[tuple[int, int], ...]) -> None:
    if n < 0:
        raise GraphError(f"node {n} out of range")
    seen = set()
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at node {u}")
        for w in (u, v):
            if not 1 <= w <= n:
                raise GraphError(f"node {w} out of range")
        e = (u, v) if u <= v else (v, u)
        if e in seen:
            raise GraphError(f"duplicate edge {e}")
        seen.add(e)


def reference_parse(text: str) -> tuple[int, tuple[tuple[int, int], ...], int]:
    """(n, normalized edges, k) of a graph file, or its GraphError."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphError("empty graph file")
    head = lines[0].split()
    if len(head) != 3:
        raise GraphError("header must be: n m k")
    try:
        n, m, k = (int(x) for x in head)
    except ValueError as exc:
        raise GraphError(f"bad header: {exc}") from None
    if m != len(lines) - 1:
        raise GraphError(f"header says {m} edges, file has {len(lines) - 1}")
    if k < 0:
        raise GraphError("threshold k must be non-negative")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"bad edge line: {ln!r}") from None
        edges.append((u, v) if u <= v else (v, u))
    _reference_validate(n, tuple(edges))
    return n, tuple(edges), k


# -- generated texts ------------------------------------------------------------------

LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
#: whitespace inside a line, including the non-breaking space and the unit
#: separator, which split tokens but do not end a line
GAPS = (" ", "  ", "\t", "\xa0", "\u3000", "\x1f")
BAD_TOKENS = ("x", "1.5", "0x1", "1__0", "_1", "1_", "--1", "+-1", "1e3", "\u0663x", "\xbd")
#: ASCII digits written as Arabic-Indic and as fullwidth digits, which int() reads
FOREIGN_DIGITS = (
    str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A)))),
    str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A)))),
)
#: the node pairs u < v of each small n
PAIRS = [[(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)] for n in range(7)]
DEFECTS = ("id", "loop", "repeat", "width", "token", "m", "k", "n", "header", "blank")


def _token(rng: random.Random, value: int) -> str:
    """``value`` as an int literal, one time in five spelled with a ``+``, an
    ``_`` or non-ASCII digits."""
    digits = str(value)
    r = rng.random()
    if r < 0.8:
        return digits
    if r < 0.87:
        return "+" + digits
    if r < 0.93 and len(digits.lstrip("-")) > 1:
        return digits[:-1] + "_" + digits[-1]
    return digits.translate(rng.choice(FOREIGN_DIGITS))


def _line(rng: random.Random, tokens: list[str]) -> str:
    line = rng.choice(GAPS).join(tokens)
    if rng.random() < 0.2:
        line = rng.choice(GAPS) + line
    if rng.random() < 0.2:
        line += rng.choice(GAPS)
    return line


def _graph_text(rng: random.Random) -> str:
    """A graph file with distinct edges, some written (v, u), and in half of
    the texts one or two defects of ``DEFECTS``."""
    n = rng.randint(0, 6)
    edges = rng.sample(PAIRS[n], rng.randint(0, min(5, len(PAIRS[n]))))
    edges = [(v, u) if rng.random() < 0.3 else (u, v) for u, v in edges]
    defects = rng.sample(DEFECTS, rng.choice((1, 2))) if rng.random() < 0.5 else ()
    if "id" in defects:
        edges.insert(rng.randint(0, len(edges)), (rng.choice((0, n + 1, -1)), max(n, 1)))
    if "loop" in defects:
        edges.insert(rng.randint(0, len(edges)), (max(n, 1),) * 2)
    if "repeat" in defects and edges:
        u, v = rng.choice(edges)
        edges.append((v, u) if rng.random() < 0.5 else (u, v))
    rows = [[_token(rng, w) for w in e] for e in edges]
    if "width" in defects:
        rows.insert(rng.randint(0, len(rows)), ["1"] * rng.choice((1, 3)))
    if "token" in defects and rows:
        row = rng.choice(rows)
        row[rng.randrange(len(row))] = rng.choice(BAD_TOKENS)
    m = len(rows) + (rng.choice((-1, 1)) if "m" in defects else 0)
    head = [n if "n" not in defects else -1, m, -1 if "k" in defects else rng.randint(0, 3)]
    head = [_token(rng, w) for w in head]
    if "header" in defects:
        head = rng.choice((head[:1], head[:2], head + ["0"], head[:2] + [rng.choice(BAD_TOKENS)]))
    lines = [_line(rng, row) for row in [head, *rows]]
    if "blank" in defects:
        lines = [""] * len(lines)
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        lines.insert(rng.randint(0, len(lines)), rng.choice(("",) + GAPS))
    text = "".join(line + rng.choice(LINE_BREAKS) for line in lines)
    return text if rng.random() < 0.8 else text.rstrip("\n")


def _outcome(parse, text: str):
    try:
        result = parse(text)
    except GraphError as exc:
        return "error", str(exc)
    n, edges, k = result if len(result) == 3 else (result[0].n, result[0].edges, result[1])
    # ids are plain ints, not bools or other int subclasses
    assert {type(n), type(k), *(type(w) for e in edges for w in e)} == {int}
    return n, edges, k


def test_parser_matches_the_line_by_line_reference_on_generated_texts():
    rng = random.Random(2026)
    kinds = ("empty", "header must", "bad header", "header says", "threshold",
             "bad edge", "node", "self-loop", "duplicate")
    errors = set()
    accepted = 0
    for _ in range(20_000):
        text = _graph_text(rng)
        expected = _outcome(reference_parse, text)
        assert _outcome(parse_graph_file, text) == expected, repr(text)
        if expected[0] == "error":
            errors.update(kind for kind in kinds if expected[1].startswith(kind))
        else:
            accepted += 1
    # about half the texts parse, and every kind of error is met
    assert 8_000 < accepted < 12_000
    assert errors == set(kinds)


def test_validation_matches_the_edge_by_edge_scan():
    # stored pairs in either orientation, ids one past each end of 1..n
    rng = random.Random(7)
    for _ in range(20_000):
        n = rng.randint(-1, 5)
        edges = tuple(
            (rng.randint(-1, n + 1), rng.randint(-1, n + 1)) for _ in range(rng.randint(0, 4))
        )
        try:
            _reference_validate(n, edges)
            expected = None
        except GraphError as exc:
            expected = str(exc)
        try:
            validate_graph(Graph(n, edges))
            got = None
        except GraphError as exc:
            got = str(exc)
        assert got == expected, (n, edges)


# -- round trips ----------------------------------------------------------------------

def _round_trip_graphs():
    """Every sized family at n = 0, 1, 2, 5, 9, seeded random graphs, and
    pairs given unnormalized."""
    for family, (_, _, build) in SIZED_FAMILIES.items():
        for n in (0, 1, 2, 5, 9):
            if family != "cycles" or n >= 3:
                yield pytest.param(build(n), id=f"{family}-{n}")
    for seed in range(3):
        yield pytest.param(gnp_random_graph(12, 0.3, seed), id=f"gnp-{seed}")
        yield pytest.param(random_tree(12, seed), id=f"tree-{seed}")
    yield pytest.param(Graph.from_edges(5, [(5, 1), (3, 2), (2, 4), (4, 1)]), id="unnormalized")


@pytest.mark.parametrize("g", _round_trip_graphs())
def test_format_then_parse_gives_the_graph_back(g):
    text = format_graph_file(g, 3)
    assert parse_graph_file(text) == (g, 3)
    assert parse_graph_file(text.replace("\n", "\r\n")) == (g, 3)
    # the formatted text is the one the edge-by-edge writer produced
    assert text == "\n".join([f"{g.n} {g.m} 3", *(f"{u} {v}" for u, v in g.edges)]) + "\n"
