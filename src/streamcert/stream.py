"""Edge streams: a threshold header followed by a permutation of a graph's edges.

Order specs:
  given                 file / construction order
  rev                   reverse of the given order
  lex                   lexicographic on normalized pairs
  shuffle:SEED          the Fisher-Yates permutation of the given order
                        that CPython's ``random.Random(SEED).shuffle`` gives
  split:IDX[:SEED]      the first IDX given edges are streamed (shuffled
                        among themselves), then the rest (shuffled too, by
                        the same generator): the two-party split where one
                        side's edges all arrive before the other's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class EdgeStream:
    n: int
    k: int
    edges: tuple[tuple[int, int], ...]


class OrderSpecError(ValueError):
    pass


def _shuffle(items: list, rng: random.Random) -> None:
    """Shuffle ``items`` in place into the permutation ``rng.shuffle(items)``
    gives, drawing the same ``rng.getrandbits`` sequence as CPython's
    ``Random.shuffle``: for i = len - 1 down to 1 it swaps items[i] with
    items[j], j drawn as ``getrandbits((i + 1).bit_length())`` and redrawn
    while j > i. The walk goes down in bands of i where that bit length is
    constant, so it is computed once per band, not once per item."""
    getrandbits = rng.getrandbits
    top = len(items) - 1
    while top > 0:
        bits = (top + 1).bit_length()
        bottom = max((1 << (bits - 1)) - 1, 1)
        for i in range(top, bottom - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            items[i], items[j] = items[j], items[i]
        top = bottom - 1


def _ordered_edges(g: Graph, spec: str) -> list[tuple[int, int]]:
    if spec == "given":
        return list(g.edges)
    if spec == "rev":
        return list(reversed(g.edges))
    if spec == "lex":
        return sorted(g.edges)
    parts = spec.split(":")
    if parts[0] == "shuffle" and len(parts) == 2:
        try:
            seed = int(parts[1])
        except ValueError:
            raise OrderSpecError(f"bad shuffle seed in {spec!r}") from None
        out = list(g.edges)
        _shuffle(out, random.Random(seed))
        return out
    if parts[0] == "split" and len(parts) in (2, 3):
        try:
            idx = int(parts[1])
            seed = int(parts[2]) if len(parts) == 3 else 0
        except ValueError:
            raise OrderSpecError(f"bad split spec {spec!r}") from None
        if not 0 <= idx <= g.m:
            raise OrderSpecError(f"split point {idx} outside 0..{g.m}")
        rng = random.Random(seed)
        first, second = list(g.edges[:idx]), list(g.edges[idx:])
        _shuffle(first, rng)
        _shuffle(second, rng)
        return first + second
    raise OrderSpecError(f"unknown order spec {spec!r}")


def make_stream(g: Graph, k: int, order_spec: str = "given") -> EdgeStream:
    if k < 0:
        raise ValueError("threshold k must be non-negative")
    return EdgeStream(g.n, k, tuple(_ordered_edges(g, order_spec)))


#: Fixed order battery for completeness campaigns: 3 canonical + 20 shuffles.
ORDER_BATTERY: tuple[str, ...] = ("given", "rev", "lex") + tuple(
    f"shuffle:{s}" for s in range(20)
)

#: Smaller battery for (much larger) soundness campaigns.
SOUNDNESS_ORDERS: tuple[str, ...] = ("given", "rev", "lex", "shuffle:0", "shuffle:1")
