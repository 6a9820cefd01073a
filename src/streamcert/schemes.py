"""Claim semantics of each scheme: the graph parameter it talks about, the
direction of its bound, and its prover. The verifier and its space bound live
in ``verifiers.SCHEME_VERIFIERS``; the wire codec in ``certs.CODECS``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import provers
from .certs import CertificateBlob
from .graph import Graph


@dataclass(frozen=True)
class SchemeInfo:
    name: str
    parameter: str   # which graph parameter the scheme talks about
    direction: str   # "ge" (value >= k), "le" (value <= k), "eq" (value == k)
    prover: Callable[[Graph, int], CertificateBlob]

    def legal(self, value: int | float, k: int) -> bool:
        if self.direction == "ge":
            return value >= k
        if self.direction == "le":
            return value <= k
        return value == k


SCHEMES: dict[str, SchemeInfo] = {
    info.name: info
    for info in (
        SchemeInfo("mm_atleast_list", "matching", "ge", provers.prove_mm_atleast_list),
        SchemeInfo(
            "mm_atleast_coloring", "matching", "ge", provers.prove_mm_atleast_coloring
        ),
        SchemeInfo("mm_atmost", "matching", "le", provers.prove_mm_atmost),
        SchemeInfo("deg_atmost", "degeneracy", "le", provers.prove_deg_atmost),
        SchemeInfo("deg_atleast", "degeneracy", "ge", provers.prove_deg_atleast),
        SchemeInfo("diam_atleast", "diameter", "ge", provers.prove_diam_atleast),
        SchemeInfo("coloring_atmost", "chromatic", "le", provers.prove_coloring_atmost),
        SchemeInfo("is_atleast", "is", "ge", provers.prove_is_atleast),
        SchemeInfo("clique_atleast", "clique", "ge", provers.prove_clique_atleast),
        SchemeInfo("vc_atmost", "vc", "le", provers.prove_vc_atmost),
        SchemeInfo("mm_equal", "matching", "eq", provers.prove_mm_equal),
        SchemeInfo("deg_equal", "degeneracy", "eq", provers.prove_deg_equal),
    )
}

#: the ten single-direction schemes (the equality combinators aside)
BASE_SCHEMES: tuple[str, ...] = tuple(
    name for name, info in SCHEMES.items() if info.direction != "eq"
)


def legal_thresholds(info: SchemeInfo, value: int | float, n: int) -> list[int]:
    """The legal ones of the thresholds v - 1, v, v + 1 around the parameter
    value v that are non-negative, ascending."""
    if math.isinf(value):  # disconnected graph: any diameter threshold is legal
        return sorted({n, 1})
    v = int(value)
    return [k for k in (v - 1, v, v + 1) if k >= 0 and info.legal(value, k)]


def illegal_thresholds(info: SchemeInfo, value: int | float) -> list[int]:
    """The illegal ones of the thresholds v + 1, then v - 1, that are
    non-negative; none for an infinite value (e.g. infinite diameter)."""
    if math.isinf(value):
        return []
    v = int(value)
    return [k for k in (v + 1, v - 1) if k >= 0 and not info.legal(value, k)]
