"""Correctness gate: per-op checks and the outcome digest.

An op fails if it raises, if an honest certificate is rejected, if a fuzzed
certificate is accepted, if a peak exceeds ``space_bound``, or if a
certificate's ``semantic_bits`` is off its codec formula. The formulas are
restated here from the table in ``streamcert.certs`` rather than taken from
the codec under test.

The digest hashes each trial's (decision, peak_state_bits,
certificate_bits), plus the certificate bytes where the benchmark proved
them. Reject reasons stay out of it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

#: the two halves of each equality certificate, in payload order
EQUALITY_PARTS = {
    "mm_equal": ("mm_atmost", "mm_atleast_list"),
    "deg_equal": ("deg_atmost", "deg_atleast"),
}


def _clog2(x: int) -> int:
    return (x - 1).bit_length()


def _u32(payload: bytes, off: int) -> int:
    return int.from_bytes(payload[off : off + 4], "big")


def formula_bits(scheme: str, payload: bytes, n: int, k: int) -> int:
    """Semantic size an honest certificate of ``scheme`` must declare."""
    L = _clog2(n + 1)
    if scheme == "mm_atleast_list":
        return (1 + 2 * _u32(payload, 0)) * L
    if scheme == "mm_atleast_coloring":
        return n * _clog2(max(_u32(payload, 0), 1))
    if scheme == "mm_atmost":
        return n
    if scheme == "deg_atmost":
        return n * _clog2(max(n, 1))
    if scheme == "deg_atleast":
        return _u32(payload, 1) * _clog2(max(n, 1)) if payload[0] == 0 else n
    if scheme == "diam_atleast":
        return n * _clog2(k + 2)
    if scheme == "coloring_atmost":
        return n * _clog2(max(k, 1))
    if scheme in ("is_atleast", "clique_atleast", "vc_atmost"):
        return (1 + _u32(payload, 0)) * L
    if scheme in EQUALITY_PARTS:
        total, off = 0, 0
        for part in EQUALITY_PARTS[scheme]:
            length = _u32(payload, off + 9)
            inner = payload[off + 13 : off + 13 + length]
            total += formula_bits(part, inner, n, k)
            off += 13 + length
        return total
    raise ValueError(f"no formula for scheme {scheme!r}")


def check_honest(scheme, n, k, verdict, report, cert, bound) -> list[str]:
    """Problems with one honest verification, empty when it is correct."""
    problems = []
    if not verdict.accepted:
        problems.append(f"{scheme} n={n} k={k}: honest certificate rejected ({verdict.reason})")
    if report.peak_state_bits > bound:
        problems.append(f"{scheme} n={n} k={k}: peak {report.peak_state_bits} > bound {bound}")
    expected = formula_bits(scheme, cert.payload, n, k)
    if cert.semantic_bits != expected or report.certificate_bits != expected:
        problems.append(
            f"{scheme} n={n} k={k}: semantic_bits {cert.semantic_bits} "
            f"(reported {report.certificate_bits}), formula gives {expected}"
        )
    return problems


def check_fuzzed(scheme, records, failures, bound_of) -> list[str]:
    """Problems with one soundness campaign, empty when it is correct."""
    problems = list(failures)
    for r in records:
        if r.decision != "reject":
            problems.append(f"{scheme} {r.graph} k={r.k} {r.order} {r.cert_id}: accepted")
        if r.peak_bits > bound_of(r.k):
            problems.append(f"{scheme} {r.graph} k={r.k}: peak {r.peak_bits} over bound")
    return problems


class Digest:
    def __init__(self) -> None:
        self._h = hashlib.sha256()
        self.rows = 0

    def add(self, *fields) -> None:
        self._h.update(repr(fields).encode())
        self.rows += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()


class DigestBook:
    """Digests recorded per workload, scale and seed.

    ``committed`` is checked into the repository. A seed missing there is
    recorded in ``local`` on its first run and checked on later runs.
    """

    def __init__(self, committed: Path, local: Path | None) -> None:
        self.committed_path = committed
        self.local_path = local
        self.committed = json.loads(committed.read_text()) if committed.exists() else {}
        self.local = (
            json.loads(local.read_text()) if local is not None and local.exists() else {}
        )

    def check(self, key: str, digest: str) -> tuple[bool, str]:
        for source, table in (("committed", self.committed), ("local", self.local)):
            if key in table:
                if table[key] == digest:
                    return True, f"matches {source} record"
                return False, f"differs from {source} record {table[key]}"
        if self.local_path is None:
            return True, "no record"
        self.local[key] = digest
        self.local_path.parent.mkdir(parents=True, exist_ok=True)
        self.local_path.write_text(json.dumps(self.local, indent=1, sort_keys=True) + "\n")
        return True, "recorded locally"

    def record(self, key: str, digest: str) -> None:
        self.committed[key] = digest
        self.committed_path.write_text(
            json.dumps(self.committed, indent=1, sort_keys=True) + "\n"
        )
