"""Semantic space accounting for verifier runs.

Each verifier declares named state components with explicit bit widths; the
meter tracks the running sum of live widths and its peak. The accounting is
information-theoretic: a counter capped at k is charged ceil(log2(k+1)) bits
per slot, not the width of the Python object that holds it. Certificate reads
are never charged (the certificate is read-only memory outside the meter).
"""

from __future__ import annotations

from dataclasses import dataclass


def ceil_log2(x: int) -> int:
    """Bits needed to distinguish x values: ceil(log2(x)), with ceil_log2(1) = 0."""
    if x < 1:
        raise ValueError("ceil_log2 needs x >= 1")
    return (x - 1).bit_length()


def id_bits(n: int) -> int:
    """Width of one node id or count in 0..n."""
    return ceil_log2(n + 1)


@dataclass(frozen=True)
class SpaceReport:
    peak_state_bits: int
    certificate_bits: int


class SpaceMeter:
    def __init__(self) -> None:
        self._widths: dict[str, int] = {}
        self._live = 0
        self._peak = 0

    def register(self, name: str, width_bits: int) -> None:
        if width_bits < 0:
            raise ValueError("component width must be non-negative")
        if name in self._widths:
            raise ValueError(f"component {name!r} already registered")
        self._widths[name] = width_bits
        self._live += width_bits
        self._peak = max(self._peak, self._live)

    def resize(self, name: str, new_width_bits: int) -> None:
        old_width_bits = self._widths[name]
        if new_width_bits < 0:
            raise ValueError("component width must be non-negative")
        self._live += new_width_bits - old_width_bits
        self._widths[name] = new_width_bits
        self._peak = max(self._peak, self._live)

    @property
    def peak_bits(self) -> int:
        return self._peak
