"""Vertex sets as arbitrary-width int bitmasks.

Bit i set means vertex i is in the set. Python ints are immutable and
unbounded, so masks work for any vertex count and are safe to share.
"""

from __future__ import annotations

from collections.abc import Iterator


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def full_mask(n: int) -> int:
    return (1 << n) - 1
