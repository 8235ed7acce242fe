"""Vertex sets as arbitrary-width int bitmasks.

Bit i set means vertex i is in the set. Python ints are immutable and
unbounded, so masks work for any vertex count and are safe to share.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def from_iter(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def full_mask(n: int) -> int:
    return (1 << n) - 1
