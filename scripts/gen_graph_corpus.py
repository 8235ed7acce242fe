#!/usr/bin/env python3
"""Regenerate the exhaustive small-graph corpus shipped in src/lmss/data/.

One file per vertex count n in 1..7, one graph6 line per isomorphism
class, canonical representative chosen as the minimum edge bitmask over
all vertex permutations, lines sorted by that mask. Bit j(j-1)/2 + i of
the mask is the pair i < j, which is graph6's column order, so the bits
of column j are the low j bits of the mask shifted right by j(j-1)/2.

Classes are built by vertex extension: every class on n vertices arises
from some class on n-1 vertices plus a new vertex with some neighborhood,
so extending all representatives by all 2^(n-1) neighborhoods and
deduplicating canonical forms is exhaustive. The per-n class counts are
asserted against the known sequence 1, 2, 4, 11, 34, 156, 1044.

The minimum over the n! permutations is taken one bit at a time, with
one bit per permutation in an int: planes[b][t] holds the permutations
that map pair-bit b to bit t. From the top bit down, the permutations
still tied for the minimum keep bit t clear if any of them can, so each
bit costs one OR per edge and one AND.

Stdlib only. Run from the repo root:  PYTHONPATH=src python scripts/gen_graph_corpus.py
"""

from __future__ import annotations

import itertools
import math
import pathlib
import sys

from lmss.graph6 import encode

MAX_N = 7
EXPECTED_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "lmss" / "data"


def pair_index(i: int, j: int) -> int:
    """Column-major upper-triangle bit index of the pair (i, j), i < j."""
    return j * (j - 1) // 2 + i


def permutation_planes(n: int) -> list[list[int]]:
    """planes[b][t] = the permutations (bit p for the p-th) mapping pair-bit b to bit t."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    planes = [[0] * len(pairs) for _ in pairs]
    for p, perm in enumerate(itertools.permutations(range(n))):
        for row, (i, j) in zip(planes, pairs):
            a, c = sorted((perm[i], perm[j]))
            row[pair_index(a, c)] |= 1 << p
    return planes


def canonical_mask(mask: int, planes: list[list[int]], tied: int) -> int:
    """The minimum image of mask; tied starts as all permutations."""
    rows = [row for b, row in enumerate(planes) if mask >> b & 1]
    best = 0
    for t in reversed(range(len(planes))):
        ones = 0
        for row in rows:
            ones |= row[t]
        if tied & ~ones:
            tied &= ~ones
        else:
            best |= 1 << t
    return best


def main() -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    reps: list[int] = [0]  # the single graph on one vertex, as an edge mask
    for n in range(1, MAX_N + 1):
        if n > 1:
            planes = permutation_planes(n)
            everyone = (1 << math.factorial(n)) - 1
            base_bits = (n - 1) * (n - 2) // 2
            canon: set[int] = set()
            for old in reps:
                for nb in range(1 << (n - 1)):
                    candidate = old | (nb << base_bits)
                    canon.add(canonical_mask(candidate, planes, everyone))
            reps = sorted(canon)
        assert len(reps) == EXPECTED_COUNTS[n], (n, len(reps))
        path = OUT_DIR / f"all_graphs_n{n}.g6"
        lines = [encode(n, tuple(mask >> pair_index(0, j) for j in range(n))).decode("ascii")
                 for mask in reps]
        path.write_text("\n".join(lines) + "\n")
        print(f"n={n}: {len(reps)} classes -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
