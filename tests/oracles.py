"""Independent brute-force oracles the library is tested against.

Two tiers, both separate from the library's code paths:

* the subset-DP oracle visits all 2^n subsets, decides stability by a
  one-vertex recurrence and computes induced-subgraph alpha by dynamic
  programming over masks (no pruning, no branch and bound);
* the literal oracle spells everything out with itertools and pairwise
  edge scans, and exists to cross-check the DP oracle on tiny graphs.

recursive_stable_sets() is the reference for the library's explicit-stack
walk: the same tree of stable sets, visited by recursion in increasing
vertex order, and brute_smallest_last() the reference for the one vertex
order of lmss.stable, which every walk runs in and the forest DP reads
parents from. validate(), induced_subgraph() and edge_pairs() are graph
helpers that only the tests call.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from lmss.bitset import bits, full_mask
from lmss.graph import Graph


def brute_stability_table(g: Graph) -> list[bool]:
    """stable[s] for every subset mask s, via the drop-lowest-vertex recurrence."""
    n = g.n
    table = [False] * (1 << n)
    table[0] = True
    for s in range(1, 1 << n):
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        table[s] = table[rest] and not (g.adj[v] & rest)
    return table


def brute_alpha_table(g: Graph) -> list[int]:
    """alpha of the induced subgraph for every vertex-subset mask."""
    n = g.n
    table = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        v = low.bit_length() - 1
        without = table[s ^ low]
        with_v = 1 + table[s & ~(g.adj[v] | low)]
        table[s] = max(without, with_v)
    return table


def brute_alpha(g: Graph) -> int:
    return brute_alpha_table(g)[(1 << g.n) - 1]


def brute_stable_sets(g: Graph) -> list[int]:
    table = brute_stability_table(g)
    return [s for s in range(1 << g.n) if table[s]]


def recursive_stable_sets(g: Graph) -> Iterator[int]:
    """Every stable set once, in increasing-vertex preorder, one frame per vertex of S."""
    adj = g.adj

    def rec(current: int, candidates: int) -> Iterator[int]:
        yield current
        while candidates:
            low = candidates & -candidates
            v = low.bit_length() - 1
            candidates ^= low
            yield from rec(current | low, candidates & ~adj[v])

    yield from rec(0, (1 << g.n) - 1)


def brute_closed_neighborhood(g: Graph, s: int) -> int:
    out = s
    for v in range(g.n):
        if s >> v & 1:
            out |= g.adj[v]
    return out


def brute_psi(g: Graph) -> set[int]:
    """All-subsets computation of the local maximum stable set family."""
    stable = brute_stability_table(g)
    alpha_of = brute_alpha_table(g)
    out = set()
    for s in range(1 << g.n):
        if stable[s] and bin(s).count("1") == alpha_of[brute_closed_neighborhood(g, s)]:
            out.add(s)
    return out


def brute_omega(g: Graph) -> set[int]:
    stable = brute_stable_sets(g)
    a = max(bin(s).count("1") for s in stable)
    return {s for s in stable if bin(s).count("1") == a}


def brute_smallest_last(g: Graph) -> list[int]:
    """Remove a vertex of least degree among those left, lowest index first,
    until none is left; the vertices, last removed first."""
    left = set(range(g.n))
    removed = []
    while left:
        v = min(left, key=lambda v: (sum(1 for u in left if g.adj[v] >> u & 1), v))
        removed.append(v)
        left.remove(v)
    return removed[::-1]


# -- graph helpers that only the tests call ------------------------------------

def validate(g: Graph) -> None:
    """Check the structural invariants (simple, loopless, symmetric)."""
    if g.n < 0 or len(g.adj) != g.n:
        raise ValueError("adjacency length does not match vertex count")
    fm = full_mask(g.n)
    for v, row in enumerate(g.adj):
        if row & ~fm:
            raise ValueError(f"vertex {v} has neighbors outside the graph")
        if row >> v & 1:
            raise ValueError(f"self-loop at vertex {v}")
        for u in bits(row):
            if not g.adj[u] >> v & 1:
                raise ValueError(f"asymmetric edge ({v},{u})")


def induced_subgraph(g: Graph, x: int) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph spanned by the vertex set ``x`` plus the old-index map.

    New vertex i corresponds to old vertex ``vmap[i]``; relative order is
    preserved, so inducing on the full vertex set returns the graph itself.
    """
    vmap = tuple(bits(x))
    pos = {old: new for new, old in enumerate(vmap)}
    adj = []
    for old in vmap:
        row = 0
        for u in bits(g.adj[old] & x):
            row |= 1 << pos[u]
        adj.append(row)
    lab = tuple(g.labels[v] for v in vmap) if g.labels is not None else None
    return Graph(len(vmap), tuple(adj), lab), vmap


# -- literal tier, for cross-checking the DP oracle on tiny graphs ------------

def edge_pairs(g: Graph) -> list[tuple[int, int]]:
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1]


def literal_psi(g: Graph) -> set[int]:
    pairs = edge_pairs(g)
    vertices = range(g.n)

    def stable(subset: frozenset[int]) -> bool:
        return all(not (u in subset and v in subset) for u, v in pairs)

    def neighborhood(subset: frozenset[int]) -> frozenset[int]:
        closed = set(subset)
        for u, v in pairs:
            if u in subset:
                closed.add(v)
            if v in subset:
                closed.add(u)
        return frozenset(closed)

    def alpha_within(region: frozenset[int]) -> int:
        best = 0
        for k in range(len(region), 0, -1):
            for combo in itertools.combinations(sorted(region), k):
                if stable(frozenset(combo)):
                    return k
        return best

    out = set()
    for k in range(g.n + 1):
        for combo in itertools.combinations(vertices, k):
            subset = frozenset(combo)
            if stable(subset) and len(subset) == alpha_within(neighborhood(subset)):
                out.add(sum(1 << v for v in subset))
    return out


def brute_is_greedoid(members: set[int]) -> bool:
    """Definitional axiom check over a raw set of masks (empty set required)."""
    if 0 not in members:
        return False
    for x in members:
        if x and not any(x ^ (1 << v) in members for v in range(x.bit_length()) if x >> v & 1):
            return False
    for x in members:
        for y in members:
            if bin(x).count("1") != bin(y).count("1") + 1:
                continue
            diff = x & ~y
            if not any(y | (1 << v) in members for v in range(diff.bit_length()) if diff >> v & 1):
                return False
    return True


def _canonical(mask: int) -> tuple[int, int]:
    return (bin(mask).count("1"), mask)


def brute_accessibility_witness(members: set[int]) -> int | None:
    """The canonically smallest nonempty member no single removal keeps in the family."""
    failing = [
        x for x in members
        if x and not any(x ^ (1 << v) in members for v in range(x.bit_length()) if x >> v & 1)
    ]
    return min(failing, key=_canonical, default=None)


def brute_exchange_witness(members: set[int]) -> tuple[int, int] | None:
    """The canonically smallest pair (X, Y), |X| = |Y| + 1, where no v in X - Y has Y + v a member."""
    failing = []
    for x, y in itertools.product(members, repeat=2):
        if bin(x).count("1") != bin(y).count("1") + 1:
            continue
        diff = x & ~y
        if not any(y | (1 << v) in members for v in range(diff.bit_length()) if diff >> v & 1):
            failing.append((x, y))
    return min(failing, key=lambda p: (_canonical(p[0]), _canonical(p[1])), default=None)


def brute_verdict(members: set[int], universe: int) -> dict:
    """The `is_greedoid(...).as_dict()` verdict, from the definitional witnesses above."""
    acc, exc = brute_accessibility_witness(members), brute_exchange_witness(members)
    if acc is not None:
        status, x, y = "ACCESSIBILITY_FAIL", acc, None
    elif exc is not None:
        status, (x, y) = "EXCHANGE_FAIL", exc
    else:
        status, x, y = "GREEDOID", None, None

    def vertices(mask: int | None) -> list[int] | None:
        return None if mask is None else [v for v in range(universe) if mask >> v & 1]

    return {
        "status": status,
        "witness_x": vertices(x),
        "witness_y": vertices(y),
        "family_size": len(members),
        "universe": universe,
    }
