"""Exact stability computations.

alpha() is an exact branch-and-bound that branches in/out on a vertex of
maximum residual degree and prunes with a greedy clique-cover upper bound.
The stable-set stream inserts vertices in increasing order, so each stable
set is produced exactly once and non-stable candidates never materialize.
psi() filters that stream through the local-maximum test, which
is_local_max_stable() shares. The test decides whether alpha(N[S])
exceeds |S| without computing alpha(N[S]):

* a vertex of N(S) is private to v in S when v is its only neighbour in
  S; if some v has two non-adjacent private neighbours a and b, then
  (S - v) + {a, b} is a larger stable set and S is rejected at once;
* otherwise the branch-and-bound runs floored: it starts from best = |S|
  (S is stable in N[S]) and stops at the first larger stable set, so a
  greedy clique cover of N[S] with |S| cliques accepts S at the root.

Outcomes are memoized by closed-neighborhood mask, as "alpha = k" or as
"alpha >= k"; a later set with the same N[S] and fewer than k vertices is
rejected without a search.
"""

from __future__ import annotations

from collections.abc import Iterator

from .bitset import bits, canonical_key, full_mask
from .graph import Graph


class SetFamily:
    """Canonically ordered collection of vertex sets over a fixed universe.

    Members are sorted by cardinality then bit pattern and deduplicated,
    so families built in any order compare equal structurally.
    """

    __slots__ = ("universe", "members", "_member_set")

    def __init__(self, universe: int, members):
        self.universe = universe
        self._member_set = frozenset(members)
        self.members = tuple(sorted(self._member_set, key=canonical_key))

    def __contains__(self, mask: int) -> bool:
        return mask in self._member_set

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetFamily):
            return NotImplemented
        return self.universe == other.universe and self.members == other.members

    def __hash__(self) -> int:
        return hash((self.universe, self.members))

    def __repr__(self) -> str:
        return f"SetFamily(universe={self.universe}, size={len(self.members)})"

    def by_size(self, k: int) -> list[int]:
        return [m for m in self.members if m.bit_count() == k]


def is_stable(g: Graph, s: int) -> bool:
    """True iff no edge joins two vertices of ``s``."""
    for v in bits(s):
        if g.adj[v] & s:
            return False
    return True


def enumerate_stable_sets(g: Graph) -> Iterator[int]:
    """Every stable set of ``g`` exactly once, the empty set included."""
    adj = g.adj

    def rec(current: int, candidates: int) -> Iterator[int]:
        yield current
        while candidates:
            low = candidates & -candidates
            v = low.bit_length() - 1
            candidates ^= low
            yield from rec(current | low, candidates & ~adj[v])

    yield from rec(0, full_mask(g.n))


def _clique_cover_bound(adj: tuple[int, ...], avail: int) -> int:
    """Greedy clique cover of ``avail``; the clique count bounds alpha above."""
    count = 0
    rem = avail
    while rem:
        low = rem & -rem
        v = low.bit_length() - 1
        rem ^= low
        cand = rem & adj[v]
        while cand:
            lu = cand & -cand
            u = lu.bit_length() - 1
            rem ^= lu
            cand = (cand ^ lu) & adj[u]
        count += 1
    return count


def _alpha_masked(adj: tuple[int, ...], avail: int, floor: int | None = None) -> int:
    """Stability number of the subgraph induced by ``avail``.

    Without ``floor`` the result is exact. With ``floor`` k, which must not
    exceed that number, the search starts from best = k and stops at the
    first stable set larger than k: the result is k when the stability
    number is k, and otherwise a lower bound on it greater than k.
    """
    best = 0 if floor is None else floor
    decide = floor is not None

    def bb(rem: int, size: int) -> bool:
        """Search ``rem``; True once a decision search may stop."""
        nonlocal best
        if size + rem.bit_count() <= best:
            return False
        # pick the vertex of maximum degree inside rem
        v = -1
        vdeg = -1
        scan = rem
        while scan:
            low = scan & -scan
            u = low.bit_length() - 1
            scan ^= low
            d = (adj[u] & rem).bit_count()
            if d > vdeg:
                vdeg = d
                v = u
        if vdeg <= 0:
            # all remaining vertices are isolated here; take them
            best = size + rem.bit_count()
            return decide
        if size + _clique_cover_bound(adj, rem) <= best:
            return False
        vbit = 1 << v
        return bb(rem & ~(adj[v] | vbit), size + 1) or bb(rem ^ vbit, size)

    bb(avail, 0)
    return best


def alpha(g: Graph) -> int:
    """Stability number: the size of a maximum stable set."""
    return _alpha_masked(g.adj, full_mask(g.n))


def omega(g: Graph) -> SetFamily:
    """All maximum stable sets, canonically ordered."""
    a = alpha(g)
    return SetFamily(g.n, (s for s in enumerate_stable_sets(g) if s.bit_count() == a))


def _is_local_max(adj: tuple[int, ...], s: int, memo: dict[int, tuple[int, bool]]) -> bool:
    """True iff the stable set ``s`` is maximum within its closed neighborhood.

    ``memo`` maps a closed neighborhood to (k, True) when its stability
    number is k, or to (k, False) when that number is at least k.
    """
    once = twice = 0
    rest = s
    while rest:
        low = rest & -rest
        nbrs = adj[low.bit_length() - 1]
        twice |= once & nbrs
        once |= nbrs
        rest ^= low
    hood = s | once
    k = s.bit_count()
    known = memo.get(hood)
    if known is not None:
        bound, exact = known
        if exact or k < bound:
            return k == bound
    # a vertex of S with two non-adjacent private neighbours swaps 1 for 2
    private = once & ~twice
    rest = s
    while rest:
        low = rest & -rest
        cand = adj[low.bit_length() - 1] & private
        rest ^= low
        while cand:
            lu = cand & -cand
            cand ^= lu
            if cand & ~adj[lu.bit_length() - 1]:
                memo[hood] = (k + 1, False)
                return False
    a = _alpha_masked(adj, hood, k)
    memo[hood] = (a, a == k)
    return a == k


def is_local_max_stable(g: Graph, s: int) -> bool:
    """True iff ``s`` is stable and maximum within its closed neighborhood.

    The empty set qualifies: its closed neighborhood induces the empty
    graph, whose stability number is 0.
    """
    return is_stable(g, s) and _is_local_max(g.adj, s, {})


def psi(g: Graph) -> SetFamily:
    """The family of all local maximum stable sets, the empty set included."""
    adj = g.adj
    memo: dict[int, tuple[int, bool]] = {}
    return SetFamily(g.n, [s for s in enumerate_stable_sets(g) if _is_local_max(adj, s, memo)])


def min_nonempty_size(family: SetFamily) -> int | None:
    """Smallest cardinality among nonempty members, or None if there is none."""
    for m in family.members:
        if m:
            return m.bit_count()
    return None


def psi_min_size(g: Graph) -> int | None:
    """Minimum size of a nonempty local maximum stable set (None only for n=0)."""
    return min_nonempty_size(psi(g))
