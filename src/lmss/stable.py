"""Exact stability computations.

alpha() is an exact branch-and-bound. While some vertex v of what remains
has degree at most 1 it takes v without branching, since some maximum
stable set holds v (at degree 1, swap its neighbour for it). Otherwise it
prunes with a greedy clique-cover upper bound and branches on which vertex
of N[v] the stable set takes, for v of minimum degree: every maximal
stable set meets N[v], and each branch leaves the vertices tried before it
out. It tries v itself first, so its first dive is the min-degree greedy,
and a floored search (below) meets a larger stable set sooner, often one
with a larger deficiency.

One walk visits the stable sets: enumerate_stable_sets(), omega() and, on
a graph with a cycle, psi() all run it. It keeps an explicit stack, so it
does not recurse per vertex of S. Each entry carries S, the vertices that
may still join it, N(S), the vertices of N(S) with two or more neighbours
in S, and a need, mask and base (below). A child S + v may take only the
candidates after v that miss N(v), so each stable set is reached exactly
once and non-stable sets never materialize; the child gets N(S) | N(v) and
repeats | (N(S) & N(v)), so no N[S] is rebuilt. Children are pushed lowest
vertex first, so the highest is popped first: the stream follows no
canonical order. psi() walks the graph relabelled by decreasing degree, a
stable sort, so ties keep index order: the child for v takes only the
later vertices that miss N(v), so putting vertices of high degree first
leaves their children few candidates. This is the static form of the
clique-listing order of Eppstein, Loeffler and Strash ("Listing All
Maximal Cliques in Sparse Graphs in Near-Optimal Time"), since stable sets
are the cliques of the complement. Each entry also carries its set in the
caller's labels, ORing in label[v] as it adds v, so members come back
without a remap; enumerate_stable_sets() and omega() walk in index order.
The root carries a starting need k with the mask of all vertices, so the
walk yields exactly the stable sets with at least k vertices:
enumerate_stable_sets() starts from need 0 and omega() from need alpha.
Given a memo, as psi() gives it, the walk keeps only the sets that pass
its local-maximum test. is_local_max_stable() is the definition, a plain
search on N[S] floored at |S|, and the reference the walk's shortcuts
below are tested against. The walk's test decides whether alpha(N[S])
exceeds |S| without computing alpha(N[S]):

* a vertex of N(S) is private to v in S when v is its only neighbour in
  S; if some v has two non-adjacent private neighbours a and b, then
  T = (S - v) + {a, b} is a larger stable set and S is rejected at once;
* otherwise the branch-and-bound runs floored: it starts from best = |S|
  (S is stable in N[S]) and stops at the first larger stable set T, so a
  greedy clique cover of N[S] with |S| cliques accepts S at the root.

Both run outside the closed neighbourhood of an accepted subset. For A in
Psi and a stable S containing A, alpha(N[S]) = |A| + alpha(N[S] - N[A]):
N[S] is N[A] plus N[S] - N[A], and alpha(N[A]) = |A|; and a stable W in
N[S] - N[A] misses N[A], so A + W is stable in N[S]. So S is in Psi
exactly when S - A is maximum in N[S] - N[A], and the search runs there
from the floor |S - A|; a larger T' found there gives T = A + T'. The swap
scans only S - A: on a vertex v of A it would make (A - v) + {a, b}, which
beats A inside N[A]. A vertex outside N[A] sees only S - A. So when the
swap finds nothing, S is accepted without a search if |S - A| <= 1, or if
|S - A| = 2 and no vertex outside N[A] sees both vertices of S - A: each
vertex of S - A with its private neighbours is then a clique, since the
swap found no two non-adjacent ones, and these |S - A| cliques cover
N[S] - N[A]. Each entry carries as base N[A] for its nearest accepted ancestor A,
or 0 for A empty at the root: an accepted S gives its children base N[S],
and a rejected S passes its own base down, as does every entry with a
need.

A rejection prunes the walk by its deficiency. Let T be a stable set of
N[S] with |T| = |S| + d, and U a stable set of the candidates, so U misses
N[S]. Then T + (U - N(T)) is stable, lies inside N[S + U] and has
|S| + |U| + d - |U & N(T)| vertices, so S + U is not in Psi unless U puts
at least d vertices into the blocking mask N(T) - N[S]. The swap gives
d = 1; the floored search often stops at a T with d > 1, since it takes
vertices of degree <= 1 without branching. A rejected S passes (mask, d)
down as (mask, need): while need is positive the walk decides nothing,
since no such set is in Psi, and branches only on the candidates
b_1 < b_2 < ... in the mask. The child for b_i leaves out b_1..b_i and
N(b_i) but keeps the lower candidates outside the mask, and needs one
vertex fewer, so every stable set below S with at least d vertices in
the mask is reached exactly once, through its first d vertices there. An
entry is dropped when its candidates in the mask cannot hold need
vertices: there are fewer than need, or, for need > 1, a greedy clique
cover of them has fewer than need cliques. omega()'s starting need alpha
meets the same bound at every set below alpha.

Outcomes are memoized by closed-neighborhood mask, as (k, True, 0) for
"alpha = k" or as (k, False, blk) for "alpha >= k", with blk the blocking
mask of a stable set of size k; both depend on N[S] alone. A later set
with the same N[S] and fewer than k vertices is rejected without a search,
with d = k - |S|. Its blocking mask is blk, or 0 when alpha is exact, since
the accepted set that stored it lies in N[S] with its neighbours.

On a forest psi() does not walk the stable sets. The pruned walk would
finish, but about 5 to 10 times slower: on 2 vCPUs, three runs each,
psi() takes 0.032-0.036 s on the 90 benchmark trees with 14-15
vertices, where the walk takes 0.15-0.20 s, and 0.015-0.028 s on a
random tree with 28 vertices, where the walk takes 0.14-0.24 s. In a
bipartite graph a stable set S is in Psi iff N(S) has a matching into S
along S-N(S) edges (Koenig: alpha(N[S]) = |N[S]| minus a maximum
matching, and a matching of size |N(S)| there uses no N(S)-N(S) edge).
On a rooted tree the matching can be taken leaf-greedy: a vertex outside
S matches down to a free child in S whenever it has one, since no other
vertex can use that child. Each vertex then takes one of five states:

* IF: in S, no child matched into it;
* IU: in S, one child matched into it (two are infeasible);
* OK: not in S, matched to an IF child;
* NEED: not in S, with children in S that are all IU, so it must match to
  its parent, which is then in S;
* CLR: not in S, no child in S; it must match to its parent if that is in S.

A vertex in S takes OK, NEED and CLR children, and is IU when one of them
is NEED or CLR; a vertex outside S takes IF, IU, OK and CLR children. A
root may take any state but NEED, and components multiply. psi() tries
this DP first, bottom-up after one iterative DFS per component, and runs
the walk instead when a DFS meets a cycle; a failed DFS costs at most one
pass over the vertices.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .bitset import bits, full_mask
from .graph import Graph, closed_neighborhood


class SetFamily:
    """Canonically ordered collection of vertex sets over a fixed universe.

    Members are sorted by cardinality then bit pattern and deduplicated,
    so families built in any order compare equal structurally. The set
    behind ``in`` is built on the first membership test.
    """

    __slots__ = ("universe", "members", "_member_set")

    def __init__(self, universe: int, members):
        self.universe = universe
        self._member_set: frozenset[int] | None = None
        ordered = sorted(members)
        # the sort puts equal masks side by side; keep the last of each run
        ordered = [m for m, nxt in zip(ordered, ordered[1:] + [None]) if m != nxt]
        # a stable sort by cardinality keeps the bit-pattern order within a size
        ordered.sort(key=int.bit_count)
        self.members = tuple(ordered)

    def __contains__(self, mask: int) -> bool:
        if self._member_set is None:
            self._member_set = frozenset(self.members)
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


def is_stable(g: Graph, s: int) -> bool:
    """True iff no edge joins two vertices of ``s``."""
    for v in bits(s):
        if g.adj[v] & s:
            return False
    return True


def enumerate_stable_sets(g: Graph) -> Iterator[int]:
    """Every stable set of ``g`` exactly once, the empty set included."""
    return _stable_walk(g.adj)


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


def _alpha_masked(adj: tuple[int, ...], avail: int, floor: int | None = None) -> tuple[int, int]:
    """Stability number of the subgraph induced by ``avail``, and a stable set.

    Without ``floor`` the result is exact, with a maximum stable set. With
    ``floor`` k, which must not exceed that number, the search starts from
    best = k and stops at the first stable set larger than k: the result is
    (k, 0) when the stability number is k, and otherwise that larger set
    with its size. The search recurses only where every vertex left has
    degree 2 or more.
    """
    best = 0 if floor is None else floor
    found = 0
    decide = floor is not None

    def bb(rem: int, size: int, chosen: int) -> bool:
        """Search ``rem`` beside ``chosen``; True once a decision search may stop."""
        nonlocal best, found
        while True:
            if size + rem.bit_count() <= best:
                return False
            if not rem:
                best = size
                found = chosen
                return decide
            # a vertex of minimum degree inside rem, the first of degree <= 1
            v = -1
            vdeg = rem.bit_count()
            scan = rem
            while scan:
                low = scan & -scan
                u = low.bit_length() - 1
                scan ^= low
                d = (adj[u] & rem).bit_count()
                if d < vdeg:
                    vdeg = d
                    v = u
                    if d <= 1:
                        break
            if vdeg > 1:
                break
            # some maximum stable set of rem holds v: at degree 1, swap its
            # neighbour for v
            rem &= ~(adj[v] | 1 << v)
            chosen |= 1 << v
            size += 1
        if size + _clique_cover_bound(adj, rem) <= best:
            return False
        # every maximal stable set meets N[v]; branch on its first vertex there,
        # v itself first, so that the first dive is the min-degree greedy
        low = 1 << v
        if bb(rem & ~(adj[v] | low), size + 1, chosen | low):
            return True
        rem ^= low
        branch = adj[v] & rem
        while branch:
            low = branch & -branch
            branch ^= low
            if bb(rem & ~(adj[low.bit_length() - 1] | low), size + 1, chosen | low):
                return True
            rem ^= low
        return False

    bb(avail, 0, 0)
    return best, found


def alpha(g: Graph) -> int:
    """Stability number: the size of a maximum stable set."""
    return _alpha_masked(g.adj, full_mask(g.n))[0]


def omega(g: Graph) -> SetFamily:
    """All maximum stable sets, canonically ordered.

    The walk starts from need alpha, so it yields only the sets of size
    alpha and drops a set below it, with every set below that, when a
    clique cover of its candidates has fewer cliques than it still needs.
    """
    return SetFamily(g.n, _stable_walk(g.adj, alpha(g)))


def _decide_local_max(
    adj: tuple[int, ...], s: int, once: int, twice: int, memo: dict[int, tuple[int, bool, int]], base: int
) -> tuple[int, int]:
    """(-1, 0) when the stable set ``s`` is maximum within N[S], else (mask, d).

    A reject returns the blocking mask N(T) - N[S] of a stable set T of
    N[S] with |T| = |S| + d. ``once`` is N(S) and ``twice`` the vertices of
    N(S) with at least two neighbours in S. ``base`` is N[A] for a subset A
    of S in Psi, or 0 for A empty: the swap scans only S - A, and the
    search runs on N[S] - N[A] from the floor |S - A|; a larger T' found
    there gives T = A + T', whose blocking mask is N(T') - N[S] since N(A)
    lies inside N[S]. ``memo`` maps a closed neighborhood to (a, True, 0)
    when its stability number is a, or to (a, False, blk) when a stable set
    T of size a there has blocking mask blk.
    """
    hood = s | once
    k = s.bit_count()
    known = memo.get(hood)
    if known is not None:
        bound, exact, blk = known
        if exact or k < bound:
            return (-1, 0) if k == bound else (blk, bound - k)
    # a vertex of S with two non-adjacent private neighbours a and b swaps 1
    # for 2: T = (S - v) + {a, b}, and N(S - v) lies inside N[S]
    private = once & ~twice
    rest = s & ~base
    # S is stable and contains A, so S meets N[A] in A alone
    u = rest.bit_count()
    while rest:
        low = rest & -rest
        cand = adj[low.bit_length() - 1] & private
        rest ^= low
        while cand:
            lu = cand & -cand
            cand ^= lu
            nbrs = adj[lu.bit_length() - 1]
            other = cand & ~nbrs
            if other:
                blk = (nbrs | adj[(other & -other).bit_length() - 1]) & ~hood
                memo[hood] = (k + 1, False, blk)
                return blk, 1
    # no vertex of S - A has two non-adjacent privates, and a vertex outside
    # N[A] sees only S - A; if none sees two vertices there, each vertex of
    # S - A with its privates is a clique, and these cover N[S] - N[A]
    if u <= 1 or u == 2 and not twice & ~base:
        memo[hood] = (k, True, 0)
        return -1, 0
    a, found = _alpha_masked(adj, hood & ~base, u)
    if a == u:
        memo[hood] = (k, True, 0)
        return -1, 0
    blk = 0
    for v in bits(found):
        blk |= adj[v]
    blk &= ~hood
    d = a - u
    memo[hood] = (k + d, False, blk)
    return blk, d


def _stable_walk(
    adj: tuple[int, ...], need: int = 0, memo: dict[int, tuple[int, bool, int]] | None = None,
    label: Sequence[int] | None = None,
) -> Iterator[int]:
    """Every stable set with at least ``need`` vertices once or, given a memo, those in Psi.

    Each set is yielded as the OR of ``label[v]`` over its vertices v, or
    as itself without ``label``. Each stack entry (S, candidates, N(S),
    repeats, need, mask, base, out) is a stable set with the vertices that
    may still join it, and S in the yielded labels as out; a child's masks
    are one OR and one AND away from its parent's. The root carries
    ``need`` with the mask of all vertices and base 0. While need is
    positive the walk yields and decides nothing; it branches only on the
    candidates b_1 < b_2 < ... in the mask, and the child for b_i leaves
    out b_1..b_i and N(b_i), keeps the candidates below b_i that are not in
    the mask, and needs one vertex fewer. An entry is dropped when the
    candidates in its mask cannot hold a stable set of size need: fewer
    vertices, or for need > 1 a clique cover with fewer cliques. At need 0 without a memo S
    is yielded and every candidate branched on. With a memo S is decided by
    _decide_local_max() against its base, N[A] for its nearest accepted
    ancestor A: a kept S is yielded likewise and gives its children base
    N[S], and a rejected S takes the returned (mask, d) as its mask and
    need and keeps its base.
    """
    full = full_mask(len(adj))
    if label is None:
        label = [1 << v for v in range(len(adj))]
    stack = [(0, full, 0, 0, need, full, 0, 0)]
    while stack:
        s, candidates, once, twice, need, mask, base, out = stack.pop()
        if not need:
            if memo is not None:
                mask, need = _decide_local_max(adj, s, once, twice, memo, base)
            if not need:
                yield out
                mask = candidates
                base = s | once
        branch = mask & candidates
        if need:
            if branch.bit_count() < need or need > 1 and _clique_cover_bound(adj, branch) < need:
                continue
            need -= 1
        while branch:
            low = branch & -branch
            v = low.bit_length() - 1
            nbrs = adj[v]
            branch ^= low
            candidates ^= low
            stack.append((s | low, candidates & ~nbrs, once | nbrs, twice | (once & nbrs), need, mask, base,
                          out | label[v]))


def is_local_max_stable(g: Graph, s: int) -> bool:
    """True iff ``s`` is stable and maximum within its closed neighborhood.

    This is the definition of Psi, stated directly: the plain search on
    N[S], floored at |S|, finds no larger stable set. It is the reference
    that the psi walk's memo, swap and narrowed search are tested against.
    The empty set qualifies: its closed neighborhood induces the empty
    graph, whose stability number is 0.
    """
    k = s.bit_count()
    return is_stable(g, s) and _alpha_masked(g.adj, closed_neighborhood(g, s), k)[0] == k


def _product(xs: list[int], ys: list[int]) -> list[int]:
    """Every union x | y of a mask from each list."""
    return [x | y for x in xs for y in ys]


def _forest_psi(adj: tuple[int, ...]) -> list[int] | None:
    """The members of Psi of a forest, or None when the graph has a cycle.

    One iterative DFS per component orders the vertices; each vertex, taken
    after all of its children, holds per state the traces on its subtree of
    the sets in that state, and folds them into its parent's lists.
    """
    n = len(adj)
    parent_bit = [0] * n
    order: list[int] = []
    seen = 0
    for root in range(n):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            children = adj[v] & ~parent_bit[v]
            if children & seen:
                return None
            seen |= children
            for u in bits(children):
                parent_bit[u] = 1 << v
                stack.append(u)
    # states[v] holds, per state of v (IF, IU, OK, NEED, CLR, as free, used,
    # ok, need, clr), the traces on the folded part of v's subtree of the
    # sets in that state; v's children fold in before v is taken
    states: list = [[[1 << v], [], [], [], [0]] for v in range(n)]
    family = [0]
    for v in reversed(order):
        free, used, ok, need, clr = states[v]
        states[v] = None
        if not parent_bit[v]:
            family = _product(family, free + used + ok + clr)
            continue
        parent = states[parent_bit[v].bit_length() - 1]
        p_free, p_used, p_ok, p_need, p_clr = parent
        settled = ok + clr
        parent[0] = _product(p_free, ok)
        parent[1] = _product(p_used, ok) + _product(p_free, need + clr)
        parent[2] = _product(p_ok, free + used + settled) + _product(p_clr + p_need, free)
        parent[3] = _product(p_need, used + settled) + _product(p_clr, used)
        parent[4] = _product(p_clr, settled)
    return family


def psi(g: Graph) -> SetFamily:
    """The family of all local maximum stable sets, the empty set included."""
    adj = g.adj
    members = _forest_psi(adj)
    if members is None:
        # walk the graph relabelled by decreasing degree, vertex order[i] as i;
        # a stable sort keeps ties in index order
        order = sorted(range(g.n), key=lambda v: -adj[v].bit_count())
        at = [0] * g.n
        for i, v in enumerate(order):
            at[v] = 1 << i
        walked = tuple(sum(at[u] for u in bits(adj[v])) for v in order)
        members = list(_stable_walk(walked, memo={}, label=[1 << v for v in order]))
    return SetFamily(g.n, members)


def min_nonempty_size(family: SetFamily) -> int | None:
    """Smallest cardinality among nonempty members, or None if there is none."""
    for m in family.members:
        if m:
            return m.bit_count()
    return None

