"""Stability computations against the independent brute-force oracles."""

import faulthandler
import functools
import inspect
import signal
import sys
import time
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import conftest
from _strategies import forests, graphs, trees
from lmss import stable
from lmss.bitset import bits
from lmss.graph import (
    Graph,
    complete,
    cycle,
    edgeless,
    from_edge_list,
    named_fixture,
    parse_vertex_set,
    path,
    random_graph,
    random_tree,
)
from lmss.ops import disjoint_union
from lmss.stable import (
    SetFamily,
    alpha,
    enumerate_stable_sets,
    is_local_max_stable,
    is_stable,
    min_nonempty_size,
    omega,
    psi,
)
from lmss.theorems import corpus_upto
from oracles import (
    brute_alpha,
    brute_alpha_table,
    brute_closed_neighborhood,
    brute_omega,
    brute_psi,
    brute_smallest_last,
    brute_stable_sets,
    edge_pairs,
    literal_psi,
    recursive_stable_sets,
)

W = named_fixture("W_FIG1")


def wset(text):
    return parse_vertex_set(text, W)


def _time_limited(seconds):
    """Fail the test once it has run ``seconds``, so a weakened prune fails it instead of hanging.

    The limit is a real-time interval timer; the previous SIGALRM handler
    and timer are restored afterwards. A signal handler runs only between
    bytecodes, not inside one long C call such as a sort of millions of
    members, so a faulthandler watchdog thread also ends the whole run,
    with exit status 1, at twice the limit. It writes its traceback to
    ``conftest.stderr_fd``, since pytest's capture file is lost then.
    Without setitimer the test runs unlimited.
    """

    def wrap(test):
        if not hasattr(signal, "setitimer"):
            return test

        def expire(signum, frame):
            pytest.fail(f"{test.__name__} ran longer than its {seconds} s limit", pytrace=False)

        @functools.wraps(test)
        def limited(*args, **kwargs):
            handler = signal.signal(signal.SIGALRM, expire)
            start = time.monotonic()
            delay, interval = signal.setitimer(signal.ITIMER_REAL, seconds)
            faulthandler.dump_traceback_later(2 * seconds, exit=True, file=conftest.stderr_fd)
            try:
                return test(*args, **kwargs)
            finally:
                faulthandler.cancel_dump_traceback_later()
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, handler)
                if delay:
                    # a timer that ran out meanwhile fires at once
                    signal.setitimer(signal.ITIMER_REAL, max(delay - (time.monotonic() - start), 1e-6), interval)

        return limited

    return wrap


def test_is_stable_facts():
    assert is_stable(W, wset("{a,d,f}"))
    assert not is_stable(complete(3), 0b011)
    assert is_stable(W, 0)
    assert is_stable(W, wset("{b,e,g}"))
    assert not is_stable(W, wset("{a,b}"))


def test_alpha_basics():
    assert alpha(W) == 3
    assert alpha(edgeless(7)) == 7
    assert alpha(complete(6)) == 1
    assert alpha(edgeless(0)) == 0
    assert alpha(path(3)) == 2


def test_alpha_on_exhaustive_small_corpus():
    for g in corpus_upto(6):
        assert alpha(g) == brute_alpha(g)


@given(graphs(max_n=10))
@settings(max_examples=120)
def test_alpha_matches_naive(g):
    assert alpha(g) == brute_alpha(g)


@st.composite
def floored_searches(draw):
    """A graph, a vertex subset ``avail`` and a floor k <= alpha(avail)."""
    g = draw(graphs(max_n=10))
    avail = draw(st.integers(0, (1 << g.n) - 1))
    a = brute_alpha_table(g)[avail]
    return g, avail, a, draw(st.integers(0, a))


@given(floored_searches())
@settings(max_examples=200)
def test_floored_search_decides_against_oracle(case):
    g, avail, a, k = case
    size, chosen = stable._alpha_masked(g.adj, avail)
    assert size == a
    assert is_stable(g, chosen) and chosen & ~avail == 0 and chosen.bit_count() == size
    found, chosen = stable._alpha_masked(g.adj, avail, k)
    if a == k:
        assert (found, chosen) == (k, 0)
    else:
        assert k < found <= a
        assert is_stable(g, chosen) and chosen & ~avail == 0 and chosen.bit_count() == found


@pytest.mark.parametrize("n,seed", [(18, 3), (20, 4)])
def test_alpha_matches_naive_larger(n, seed):
    g = random_graph(n, 30, 100, seed)
    assert alpha(g) == brute_alpha(g)


def _fib_stable_count(n):
    # independent-set count of a path satisfies F(n) = F(n-1) + F(n-2)
    a, b = 1, 2  # counts for the paths on 0 and 1 vertices
    for _ in range(n):
        a, b = b, a + b
    return a


def test_stable_set_counts():
    assert len(list(enumerate_stable_sets(edgeless(2)))) == 4
    assert sorted(enumerate_stable_sets(complete(3))) == [0b000, 0b001, 0b010, 0b100]
    assert len(list(enumerate_stable_sets(path(4)))) == 8
    assert _fib_stable_count(4) == 8
    for n in range(1, 9):
        assert len(list(enumerate_stable_sets(path(n)))) == _fib_stable_count(n)


@given(graphs(max_n=8))
@settings(max_examples=100)
def test_stream_is_exactly_the_stable_sets(g):
    seen = list(enumerate_stable_sets(g))
    assert len(seen) == len(set(seen))
    assert sorted(seen) == brute_stable_sets(g)


@given(graphs(max_n=12))
@settings(max_examples=100)
def test_stream_matches_recursive_reference(g):
    seen = list(enumerate_stable_sets(g))
    assert len(seen) == len(set(seen))
    assert sorted(seen) == sorted(recursive_stable_sets(g))


def _lowest_recursion_limit():
    """The lowest recursion limit the interpreter accepts in the caller.

    The limit also counts frames that inspect.stack() does not list, such as
    calls made from C under pytest on CPython 3.11, so ask the interpreter.
    The caller's limit is back in place on return.
    """
    caller_limit = sys.getrecursionlimit()
    limit = len(inspect.stack(0))
    try:
        while True:
            try:
                sys.setrecursionlimit(limit)
                return limit
            except RecursionError:
                limit += 1
    finally:
        sys.setrecursionlimit(caller_limit)


def test_stream_does_not_recurse():
    # the recursive reference nests one generator frame per vertex of S, 13
    # here; the walk keeps its own stack
    cases = (edgeless(12), path(24))
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(_lowest_recursion_limit() + 8)
        counts = [sum(1 for _ in enumerate_stable_sets(g)) for g in cases]
    finally:
        sys.setrecursionlimit(limit)
    assert counts == [4096, 121393]


def test_local_max_facts():
    assert is_local_max_stable(W, wset("{e,g}"))
    assert not is_local_max_stable(W, wset("{d}"))
    assert not is_local_max_stable(W, wset("{g}"))
    assert is_local_max_stable(W, wset("{a}"))
    assert is_local_max_stable(W, wset("{d,f}"))
    assert is_local_max_stable(W, wset("{d,g}"))
    assert is_local_max_stable(W, 0)
    g2 = named_fixture("G2_FIG3")
    assert is_local_max_stable(g2, parse_vertex_set("{a,b,c}", g2))
    assert not is_local_max_stable(W, wset("{a,b}"))  # not even stable


@given(graphs(max_n=8))
@settings(max_examples=60)
def test_is_local_max_stable_matches_naive_on_every_subset(g):
    members = brute_psi(g)
    for s in range(1 << g.n):
        assert is_local_max_stable(g, s) == (s in members)


def _count_searches(monkeypatch):
    """The list that (avail, floor) is appended to at each call of _alpha_masked, patched to count."""
    searches = []
    search = stable._alpha_masked

    def counted(adj, avail, floor=None):
        searches.append((avail, floor))
        return search(adj, avail, floor)

    monkeypatch.setattr(stable, "_alpha_masked", counted)
    return searches


def _no_search(*args):
    raise AssertionError("the floored search ran")


def _hood_args(g, s):
    """(adj, S, N(S), repeats) for deciding ``s`` in ``g``, built from S."""
    once = twice = 0
    for v in bits(s):
        twice |= once & g.adj[v]
        once |= g.adj[v]
    return g.adj, s, once, twice


def test_private_neighbour_reject_then_memo_lower_bound(monkeypatch):
    # star with centre 0 and leaves 1, 2: {0} and {1,2} share N[S] = {0,1,2}
    star = from_edge_list(3, [(0, 1), (0, 2)])
    searches = _count_searches(monkeypatch)
    memo = {}
    # S = {0}: N(S) = {1, 2}, neither with two neighbours in S
    assert stable._decide_local_max(star.adj, 0b001, 0b110, 0, memo, 0) == (0, 1)
    assert searches == []  # leaves 1 and 2 are private to 0 and non-adjacent
    assert memo == {0b111: (2, False, 0)}
    # S = {1, 2}: N(S) = {0}, a neighbour of both
    assert stable._decide_local_max(star.adj, 0b110, 0b001, 0b001, memo, 0) == (-1, 0)
    assert searches == [(0b111, 2)]
    assert memo == {0b111: (2, True, 0)}
    assert psi(star).members == (0, 0b010, 0b100, 0b110)


def test_floored_search_reject_then_exact_memo(monkeypatch):
    # K_{2,3} with sides {3, 4} and {0, 1, 2}: no neighbour is private to a
    # vertex of {3, 4} or of {0, 1, 2}, so the 1-for-2 swap settles neither;
    # the greedy pass takes 4 first, then 3, and stays at the floor
    k23 = from_edge_list(5, [(a, b) for a in (3, 4) for b in (0, 1, 2)])
    searches = _count_searches(monkeypatch)
    memo = {}
    # each vertex of N(S) has two or more neighbours in S
    assert stable._decide_local_max(k23.adj, 0b11000, 0b00111, 0b00111, memo, 0) == (0, 1)
    assert searches == [(0b11111, 2)]  # it stops at {0, 1, 2}
    assert memo == {0b11111: (3, False, 0)}
    assert stable._decide_local_max(k23.adj, 0b00111, 0b11000, 0b11000, memo, 0) == (-1, 0)
    assert searches == [(0b11111, 2), (0b11111, 3)]
    assert memo == {0b11111: (3, True, 0)}
    assert psi(k23).members == (0, 0b00011, 0b00101, 0b00110, 0b00111)


def test_greedy_pass_rejects_without_a_search(monkeypatch):
    # 0 and 1 both see 3, 4, 5 and 6, and 6 also sees 2: S = {0, 1} has no
    # private neighbour, and the pass over N[S] takes 6, 5, 4 and 3, so
    # T = {3, 4, 5, 6} beats S by d = 2 with blocking mask N(T) - N[S] = {2}
    g = from_edge_list(7, [(a, b) for a in (0, 1) for b in (3, 4, 5, 6)] + [(2, 6)])
    assert not is_local_max_stable(g, 0b11)
    monkeypatch.setattr(stable, "_alpha_masked", _no_search)
    memo = {}
    assert stable._decide_local_max(g.adj, 0b11, 0b1111000, 0b1111000, memo, 0) == (0b100, 2)
    assert memo == {0b1111011: (4, False, 0b100)}


def test_search_skips_the_accepted_ancestors_hood(monkeypatch):
    # the path 3-4-0-2-1 and the isolated vertex 5: A = {5} is in Psi, so
    # S = {2, 4, 5} is decided on N[S] - N[A] = {0, ..., 4} from floor 2;
    # the greedy pass there takes 4 and then 2, and stays at the floor
    g = from_edge_list(6, [(3, 4), (0, 4), (0, 2), (1, 2)])
    s, once, twice = 0b110100, 0b001011, 0b000001
    searches = _count_searches(monkeypatch)
    assert stable._decide_local_max(g.adj, s, once, twice, {}, 0b100000) == (0, 1)
    assert searches == [(0b11111, 2)]
    assert stable._decide_local_max(g.adj, s, once, twice, {}, 0) == (0, 1)
    assert searches == [(0b11111, 2), (0b111111, 3)]


def test_memo_probe_accepts_above_a_member(monkeypatch):
    # the path 3-0-2-1: {1} is in Psi, and S = {0, 1} adds 0 with its one
    # private neighbour 3; the pass over N[S] takes 3 and 2 and stays at the
    # floor, so the exact entry at N[S - 0] = {1, 2} accepts S
    g = from_edge_list(4, [(3, 0), (0, 2), (2, 1)])
    assert is_local_max_stable(g, 0b0011)
    monkeypatch.setattr(stable, "_alpha_masked", _no_search)
    memo = {}
    assert stable._decide_local_max(*_hood_args(g, 0b0010), memo, 0) == (-1, 0)
    assert memo == {0b0110: (1, True, 0)}
    assert stable._decide_local_max(*_hood_args(g, 0b0011), memo, 0) == (-1, 0)
    assert memo == {0b0110: (1, True, 0), 0b1111: (2, True, 0)}


def test_memo_probe_rejects_with_a_larger_witness(monkeypatch):
    # 0 and 1 see 2..5, 6 sees 5, and 7 sees 6 and 2..5: the pass over
    # N[{0, 1}] takes T = {2, 3, 4, 5}, so {0, 1} stores (4, False, {6, 7}).
    # S = {0, 1, 6} has 7 as its one private neighbour, and the pass over
    # N[S] takes 7, 1 and 0; T beats S by 1 inside N[S - 6] = N[{0, 1}],
    # and 6 is in N(T), so the witness is T with N(T) - N[S] empty
    g = from_edge_list(8, [(a, b) for a in (0, 1, 7) for b in (2, 3, 4, 5)] + [(5, 6), (6, 7)])
    assert not is_local_max_stable(g, 0b1000011)
    monkeypatch.setattr(stable, "_alpha_masked", _no_search)
    memo = {}
    assert stable._decide_local_max(*_hood_args(g, 0b11), memo, 0) == (0b11000000, 2)
    assert memo == {0b111111: (4, False, 0b11000000)}
    assert stable._decide_local_max(*_hood_args(g, 0b1000011), memo, 0) == (0, 1)
    assert memo[0b11111111] == (4, False, 0)


@pytest.mark.parametrize("extra,decided,entry,blk", [
    # {0, 1, 2} is in Psi with N[{0, 1, 2}] = N[{5, 6}]
    ([], 0b111, (3, True, 0), 0),
    # 7 sees 1 and 3 sees 2: {5, 6} is rejected by T = {0, 1, 2}, whose
    # blocking mask {3, 7} meets N[S] in 3, the private neighbour of 4
    ([(1, 7), (2, 3)], 0b1100000, (3, False, 0b10001000), 0b10000000),
])
def test_memo_probe_extends_the_witness(monkeypatch, extra, decided, entry, blk):
    # 6 sees 0 and 1, 5 sees 0 and 2, and 4 sees 3: S = {4, 5, 6} has one
    # private neighbour per vertex, and the pass over N[S] takes 6, 5 and 4;
    # the stable set T = {0, 1, 2} of N[S - 4] = {0, 1, 2, 5, 6} ties with S,
    # and 4 is not in N(T), so T + 4 beats S by 1
    g = from_edge_list(8, [(6, 0), (6, 1), (5, 0), (5, 2), (4, 3)] + extra)
    assert not is_local_max_stable(g, 0b1110000)
    memo = {}
    stable._decide_local_max(*_hood_args(g, decided), memo, 0)
    assert memo == {0b1100111: entry}
    monkeypatch.setattr(stable, "_alpha_masked", _no_search)
    assert stable._decide_local_max(*_hood_args(g, 0b1110000), memo, 0) == (blk, 1)
    assert memo[0b1111111] == (4, False, blk)


def test_memo_probe_searches_when_w_blocks_the_witness(monkeypatch):
    # as above, with 4 seeing 2 and 3 and 7 seeing 1: T = {0, 1, 2} in
    # N[S - 4] ties with S = {4, 5, 6}, but 4 is in N(T), so T + 4 is not
    # stable and no other entry settles S: the search runs
    g = from_edge_list(8, [(6, 0), (6, 1), (5, 0), (5, 2), (4, 2), (4, 3), (1, 7)])
    memo = {}
    assert stable._decide_local_max(*_hood_args(g, 0b1100000), memo, 0) == (0b10010000, 1)
    assert memo == {0b1100111: (3, False, 0b10010000)}
    searches = _count_searches(monkeypatch)
    blk, d = stable._decide_local_max(*_hood_args(g, 0b1110000), memo, 0)
    assert searches == [(0b1111111, 3)]
    assert d >= 1 and not is_local_max_stable(g, 0b1110000)


@given(graphs(max_n=12))
@settings(max_examples=150)
def test_smallest_last_matches_min_degree_removal(g):
    assert stable._smallest_last(g.adj) == brute_smallest_last(g)


@pytest.mark.parametrize("g", [cycle(70), complete(70), disjoint_union([complete(40), path(40)]).graph],
                         ids=["C70", "K70", "K40+P40"])
def test_smallest_last_past_one_word(g):
    assert stable._smallest_last(g.adj) == brute_smallest_last(g)


def test_psi_p4_frozen():
    fam = psi(path(4))
    assert fam.members == (0, 0b0001, 0b1000, 0b0101, 0b1001, 0b1010)


def test_psi_complete_graphs():
    for n in range(1, 6):
        fam = psi(complete(n))
        assert fam.members == tuple([0] + [1 << v for v in range(n)])
        assert fam == omega_with_empty(complete(n))


def test_psi_relabels_dense_rows_through_their_complement(monkeypatch):
    # a row of complete(n) has n - 1 neighbours and no non-neighbour, so the
    # relabel steps through none of them; the forest check's walk over vertex
    # 0's row takes n - 1 steps (relabelling each row by its neighbours would
    # add n * (n - 1))
    n = 300
    steps = 0

    def counted(mask):
        nonlocal steps
        for v in bits(mask):
            steps += 1
            yield v

    monkeypatch.setattr(stable, "bits", counted)
    assert len(psi(complete(n))) == n + 1
    assert steps <= n


def omega_with_empty(g):
    return SetFamily(g.n, (0,) + omega(g).members)


@pytest.mark.parametrize("n", range(4, 11))
def test_psi_cycles_equal_omega(n):
    assert psi(cycle(n)) == omega_with_empty(cycle(n))


@given(st.one_of(graphs(max_n=10), forests(max_n=14)))
@settings(max_examples=120)
def test_omega_matches_naive(g):
    assert set(omega(g).members) == brute_omega(g)


@_time_limited(60)
def test_omega_anchors_beyond_the_stream():
    # path:40 has about 2.7e8 stable sets; the clique-cover bound skips them
    assert len(omega(path(40))) == 21
    assert len(omega(cycle(40))) == 2


def test_omega_facts():
    assert omega(cycle(4)).members == (0b0101, 0b1010)
    assert omega(complete(4)).members == (1, 2, 4, 8)
    ow = omega(W)
    assert wset("{a,d,f}") in ow
    assert wset("{b,e,g}") in ow
    assert omega(edgeless(0)).members == (0,)


def test_psi_on_exhaustive_small_corpus():
    for g in corpus_upto(6):
        assert set(psi(g).members) == brute_psi(g)


@given(graphs(max_n=12))
@settings(max_examples=150)
def test_psi_matches_naive(g):
    assert set(psi(g).members) == brute_psi(g)


def _psi_walked(g):
    """psi(g), and the arguments and the result of every local-max decision it made."""
    calls = []
    decide = stable._decide_local_max

    def counted(*args):
        result = decide(*args)
        calls.append((*args, result))
        return result

    stable._decide_local_max = counted
    try:
        fam = psi(g)
    finally:
        stable._decide_local_max = decide
    return fam, calls


def _stream_filter(g):
    """Psi of ``g`` from the stable-set stream, decided with one memo per graph.

    Each set goes through the walk's decision, with N(S) and its repeats
    built from S and no accepted ancestor: the plain search of
    is_local_max_stable() is several times slower on the anchors below.
    """
    memo = {}

    def kept(s):
        return stable._decide_local_max(*_hood_args(g, s), memo, 0)[0] < 0

    return SetFamily(g.n, filter(kept, enumerate_stable_sets(g)))


@given(forests(max_n=12))
@settings(max_examples=200)
def test_forest_psi_matches_naive(g):
    fam, decisions = _psi_walked(g)
    assert not decisions
    assert set(fam.members) == brute_psi(g)


# The filter decides every stable set, so its input is kept to 2^16 of them:
# few deletions, and no star-like tree (a star on 20 vertices has 2^19 + 1).
# Near-edgeless forests and stars are checked against brute_psi by
# test_forest_psi_matches_naive (n <= 12).
@given(forests(max_n=20, max_deleted=3))
@settings(max_examples=30, deadline=None)
def test_forest_psi_matches_stream_filter(g):
    assume(sum(1 for _ in islice(enumerate_stable_sets(g), 1 << 16 | 1)) <= 1 << 16)
    assert psi(g) == _stream_filter(g)


@st.composite
def forests_plus_triangle(draw):
    """A forest with a disjoint triangle added: a cycle with fewer edges than vertices."""
    f = draw(forests(max_n=9))
    n = f.n
    pairs = edge_pairs(f) + [(n, n + 1), (n + 1, n + 2), (n, n + 2)]
    return from_edge_list(n + 3, pairs)


@st.composite
def trees_plus_chord(draw):
    """A tree with one more edge: exactly as many edges as vertices."""
    t = draw(trees(min_n=3, max_n=12))
    tree_edges = set(edge_pairs(t))
    chords = [(i, j) for j in range(t.n) for i in range(j) if (i, j) not in tree_edges]
    return from_edge_list(t.n, sorted(tree_edges) + [draw(st.sampled_from(chords))])


@given(st.one_of(forests_plus_triangle(), trees_plus_chord()))
@settings(max_examples=120)
def test_graphs_with_a_cycle_take_the_walk(g):
    assert stable._forest_psi(g.adj) is None
    fam, decisions = _psi_walked(g)
    assert decisions
    assert set(fam.members) == brute_psi(g)


@st.composite
def graphs_with_a_cycle(draw, max_n=16):
    """A graph with at least as many edges as vertices, so with a cycle."""
    n = draw(st.integers(3, max_n))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    return from_edge_list(n, draw(st.lists(st.sampled_from(pairs), unique=True, min_size=n)))


def _walked_graph(g, decisions):
    """The graph the walk decided on, asserted to be ``g`` relabelled in reverse smallest-last order.

    Vertex v of ``g`` is vertex i of the walked graph when v is the i-th
    vertex of brute_smallest_last(g): vertices of least degree among those
    left are removed one at a time, lowest index first, and numbered from
    the last removed.
    """
    adjs = {adj for adj, *_ in decisions}
    assert len(adjs) == 1
    walked = Graph(g.n, adjs.pop())
    order = brute_smallest_last(g)
    at = {v: i for i, v in enumerate(order)}
    assert walked == from_edge_list(g.n, [(at[u], at[v]) for u, v in edge_pairs(g)])
    return walked


@given(graphs_with_a_cycle())
@settings(max_examples=60, deadline=None)
def test_walk_matches_stream_filter(g):
    fam, decisions = _psi_walked(g)
    h = _walked_graph(g, decisions)
    decided = [s for _, s, *_ in decisions]
    assert len(decided) == len(set(decided))
    # the prune skips only stable sets that are not local maximum
    assert not (set(recursive_stable_sets(h)) - set(decided)) & brute_psi(h)
    # N(S) and the vertices of N(S) that have two or more neighbours in S are
    # carried down the walk, not rebuilt. The walk is a preorder, so a set's
    # nearest decided ancestor is the last decided set that is a subset of
    # it once the sets of finished subtrees are popped. An accepted set's
    # children are decided, each one vertex larger; below a set rejected
    # with (blk, d) the walk decides no set until it has added d vertices of
    # blk, and blk misses N[S]. Each set carries N[A] for its nearest
    # accepted ancestor A, or 0 at the root
    ancestors = []
    for _, s, once, twice, _, base, (blk, d) in decisions:
        # every decision agrees with the definition of Psi
        assert (d == 0) == is_local_max_stable(h, s)
        counts = [(row & s).bit_count() for row in h.adj]
        assert once == sum(1 << u for u, c in enumerate(counts) if c >= 1)
        assert twice == sum(1 << u for u, c in enumerate(counts) if c >= 2)
        assert (blk, d) == (-1, 0) or d >= 1 and blk >= 0 and blk & (s | once) == 0
        while ancestors and ancestors[-1][0] & ~s:
            ancestors.pop()
        accepted = [a for a, a_blk, _ in ancestors if a_blk < 0]
        assert base == (brute_closed_neighborhood(h, accepted[-1]) if accepted else 0)
        if s:
            parent, parent_blk, parent_d = ancestors[-1]
            added = s & ~parent
            assert s & parent == parent and added.bit_count() == max(parent_d, 1)
            assert parent_blk < 0 or (added & parent_blk).bit_count() >= parent_d
        ancestors.append((s, blk, d))
    assert fam == _stream_filter(g)


@given(st.one_of(graphs(max_n=12), graphs_with_a_cycle(max_n=12)), st.data())
@settings(max_examples=100, deadline=None)
def test_walk_from_a_root_need_yields_the_larger_stable_sets(g, data):
    # with a root need k and no memo, the walk yields each stable set with
    # at least k vertices once, and no other set
    k = data.draw(st.integers(0, brute_alpha(g) + 1))
    seen = list(stable._stable_walk(g.adj, k))
    assert len(seen) == len(set(seen))
    assert sorted(seen) == [s for s in brute_stable_sets(g) if s.bit_count() >= k]


@given(graphs_with_a_cycle(max_n=10))
@settings(max_examples=60, deadline=None)
def test_rejections_return_a_blocking_mask(g):
    # a rejected S returns N(T) - N[S] for some stable set T of N[S] with d
    # more vertices than S
    _, decisions = _psi_walked(g)
    h = _walked_graph(g, decisions)
    closed = [(t, brute_closed_neighborhood(h, t)) for t in brute_stable_sets(h)]
    for _, s, once, _, _, _, (blk, d) in decisions:
        if blk >= 0:
            hood = s | once
            assert any(t & ~hood == 0 and t.bit_count() == s.bit_count() + d and nt & ~hood == blk for t, nt in closed)


@given(st.one_of(graphs(max_n=10), graphs_with_a_cycle(max_n=10)))
@settings(max_examples=60, deadline=None)
def test_accepted_subset_splits_alpha_of_the_hood(g):
    # for A in Psi and a stable S containing A, alpha(N[S]) is |A| plus
    # alpha(N[S] - N[A]), so the walk decides S outside N[A]
    table = brute_alpha_table(g)
    stable_sets = brute_stable_sets(g)
    for a in brute_psi(g):
        around = brute_closed_neighborhood(g, a)
        for s in stable_sets:
            if s & a == a:
                hood = brute_closed_neighborhood(g, s)
                assert table[hood] == a.bit_count() + table[hood & ~around]


@given(graphs(max_n=10))
@settings(max_examples=60, deadline=None)
def test_complete_swap_accepts_without_a_search(g):
    # after the 1-for-2 swap finds nothing, S is accepted without a search
    # when |S - A| <= 1, or |S - A| = 2 and no vertex outside N[A] sees both
    # vertices of S - A; A is the empty set (base 0) or any member inside S
    stable_sets = brute_stable_sets(g)
    local_max = {s: is_local_max_stable(g, s) for s in stable_sets}
    members = [s for s in stable_sets if local_max[s]]
    search = stable._alpha_masked
    stable._alpha_masked = _no_search
    try:
        for s in stable_sets:
            _, _, once, twice = _hood_args(g, s)
            for a in members:
                if a & ~s:
                    continue
                base = brute_closed_neighborhood(g, a)
                u = (s & ~a).bit_count()
                if u <= 1 or u == 2 and not twice & ~base:
                    blk, d = stable._decide_local_max(g.adj, s, once, twice, {}, base)
                    assert (d == 0) == local_max[s]
    finally:
        stable._alpha_masked = search


def _assert_psi_commutes(g, perm):
    # the walk runs on g relabelled by degree and yields sets in g's labels
    h = from_edge_list(g.n, [(perm[u], perm[v]) for u, v in edge_pairs(g)])
    moved = (sum(1 << perm[v] for v in bits(m)) for m in psi(g))
    assert psi(h) == SetFamily(g.n, moved)


@given(graphs_with_a_cycle(), st.data())
@settings(max_examples=60, deadline=None)
def test_psi_commutes_with_relabelling(g, data):
    _assert_psi_commutes(g, data.draw(st.permutations(range(g.n))))


@given(st.permutations(range(70)))
@settings(max_examples=5, deadline=None)
def test_psi_commutes_with_relabelling_past_one_word(perm):
    _assert_psi_commutes(cycle(70), perm)


def _grid(rows, cols):
    """The rows x cols grid: vertex r * cols + c joins its right and lower neighbours."""
    n = rows * cols
    right = [(v, v + 1) for v in range(n) if (v + 1) % cols]
    return from_edge_list(n, right + [(v, v + cols) for v in range(n - cols)])


def _prism(k):
    """C_k x K2: two k-cycles, vertex i of the first joined to vertex k + i of the second."""
    ring = [(i, (i + 1) % k) for i in range(k)]
    return from_edge_list(2 * k, ring + [(k + i, k + j) for i, j in ring] + [(i, k + i) for i in range(k)])


def _hypercube(d):
    return from_edge_list(1 << d, [(v, v | 1 << i) for v in range(1 << d) for i in range(d) if not v >> i & 1])


@st.composite
def bipartite_graphs(draw, max_n=14):
    """A grid, a prism C_k x K2 or a bipartite G(n, p) with a cycle, relabelled at random."""
    kind = draw(st.sampled_from(("grid", "prism", "gnp")))
    if kind == "grid":
        rows = draw(st.integers(2, max_n // 2))
        g = _grid(rows, draw(st.integers(2, max_n // rows)))
    elif kind == "prism":
        g = _prism(2 * draw(st.integers(2, max_n // 4)))  # bipartite for even k
    else:
        # a 4-cycle on vertices 0..3 keeps the graph off the forest DP
        n = draw(st.integers(4, max_n))
        side = [False, True, False, True] + draw(st.lists(st.booleans(), min_size=n - 4, max_size=n - 4))
        cross = [(i, j) for j in range(n) for i in range(j) if side[i] != side[j]]
        g = from_edge_list(n, [(0, 1), (1, 2), (2, 3), (0, 3)] + draw(st.lists(st.sampled_from(cross), unique=True)))
    perm = draw(st.permutations(range(g.n)))
    return from_edge_list(g.n, [(perm[i], perm[j]) for i, j in edge_pairs(g)])


@given(bipartite_graphs())
@settings(max_examples=80, deadline=None)
def test_carried_walk_matches_naive_on_bipartite_graphs(g):
    fam, decisions = _psi_walked(g)
    assert set(fam.members) == brute_psi(g)
    # the walk decides no set while it still needs vertices of a blocking
    # mask, and none below a pruned entry; none of those is a member
    h = _walked_graph(g, decisions)
    decided = {s for _, s, *_ in decisions}
    assert not (set(brute_stable_sets(h)) - decided) & brute_psi(h)


@pytest.mark.parametrize("g", [_grid(6, 6), _hypercube(5)], ids=["grid6x6", "Q5"])
@_time_limited(60)
def test_bipartite_anchors(g):
    # Psi holds only the empty set and the two colour classes
    side = {0: 0}
    queue = [0]
    for v in queue:
        for u in bits(g.adj[v]):
            if u not in side:
                side[u] = 1 - side[v]
                queue.append(u)
    one = sum(1 << v for v, c in side.items() if c)
    assert psi(g).members == (0, *sorted((one, one ^ ((1 << g.n) - 1))))


@st.composite
def cycles_and_paths(draw, max_n=14):
    """A disjoint union of at least one cycle and any cycles or paths, shuffled."""
    parts = [cycle(draw(st.integers(3, 7)))]
    n = parts[0].n
    while n < max_n and draw(st.booleans()):
        size = draw(st.integers(1, min(7, max_n - n)))
        parts.append(cycle(size) if size >= 3 and draw(st.booleans()) else path(size))
        n += size
    parts = draw(st.permutations(parts))
    return parts[0] if len(parts) == 1 else disjoint_union(parts).graph


@given(cycles_and_paths())
@settings(max_examples=80, deadline=None)
def test_psi_of_cycles_and_paths_matches_naive(g):
    assert set(psi(g).members) == brute_psi(g)


@_time_limited(60)
def test_sparse_anchors_beyond_the_stream():
    # cycle:60 has about 3.5e12 stable sets and C3 + P37 about 2.5e8
    assert len(psi(cycle(60))) == 3
    g = disjoint_union([cycle(3), path(37)]).graph
    fam = psi(g)
    assert len(fam) == 764
    # Psi of a disjoint union is the product of its parts' families; the
    # forest DP builds the family of P37
    assert fam == SetFamily(g.n, (c | p << 3 for c in psi(cycle(3)) for p in psi(path(37))))
    small = disjoint_union([cycle(3), path(22)]).graph
    assert len(psi(small)) == 312
    assert psi(small) == _stream_filter(small)


@pytest.mark.parametrize("n,p,members", [(32, 20, 41), (40, 30, 69)])
@_time_limited(60)
def test_walk_anchors(n, p, members):
    g = random_graph(n, p, 100, 0)
    fam = psi(g)
    assert len(fam) == members
    assert fam == _stream_filter(g)


@_time_limited(60)
def test_forest_anchors_beyond_the_stream():
    # path:40 has about 2.7e8 stable sets and the tree about 1.3e6
    assert len(psi(path(40))) == 231
    assert len(psi(random_tree(28, 0))) == 46198


def test_forest_psi_does_not_recurse():
    # the stream recurses once per vertex of a stable set; the tree DP not at
    # all. 51 frames over the lowest limit: a limit of 93 under pytest on
    # CPython 3.11
    g = path(150)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_lowest_recursion_limit() + 51)
    try:
        fam = psi(g)
    finally:
        sys.setrecursionlimit(limit)
    assert len(fam) == 77 * 76 // 2  # |Psi(P_2k)| = C(k + 2, 2)


def _tree_alpha(g):
    """alpha of a tree from an in/out DP over one BFS order from vertex 0."""
    order, parent = [0], {0: None}
    for v in order:
        for u in bits(g.adj[v]):
            if u not in parent:
                parent[u] = v
                order.append(u)
    take, skip = [1] * g.n, [0] * g.n
    for v in reversed(order[1:]):
        take[parent[v]] += skip[v]
        skip[parent[v]] += max(take[v], skip[v])
    return max(take[0], skip[0])


def test_sparse_alpha_does_not_recurse():
    # a vertex of degree <= 1 is taken without a branch, and a cycle branches
    # once on the closed neighbourhood of a vertex
    tree = random_tree(2000, 0)
    cases = [(path(3000), 1500), (cycle(1001), 500), (edgeless(3000), 3000), (tree, _tree_alpha(tree))]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_lowest_recursion_limit() + 51)
    try:
        found = [alpha(g) for g, _ in cases]
    finally:
        sys.setrecursionlimit(limit)
    assert found == [a for _, a in cases]
    assert found[-1] == 1131


@pytest.mark.parametrize("n,seed", [(13, 0), (14, 1), (15, 2), (16, 3)])
def test_psi_matches_naive_midsize(n, seed):
    g = random_graph(n, 25, 100, seed)
    assert set(psi(g).members) == brute_psi(g)


@given(graphs(max_n=5))
@settings(max_examples=30)
def test_dp_oracle_matches_literal_oracle(g):
    assert brute_psi(g) == literal_psi(g)


@given(graphs(max_n=8))
@settings(max_examples=80)
def test_psi_contains_empty_and_omega_and_pendant_sets(g):
    fam = psi(g)
    assert 0 in fam
    maxima = omega(g)
    for m in maxima:
        assert m in fam
    # every member extends to a maximum stable set
    for s in fam:
        assert any(s & ~m == 0 for m in maxima)
    pend = sum(1 << v for v in range(g.n) if g.adj[v].bit_count() == 1)
    for s in enumerate_stable_sets(g):
        if s and s & ~pend == 0:
            assert s in fam


@given(graphs(max_n=8))
@settings(max_examples=60)
def test_family_canonical_order(g):
    fam = psi(g)
    keys = [(m.bit_count(), m) for m in fam.members]
    assert keys == sorted(keys)
    assert SetFamily(g.n, reversed(fam.members)) == fam
    assert SetFamily(g.n, [*fam.members, *reversed(fam.members), 0]) == fam


def test_psi_min_size():
    assert min_nonempty_size(psi(named_fixture("Z_P3_P3_FIG4"))) == 2
    assert min_nonempty_size(psi(named_fixture("Z_K2_P3_FIG4"))) == 1
    assert min_nonempty_size(psi(complete(5))) == 1
    assert min_nonempty_size(psi(edgeless(0))) is None
    assert min_nonempty_size(SetFamily(3, [0])) is None


def test_set_family_dedup_and_api():
    fam = SetFamily(3, [0b11, 0b11, 0, 0b100])
    assert fam.members == (0, 0b100, 0b011)
    assert len(fam) == 3
    assert 0b11 in fam and 0b10 not in fam
    assert [m for m in fam if m.bit_count() == 1] == [0b100]
    assert fam != SetFamily(4, fam.members)
    assert (psi(path(2)) == 3) is False
