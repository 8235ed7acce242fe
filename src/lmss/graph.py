"""Graph representation, parsing, neighborhood algebra, generators, fixtures.

A Graph is immutable: ``n`` vertices numbered 0..n-1 and per-vertex open
neighborhoods stored as int bitmasks. Equality and hashing ignore the
optional display labels, which exist only so fixture vertices can be
addressed by the letters used in their source figures.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from . import graph6
from .bitset import bits, full_mask
from .rng import SplitMix64


class EdgeListError(ValueError):
    """Malformed edge-list text; ``line`` is the 1-based source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]
    labels: tuple[str | None, ...] | None = field(default=None, compare=False)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={edge_count(self)})"

    def label(self, v: int) -> str:
        if self.labels is not None and self.labels[v] is not None:
            return self.labels[v]
        return str(v)


def from_edge_list(
    n: int,
    edges: Iterable[tuple[int, int]],
    labels: Sequence[str | None] | None = None,
) -> Graph:
    """Build a graph from vertex pairs; duplicates collapse, symmetry is applied."""
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) is not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    lab = tuple(labels) if labels is not None else None
    if lab is not None and len(lab) != n:
        raise ValueError("labels length does not match vertex count")
    return Graph(n, tuple(adj), lab)


def edge_count(g: Graph) -> int:
    return sum(row.bit_count() for row in g.adj) // 2


# -- neighborhood algebra ---------------------------------------------------

def closed_neighborhood(g: Graph, a: int) -> int:
    """N[A] = A together with every vertex adjacent to A."""
    out = a
    for v in bits(a):
        out |= g.adj[v]
    return out


def is_complete(g: Graph) -> bool:
    fm = full_mask(g.n)
    return all(g.adj[v] == fm ^ (1 << v) for v in range(g.n))


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == full_mask(g.n)


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and edge_count(g) == g.n - 1 and is_connected(g)


# -- generators ---------------------------------------------------------------

def edgeless(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    fm = full_mask(n)
    return Graph(n, tuple(fm ^ (1 << v) for v in range(n)))


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def tree_from_pruefer(n: int, seq: Sequence[int]) -> Graph:
    """Decode a Pruefer sequence (length n-2, entries in 0..n-1) into a tree."""
    if n < 1:
        raise ValueError("tree needs at least one vertex")
    if len(seq) != max(0, n - 2):
        raise ValueError("sequence length must be n-2")
    if seq and not 0 <= min(seq) <= max(seq) < n:
        raise ValueError(f"sequence entries must lie in 0..{n - 1}")
    if n == 1:
        return edgeless(1)
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    out = []
    for x in seq:
        v = heapq.heappop(leaves)
        out.append((v, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    out.append((u, v))
    return from_edge_list(n, out)


def labeled_trees(n: int) -> Iterator[Graph]:
    """All n^(n-2) labeled trees on n vertices, in Pruefer order."""
    for seq in itertools.product(range(n), repeat=max(0, n - 2)):
        yield tree_from_pruefer(n, seq)


def random_tree(n: int, seed: int) -> Graph:
    """Seed-deterministic labeled tree: Pruefer entries drawn from splitmix64."""
    rand = SplitMix64(seed)
    seq = [rand.below(n) for _ in range(max(0, n - 2))]
    return tree_from_pruefer(n, seq)


def random_graph(n: int, p_num: int, p_den: int, seed: int) -> Graph:
    """Seed-deterministic G(n, p) with rational edge probability p_num/p_den."""
    rand = SplitMix64(seed)
    out = []
    for j in range(n):
        for i in range(j):
            if rand.chance(p_num, p_den):
                out.append((i, j))
    return from_edge_list(n, out)


# -- serialization ------------------------------------------------------------

Graph6Error = graph6.Graph6Error


def to_graph6(g: Graph) -> bytes:
    return graph6.encode(g.n, g.adj)


def parse_graph6(data: bytes | str) -> Graph:
    n, adj = graph6.decode(data)
    return Graph(n, tuple(adj))


# The header's count sizes the adjacency list before any edge is read, so
# it is bounded; the paper's instances have at most 40 vertices.
MAX_EDGE_LIST_VERTICES = 1 << 16


def parse_count(token: str, limit: int = MAX_EDGE_LIST_VERTICES) -> int | None:
    """``token`` as a count, index or flag value, or None unless it is ASCII decimal digits only.

    int() alone also reads a sign, underscores between digits, surrounding
    whitespace and non-ASCII digits, so "+3", "3_0" and "\u0663" would pass.
    A value above ``limit`` comes back as ``limit + 1``, and a token with more
    digits than ``limit`` has is never passed to int(), so none is too long.
    """
    if not (token.isascii() and token.isdigit()):
        return None
    digits = token.lstrip("0")
    if len(digits) > len(str(limit)):
        return limit + 1
    return min(int(digits or "0"), limit + 1)


def parse_edge_list_text(text: str) -> Graph:
    """Plain text format: first line "n <count>", then one "u v" pair per line.

    '#' starts a comment (whole line or trailing); blank lines are skipped.
    A count above ``MAX_EDGE_LIST_VERTICES`` is an ``EdgeListError``.
    """
    n = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            n = parse_count(tokens[1]) if len(tokens) == 2 and tokens[0] == "n" else None
            if n is None:
                raise EdgeListError('expected header "n <count>"', lineno)
            if n > MAX_EDGE_LIST_VERTICES:
                raise EdgeListError(
                    f"vertex count too large (at most {MAX_EDGE_LIST_VERTICES})", lineno)
            continue
        if len(tokens) != 2:
            raise EdgeListError('expected an edge line "u v"', lineno)
        u, v = parse_count(tokens[0]), parse_count(tokens[1])
        if u is None or v is None:
            raise EdgeListError(f"non-decimal endpoint in {line!r}", lineno)
        if not (u < n and v < n):
            raise EdgeListError(f"endpoint out of range in ({tokens[0]},{tokens[1]})", lineno)
        if u == v:
            raise EdgeListError(f"self-loop ({u},{v})", lineno)
        pairs.append((u, v))
    if n is None:
        raise EdgeListError('missing header "n <count>"', 1)
    return from_edge_list(n, pairs)


# -- vertex-set text syntax ---------------------------------------------------

def parse_vertex_set(text: str, g: Graph) -> int:
    """Parse "{0,2,5}" or fixture letters like "{e,g}" into a bitmask.

    A vertex index is read by ``parse_count`` up to ``g.n - 1``, so it is exact
    past ``MAX_EDGE_LIST_VERTICES`` for graph6 input.
    """
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ValueError(f"vertex set must be written in braces: {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        return 0
    by_label = {}
    if g.labels is not None:
        by_label = {lab: v for v, lab in enumerate(g.labels) if lab is not None}
    mask = 0
    for token in inner.split(","):
        token = token.strip()
        v = by_label[token] if token in by_label else parse_count(token, g.n - 1)
        if v is None:
            raise ValueError(f"unknown vertex {token!r}")
        if v >= g.n:
            raise ValueError(f"vertex {token} outside 0..{g.n - 1}")
        mask |= 1 << v
    return mask


def format_vertex_set(mask: int, g: Graph) -> str:
    return "{" + ",".join(g.label(v) for v in bits(mask)) + "}"


# -- named figure fixtures ------------------------------------------------------

def _fixture_w() -> Graph:
    return from_edge_list(
        7,
        [(0, 1), (1, 2), (2, 3), (3, 4), (2, 6), (6, 5), (5, 4)],
        labels=("a", "b", "c", "d", "e", "f", "g"),
    )


def _fixture_g1() -> Graph:
    return from_edge_list(7, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (2, 5), (2, 6)])


def _fixture_g2() -> Graph:
    return from_edge_list(
        5,
        [(0, 1), (1, 2), (1, 3), (1, 4), (2, 4)],
        labels=("a", None, None, "b", "c"),
    )


def _fixture_g3() -> Graph:
    return from_edge_list(5, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


def _fixture_g4() -> Graph:
    return from_edge_list(
        6,
        [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5), (0, 4), (1, 3), (1, 5), (2, 4)],
    )


def _fixture_zykov(n: int, split: int, part_edges: list[tuple[int, int]]) -> Graph:
    """Parts on 0..split-1 and split..n-1, every vertex of one joined to the other."""
    return from_edge_list(n, part_edges + [(i, j) for i in range(split) for j in range(split, n)])


def _fixture_corona() -> Graph:
    return from_edge_list(
        13,
        [(0, 1), (0, 2), (0, 4), (0, 5), (0, 6), (1, 2), (1, 7), (1, 8), (2, 3), (2, 9),
         (2, 10), (2, 11), (3, 12), (4, 5), (4, 6), (5, 6), (7, 8), (9, 10), (10, 11)],
        labels=("v1", "v2", "v3", "v4", "y", None, None, "u", None, "x", None, "z", "t"),
    )


_FIXTURE_BUILDERS = {
    "W_FIG1": _fixture_w,
    "G1_FIG3": _fixture_g1,
    "G2_FIG3": _fixture_g2,
    "G3_FIG3": _fixture_g3,
    "G4_FIG3": _fixture_g4,
    "Z_K2_P3_FIG4": lambda: _fixture_zykov(5, 2, [(0, 1), (2, 3), (3, 4)]),
    "Z_P3_P3_FIG4": lambda: _fixture_zykov(6, 3, [(0, 1), (1, 2), (3, 4), (4, 5)]),
    "CORONA_FIG5": _fixture_corona,
}

FIXTURE_NAMES = tuple(_FIXTURE_BUILDERS)


def named_fixture(name: str) -> Graph:
    try:
        builder = _FIXTURE_BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}") from None
    return builder()
