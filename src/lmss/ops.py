"""Graph constructions with vertex provenance: union, Zykov sum, corona,
generalized composition, lexicographic product.

Operands are laid out in list order after a corona's host, so operand i
occupies ``offsets[i]`` to ``offsets[i] + operands[i].n - 1``; this makes the
composition specializations literal graph equalities, not isomorphisms. A
corona X∘{H_i} is the composition of X∘K1 with K1 on X and H_i on pendant i.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .bitset import bits, full_mask
from .graph import Graph


@dataclass(frozen=True)
class CompositeGraph:
    """A built graph plus where each vertex came from: a corona's host first,
    as the bits of ``host_vertices`` (0 otherwise), then operand i on
    ``offsets[i]`` to ``offsets[i] + operands[i].n - 1``, its vertex v at
    ``offsets[i] + v``."""

    graph: Graph
    operands: tuple[Graph, ...]
    offsets: tuple[int, ...]
    host_vertices: int = 0


def _check_operands(parts: list[Graph]) -> None:
    for i, g in enumerate(parts):
        if g.n == 0:
            raise ValueError(f"operand {i} is the empty graph")


def _layout(parts: list[Graph]) -> tuple[tuple[int, ...], int]:
    *offsets, n = accumulate((g.n for g in parts), initial=0)
    return tuple(offsets), n


def _side_by_side(parts: list[Graph], joined: bool) -> CompositeGraph:
    """Operands laid out in order; joined adds every cross edge."""
    if len(parts) < 2:
        raise ValueError(f"need at least 2 operand graphs, got {len(parts)}")
    _check_operands(parts)
    offsets, n = _layout(parts)
    adj = [0] * n
    for off, g in zip(offsets, parts):
        cross = full_mask(n) & ~(full_mask(g.n) << off) if joined else 0
        for v in range(g.n):
            adj[off + v] = (g.adj[v] << off) | cross
    return CompositeGraph(Graph(n, tuple(adj)), tuple(parts), offsets)


def disjoint_union(parts: list[Graph]) -> CompositeGraph:
    """Side-by-side operands, no cross edges; at least two nonempty operands."""
    return _side_by_side(parts, joined=False)


def zykov_sum(parts: list[Graph]) -> CompositeGraph:
    """Operands plus every cross edge; at least two nonempty operands."""
    return _side_by_side(parts, joined=True)


def corona(x: Graph, hs: list[Graph]) -> CompositeGraph:
    """Each host vertex v_i joined to every vertex of its private graph H_i.

    It is the composition of X∘K1 (X plus a pendant n + i on each v_i) with
    K1 on v_i and H_i on n + i, so the host comes first, then H_1..H_n. Host
    size 1 is accepted by the operator even though the results assume 2+.
    """
    if x.n == 0:
        raise ValueError("corona host must be nonempty")
    if len(hs) != x.n:
        raise ValueError(f"need exactly {x.n} satellite graphs, got {len(hs)}")
    _check_operands(hs)
    n = x.n
    skeleton = Graph(2 * n, tuple(row | 1 << n + v for v, row in enumerate(x.adj))
                     + tuple(1 << v for v in range(n)))
    c = composition(skeleton, [Graph(1, (0,))] * n + list(hs))
    return CompositeGraph(c.graph, tuple(hs), c.offsets[n:], full_mask(n))


def composition(h0: Graph, parts: list[Graph]) -> CompositeGraph:
    """Substitute parts[i] for vertex i of the skeleton h0.

    Vertices of distinct parts i, j are adjacent exactly when ij is an edge
    of h0. The edgeless skeleton gives the disjoint union, the complete one
    the Zykov sum.
    """
    if len(parts) != h0.n:
        raise ValueError(f"need exactly {h0.n} parts, got {len(parts)}")
    _check_operands(parts)
    offsets, n = _layout(parts)
    adj = [0] * n
    masks = [full_mask(g.n) << off for off, g in zip(offsets, parts)]
    for i, (off, g) in enumerate(zip(offsets, parts)):
        cross = 0
        for j in bits(h0.adj[i]):
            cross |= masks[j]
        for v in range(g.n):
            adj[off + v] = (g.adj[v] << off) | cross
    return CompositeGraph(Graph(n, tuple(adj)), tuple(parts), offsets)


def lexicographic_product(h0: Graph, h: Graph) -> CompositeGraph:
    """Composition with every part equal to ``h``."""
    if h.n == 0:
        raise ValueError("second factor must be nonempty")
    return composition(h0, [h] * h0.n)
