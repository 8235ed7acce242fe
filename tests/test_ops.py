"""Graph compositions: structure, offsets, alpha laws, identities."""

from bisect import bisect_right

import pytest
from hypothesis import given, settings

from _strategies import graph_lists, graphs, nonempty_graphs
from lmss.bitset import full_mask
from lmss.graph import (
    complete,
    edge_count,
    edgeless,
    is_connected,
    named_fixture,
    parse_vertex_set,
    path,
)
from lmss.ops import (
    composition,
    corona,
    disjoint_union,
    lexicographic_product,
    zykov_sum,
)
from lmss.stable import alpha, enumerate_stable_sets
from oracles import induced_subgraph, validate


def _part_mask(c, i):
    """Operand i's vertices in composite coordinates."""
    return full_mask(c.operands[i].n) << c.offsets[i]


def test_union_of_singletons():
    assert disjoint_union([complete(1), complete(1)]).graph == edgeless(2)


def test_union_alpha_additivity_example():
    u = disjoint_union([path(3), path(3)])
    assert alpha(u.graph) == 4


def test_union_rejects_bad_operands():
    with pytest.raises(ValueError, match="at least 2"):
        disjoint_union([path(3)])
    with pytest.raises(ValueError, match="empty"):
        disjoint_union([path(3), edgeless(0)])


def test_zykov_fixture_shapes():
    zk = zykov_sum([complete(2), path(3)])
    assert zk.graph == named_fixture("Z_K2_P3_FIG4")
    assert (zk.graph.n, edge_count(zk.graph)) == (5, 9)
    zp = zykov_sum([path(3), path(3)])
    assert zp.graph == named_fixture("Z_P3_P3_FIG4")
    assert (zp.graph.n, edge_count(zp.graph)) == (6, 13)


def test_zykov_of_completes_is_complete():
    assert zykov_sum([complete(2), complete(3)]).graph == complete(5)


def _fig5_host():
    from lmss.graph import from_edge_list

    return from_edge_list(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def test_corona_fixture():
    built = corona(_fig5_host(), [complete(3), complete(2), path(3), complete(1)])
    assert built.graph == named_fixture("CORONA_FIG5")
    assert built.host_vertices == 0b1111
    assert built.offsets == (4, 7, 9, 12)


def test_corona_tiny_cases():
    k2 = corona(complete(1), [complete(1)])
    assert k2.graph == complete(2)
    p4ish = corona(path(2), [complete(1), complete(1)])
    g = p4ish.graph
    assert g.n == 4 and edge_count(g) == 3 and is_connected(g)
    assert sorted(row.bit_count() for row in g.adj) == [1, 1, 2, 2]


def test_corona_alpha_sum():
    c = corona(_fig5_host(), [complete(3), complete(2), path(3), complete(1)])
    assert alpha(c.graph) == 1 + 1 + 2 + 1


def test_corona_rejects_bad_input():
    with pytest.raises(ValueError, match="exactly 2"):
        corona(path(2), [complete(1)])
    with pytest.raises(ValueError, match="operand 1 is the empty graph"):
        corona(path(2), [complete(1), edgeless(0)])
    with pytest.raises(ValueError, match="nonempty"):
        corona(edgeless(0), [])


def test_composition_specializations_literal():
    parts = [path(3), complete(2), path(2)]
    cu = composition(edgeless(3), parts)
    u = disjoint_union(parts)
    assert cu.graph == u.graph and cu.offsets == u.offsets
    cz = composition(complete(3), parts)
    z = zykov_sum(parts)
    assert cz.graph == z.graph and cz.offsets == z.offsets


def test_composition_p2_of_singletons_is_k2():
    assert composition(path(2), [complete(1), complete(1)]).graph == complete(2)


def test_composition_rejects_length_mismatch():
    with pytest.raises(ValueError, match="exactly 2 parts"):
        composition(path(2), [complete(1)])


def test_lexicographic_product():
    h = named_fixture("G2_FIG3")
    assert lexicographic_product(complete(1), h).graph == h
    assert lexicographic_product(edgeless(2), path(3)).graph == disjoint_union([path(3), path(3)]).graph
    assert lexicographic_product(path(2), complete(1)).graph == complete(2)
    with pytest.raises(ValueError, match="nonempty"):
        lexicographic_product(path(2), edgeless(0))


def test_offsets_fig5():
    c = corona(_fig5_host(), [complete(3), complete(2), path(3), complete(1)])
    g = named_fixture("CORONA_FIG5")
    s = parse_vertex_set("{x,z,v4}", g)
    assert s >> c.offsets[2] & full_mask(3) == 0b101  # the two path ends in part coordinates
    assert s & c.host_vertices == 0b1000
    assert s >> c.offsets[0] & full_mask(3) == 0


def test_restrict_union_second_part():
    u = disjoint_union([path(3), path(3)])
    assert u.offsets == (0, 3)
    assert 0b000001 >> u.offsets[1] & full_mask(3) == 0


def test_lift_round_trip_and_bounds():
    u = disjoint_union([path(3), complete(2)])
    assert u.offsets == (0, 3)
    assert 0b101 << u.offsets[0] == 0b101
    assert 0b10 << u.offsets[1] == 0b10000
    assert 0b10000 >> u.offsets[1] & full_mask(2) == 0b10
    # a set wider than its part spills past the composite's vertices
    assert (0b100 << u.offsets[1]) >> u.graph.n != 0


@given(graph_lists(count_min=2, count_max=3, max_n=4))
@settings(max_examples=60)
def test_union_and_zykov_structure(parts):
    u = disjoint_union(parts)
    z = zykov_sum(parts)
    validate(u.graph)
    validate(z.graph)
    total = sum(g.n for g in parts)
    assert u.graph.n == z.graph.n == total
    cross = sum(
        parts[i].n * parts[j].n for i in range(len(parts)) for j in range(i + 1, len(parts))
    )
    assert edge_count(z.graph) == edge_count(u.graph) + cross
    assert alpha(u.graph) == sum(alpha(g) for g in parts)
    assert alpha(z.graph) == max(alpha(g) for g in parts)
    # provenance: parts are bijectively recovered
    for c in (u, z):
        full = 0
        for i in range(len(parts)):
            assert _part_mask(c, i) & -_part_mask(c, i) == 1 << c.offsets[i]
            full |= _part_mask(c, i)
        assert full == (1 << total) - 1
        for i, g in enumerate(parts):
            sub, _ = induced_subgraph(c.graph, _part_mask(c, i))
            assert sub == g


@given(nonempty_graphs(max_n=3), graph_lists(count_min=1, count_max=3, max_n=3))
@settings(max_examples=60)
def test_corona_structure(host, parts_pool):
    hs = [parts_pool[i % len(parts_pool)] for i in range(host.n)]
    c = corona(host, hs)
    validate(c.graph)
    assert c.graph.n == host.n + sum(h.n for h in hs)
    assert alpha(c.graph) == sum(alpha(h) for h in hs)
    # host block is the host graph itself
    sub, _ = induced_subgraph(c.graph, c.host_vertices)
    assert sub == host
    for i, h in enumerate(hs):
        sub, _ = induced_subgraph(c.graph, _part_mask(c, i))
        assert sub == h
        # the host vertex sees its whole private graph and nothing else sees it
        assert c.graph.adj[i] & _part_mask(c, i) == _part_mask(c, i)
        for j in range(len(hs)):
            if j != i:
                assert c.graph.adj[i] & _part_mask(c, j) == 0


@given(nonempty_graphs(max_n=3), graph_lists(count_min=1, count_max=3, max_n=3))
@settings(max_examples=40)
def test_corona_restrict_partition(host, parts_pool):
    import random

    hs = [parts_pool[i % len(parts_pool)] for i in range(host.n)]
    c = corona(host, hs)
    rnd = random.Random(host.n * 1009 + c.graph.n)
    for _ in range(5):
        s = rnd.getrandbits(c.graph.n)
        rebuilt = s & c.host_vertices
        for i in range(len(hs)):
            rebuilt |= s & _part_mask(c, i)
        assert rebuilt == s
    sizes = [c.host_vertices.bit_count()] + [_part_mask(c, i).bit_count() for i in range(len(hs))]
    assert sum(sizes) == c.graph.n  # the host and the parts cover each vertex once


@given(graphs(min_n=1, max_n=3), graph_lists(count_min=1, count_max=3, max_n=3))
@settings(max_examples=60)
def test_composition_matches_definition(h0, pool):
    parts = [pool[i % len(pool)] for i in range(h0.n)]
    c = composition(h0, parts)
    validate(c.graph)
    # adjacency: same part per the part graph, across parts per the skeleton;
    # a vertex's part is the last one whose offset does not exceed it
    for v in range(c.graph.n):
        for u in range(v + 1, c.graph.n):
            i, j = bisect_right(c.offsets, v) - 1, bisect_right(c.offsets, u) - 1
            if i == j:
                expected = bool(parts[i].adj[v - c.offsets[i]] >> (u - c.offsets[i]) & 1)
            else:
                expected = bool(h0.adj[i] >> j & 1)
            assert bool(c.graph.adj[v] >> u & 1) == expected


@given(nonempty_graphs(max_n=3), graph_lists(count_min=1, count_max=3, max_n=3))
@settings(max_examples=60)
def test_corona_matches_definition(host, pool):
    hs = [pool[i % len(pool)] for i in range(host.n)]
    c = corona(host, hs)
    validate(c.graph)

    # host vertex v is ("host", v); vertex k of H_i is (i, k)
    def origin(v):
        if c.host_vertices >> v & 1:
            return "host", v
        i = bisect_right(c.offsets, v) - 1
        return i, v - c.offsets[i]

    for v in range(c.graph.n):
        for u in range(v + 1, c.graph.n):
            (a, x), (b, y) = origin(v), origin(u)
            if a == b == "host":
                expected = bool(host.adj[x] >> y & 1)
            elif a == "host":
                expected = b == x
            elif a == b:
                expected = bool(hs[a].adj[x] >> y & 1)
            else:
                expected = False
            assert bool(c.graph.adj[v] >> u & 1) == expected


def test_stable_sets_of_zykov_live_in_one_part():
    z = zykov_sum([path(3), path(3), complete(2)])
    for s in enumerate_stable_sets(z.graph):
        if s:
            assert sum(1 for i in range(len(z.operands)) if s & _part_mask(z, i)) == 1
