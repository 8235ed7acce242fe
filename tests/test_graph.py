"""Graph construction, neighborhoods, generators, fixtures, text formats."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _strategies import graphs
from lmss.graph import (
    FIXTURE_NAMES,
    MAX_EDGE_LIST_VERTICES,
    EdgeListError,
    Graph,
    closed_neighborhood,
    complete,
    cycle,
    edge_count,
    edgeless,
    format_vertex_set,
    from_edge_list,
    is_complete,
    is_connected,
    is_tree,
    labeled_trees,
    named_fixture,
    parse_count,
    parse_edge_list_text,
    parse_vertex_set,
    path,
    random_graph,
    random_tree,
    tree_from_pruefer,
)
from lmss.rng import SplitMix64
from oracles import induced_subgraph, validate


def test_from_edge_list_triangle():
    g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert g == complete(3)


def test_from_edge_list_edgeless():
    assert from_edge_list(2, []) == edgeless(2)


def test_duplicate_edges_collapse():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert edge_count(g) == 1


def test_bad_endpoint_names_offending_pair():
    with pytest.raises(ValueError, match=r"\(1,3\)"):
        from_edge_list(3, [(0, 1), (1, 3)])


def test_self_loop_names_offending_pair():
    with pytest.raises(ValueError, match=r"\(2,2\)"):
        from_edge_list(3, [(2, 2)])


def test_labels_must_match_vertex_count():
    with pytest.raises(ValueError, match="labels length does not match vertex count"):
        from_edge_list(2, [], labels=("a",))


def test_fixture_w():
    w = named_fixture("W_FIG1")
    assert w.n == 7 and edge_count(w) == 7
    assert [w.label(v) for v in range(7)] == list("abcdefg")


def test_equality_and_hash_ignore_labels():
    w = named_fixture("W_FIG1")
    copy = Graph(7, w.adj)
    assert copy.labels is None and w == copy
    assert hash(w) == hash(copy)
    assert len({w, copy}) == 1
    assert w != edgeless(7)


def test_repr_gives_vertex_and_edge_counts():
    assert repr(path(3)) == "Graph(n=3, m=2)"


def test_graph_never_equals_a_non_graph():
    w = named_fixture("W_FIG1")
    for other in (None, 7, "W_FIG1", (w.n, w.adj), SimpleNamespace(n=w.n, adj=w.adj)):
        assert w != other and not w == other


def test_closed_neighborhood_w():
    w = named_fixture("W_FIG1")
    eg = parse_vertex_set("{e,g}", w)
    assert closed_neighborhood(w, eg) == parse_vertex_set("{c,d,e,f,g}", w)


def test_neighborhood_empty_and_complete():
    w = named_fixture("W_FIG1")
    assert closed_neighborhood(w, 0) == 0
    k3 = complete(3)
    assert closed_neighborhood(k3, 1) == 0b111


@given(graphs())
@settings(max_examples=100)
def test_closed_neighborhood_properties(g):
    import random

    mask = random.Random(g.n * 7919 + edge_count(g)).getrandbits(g.n) if g.n else 0
    closed = closed_neighborhood(g, mask)
    assert closed & mask == mask
    for v in range(g.n):
        assert bool(closed >> v & 1) == bool(mask >> v & 1 or g.adj[v] & mask)


def test_induced_w_five_cycle():
    w = named_fixture("W_FIG1")
    sub, vmap = induced_subgraph(w, parse_vertex_set("{c,d,e,f,g}", w))
    assert sub == cycle(5)
    assert vmap == (2, 3, 4, 5, 6)


def test_induced_full_is_identity():
    w = named_fixture("W_FIG1")
    sub, vmap = induced_subgraph(w, (1 << w.n) - 1)
    assert sub == w and vmap == tuple(range(7))


def test_induced_p4_prefix_is_p3():
    sub, _ = induced_subgraph(path(4), 0b0111)
    assert sub == path(3)


def test_generators():
    c4 = cycle(4)
    assert c4.n == 4 and edge_count(c4) == 4
    assert edge_count(complete(5)) == 10
    assert path(1) == edgeless(1)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        path(0)


def test_is_complete():
    assert is_complete(complete(5))
    assert not is_complete(path(3))
    assert is_complete(edgeless(1))
    assert is_complete(edgeless(0))


def test_random_tree_deterministic():
    assert random_tree(9, 5) == random_tree(9, 5)
    assert random_tree(1, 3) == edgeless(1)
    assert random_tree(2, 11) == path(2)


@pytest.mark.parametrize("n,seed", [(8, 42), (3, 0), (5, 1), (14, 123), (10, 999)])
def test_random_tree_shape(n, seed):
    t = random_tree(n, seed)
    assert edge_count(t) == n - 1
    assert is_connected(t)
    assert is_tree(t)
    validate(t)


def test_random_tree_shape_sweep():
    for n in range(1, 21):
        for seed in range(4):
            t = random_tree(n, seed)
            assert edge_count(t) == n - 1 and is_connected(t)


def test_labeled_tree_counts():
    assert [sum(1 for _ in labeled_trees(n)) for n in range(1, 6)] == [1, 1, 3, 16, 125]
    distinct = {t for t in labeled_trees(4)}
    assert len(distinct) == 16


def test_pruefer_decode_validates():
    t = tree_from_pruefer(6, (3, 3, 1, 4))
    assert is_tree(t)
    assert [t.adj[v].bit_count() for v in (3, 1, 4)] == [3, 2, 2]
    with pytest.raises(ValueError):
        tree_from_pruefer(5, (1,))


@pytest.mark.parametrize("seq", [(5, 0), (-1, 0), (4, 0)])
def test_pruefer_entries_outside_the_vertices_are_rejected(seq):
    with pytest.raises(ValueError, match=r"sequence entries must lie in 0\.\.3"):
        tree_from_pruefer(4, seq)


def test_labeled_trees_below_three_vertices():
    assert list(labeled_trees(1)) == [edgeless(1)]
    assert list(labeled_trees(2)) == [path(2)]
    with pytest.raises(ValueError, match="at least one vertex"):
        list(labeled_trees(0))


@pytest.mark.parametrize("g, message", [
    (Graph(2, (0b10,)), "adjacency length does not match vertex count"),
    (Graph(-1, ()), "adjacency length does not match vertex count"),
    (Graph(2, (0b100, 0)), "vertex 0 has neighbors outside the graph"),
    (Graph(2, (0b01, 0)), "self-loop at vertex 0"),
    (Graph(2, (0b10, 0)), "asymmetric edge (0,1)"),
])
def test_validate_names_each_broken_invariant(g, message):
    with pytest.raises(ValueError) as err:
        validate(g)
    assert str(err.value) == message


def test_random_graph_deterministic():
    g = random_graph(12, 30, 100, 7)
    assert g == random_graph(12, 30, 100, 7)
    validate(g)


def test_below_needs_a_positive_bound():
    with pytest.raises(ValueError, match=r"below\(\) needs a positive bound"):
        SplitMix64(0).below(0)


FIXTURE_SHAPES = {
    "W_FIG1": (7, 7),
    "G1_FIG3": (7, 7),
    "G2_FIG3": (5, 5),
    "G3_FIG3": (5, 7),
    "G4_FIG3": (6, 11),
    "Z_K2_P3_FIG4": (5, 9),
    "Z_P3_P3_FIG4": (6, 13),
    "CORONA_FIG5": (13, 19),
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_shapes(name):
    g = named_fixture(name)
    validate(g)
    assert (g.n, edge_count(g)) == FIXTURE_SHAPES[name]


def test_fixture_g3_is_k4_plus_pendant():
    g = named_fixture("G3_FIG3")
    sub, _ = induced_subgraph(g, 0b11110)
    assert sub == complete(4)
    assert g.adj[0].bit_count() == 1


def test_unknown_fixture():
    with pytest.raises(ValueError, match="unknown fixture"):
        named_fixture("NOPE")


def test_parse_edge_list_text():
    text = """
    # toy graph
    n 4
    0 1
    1 2   # trailing comment
    2 3
    """
    assert parse_edge_list_text(text) == path(4)


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(EdgeListError, match="line 1"):
        parse_edge_list_text("0 1\n")
    with pytest.raises(EdgeListError, match="line 3"):
        parse_edge_list_text("n 3\n0 1\n0 9\n")
    with pytest.raises(EdgeListError, match="self-loop"):
        parse_edge_list_text("n 3\n1 1\n")
    with pytest.raises(EdgeListError):
        parse_edge_list_text("# nothing\n")
    with pytest.raises(EdgeListError, match="line 1"):
        parse_edge_list_text("n \u00b2")  # a digit that is not a decimal
    with pytest.raises(EdgeListError, match="too large"):
        parse_edge_list_text("n " + "9" * 5000)


def test_edge_list_counts_and_endpoints_are_ascii_decimal_digits():
    # int() alone reads "+3", "3_0" and "\u0663" (Arabic-Indic three) as numbers
    for count in ("+3", "3_0", "\u0663", "-0"):
        with pytest.raises(EdgeListError, match=r"expected header.*\(line 1\)"):
            parse_edge_list_text(f"n {count}\n0 1\n")
    for pair in ("0 1_0", "0 +1", "\u0660 1", "-0 1"):
        with pytest.raises(EdgeListError, match=r"non-decimal endpoint.*\(line 3\)"):
            parse_edge_list_text(f"n 11\n2 3\n{pair}\n")
    with pytest.raises(EdgeListError, match=r"out of range in \(0,0011\) \(line 2\)"):
        parse_edge_list_text("n 11\n0 0011\n")
    assert parse_edge_list_text("n 0004\n00 01\n1 2\n002 3\n") == path(4)
    assert parse_count("0" * 5000 + "7") == 7
    assert parse_count("9" * 5000) == MAX_EDGE_LIST_VERTICES + 1


def test_edge_list_vertex_count_is_bounded():
    # the count sizes the adjacency list before any edge is read
    for count in ("2000000", "12345678901", str(MAX_EDGE_LIST_VERTICES + 1)):
        with pytest.raises(EdgeListError, match=r"too large.*\(line 1\)"):
            parse_edge_list_text(f"n {count}\n0 1\n")
    with pytest.raises(EdgeListError, match=r"too large.*\(line 2\)"):
        parse_edge_list_text("# header next\nn 2000000\n")
    g = parse_edge_list_text(f"n {MAX_EDGE_LIST_VERTICES}\n0 {MAX_EDGE_LIST_VERTICES - 1}\n")
    assert g.n == MAX_EDGE_LIST_VERTICES and g.adj[0].bit_count() == 1


# number-like text, with signs, underscores and non-ASCII digits ("²", "٣")
_numberish = "0123456789 -+_#\n\u00b2\u0663"
edge_list_texts = st.one_of(
    st.text(),
    # a vertex count of at most three characters keeps the graphs small
    st.builds("n {}\n{}".format, st.text(_numberish, max_size=3), st.text()),
    st.builds("n {}\n{}".format, st.text(_numberish, max_size=3), st.text(_numberish)),
)


@given(edge_list_texts)
@settings(max_examples=300)
def test_edge_list_parser_raises_only_its_typed_error(text):
    try:
        g = parse_edge_list_text(text)
    except EdgeListError:
        return
    validate(g)


def test_vertex_set_syntax():
    w = named_fixture("W_FIG1")
    assert parse_vertex_set("{e,g}", w) == (1 << 4) | (1 << 6)
    assert parse_vertex_set("{0,2,5}", w) == 0b100101
    assert parse_vertex_set("{}", w) == 0
    assert parse_vertex_set("{ a , d }", w) == 0b1001
    assert format_vertex_set((1 << 4) | (1 << 6), w) == "{e,g}"
    assert format_vertex_set(0, w) == "{}"
    g2 = named_fixture("G2_FIG3")
    assert format_vertex_set(0b00011, g2) == "{a,1}"
    assert format_vertex_set(0b101, path(3)) == "{0,2}"
    with pytest.raises(ValueError, match="unknown vertex"):
        parse_vertex_set("{z}", w)
    with pytest.raises(ValueError, match="braces"):
        parse_vertex_set("0,1", w)
    with pytest.raises(ValueError, match="outside"):
        parse_vertex_set("{9}", w)


@pytest.mark.parametrize("text", ["{1_0}", "{+1}", "{\u0663}", "{ 1 2 }", "{-1}"])
def test_vertex_index_is_ascii_decimal_digits(text):
    # int() alone reads each of the first three, so {1_0} would be vertex 10
    with pytest.raises(ValueError, match="unknown vertex"):
        parse_vertex_set(text, path(12))


def test_vertex_index_is_exact_past_the_edge_list_bound():
    # graph6 input may have more vertices than an edge list or a generator
    assert parse_vertex_set("{70000}", edgeless(70001)) == 1 << 70000
    assert parse_vertex_set("{0070000}", edgeless(70001)) == 1 << 70000
    with pytest.raises(ValueError, match="outside 0..70000"):
        parse_vertex_set("{70001}", edgeless(70001))
    # more digits than int() reads in one go: out of range, and not read
    with pytest.raises(ValueError, match="outside 0..11"):
        parse_vertex_set("{" + "9" * 5000 + "}", path(12))
