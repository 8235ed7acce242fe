"""graph6 format: hand-packed oracle values, round trips, error reporting."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _strategies import graphs
from lmss import graph6
from lmss.graph import (
    Graph,
    Graph6Error,
    complete,
    edge_count,
    edgeless,
    from_edge_list,
    parse_graph6,
    path,
    random_graph,
    to_graph6,
)
from oracles import validate


def hand_pack(n, edge_pairs):
    """Independent reference packing: follow the format definition literally."""
    assert n <= 258047
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if ((i, j) in edge_pairs or (j, i) in edge_pairs) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [n + 63] if n <= 62 else [126] + [(n >> s & 63) + 63 for s in (12, 6, 0)]
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k : k + 6]:
            group = group * 2 + b
        out.append(group + 63)
    return bytes(out)


def test_p4_encoding_matches_hand_packing():
    p4 = path(4)
    expected = hand_pack(4, {(0, 1), (1, 2), (2, 3)})
    assert expected == b"Ch"
    assert to_graph6(p4) == expected


@pytest.mark.parametrize(
    "n,edges",
    [
        (0, set()),
        (1, set()),
        (3, {(0, 1), (1, 2), (0, 2)}),
        (5, {(0, 4), (1, 4), (2, 4), (3, 4)}),
        (6, {(0, 3), (1, 4), (2, 5), (0, 1)}),
    ],
)
def test_encoding_matches_hand_packing(n, edges):
    g = from_edge_list(n, sorted(edges))
    assert to_graph6(g) == hand_pack(n, edges)


# each edge of decode's 8-, 16-, 32- and 64-bit transpose tiles and the size past it;
# 4,095 body bits at n = 91 and 4,186 at n = 92, around the codec's 4,096-bit window
@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 62, 63, 64, 65, 91, 92, 130])
def test_size_prefix_and_window_boundaries_match_hand_packing(n):
    for g in (random_graph(n, 1, 2, 1000 + n), complete(n), edgeless(n)):
        edges = {(i, j) for j in range(n) for i in range(j) if g.adj[j] >> i & 1}
        assert to_graph6(g) == hand_pack(n, edges)
        assert parse_graph6(hand_pack(n, edges)) == g


# n up to 70 crosses every transpose tile and the per-edge path past n = 64
@given(st.integers(0, 70), st.integers(0, 100), st.integers(0, 2**32))
@settings(max_examples=200)
def test_decode_matches_hand_packing_on_either_side_of_the_tiles(n, percent, seed):
    g = random_graph(n, percent, 100, seed)
    edges = {(i, j) for j in range(n) for i in range(j) if g.adj[j] >> i & 1}
    back = parse_graph6(hand_pack(n, edges))
    assert back == g
    validate(back)


def test_columns_longer_than_the_window_round_trip():
    g = path(4200)
    assert parse_graph6(to_graph6(g)) == g


def test_single_vertex():
    g = parse_graph6(b"@")
    assert g.n == 1 and g.adj == (0,)
    assert to_graph6(g) == b"@"


def test_five_vertex_example_round_trips():
    g = parse_graph6(b"D?{")
    assert g.n == 5
    validate(g)
    assert to_graph6(g) == b"D?{"


def test_header_tolerated_never_emitted():
    g = parse_graph6(b">>graph6<<Ch")
    assert g == path(4)
    assert not to_graph6(g).startswith(b">>")


def test_trailing_newline_tolerated():
    assert parse_graph6(b"Ch\n") == path(4)
    assert parse_graph6("Ch\r\n") == path(4)


def test_string_input_accepted():
    assert parse_graph6("Ch") == path(4)


def test_trailing_garbage_reports_offset():
    with pytest.raises(Graph6Error) as err:
        parse_graph6(b"Chx")
    assert err.value.offset == 2
    assert "trailing garbage" in str(err.value)


def test_truncated_body_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6(b"D?")


def test_out_of_range_byte_reports_offset():
    with pytest.raises(Graph6Error) as err:
        parse_graph6(bytes([67, 10, 104]))
    assert err.value.offset == 1


def test_non_ascii_text_reports_offset():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("Ch\u00e9")
    assert err.value.offset == 2
    with pytest.raises(Graph6Error):
        parse_graph6("\u00e9")


# b"C" + body declares four vertices, so the body decoder sees arbitrary bytes
@given(st.one_of(st.binary(), st.text(), st.binary().map(lambda b: b"C" + b)))
@settings(max_examples=300)
def test_decode_raises_only_its_typed_error(data):
    try:
        n, adj = graph6.decode(data)
    except Graph6Error:
        return
    validate(Graph(n, tuple(adj)))


@given(st.integers(2, 70), st.integers(0, 2**32), st.data())
@settings(max_examples=200)
def test_out_of_range_body_byte_reports_its_offset(n, seed, data):
    g = random_graph(n, 1, 2, seed)
    good = to_graph6(g)
    start = 1 if g.n <= 62 else 4
    pos = data.draw(st.integers(start, len(good) - 1), label="pos")
    bad = data.draw(st.one_of(st.integers(0, 62), st.integers(127, 255)), label="byte")
    # a "\n" in the last place is stripped and reported as truncation, at the same offset
    with pytest.raises(Graph6Error) as err:
        parse_graph6(good[:pos] + bytes([bad]) + good[pos + 1 :])
    assert err.value.offset == pos


def test_huge_declared_size_without_body_fails_before_allocating():
    # n = 2**36 - 1 declares about 2**70 body bits
    tracemalloc.start()
    try:
        with pytest.raises(Graph6Error, match="truncated"):
            parse_graph6(b"~~~~~~~~")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_bad_size_prefix():
    with pytest.raises(Graph6Error):
        parse_graph6(b"\x20Ch")
    with pytest.raises(Graph6Error):
        parse_graph6(b"")


@pytest.mark.parametrize("data, message, offset", [
    (b"~??", "truncated 4-byte size prefix", 3),
    (b"~~???", "truncated 8-byte size prefix", 5),
    (b"~? ?", "size byte 32 out of range", 2),
    (b"~~?? ???", "size byte 32 out of range", 4),
])
def test_size_prefix_faults_report_their_offset(data, message, offset):
    with pytest.raises(Graph6Error) as err:
        parse_graph6(data)
    assert str(err.value) == f"{message} (byte offset {offset})"
    assert err.value.offset == offset


# _encode_size is called directly: a graph at the 8-byte bound has a 5.5 GB body
@pytest.mark.parametrize("n, prefix", [
    (258047, b"~}~~"),
    (258048, b"~~???~??"),
    (2**36 - 1, b"~~~~~~~~"),
])
def test_size_prefix_bounds(n, prefix):
    assert graph6._encode_size(n) == prefix
    assert graph6._decode_size(prefix) == (n, len(prefix))


@pytest.mark.parametrize("n, message", [
    (-1, "vertex count must be non-negative"),
    (2**36, "vertex count too large for graph6"),
])
def test_size_prefix_rejects_counts_outside_the_format(n, message):
    with pytest.raises(ValueError, match=message):
        graph6._encode_size(n)


@pytest.mark.parametrize("n", [15, 30, 45, 62])
def test_round_trip_up_to_62(n):
    from lmss.graph import random_graph

    for seed in range(5):
        g = random_graph(n, 1, 2, seed * 31 + n)
        assert parse_graph6(to_graph6(g)) == g


def test_large_vertex_count_round_trips():
    g = from_edge_list(100, [(i, i + 1) for i in range(99)])
    data = to_graph6(g)
    assert data[0] == 126
    back = parse_graph6(data)
    assert back == g


@given(graphs(max_n=10))
@settings(max_examples=150)
def test_round_trip_identity(g):
    back = parse_graph6(to_graph6(g))
    assert back == g
    validate(back)
    assert edge_count(back) == edge_count(g)
