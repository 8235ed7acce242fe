"""Hypothesis strategies shared across the test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from lmss.graph import Graph, edges, from_edge_list, tree_from_pruefer


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8) -> Graph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    if not pairs:
        return from_edge_list(n, [])
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return from_edge_list(n, chosen)


@st.composite
def trees(draw, min_n: int = 1, max_n: int = 12) -> Graph:
    """A random labeled tree, decoded from a drawn Pruefer sequence."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    code = draw(st.lists(st.integers(0, n - 1), min_size=max(0, n - 2), max_size=max(0, n - 2)))
    return tree_from_pruefer(n, code)


@st.composite
def forests(draw, min_n: int = 0, max_n: int = 12, max_deleted: int | None = None) -> Graph:
    """A random labeled tree with a random set of its edges deleted.

    Deleting nothing gives the tree, deleting some gives a disconnected
    forest and deleting all gives an edgeless graph; n = 0 and n = 1 occur.
    ``max_deleted`` caps the deletions, and with them the stable sets of
    a large forest (edgeless on 20 vertices has 2^20).
    """
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    if n == 0:
        return from_edge_list(0, [])
    tree_edges = list(edges(draw(trees(n, n))))
    deleted = (draw(st.sets(st.sampled_from(tree_edges), max_size=max_deleted))
               if tree_edges else set())
    return from_edge_list(n, [e for e in tree_edges if e not in deleted])


def nonempty_graphs(max_n: int = 8):
    return graphs(min_n=1, max_n=max_n)


def graph_lists(count_min: int = 2, count_max: int = 3, max_n: int = 4):
    return st.lists(nonempty_graphs(max_n=max_n), min_size=count_min, max_size=count_max)
