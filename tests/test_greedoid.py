"""Greedoid axiom checks, witnesses, and accessibility chains."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _strategies import graphs
from lmss.graph import named_fixture, parse_vertex_set, path, random_tree
from lmss.greedoid import (
    ACCESSIBILITY_FAIL,
    EXCHANGE_FAIL,
    GREEDOID,
    accessibility_chain,
    check_accessibility,
    check_exchange,
    is_greedoid,
)
from lmss.stable import SetFamily, psi
from oracles import (
    brute_accessibility_witness,
    brute_exchange_witness,
    brute_is_greedoid,
    brute_verdict,
)


def fam(universe, members):
    return SetFamily(universe, members)


def test_boolean_fragment_is_greedoid():
    f = fam(2, [0, 1, 2, 3])
    assert check_accessibility(f) is None
    assert check_exchange(f) is None
    assert is_greedoid(f).status == GREEDOID


def test_constructed_exchange_failure():
    f = fam(3, [0, 0b001, 0b110])
    assert check_exchange(f) == (0b110, 0b001)
    # accessibility is checked first, and {1,2} cannot shrink either
    verdict = is_greedoid(f)
    assert verdict.status == ACCESSIBILITY_FAIL
    assert verdict.witness_x == 0b110


def test_pure_exchange_failure_verdict():
    # accessible, but {0,1} cannot absorb an element into {2}
    f = fam(3, [0, 0b001, 0b010, 0b100, 0b011])
    assert check_accessibility(f) is None
    verdict = is_greedoid(f)
    assert verdict.status == EXCHANGE_FAIL
    assert (verdict.witness_x, verdict.witness_y) == (0b011, 0b100)
    assert verdict.witness_x.bit_count() == verdict.witness_y.bit_count() + 1


def test_exchange_witness_among_shared_extension_masks():
    # ext({2}) = ext({3}) = {4}: one group whose first member is {2}; the
    # smallest failing X, {0,1}, passes {0} and {1} and fails first on {2},
    # which is not the first member of its size class
    members = [0, 0b00001, 0b00010, 0b00100, 0b01000, 0b10000, 0b00011, 0b10100, 0b11000]
    f = fam(5, members)
    ext = {y: sum(1 << v for v in range(5) if not y >> v & 1 and y | 1 << v in f) for y in f}
    assert ext[0b00100] == ext[0b01000] == 0b10000
    assert check_accessibility(f) is None
    assert check_exchange(f) == (0b00011, 0b00100)
    assert check_exchange(f) == brute_exchange_witness(set(members))
    verdict = is_greedoid(f)
    assert (verdict.status, verdict.witness_x, verdict.witness_y) == (EXCHANGE_FAIL, 0b00011, 0b00100)


def test_missing_empty_set_is_contract_violation():
    with pytest.raises(ValueError, match="empty set"):
        check_accessibility(fam(2, [1]))
    with pytest.raises(ValueError, match="empty set"):
        check_exchange(fam(2, [1]))


def test_psi_w_fails_accessibility_with_small_witness():
    w = named_fixture("W_FIG1")
    verdict = is_greedoid(psi(w))
    assert verdict.status == ACCESSIBILITY_FAIL
    assert verdict.witness_x == parse_vertex_set("{d,f}", w)
    assert verdict.witness_y is None
    assert verdict.family_size == 13 and verdict.universe == 7


def test_psi_p2_is_greedoid():
    assert is_greedoid(psi(path(2))).status == GREEDOID
    assert psi(path(2)).members == (0, 1, 2)


def test_zykov_fixture_verdicts():
    assert is_greedoid(psi(named_fixture("Z_K2_P3_FIG4"))).status == GREEDOID
    verdict = is_greedoid(psi(named_fixture("Z_P3_P3_FIG4")))
    assert verdict.status == ACCESSIBILITY_FAIL
    assert verdict.witness_x.bit_count() == 2


@pytest.mark.parametrize("name", ["G1_FIG3", "G2_FIG3", "G3_FIG3", "G4_FIG3"])
def test_figure3_families_are_greedoids(name):
    assert is_greedoid(psi(named_fixture(name))).status == GREEDOID


@pytest.mark.parametrize("n,seed", [(6, 1), (9, 2), (12, 3), (14, 4)])
def test_random_tree_families_pass_exchange(n, seed):
    f = psi(random_tree(n, seed))
    assert is_greedoid(f).status == GREEDOID
    assert f._member_set is None  # the verdict never builds the set behind `in`
    assert check_accessibility(f) is None
    assert check_exchange(f) is None


def test_large_tree_family_is_greedoid():
    # 24 vertices pack ext masks into 32-bit fields, and levels hold thousands of members
    verdict = is_greedoid(psi(random_tree(24, 0)))
    assert (verdict.status, verdict.family_size) == (GREEDOID, 11470)


def test_chain_g2():
    g2 = named_fixture("G2_FIG3")
    f = psi(g2)
    s = parse_vertex_set("{a,b,c}", g2)
    chain = accessibility_chain(f, s)
    assert chain == [0, parse_vertex_set("{a}", g2), parse_vertex_set("{a,b}", g2), s]
    assert [c.bit_count() for c in chain] == [0, 1, 2, 3]


def test_chain_empty_set():
    f = psi(path(2))
    assert accessibility_chain(f, 0) == [0]


def test_chain_p4():
    f = psi(path(4))
    assert accessibility_chain(f, 0b101) == [0, 0b001, 0b101]


def test_chain_rejects_non_member():
    f = psi(path(4))
    with pytest.raises(ValueError, match="not a member"):
        accessibility_chain(f, 0b010)


def test_chain_names_stuck_set():
    f = fam(2, [0, 0b11])
    with pytest.raises(ValueError, match=r"stuck at member with vertices \[0, 1\]"):
        accessibility_chain(f, 0b11)


def test_verdict_deterministic():
    w = named_fixture("W_FIG1")
    a = is_greedoid(psi(w))
    b = is_greedoid(SetFamily(w.n, reversed(psi(w).members)))
    assert a == b


@given(graphs(max_n=7))
@settings(max_examples=80)
def test_verdict_matches_definitional_oracle(g):
    f = psi(g)
    assert (is_greedoid(f).status == GREEDOID) == brute_is_greedoid(set(f.members))


@given(graphs(max_n=7))
@settings(max_examples=60)
def test_greedoid_families_have_chains_for_every_member(g):
    f = psi(g)
    if is_greedoid(f).status != GREEDOID:
        return
    for m in f:
        chain = accessibility_chain(f, m)
        assert chain[0] == 0 and chain[-1] == m
        for small, big in zip(chain, chain[1:]):
            assert small & ~big == 0
            assert big.bit_count() == small.bit_count() + 1
            assert big in f


def test_accessibility_witness_invariant():
    # a failing witness has no single-element removal inside the family
    z = named_fixture("Z_P3_P3_FIG4")
    f = psi(z)
    x = check_accessibility(f)
    assert x is not None and x in f
    for v in range(z.n):
        if x >> v & 1:
            assert (x ^ (1 << v)) not in f


@st.composite
def families(draw, max_n: int = 8) -> SetFamily:
    """The empty set plus arbitrary masks, or plus masks grown one element at a time."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    if not n or not draw(st.booleans()):
        return fam(n, [0, *draw(st.lists(masks, max_size=40))])
    members = [0]  # each addition extends a member, so the family stays accessible
    for base, v in draw(st.lists(st.tuples(st.integers(min_value=0), st.integers(0, n - 1)), max_size=40)):
        members.append(members[base % len(members)] | 1 << v)
    return fam(n, members)


@given(families())
@settings(max_examples=300)
# fails exchange at ({0, 1, 3}, {0, 2}); the empty set, one level lower,
# has the same ext mask (0) as that group
@example(fam(4, [0, 0b0101, 0b0110, 0b1011, 0b1111]))
# no member of size 2, so {0, 1, 2} is tried against no level
@example(fam(3, [0, 0b001, 0b111]))
def test_witnesses_match_definitional_oracles_on_arbitrary_families(f):
    members = set(f.members)
    assert check_accessibility(f) == brute_accessibility_witness(members)
    assert check_exchange(f) == brute_exchange_witness(members)
    assert is_greedoid(f).as_dict() == brute_verdict(members, f.universe)


@st.composite
def wide_families(draw) -> SetFamily:
    """An accessible family on a universe next to a field-width step, with a planted exchange failure.

    ``_exchange_failure`` packs ext masks into fields of 8 * (universe // 8 + 1)
    bits. In the planted members, the pairs {a, t} and {q, t} meet the ext
    of a singleton in the top vertex t = n - 1 and one more, so a field with
    no spare top bit would carry out of it; {a, q} has ext 0, and {a, w, t}
    fails against it.
    """
    n = draw(st.sampled_from((7, 8, 15, 16, 23, 24, 40)))
    a, q, w = (1 << v for v in draw(st.lists(st.integers(0, n - 2), min_size=3, max_size=3, unique=True)))
    t = 1 << (n - 1)
    members = [0, a, q, t, a | q, a | t, q | t, a | w | t]
    for base, v in draw(st.lists(st.tuples(st.integers(min_value=0), st.integers(0, n - 1)), max_size=30)):
        members.append(members[base % len(members)] | 1 << v)
    return fam(n, members)


@given(wide_families())
@settings(max_examples=150)
def test_packed_exchange_test_at_field_width_boundaries(f):
    members = set(f.members)
    assert check_exchange(f) == brute_exchange_witness(members)
    assert is_greedoid(f).as_dict() == brute_verdict(members, f.universe)
