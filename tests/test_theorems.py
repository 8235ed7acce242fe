"""Theorem verifiers: fixture instances, sweeps, witness machinery, corpus."""

import itertools
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _strategies import graphs, nonempty_graphs
import lmss.theorems as theorems
from lmss.bitset import full_mask
from lmss.graph import (
    complete,
    cycle,
    edgeless,
    from_edge_list,
    is_complete,
    named_fixture,
    parse_graph6,
    parse_vertex_set,
    path,
    random_tree,
    to_graph6,
)
from lmss.greedoid import ACCESSIBILITY_FAIL
from lmss.ops import corona, disjoint_union, zykov_sum
from lmss.stable import SetFamily, enumerate_stable_sets, is_local_max_stable, is_stable, psi
from lmss.theorems import (
    CORPUS_MAX_N,
    P1_NOTE,
    THEOREM_IDS,
    corpus_graphs,
    corpus_upto,
    instance_from_graphs,
    random_instance,
    run_on_instance,
    sweep,
    verify_composition_specializations,
    verify_corona_corollary,
    verify_corona_lemma,
    verify_corona_theorem,
    verify_nemhauser_trotter,
    verify_tree_greedoid,
    verify_union_prop,
    verify_zykov_bound,
    verify_zykov_characterization,
)
from oracles import brute_psi, validate


def fig5_host():
    return from_edge_list(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


FIG5_PARTS = lambda: [complete(3), complete(2), path(3), complete(1)]


# -- corpus -------------------------------------------------------------------

def test_corpus_counts_match_known_sequence():
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    for n, count in expected.items():
        gs = corpus_graphs(n)
        assert len(gs) == count
        for g in gs:
            assert g.n == n
            validate(g)
    assert len(corpus_upto(CORPUS_MAX_N)) == sum(expected.values())
    with pytest.raises(ValueError):
        corpus_graphs(8)


def test_corpus_lines_are_least_masks_in_increasing_order():
    # the corpus's canonical rule, by brute force over all n! vertex orders:
    # the pair i < j is bit j(j-1)/2 + i of the edge mask, each line is the
    # order with the least mask, and the masks strictly increase down a file;
    # n = 7 (3.5 s this way) is left to the corpus script's regeneration
    for n in range(1, 7):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        bit = {pair: b for b, pair in enumerate(pairs)}
        relabel = [[1 << bit[min(p[i], p[j]), max(p[i], p[j])] for i, j in pairs]
                   for p in itertools.permutations(range(n))]
        masks = []
        for g in corpus_graphs(n):
            edges = [b for b, (i, j) in enumerate(pairs) if g.adj[i] >> j & 1]
            masks.append(sum(1 << b for b in edges))
            assert masks[-1] == min(sum(row[b] for b in edges) for row in relabel), (n, to_graph6(g))
        assert masks == sorted(set(masks)), n


def test_corpus_graphs_round_trip():
    for g in corpus_graphs(5):
        assert parse_graph6(to_graph6(g)) == g


# -- T1 -----------------------------------------------------------------------

def test_t1_on_fixtures():
    for name in ("W_FIG1", "G1_FIG3", "G4_FIG3", "CORONA_FIG5"):
        report = verify_nemhauser_trotter(named_fixture(name))
        assert report.holds and report.witness is None
        assert report.stats["psi_members"] >= 1


def test_t1_subset_example_from_w():
    w = named_fixture("W_FIG1")
    eg = parse_vertex_set("{e,g}", w)
    beg = parse_vertex_set("{b,e,g}", w)
    assert eg & ~beg == 0
    assert verify_nemhauser_trotter(w).holds


def test_t1_witness_machinery_catches_planted_bug(monkeypatch):
    # force a bogus member into the family and confirm the report flags it
    real_psi = theorems.psi

    def broken_psi(g):
        fam = real_psi(g)
        from lmss.stable import SetFamily

        return SetFamily(fam.universe, fam.members + (0b011,))

    monkeypatch.setattr(theorems, "psi", broken_psi)
    k2 = complete(2)
    report = verify_nemhauser_trotter(k2)
    assert not report.holds
    assert report.witness == {"set": [0, 1]}
    # the witness is oracle-refutable: it is not even stable
    assert 0b011 not in brute_psi(k2)


# -- T2 -----------------------------------------------------------------------

def test_t2_paths_and_stars():
    assert verify_tree_greedoid(path(7)).holds
    star = from_edge_list(6, [(0, i) for i in range(1, 6)])
    assert verify_tree_greedoid(star).holds


def test_t2_rejects_non_trees():
    with pytest.raises(ValueError, match="not a tree"):
        verify_tree_greedoid(cycle(4))
    with pytest.raises(ValueError, match="not a tree"):
        verify_tree_greedoid(disjoint_union([path(2), path(2)]).graph)


def test_t2_exhaustive_below_seven():
    reports = sweep("T2_TREE", max_size=6, exhaustive=True)
    assert len(reports) == 1 + 1 + 3 + 16 + 125 + 1296
    assert all(r.holds for r in reports)


@pytest.mark.parametrize("seed", range(8))
def test_t2_random_trees(seed):
    n = 6 + seed
    assert verify_tree_greedoid(random_tree(n, seed), seed).holds


# -- P1 -----------------------------------------------------------------------

def test_p1_examples():
    r = verify_union_prop([path(3), path(3)])
    assert r.holds and r.note == P1_NOTE
    w = named_fixture("W_FIG1")
    assert verify_union_prop([w, w]).holds


def test_p1_witness_machinery_catches_planted_bug(monkeypatch):
    real_psi = theorems.psi

    def broken_psi(g):
        fam = real_psi(g)
        if g.n == 4:  # drop a member from the union family only
            from lmss.stable import SetFamily

            return SetFamily(fam.universe, fam.members[:-1])
        return fam

    monkeypatch.setattr(theorems, "psi", broken_psi)
    report = verify_union_prop([path(2), path(2)])
    assert not report.holds
    assert report.witness is not None
    assert report.witness["factors_through_parts"] != report.witness["in_family"]


def test_p1_witness_is_canonically_first(monkeypatch):
    # {5} and {0,2} both leave the union family: by int {0,2} = 5 comes
    # first, canonically the smaller set {5} = 32 does
    real_psi = theorems.psi
    dropped = {0b100000, 0b101}

    def broken_psi(g):
        fam = real_psi(g)
        if g.n == 6:
            return SetFamily(fam.universe, [m for m in fam if m not in dropped])
        return fam

    monkeypatch.setattr(theorems, "psi", broken_psi)
    report = verify_union_prop([path(3), path(3)])
    assert report.witness == {"set": [5], "in_family": False, "factors_through_parts": True}


def test_p1_verdict_witness_catches_planted_bug(monkeypatch):
    # the union family factors through the parts, but its greedoid verdict is flipped
    real_is_greedoid = theorems.is_greedoid

    def broken_is_greedoid(fam):
        verdict = real_is_greedoid(fam)
        return replace(verdict, status=ACCESSIBILITY_FAIL) if fam.universe == 6 else verdict

    monkeypatch.setattr(theorems, "is_greedoid", broken_is_greedoid)
    report = verify_union_prop([path(3), path(3)])
    assert not report.holds
    assert report.witness == {"whole_greedoid": False, "part_greedoids": [True, True]}


# -- L4 and P2 ----------------------------------------------------------------

def test_l4_examples():
    r = verify_zykov_bound([path(3), path(3)])
    assert r.holds and r.stats == {"min_size": 2, "bound": 2}
    r = verify_zykov_bound([complete(2), path(3)])
    assert r.holds and r.stats == {"min_size": 1, "bound": 1}


def test_max2_with_multiplicity():
    assert theorems._max2([2, 2]) == 2
    assert theorems._max2([3, 1, 2]) == 2
    assert theorems._max2([5, 5, 1]) == 5


def test_p2_branches():
    r = verify_zykov_characterization([complete(2), path(3)])
    assert r.holds and r.stats["branch"] == "general"
    r = verify_zykov_characterization([path(3), path(3)])
    assert r.holds and r.stats["branch"] == "general"
    r = verify_zykov_characterization([complete(3), complete(2)])
    assert r.holds and r.stats["branch"] == "complete"


def test_p2_family_equals_lifted_part_family():
    parts = [complete(2), path(3)]
    z = zykov_sum(parts)
    fam = psi(z.graph)
    lifted = {m << z.offsets[1] for m in psi(path(3))}
    assert set(fam.members) == lifted


# -- corona -------------------------------------------------------------------

@pytest.mark.parametrize("text, clause", [
    ("{y,v3}", {"part": "ii", "host_vertex": 2, "reason": "private graph not complete"}),
    ("{v2,v4}", {"part": "ii", "host_vertex": 1, "reason": "no intersection with part 0"}),
    ("{v4}", {"part": "ii", "host_vertex": 3, "reason": "no intersection with part 2"}),
    ("{y,v2}", {"part": "ii", "host_vertex": 1, "reason": "no intersection with part 2"}),
    ("{x,z,v4}", None),
    ("{x,y,z}", None),
])
def test_corona_failing_clause_fig5_bullets(text, clause):
    x, hs = fig5_host(), FIG5_PARTS()
    c = corona(x, hs)
    s = parse_vertex_set(text, named_fixture("CORONA_FIG5"))
    assert is_stable(c.graph, s)
    assert theorems._corona_failure(
        c, x, [psi(h) for h in hs], [is_complete(h) for h in hs])(s) == clause


def test_l3_witness_keys_keep_their_order(monkeypatch):
    # a psi that drops one part-family member makes clause (iii) fail on a
    # corona member; the witness prints part, set, then the clause keys
    real_psi = theorems.psi

    def short_psi(g):
        fam = real_psi(g)
        if g == path(3):
            return SetFamily(fam.universe, [m for m in fam if m != 0b101])
        return fam

    monkeypatch.setattr(theorems, "psi", short_psi)
    r = verify_corona_lemma(fig5_host(), FIG5_PARTS())
    assert not r.holds
    assert list(r.witness) == ["part", "set", "operand"]
    assert r.witness["part"] == "iii" and r.witness["operand"] == 2


def test_l3_part_i_witness_catches_planted_bug(monkeypatch):
    # the corona family loses {2}, the lift of part 0's member {0}
    x, hs = path(2), [complete(1), complete(2)]
    g = corona(x, hs).graph
    real_psi = theorems.psi

    def broken_psi(h):
        fam = real_psi(h)
        if h == g:
            return SetFamily(fam.universe, [m for m in fam if m != 0b100])
        return fam

    monkeypatch.setattr(theorems, "psi", broken_psi)
    report = verify_corona_lemma(x, hs)
    assert not report.holds
    assert report.witness == {"part": "i", "operand": 0, "set": [0]}


def test_l3_part_iv_witness_is_canonically_first(monkeypatch):
    # the walk yields {0,4} before {0,3}; both hold a host vertex, so the part
    # families still embed and part (iv) is the first to fail
    x, hs = path(2), [complete(1), complete(2)]
    g = corona(x, hs).graph
    real_psi = theorems.psi
    dropped = {0b10001, 0b01001}

    def broken_psi(h):
        fam = real_psi(h)
        if h == g:
            return SetFamily(fam.universe, [m for m in fam if m not in dropped])
        return fam

    monkeypatch.setattr(theorems, "psi", broken_psi)
    walk = [s for s in theorems.enumerate_stable_sets(g) if s in dropped]
    assert walk == [0b10001, 0b01001]
    report = verify_corona_lemma(x, hs)
    assert report.witness == {"part": "iv", "set": [0, 3], "structural": True}


@st.composite
def coronas(draw):
    """A host on 2-3 vertices with one private graph of 1-3 vertices each."""
    x = draw(graphs(min_n=2, max_n=3))
    return x, [draw(nonempty_graphs(max_n=3)) for _ in range(x.n)]


@given(coronas())
@example((fig5_host(), FIG5_PARTS()))
@settings(max_examples=60)
def test_corona_characterization_matches_definition_everywhere(instance):
    x, hs = instance
    c = corona(x, hs)
    failure = theorems._corona_failure(c, x, [psi(h) for h in hs], [is_complete(h) for h in hs])
    for s in enumerate_stable_sets(c.graph):
        assert (failure(s) is None) == is_local_max_stable(c.graph, s)


def test_corona_characterization_requires_two_host_vertices():
    with pytest.raises(ValueError, match="at least 2"):
        verify_corona_lemma(complete(1), [path(2)])


def test_l3_fig5_and_pendant_case():
    assert verify_corona_lemma(fig5_host(), FIG5_PARTS()).holds
    assert verify_corona_lemma(path(2), [complete(1), complete(1)]).holds


def test_l3_lift_example():
    # a member of a part family appears inside the corona family
    x, hs = fig5_host(), FIG5_PARTS()
    c = corona(x, hs)
    g = named_fixture("CORONA_FIG5")
    xz = parse_vertex_set("{x,z}", g)
    assert (xz >> c.offsets[2] & full_mask(3)) in psi(path(3))
    assert xz in psi(c.graph)


def test_t_corona_and_corollary():
    r = verify_corona_theorem(fig5_host(), FIG5_PARTS())
    assert r.holds and r.note is None
    w = named_fixture("W_FIG1")
    r = verify_corona_theorem(path(2), [w, w])
    assert r.holds  # both sides false
    r = verify_corona_corollary(cycle(3), path(2))
    assert r.theorem == "COR_CORONA" and r.holds
    r = verify_corona_theorem(complete(1), [path(3)])
    assert r.holds and r.note is not None


def _corollary_matches_theorem(x, h, seed=None):
    cor = verify_corona_corollary(x, h, seed)
    base = verify_corona_theorem(x, [h] * x.n, seed)
    assert cor.theorem == "COR_CORONA"
    assert cor.inputs == {"host": base.inputs["host"], "satellite": to_graph6(h).decode()}
    assert replace(cor, theorem=base.theorem, inputs=base.inputs) == base


def test_corollary_is_the_theorem_report_renamed():
    w = named_fixture("W_FIG1")
    _corollary_matches_theorem(path(2), w)
    _corollary_matches_theorem(complete(1), path(3))
    for seed in range(12):
        _corollary_matches_theorem(*random_instance("COR_CORONA", 10, seed), seed)


# -- composition ----------------------------------------------------------------

def test_c4_examples():
    assert verify_composition_specializations([complete(2), path(3)]).holds
    assert verify_composition_specializations([path(3), path(3)]).holds


@pytest.mark.parametrize("skeleton, mismatch", [
    (complete, "edgeless skeleton vs disjoint union"),
    (edgeless, "complete skeleton vs Zykov sum"),
])
def test_c4_skeleton_witness_catches_planted_bug(monkeypatch, skeleton, mismatch):
    # a composition that builds on the other skeleton than the one it is given
    real_composition = theorems.composition
    monkeypatch.setattr(theorems, "composition",
                        lambda h0, parts: real_composition(skeleton(h0.n), parts))
    report = verify_composition_specializations([path(2), path(3)])
    assert not report.holds
    assert report.witness == {"mismatch": mismatch}
    assert report.stats == {"union_holds": True, "zykov_holds": True}


def test_c4_zykov_verdict_witness_catches_planted_bug(monkeypatch):
    real_verify = theorems.verify_zykov_characterization

    def broken_verify(parts, seed=None):
        return replace(real_verify(parts, seed), holds=False, witness={"greedoid": False})

    monkeypatch.setattr(theorems, "verify_zykov_characterization", broken_verify)
    report = verify_composition_specializations([path(2), path(3)])
    assert not report.holds
    assert report.witness == {"mismatch": "zykov verdict", "detail": {"greedoid": False}}
    assert report.stats == {"union_holds": True, "zykov_holds": False}


# -- sweeps ---------------------------------------------------------------------

ALL_SWEEPABLE = (
    "T1_NT",
    "T2_TREE",
    "P1_UNION",
    "L4_ZYKOV_BOUND",
    "P2_ZYKOV",
    "L3_CORONA",
    "T_CORONA",
    "COR_CORONA",
    "C4_COMPOSITION_SPECIALIZE",
)


@pytest.mark.parametrize("theorem", ALL_SWEEPABLE)
def test_random_sweeps_hold(theorem):
    reports = sweep(theorem, max_size=10, count=25, seed=99)
    assert len(reports) == 25
    for r in reports:
        assert r.holds, r.as_dict()
        assert r.seed is not None


def test_sweep_is_deterministic():
    a = sweep("P2_ZYKOV", max_size=9, count=10, seed=5)
    b = sweep("P2_ZYKOV", max_size=9, count=10, seed=5)
    assert [r.as_dict() for r in a] == [r.as_dict() for r in b]


def test_sweep_draws_each_seed_when_its_instance_runs(monkeypatch):
    # the first stream the sweep builds is its own seed stream; a sweep that
    # drew every seed up front would hold --count seeds before any instance ran
    streams = []

    class CountingStream(theorems.SplitMix64):
        __slots__ = ("draws",)

        def __init__(self, seed):
            super().__init__(seed)
            self.draws = 0
            streams.append(self)

        def next_u64(self):
            self.draws += 1
            return super().next_u64()

    class FirstInstance(Exception):
        pass

    def stop(*args):
        raise FirstInstance(streams[0].draws)

    monkeypatch.setattr(theorems, "SplitMix64", CountingStream)
    monkeypatch.setattr(theorems, "run_on_instance", stop)
    with pytest.raises(FirstInstance) as first:
        sweep("T1_NT", max_size=6, count=1000, seed=5)
    assert first.value.args == (1,)


# smallest --sweep size each theorem's instance shape honours
SIZE_FLOORS = {
    "T1_NT": 1,
    "T2_TREE": 1,
    "P1_UNION": 4,
    "L4_ZYKOV_BOUND": 4,
    "P2_ZYKOV": 4,
    "L3_CORONA": 4,
    "T_CORONA": 4,
    "COR_CORONA": 6,
    "C4_COMPOSITION_SPECIALIZE": 4,
}


def _flatten(instance) -> list:
    out = []
    for item in instance:
        out.extend(item if isinstance(item, tuple) else [item])
    return out


def _composite_size(theorem, instance) -> int:
    if theorem == "COR_CORONA":
        return instance[0].n * (1 + instance[1].n)
    return sum(g.n for g in _flatten(instance))


def test_sweep_respects_composite_size_budget():
    for theorem in THEOREM_IDS:
        floor = SIZE_FLOORS[theorem]
        for max_size in range(floor, 15):
            for seed in range(50):
                inst = random_instance(theorem, max_size, seed)
                assert _composite_size(theorem, inst) <= max_size, (theorem, max_size, seed)
        with pytest.raises(ValueError, match=f"at least {floor}"):
            sweep(theorem, max_size=floor - 1, count=1)
        with pytest.raises(ValueError, match=f"at least {floor}"):
            sweep(theorem, max_size=floor - 1, exhaustive=True)


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_random_instance_checks_the_size_floor(theorem):
    # below the floor a draw fails with the sweep's own message, not later in
    # the verifier or in the random stream
    floor = SIZE_FLOORS[theorem]
    with pytest.raises(ValueError) as drawn:
        random_instance(theorem, floor - 1, 0)
    with pytest.raises(ValueError) as swept:
        sweep(theorem, max_size=floor - 1, count=1)
    assert str(drawn.value) == str(swept.value) == (
        f"{theorem} sweeps need a composite size of at least {floor}, got {floor - 1}")


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_instance_from_graphs_rebuilds_sweep_instances(theorem):
    # the CLI path and the sweep path agree on each theorem's instance shape
    for seed in range(20):
        instance = random_instance(theorem, 12, seed)
        assert instance_from_graphs(theorem, _flatten(instance)) == instance


def test_instance_from_graphs_rejects_no_graphs():
    with pytest.raises(ValueError, match="host graph followed by its satellites"):
        instance_from_graphs("T_CORONA", [])
    with pytest.raises(ValueError, match="takes exactly one graph"):
        instance_from_graphs("T1_NT", [])


def test_corpus_upto_stops_at_the_corpus_bound():
    assert len(corpus_upto(3)) == 1 + 2 + 4
    for n in (CORPUS_MAX_N + 1, 10):
        with pytest.raises(ValueError, match=f"corpus covers 1..7 vertices, got {n}"):
            corpus_upto(n)
    with pytest.raises(ValueError, match="got 8"):
        sweep("T1_NT", max_size=8, exhaustive=True)


def test_t1_exhaustive_corpus_small():
    reports = sweep("T1_NT", max_size=5, exhaustive=True)
    assert len(reports) == 1 + 2 + 4 + 11 + 34
    assert all(r.holds for r in reports)


def test_run_on_instance_rejects_unknown_id():
    with pytest.raises(ValueError, match="unknown theorem"):
        run_on_instance("NOPE", (path(2),))
    with pytest.raises(ValueError, match="unknown theorem"):
        sweep("NOPE")


def test_report_serialization_shape():
    r = verify_zykov_bound([complete(2), path(3)], seed=7)
    d = r.as_dict()
    assert sorted(d) == ["holds", "inputs", "note", "seed", "stats", "theorem", "witness"]
    assert d["seed"] == 7 and d["witness"] is None
    assert d["inputs"]["parts"] == ["A_", "Bg"]


def test_sweep_goes_through_module_globals(monkeypatch):
    # Tracers shim these module globals and count reports through them, so a
    # sweep must look both names up on the module for every instance.
    seeded = sweep("L4_ZYKOV_BOUND", max_size=8, count=5, seed=3)
    exhaustive = sweep("T2_TREE", max_size=4, exhaustive=True)
    calls = {"run": 0, "draw": 0}
    real_run, real_draw = theorems.run_on_instance, theorems.random_instance

    def counting_run(*args):
        calls["run"] += 1
        return real_run(*args)

    def counting_draw(*args):
        calls["draw"] += 1
        return real_draw(*args)

    monkeypatch.setattr(theorems, "run_on_instance", counting_run)
    monkeypatch.setattr(theorems, "random_instance", counting_draw)
    again = sweep("L4_ZYKOV_BOUND", max_size=8, count=5, seed=3)
    assert calls == {"run": 5, "draw": 5}
    assert [r.as_dict() for r in again] == [r.as_dict() for r in seeded]
    calls.update(run=0, draw=0)
    again = sweep("T2_TREE", max_size=4, exhaustive=True)
    # 1 + 1 + 3 + 16 labeled trees on 1..4 vertices
    assert calls == {"run": 21, "draw": 0}
    assert [r.as_dict() for r in again] == [r.as_dict() for r in exhaustive]
