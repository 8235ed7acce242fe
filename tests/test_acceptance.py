"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Seeds
are fixed constants so every randomized sweep is reproducible.
"""

import time

from lmss.cli import main as cli_main
from lmss.graph import (
    Graph,
    cycle,
    labeled_trees,
    named_fixture,
    parse_graph6,
    parse_vertex_set,
    random_graph,
    random_tree,
    to_graph6,
)
from lmss.greedoid import ACCESSIBILITY_FAIL, GREEDOID, accessibility_chain, is_greedoid
from lmss.rng import SplitMix64
from lmss.stable import SetFamily, omega, psi
from lmss.theorems import (
    corpus_upto,
    random_instance,
    run_on_instance,
    sweep,
    verify_nemhauser_trotter,
    verify_tree_greedoid,
)
from oracles import brute_psi

SUITE_SEED = 20260810  # fixed so every run checks the same 500 graphs
_suite_cache = []


def random_suite():
    """The 500 seeded random graphs on at most 14 vertices used below."""
    if not _suite_cache:
        rand = SplitMix64(SUITE_SEED)
        probs = ((15, 100), (30, 100), (50, 100))
        for _ in range(500):
            n = 1 + rand.below(14)
            num, den = probs[rand.below(3)]
            _suite_cache.append(random_graph(n, num, den, rand.next_u64()))
    return _suite_cache


def conclude(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance {num}] {status}: {desc}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def test_criterion_1_fixture_w_facts():
    failures = []
    w = named_fixture("W_FIG1")
    fam = psi(w)
    maxima = omega(w)
    if set(fam.members) != brute_psi(w):
        failures.append("psi(W) disagrees with the all-subsets oracle")
    for text, expect in [
        ("{e,g}", True), ("{a}", True), ("{d,f}", True), ("{d,g}", True),
        ("{d}", False), ("{g}", False),
    ]:
        if (parse_vertex_set(text, w) in fam) != expect:
            failures.append(f"{text} membership in psi(W) should be {expect}")
    for text in ("{a,d,f}", "{b,e,g}"):
        if parse_vertex_set(text, w) not in maxima:
            failures.append(f"{text} missing from omega(W)")
    beg = parse_vertex_set("{b,e,g}", w)
    proper = {s for s in range(1, beg) if s & ~beg == 0 and s in fam}
    if proper != {parse_vertex_set("{e,g}", w)}:
        failures.append(f"proper subsets of {{b,e,g}} in psi(W): {sorted(proper)}")
    verdict = is_greedoid(fam)
    dg = parse_vertex_set("{d,g}", w)
    if verdict.status != ACCESSIBILITY_FAIL:
        failures.append(f"verdict {verdict.status}")
    else:
        wx = verdict.witness_x
        if (wx.bit_count(), wx) > (dg.bit_count(), dg):
            failures.append(f"witness {wx} not canonically <= {{d,g}}")
        if wx not in fam or any(wx ^ (1 << v) in fam for v in range(w.n) if wx >> v & 1):
            failures.append("witness is not a genuine accessibility failure")
    conclude(1, "figure W membership, omega, subset and verdict facts", failures)


def test_criterion_2_figure3_greedoids_and_chain():
    failures = []
    for name in ("G1_FIG3", "G2_FIG3", "G3_FIG3", "G4_FIG3"):
        verdict = is_greedoid(psi(named_fixture(name)))
        if verdict.status != GREEDOID:
            failures.append(f"{name}: {verdict.status}")
    g2 = named_fixture("G2_FIG3")
    expected = [
        parse_vertex_set(t, g2) for t in ("{}", "{a}", "{a,b}", "{a,b,c}")
    ]
    chain = accessibility_chain(psi(g2), parse_vertex_set("{a,b,c}", g2))
    if chain != expected:
        failures.append(f"chain {chain} != {expected}")
    conclude(2, "figure 3 families are greedoids; abc chain is a<ab<abc", failures)


def test_criterion_3_figure4_zykov_fixtures():
    failures = []
    fam1 = psi(named_fixture("Z_K2_P3_FIG4"))
    if is_greedoid(fam1).status != GREEDOID:
        failures.append("Z[K2,P3] family is not a greedoid")
    fam2 = psi(named_fixture("Z_P3_P3_FIG4"))
    verdict = is_greedoid(fam2)
    if verdict.status != ACCESSIBILITY_FAIL:
        failures.append(f"Z[P3,P3] verdict {verdict.status}")
    singletons = [m for m in fam2 if m.bit_count() == 1]
    if singletons:
        failures.append(f"Z[P3,P3] family contains singletons {singletons}")
    conclude(3, "figure 4 verdicts: Z[K2,P3] greedoid, Z[P3,P3] fails accessibility", failures)


def test_criterion_4_containment_in_maximum_stable_sets():
    failures = []
    graphs = [named_fixture(n) for n in (
        "W_FIG1", "G1_FIG3", "G2_FIG3", "G3_FIG3", "G4_FIG3",
        "Z_K2_P3_FIG4", "Z_P3_P3_FIG4", "CORONA_FIG5",
    )]
    graphs += corpus_upto(7)
    graphs += random_suite()
    checked = 0
    for g in graphs:
        report = verify_nemhauser_trotter(g)
        checked += 1
        if not report.holds:
            failures.append(report.as_dict())
    conclude(4, f"every local maximum stable set extends to a maximum one "
                f"({checked} graphs: fixtures, exhaustive n<=7 corpus, 500 random)", failures)


def test_criterion_5_tree_families_are_greedoids():
    failures = []
    count = 0
    for t in labeled_trees(7):
        verdict = is_greedoid(psi(t))
        if verdict.status != GREEDOID:
            failures.append((to_graph6(t), verdict.status))
        count += 1
    assert count == 7 ** 5
    rand = SplitMix64(SUITE_SEED + 5)
    for _ in range(200):
        n = 1 + rand.below(14)
        t = random_tree(n, rand.next_u64())
        report = verify_tree_greedoid(t)
        if not report.holds:
            failures.append(report.as_dict())
    conclude(5, "all 16807 labeled trees on 7 vertices plus 200 random trees n<=14", failures)


FIXTURE_INSTANCES = {
    "P1_UNION": [
        ("gen", ["path:3", "path:3"]),
        ("fixture2", ["W_FIG1", "W_FIG1"]),
    ],
    "L4_ZYKOV_BOUND": [
        ("gen", ["path:3", "path:3"]),
        ("gen", ["complete:2", "path:3"]),
    ],
    "P2_ZYKOV": [
        ("gen", ["complete:2", "path:3"]),
        ("gen", ["path:3", "path:3"]),
        ("gen", ["complete:3", "complete:2"]),
    ],
    "C4_COMPOSITION_SPECIALIZE": [
        ("gen", ["complete:2", "path:3"]),
        ("gen", ["path:3", "path:3"]),
    ],
}


def _named_graph(spec):
    kind, arg = spec.split(":")
    from lmss.graph import complete, path

    return {"path": path, "complete": complete}[kind](int(arg))


def test_criterion_6_structural_theorems():
    from lmss.graph import complete, from_edge_list, path

    failures = []
    checked = 0

    def run(theorem, instance):
        nonlocal checked
        report = run_on_instance(theorem, instance)
        checked += 1
        if not report.holds:
            failures.append(report.as_dict())
        return report

    # the named fixture instances
    for theorem, cases in FIXTURE_INSTANCES.items():
        for kind, specs in cases:
            if kind == "gen":
                run(theorem, tuple(_named_graph(s) for s in specs))
            else:
                run(theorem, tuple(named_fixture(s) for s in specs))
    fig5_host = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    fig5_parts = (complete(3), complete(2), path(3), complete(1))
    run("L3_CORONA", (fig5_host, fig5_parts))
    run("T_CORONA", (fig5_host, fig5_parts))
    w = named_fixture("W_FIG1")
    run("T_CORONA", (path(2), (w, w)))
    run("COR_CORONA", (cycle(3), path(2)))

    # 200 seeded random operand tuples per family, composite size <= 14
    sweep_specs = [
        ("P1_UNION", SUITE_SEED + 61),
        ("L4_ZYKOV_BOUND", SUITE_SEED + 62),
        ("P2_ZYKOV", SUITE_SEED + 63),
        ("L3_CORONA", SUITE_SEED + 64),
        ("T_CORONA", SUITE_SEED + 65),
        ("COR_CORONA", SUITE_SEED + 66),
        ("C4_COMPOSITION_SPECIALIZE", SUITE_SEED + 67),
    ]
    for theorem, seed in sweep_specs:
        reports = sweep(theorem, max_size=14, count=200, seed=seed)
        checked += len(reports)
        failures.extend(r.as_dict() for r in reports if not r.holds)
        # cross-check a sample of composites against the all-subsets oracle
        rand = SplitMix64(seed)
        seeds = [rand.next_u64() for _ in range(200)]
        for s in seeds[::20]:
            instance = random_instance(theorem, 14, s)
            composite = _composite_graph(theorem, instance)
            if set(psi(composite).members) != brute_psi(composite):
                failures.append((theorem, s, "psi disagrees with oracle on composite"))
    conclude(6, f"union, Zykov, corona and composition results ({checked} instances)", failures)


def _composite_graph(theorem, instance) -> Graph:
    from lmss.ops import corona, disjoint_union, zykov_sum

    if theorem == "P1_UNION":
        return disjoint_union(list(instance)).graph
    if theorem in ("L4_ZYKOV_BOUND", "P2_ZYKOV", "C4_COMPOSITION_SPECIALIZE"):
        return zykov_sum(list(instance)).graph
    if theorem in ("L3_CORONA", "T_CORONA"):
        return corona(instance[0], list(instance[1])).graph
    return corona(instance[0], [instance[1]] * instance[0].n).graph


def test_criterion_7_oracle_equivalence():
    failures = []
    checked = 0
    for g in corpus_upto(6):
        checked += 1
        if set(psi(g).members) != brute_psi(g):
            failures.append(("corpus", to_graph6(g)))
    for g in random_suite():
        if g.n <= 12:
            checked += 1
            if set(psi(g).members) != brute_psi(g):
                failures.append(("random", to_graph6(g)))
    conclude(7, f"pruned enumeration equals naive all-subsets psi ({checked} graphs)", failures)


def test_criterion_8_cycles():
    failures = []
    for n in range(4, 11):
        c = cycle(n)
        expected = SetFamily(n, (0,) + omega(c).members)
        if psi(c) != expected:
            failures.append(f"C_{n}")
    conclude(8, "psi of C_n is omega plus the empty set for 4 <= n <= 10", failures)


def test_criterion_9_performance(capsys):
    failures = []
    t0 = time.perf_counter()
    code = cli_main(["psi", "--gen", "gnp:20:0.2", "--seed", "2026", "--format", "json"])
    elapsed_psi = time.perf_counter() - t0
    capsys.readouterr()  # the family listing is not under test here
    if code != 0:
        failures.append(f"cmd_psi exit code {code}")
    if elapsed_psi >= 10.0:
        failures.append(f"cmd_psi took {elapsed_psi:.2f}s (limit 10s)")

    import random as pyrandom

    rnd = pyrandom.Random(20260810)
    graphs = []
    for _ in range(100_000):
        n = rnd.randrange(1, 21)
        adj = [0] * n
        for j in range(1, n):
            col = rnd.getrandbits(j)
            if col:
                adj[j] |= col
                rem = col
                while rem:
                    low = rem & -rem
                    adj[low.bit_length() - 1] |= 1 << j
                    rem ^= low
        graphs.append(Graph(n, tuple(adj)))
    t0 = time.perf_counter()
    for g in graphs:
        if parse_graph6(to_graph6(g)) != g:
            failures.append("round trip mismatch")
            break
    elapsed_rt = time.perf_counter() - t0
    if elapsed_rt >= 5.0:
        failures.append(f"graph6 round trip took {elapsed_rt:.2f}s (limit 5s)")
    conclude(9, f"cmd_psi n=20 in {elapsed_psi:.2f}s; 1e5 graph6 round trips in {elapsed_rt:.2f}s",
             failures)
