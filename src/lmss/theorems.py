"""Machine checks for the structural results about local maximum stable
set families, each reported as data with an oracle-confirmable witness.

Every verifier returns a TheoremReport rather than asserting: the CLI maps
reports to exit codes and the test suite maps them to test failures. All
the checked statements are universally quantified, so a report with
holds=False on valid input means an implementation bug; the witness makes
that reproducible. Each theorem is one row of the table ``_THEOREMS``: its
verifier, its instance shape and its exhaustive stream, so adding a theorem
is one table row. The shape owns the instance layout: how a sweep draws
it, how explicit graphs become it, how it reaches the verifier and how a
report prints it as ``inputs``. A verifier decides only its witness and
stats; ``_report`` derives ``holds`` as "no witness found".
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from importlib import resources
from typing import NamedTuple

from .bitset import bits, full_mask
from .graph import (
    Graph,
    complete,
    edgeless,
    is_complete,
    is_tree,
    labeled_trees,
    parse_graph6,
    random_graph,
    random_tree,
    to_graph6,
)
from .greedoid import is_greedoid
from .ops import CompositeGraph, composition, corona, disjoint_union, zykov_sum
from .rng import SplitMix64
from .stable import (
    SetFamily,
    alpha,
    enumerate_stable_sets,
    min_nonempty_size,
    omega,
    psi,
)

P1_NOTE = "part condition read as: S intersected with part i must lie in the part's own family"
HOST_SIZE_ONE_NOTE = "host has a single vertex; outside the n>=2 hypothesis, reported separately"


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    inputs: dict
    holds: bool
    witness: dict | None = None
    stats: dict = field(default_factory=dict)
    seed: int | None = None
    note: str | None = None

    def as_dict(self) -> dict:
        # shallow on purpose: dataclasses.asdict deep-copies every report,
        # which showed as a few percent of a small verify sweep
        return dict(vars(self))


def _g6(g: Graph) -> str:
    return to_graph6(g).decode("ascii")


def _set_list(mask: int) -> list[int]:
    return list(bits(mask))


def _canonical(mask: int) -> tuple[int, int]:
    """Sort key of the canonical order: size first, then bit pattern."""
    return mask.bit_count(), mask


def _report(theorem: str, args: tuple, witness: dict | None, stats: dict,
            seed: int | None, note: str | None = None) -> TheoremReport:
    """The report of one check: its row's shape prints the inputs from the
    verifier's arguments, and the check holds iff it found no witness."""
    inputs = _THEOREMS[theorem].shape.inputs(*args)
    return TheoremReport(theorem, inputs, witness is None, witness, stats, seed, note)


# -- containment in a maximum stable set --------------------------------------

def verify_nemhauser_trotter(g: Graph, seed: int | None = None) -> TheoremReport:
    """Every local maximum stable set extends to a maximum stable set."""
    fam = psi(g)
    maxima = omega(g).members
    witness = None
    for s in fam:
        if not any(s & ~m == 0 for m in maxima):
            witness = {"set": _set_list(s)}
            break
    return _report("T1_NT", (g,), witness,
                   {"psi_members": len(fam), "omega_members": len(maxima)}, seed)


# -- trees ---------------------------------------------------------------------

def verify_tree_greedoid(t: Graph, seed: int | None = None) -> TheoremReport:
    """The family of a tree satisfies both greedoid axioms."""
    if not is_tree(t):
        raise ValueError("input is not a tree (connected with n-1 edges)")
    verdict = is_greedoid(psi(t))
    witness = None if verdict.holds else verdict.as_dict()
    return _report("T2_TREE", (t,), witness, {"n": t.n, "family_size": verdict.family_size}, seed)


# -- disjoint union ------------------------------------------------------------

def _lifted_product(c: CompositeGraph, families: list[SetFamily]) -> set[int]:
    acc = {0}
    for off, fam in zip(c.offsets, families):
        acc = {a | m << off for a in acc for m in fam}
    return acc


def verify_union_prop(parts: list[Graph], seed: int | None = None) -> TheoremReport:
    """Membership factors through the parts, and so does the greedoid verdict."""
    u = disjoint_union(parts)
    fam = psi(u.graph)
    part_fams = [psi(g) for g in parts]
    expected = _lifted_product(u, part_fams)
    witness = None
    actual = set(fam.members)
    if actual != expected:
        bad = min(actual ^ expected, key=_canonical)
        witness = {
            "set": _set_list(bad),
            "in_family": bad in actual,
            "factors_through_parts": bad in expected,
        }
    part_verdicts = [is_greedoid(f).holds for f in part_fams]
    whole_verdict = is_greedoid(fam).holds
    if witness is None and whole_verdict != all(part_verdicts):
        witness = {"whole_greedoid": whole_verdict, "part_greedoids": part_verdicts}
    return _report("P1_UNION", (parts,), witness,
                   {"family_size": len(fam), "part_family_sizes": [len(f) for f in part_fams]},
                   seed, P1_NOTE)


# -- Zykov sum -----------------------------------------------------------------

def _max2(values: list[int]) -> int:
    """Second largest counted with multiplicity."""
    return sorted(values, reverse=True)[1]


def verify_zykov_bound(parts: list[Graph], seed: int | None = None) -> TheoremReport:
    """Nonempty members of the sum's family are at least max2 of the part alphas."""
    z = zykov_sum(parts)
    smallest = min_nonempty_size(psi(z.graph))
    bound = _max2([alpha(g) for g in parts])
    holds = smallest is None or smallest >= bound
    witness = None if holds else {"min_size": smallest, "bound": bound}
    return _report("L4_ZYKOV_BOUND", (parts,), witness, {"min_size": smallest, "bound": bound}, seed)


def verify_zykov_characterization(parts: list[Graph], seed: int | None = None) -> TheoremReport:
    """The sum's family is a greedoid iff exactly one part is non-complete,
    all part families are greedoids, and the sum's family equals that part's.

    When every part is complete the sum is complete too and the family must
    be the singletons plus the empty set (trivially a greedoid).

    With exactly one non-complete part k, the third condition
    (``family_matches_part``) follows from the membership rule behind L4:
    a nonempty S lies in one part, and it is in the sum's family iff it is
    in that part's family and |S| >= alpha of every other part. The other
    parts are complete, so every nonempty member of part k's family
    qualifies, and no singleton of a complete part does, since part k has
    alpha >= 2. So that clause can fail only if ``psi`` is wrong."""
    z = zykov_sum(parts)
    fam = psi(z.graph)
    az = alpha(z.graph)
    if az <= 1:
        expected = {0} | {1 << v for v in range(z.graph.n)}
        holds = set(fam.members) == expected and is_greedoid(fam).holds
        witness = None if holds else {"family": [_set_list(m) for m in fam]}
        return _report("P2_ZYKOV", (parts,), witness,
                       {"alpha": az, "branch": "complete", "family_size": len(fam)}, seed)
    lhs = is_greedoid(fam).holds
    part_fams = [psi(g) for g in parts]
    non_complete = [i for i, g in enumerate(parts) if not is_complete(g)]
    rhs = False
    detail: dict = {
        "part_greedoids": [is_greedoid(f).holds for f in part_fams],
        "non_complete_parts": non_complete,
    }
    if all(detail["part_greedoids"]) and len(non_complete) == 1:
        k = non_complete[0]
        lifted = SetFamily(z.graph.n, (m << z.offsets[k] for m in part_fams[k]))
        rhs = lifted == fam
        detail["family_matches_part"] = rhs
    witness = None if lhs == rhs else {"greedoid": lhs, "conditions": detail}
    return _report("P2_ZYKOV", (parts,), witness,
                   {"alpha": az, "branch": "general", "family_size": len(fam)}, seed)


# -- corona ---------------------------------------------------------------------

def _corona_failure(c: CompositeGraph, x: Graph, part_fams: list[SetFamily],
                    complete_part: list[bool]) -> Callable[[int], dict | None]:
    """The predicate of the corona c = x∘{H_i}: for a vertex set s, the first
    clause s fails, or None. (iii) each part intersection lies in the part's
    family, then (ii) each host vertex of s has a complete private graph and
    meets every neighboring private graph. The layout is read once here, so
    each call only shifts and masks s."""
    parts = [(off, full_mask(h.n), frozenset(pf.members))
             for off, h, pf in zip(c.offsets, c.operands, part_fams)]
    around = [[(vk, full_mask(c.operands[vk].n) << c.offsets[vk]) for vk in bits(row)]
              for row in x.adj]
    host = c.host_vertices

    def failure(s: int) -> dict | None:
        for i, (off, mask, members) in enumerate(parts):
            if s >> off & mask not in members:
                return {"part": "iii", "operand": i}
        for vi in bits(s & host):
            if not complete_part[vi]:
                return {"part": "ii", "host_vertex": vi, "reason": "private graph not complete"}
            for vk, mask in around[vi]:
                if not s & mask:
                    return {"part": "ii", "host_vertex": vi,
                            "reason": f"no intersection with part {vk}"}
        return None

    return failure


def verify_corona_lemma(x: Graph, hs: list[Graph], seed: int | None = None) -> TheoremReport:
    """Parts (i)-(iv): part families embed, members restrict into part
    families and force complete private graphs with covered neighborhoods,
    and the structural test agrees with the definition on every stable set.

    Part (iv) runs only once (ii) and (iii) have passed every member through
    the same predicate, so a member cannot mismatch there: it tests the
    predicate on the stable sets outside the family alone."""
    if x.n < 2:
        raise ValueError("lemma requires a host with at least 2 vertices")
    c = corona(x, hs)
    g = c.graph
    fam = psi(g)
    part_fams = [psi(h) for h in hs]
    failure = _corona_failure(c, x, part_fams, [is_complete(h) for h in hs])
    witness = None
    stats = {"family_size": len(fam), "host_size": x.n}

    # (i) each part family lifts into the corona family
    for i, (off, pf) in enumerate(zip(c.offsets, part_fams)):
        for m in pf:
            if m << off not in fam:
                witness = {"part": "i", "operand": i, "set": _set_list(m)}
                break
        if witness:
            break

    # (ii) and (iii) necessary conditions on every member
    if witness is None:
        for s in fam:
            clause = failure(s)
            if clause:
                # "part" is already first, so the set follows it
                witness = {"part": clause["part"], "set": _set_list(s), **clause}
                break

    # (iv) no stable set outside the family passes the structural test; the
    # walk order is not canonical, so every set is checked
    checked = 0
    if witness is None:
        members = set(fam.members)
        mismatches = []
        for s in enumerate_stable_sets(g):
            checked += 1
            if s not in members and failure(s) is None:
                mismatches.append(s)
        if mismatches:
            s = min(mismatches, key=_canonical)
            witness = {"part": "iv", "set": _set_list(s), "structural": True}
    stats["stable_sets_checked"] = checked
    return _report("L3_CORONA", (x, hs), witness, stats, seed)


def verify_corona_theorem(x: Graph, hs: list[Graph], seed: int | None = None) -> TheoremReport:
    """The corona's family is a greedoid iff every part family is one."""
    c = corona(x, hs)
    whole = is_greedoid(psi(c.graph)).holds
    parts_hold = [is_greedoid(psi(h)).holds for h in hs]
    holds = whole == all(parts_hold)
    witness = None if holds else {"whole_greedoid": whole, "part_greedoids": parts_hold}
    return _report("T_CORONA", (x, hs), witness, {"host_size": x.n}, seed,
                   HOST_SIZE_ONE_NOTE if x.n == 1 else None)


def verify_corona_corollary(x: Graph, h: Graph, seed: int | None = None) -> TheoremReport:
    """Uniform special case: one private graph repeated over the whole host."""
    r = verify_corona_theorem(x, [h] * x.n, seed)
    return _report("COR_CORONA", (x, h), r.witness, r.stats, seed, r.note)


# -- composition ----------------------------------------------------------------

def verify_composition_specializations(parts: list[Graph], seed: int | None = None) -> TheoremReport:
    """The edgeless skeleton reproduces the disjoint union and the complete
    skeleton the Zykov sum, byte for byte, and the greedoid verdicts agree
    with the dedicated verifiers for those two constructions."""
    p = len(parts)
    u = disjoint_union(parts)
    z = zykov_sum(parts)
    cu = composition(edgeless(p), parts)
    cz = composition(complete(p), parts)
    witness = None
    if cu.graph != u.graph or cu.offsets != u.offsets:
        witness = {"mismatch": "edgeless skeleton vs disjoint union"}
    elif cz.graph != z.graph or cz.offsets != z.offsets:
        witness = {"mismatch": "complete skeleton vs Zykov sum"}
    union_report = verify_union_prop(parts, seed)
    zykov_report = verify_zykov_characterization(parts, seed)
    if witness is None and not union_report.holds:
        witness = {"mismatch": "union verdict", "detail": union_report.witness}
    if witness is None and not zykov_report.holds:
        witness = {"mismatch": "zykov verdict", "detail": zykov_report.witness}
    return _report("C4_COMPOSITION_SPECIALIZE", (parts,), witness,
                   {"union_holds": union_report.holds, "zykov_holds": zykov_report.holds}, seed)


# -- exhaustive corpus -----------------------------------------------------------

CORPUS_MAX_N = 7


def corpus_graphs(n: int) -> list[Graph]:
    """All non-isomorphic simple graphs on exactly n vertices (1 <= n <= 7)."""
    if not 1 <= n <= CORPUS_MAX_N:
        raise ValueError(f"corpus covers 1..{CORPUS_MAX_N} vertices")
    text = resources.files("lmss.data").joinpath(f"all_graphs_n{n}.g6").read_text()
    return [parse_graph6(line) for line in text.splitlines() if line]


def corpus_upto(n: int) -> list[Graph]:
    """The corpus graphs on 1..n vertices (n <= 7), fewest vertices first."""
    if n > CORPUS_MAX_N:
        raise ValueError(f"corpus covers 1..{CORPUS_MAX_N} vertices, got {n}")
    return [g for k in range(1, n + 1) for g in corpus_graphs(k)]


# -- instance shapes and the theorem table ------------------------------------------

_EDGE_PROBS = ((15, 100), (30, 100), (50, 100))
SWEEP_MAX_SIZE = 10
SWEEP_COUNT = 20


def _draw_graph(rand: SplitMix64, n: int) -> Graph:
    num, den = _EDGE_PROBS[rand.below(len(_EDGE_PROBS))]
    return random_graph(n, num, den, rand.next_u64())


def _draw_sizes(rand: SplitMix64, count: int, total: int) -> list[int]:
    """count positive sizes with sum <= total (requires total >= count)."""
    sizes = []
    budget = total
    for i in range(count):
        slots_left = count - i - 1
        hi = budget - slots_left
        size = 1 + rand.below(hi) if hi > 1 else 1
        sizes.append(size)
        budget -= size
    return sizes


def _draw_parts(rand: SplitMix64, max_size: int) -> tuple:
    p = 2 + rand.below(3)
    total = max(p, 2 + rand.below(max_size - 1))
    return tuple(_draw_graph(rand, k) for k in _draw_sizes(rand, p, total))


def _draw_corona(rand: SplitMix64, max_size: int) -> tuple:
    hn = min(2 + rand.below(3), max_size // 2)
    floor = 2 * hn  # host plus one vertex per nonempty part
    budget = floor + rand.below(max_size - floor + 1)
    host = _draw_graph(rand, hn)
    sizes = _draw_sizes(rand, hn, budget - hn)
    return (host, tuple(_draw_graph(rand, k) for k in sizes))


def _draw_uniform_corona(rand: SplitMix64, max_size: int) -> tuple:
    hn = 1 + rand.below(3)
    host = _draw_graph(rand, hn)
    return (host, _draw_graph(rand, 1 + rand.below((max_size - hn) // hn)))


def _exactly(k: int, what: str) -> Callable[[str, list[Graph]], tuple]:
    def from_graphs(theorem: str, graphs: list[Graph]) -> tuple:
        if len(graphs) != k:
            raise ValueError(f"{theorem} takes {what}")
        return tuple(graphs)
    return from_graphs


def _at_least_two(theorem: str, graphs: list[Graph]) -> tuple:
    if len(graphs) < 2:
        raise ValueError(f"{theorem} takes at least two graphs")
    return tuple(graphs)


def _host_and_satellites(theorem: str, graphs: list[Graph]) -> tuple:
    if not graphs:
        raise ValueError(f"{theorem} takes a host graph followed by its satellites")
    host, rest = graphs[0], tuple(graphs[1:])
    if len(rest) != host.n:
        raise ValueError(f"host has {host.n} vertices but {len(rest)} satellites given")
    return (host, rest)


class _Shape(NamedTuple):
    """One instance layout: how a sweep draws it, how explicit graphs (in CLI
    order) become it, how it is passed to a verifier, and how the verifier's
    arguments print as a report's inputs."""

    min_size: int  # smallest composite size every draw fits in
    draw: Callable[[SplitMix64, int], tuple]
    from_graphs: Callable[[str, list[Graph]], tuple]
    args: Callable[[tuple], tuple]
    inputs: Callable[..., dict]


_GRAPH = _Shape(1, lambda rand, size: (_draw_graph(rand, 1 + rand.below(size)),),
                _exactly(1, "exactly one graph"), tuple, lambda g: {"graph": _g6(g)})
_TREE = _GRAPH._replace(draw=lambda rand, size: (random_tree(1 + rand.below(size), rand.next_u64()),))
_PARTS = _Shape(4, _draw_parts, _at_least_two, lambda inst: (list(inst),),
                lambda parts: {"parts": [_g6(g) for g in parts]})
_CORONA = _Shape(4, _draw_corona, _host_and_satellites, lambda inst: (inst[0], list(inst[1])),
                 lambda x, hs: {"host": _g6(x), "parts": [_g6(h) for h in hs]})
_UNIFORM_CORONA = _Shape(6, _draw_uniform_corona, _exactly(2, "a host and one satellite graph"),
                         tuple, lambda x, h: {"host": _g6(x), "satellite": _g6(h)})


class _Theorem(NamedTuple):
    verify: Callable[..., TheoremReport]
    shape: _Shape
    exhaustive: Callable[[int], Iterator[tuple]] | None = None


_THEOREMS = {
    "T1_NT": _Theorem(verify_nemhauser_trotter, _GRAPH,
                      lambda size: ((g,) for g in corpus_upto(size))),
    "T2_TREE": _Theorem(verify_tree_greedoid, _TREE,
                        lambda size: ((t,) for n in range(1, size + 1) for t in labeled_trees(n))),
    "P1_UNION": _Theorem(verify_union_prop, _PARTS),
    "L4_ZYKOV_BOUND": _Theorem(verify_zykov_bound, _PARTS),
    "P2_ZYKOV": _Theorem(verify_zykov_characterization, _PARTS),
    "L3_CORONA": _Theorem(verify_corona_lemma, _CORONA),
    "T_CORONA": _Theorem(verify_corona_theorem, _CORONA),
    "COR_CORONA": _Theorem(verify_corona_corollary, _UNIFORM_CORONA),
    "C4_COMPOSITION_SPECIALIZE": _Theorem(verify_composition_specializations, _PARTS),
}
THEOREM_IDS = tuple(_THEOREMS)


def _lookup(theorem: str) -> _Theorem:
    if theorem not in _THEOREMS:
        raise ValueError(f"unknown theorem id {theorem!r}; known: {', '.join(THEOREM_IDS)}")
    return _THEOREMS[theorem]


def _sized(theorem: str, max_size: int) -> _Theorem:
    """The table row, once max_size is known to reach the shape's floor."""
    entry = _lookup(theorem)
    if max_size < entry.shape.min_size:
        raise ValueError(f"{theorem} sweeps need a composite size of at least "
                         f"{entry.shape.min_size}, got {max_size}")
    return entry


def random_instance(theorem: str, max_size: int, seed: int):
    """Deterministic operand tuple for one sweep step of the given theorem;
    a max_size below the shape's floor raises ValueError."""
    return _sized(theorem, max_size).shape.draw(SplitMix64(seed), max_size)


def instance_from_graphs(theorem: str, graphs: list[Graph]) -> tuple:
    """The instance for explicit graphs in CLI order, host first for a corona."""
    return _lookup(theorem).shape.from_graphs(theorem, graphs)


def run_on_instance(theorem: str, instance, seed: int | None = None) -> TheoremReport:
    entry = _lookup(theorem)
    return entry.verify(*entry.shape.args(instance), seed)


def sweep(theorem: str, *, max_size: int = SWEEP_MAX_SIZE, count: int = SWEEP_COUNT, seed: int = 0,
          exhaustive: bool = False) -> list[TheoremReport]:
    """Run one theorem over generated instances; order is deterministic.

    max_size bounds the composite size; below the theorem's shape floor it
    cannot be honoured and raises ValueError, as does count < 1."""
    entry = _sized(theorem, max_size)
    if exhaustive:
        if entry.exhaustive is None:
            raise ValueError(f"no exhaustive sweep defined for {theorem!r}")
        return [run_on_instance(theorem, inst) for inst in entry.exhaustive(max_size)]
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    rand = SplitMix64(seed)
    seeds = (rand.next_u64() for _ in range(count))
    return [run_on_instance(theorem, random_instance(theorem, max_size, s), s) for s in seeds]
