"""The benchmark's workloads: seeded inputs, one timed item, and the per-item gate.

Each CLI workload runs over a fixed universe of inputs split into strata
(input classes). ``--seed`` permutes every stratum and the strata are taken
round-robin, so any prefix of a pass has the same mix. A fixed input set is
what makes a tail percentile repeat from run to run; each universe is sized
so that a pass fits in a run. Each universe input has a reference stdout
digest, recorded by ``record.py`` at the commit that defined the benchmark,
which the gate compares against.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

THEOREMS = (
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

# psi_gnp: G(n, p) with p = num/100; one stratum per (n, num).
GNP_STRATA = tuple((n, num) for n in (18, 19, 20, 21, 22) for num in (20, 30))
GNP_PER_STRATUM = 10
GNP_SEED_BASE = 1_000_000

# check_tree: random labelled trees (every tree family is a greedoid, T2).
TREE_SIZES = (14, 15)
TREE_PER_SIZE = 45
TREE_SEED_BASE = 2_000_000

# verify_sweep: one criterion-6-style sweep per item, theorems round-robin.
VERIFY_MAX_SIZE = 12
VERIFY_COUNT = 4
VERIFY_SEEDS_PER_THEOREM = 20
VERIFY_SEED_BASE = 3_000_000

# graph6_roundtrip: batches drawn from one seeded pool; the gate is equality.
G6_POOL = 400
G6_BATCHES = 100
G6_BATCH = 100
G6_MAX_N = 40
G6_PROBS = (20, 30, 50)


@dataclass(frozen=True)
class Item:
    """One timed unit. ``key`` names its input across runs and seeds."""

    key: str
    argv: tuple[str, ...] = ()
    graphs: tuple = ()
    encodings: tuple[bytes, ...] = ()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh)


def run_cli(lmss, argv) -> tuple[int, str]:
    """``lmss.cli.main`` in-process with stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = lmss.cli.main(list(argv))
    return rc, out.getvalue()


def _interleave(rng: random.Random, strata: list[list[Item]]) -> list[Item]:
    """Each stratum permuted by ``rng``, then taken round-robin."""
    orders = [rng.sample(s, len(s)) for s in strata]
    return [order[i] for i in range(max(map(len, orders))) for order in orders if i < len(order)]


def _cli_item(argv: list[str]) -> Item:
    return Item(" ".join(argv), argv=tuple(argv))


def _graph_items(lmss, command: str, graphs) -> list[Item]:
    return [_cli_item([command, "--graph6", lmss.to_graph6(g).decode("ascii"), "--format", "json"])
            for g in graphs]


def reference_encode(n: int, adj) -> bytes:
    """graph6 written straight from its definition, independent of lmss."""
    if n > 62:
        raise ValueError("reference encoder covers n <= 62")
    out = [n + 63]
    acc = nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (adj[j] >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out)


def g6_items(lmss, rng: random.Random) -> list[Item]:
    graphs = []
    for i in range(G6_POOL):
        n = 1 + i % G6_MAX_N
        graphs.append(lmss.random_graph(n, G6_PROBS[i % len(G6_PROBS)], 100, rng.getrandbits(64)))
    encoded = [reference_encode(g.n, g.adj) for g in graphs]
    items = []
    for _ in range(G6_BATCHES):
        picks = rng.sample(range(G6_POOL), G6_BATCH)
        enc = tuple(encoded[i] for i in picks)
        items.append(Item(digest(b"\n".join(enc).decode("ascii")),
                          graphs=tuple(graphs[i] for i in picks), encodings=enc))
    return items


# -- workloads --------------------------------------------------------------------

class Workload:
    name = ""
    census = 0   # leading items whose work counts every run re-derives
    cli = True   # items are lmss.cli.main calls checked against a recorded stdout digest

    def universe(self, lmss) -> list[list[Item]]:
        """The inputs, one list per stratum (input class)."""
        raise NotImplementedError

    def items(self, lmss, seed: int) -> list[Item]:
        return _interleave(random.Random(seed), self.universe(lmss))

    def execute(self, lmss, item: Item):
        return run_cli(lmss, item.argv)

    def gate(self, item: Item, result, reference: dict) -> str | None:
        """None when the result is correct, else the reason it is not."""
        rc, out = result
        if rc != 0:
            return f"exit code {rc}, expected 0"
        want = reference.get(self.name, {}).get(item.key)
        if want is None:
            return "no reference digest recorded for this input"
        if digest(out) != want:
            return f"stdout digest {digest(out)} differs from reference {want}"
        return None


class PsiGnp(Workload):
    name = "psi_gnp"
    census = 10

    def universe(self, lmss):
        return [_graph_items(lmss, "psi", (lmss.random_graph(n, num, 100, GNP_SEED_BASE + 1000 * k + i)
                                           for i in range(GNP_PER_STRATUM)))
                for k, (n, num) in enumerate(GNP_STRATA)]


class CheckTree(Workload):
    name = "check_tree"
    census = 6

    def universe(self, lmss):
        return [_graph_items(lmss, "check", (lmss.random_tree(n, TREE_SEED_BASE + 1000 * k + i)
                                             for i in range(TREE_PER_SIZE)))
                for k, n in enumerate(TREE_SIZES)]

    def gate(self, item, result, reference):
        rc, out = result
        if rc == 0:
            try:
                status = json.loads(out).get("status")
            except (ValueError, AttributeError):
                return "stdout is not a JSON verdict"
            if status != "GREEDOID":
                return f"status {status}, expected GREEDOID (trees, T2)"
        return super().gate(item, result, reference)


class VerifySweep(Workload):
    name = "verify_sweep"
    census = len(THEOREMS)

    def universe(self, lmss):
        return [[_cli_item(["verify", th, "--sweep", str(VERIFY_MAX_SIZE), "--count", str(VERIFY_COUNT),
                            "--seed", str(VERIFY_SEED_BASE + 1000 * k + i), "--format", "json"])
                 for i in range(VERIFY_SEEDS_PER_THEOREM)]
                for k, th in enumerate(THEOREMS)]


class Graph6Roundtrip(Workload):
    name = "graph6_roundtrip"
    census = 2
    cli = False

    def items(self, lmss, seed):
        return g6_items(lmss, random.Random(seed))

    def execute(self, lmss, item):
        return [(b, lmss.parse_graph6(b)) for b in map(lmss.to_graph6, item.graphs)]

    def gate(self, item, result, reference):
        for g, want, (got, back) in zip(item.graphs, item.encodings, result):
            if got != want:
                return f"graph6 of {g!r} is {got!r}, expected {want!r}"
            if back != g:
                return f"round trip of {want!r} returned a different graph"
        if len(result) != len(item.graphs):
            return "round trip dropped graphs"
        return None


WORKLOADS = {w.name: w for w in (PsiGnp(), CheckTree(), VerifySweep(), Graph6Roundtrip())}
