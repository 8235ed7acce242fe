"""Greedoid axiom checks with minimal counterexample witnesses.

A family is checked for accessibility (every nonempty member can drop one
element and stay a member) and exchange (a member one larger than another
can donate an element). Witnesses are the canonically smallest failures,
so verdicts are reproducible test anchors.

Both axioms are read from one pass over the members that builds the
extension map ext(Y) = {v not in Y : Y + v is a member} for every member
Y: each member Z ORs v into ext(Z - v) for every v whose removal stays in
the family, and Z is accessible when some such v exists. A pair (X, Y)
with |X| = |Y| + 1 then fails exchange exactly when X & ext(Y) == 0, and
members of one size with equal ext masks fail against the same X, so
only the first of each group (the canonically smallest) is tried.

The groups of one size are tried all at once (Lamport's multiple byte
processing with full-word instructions, on Python ints): their ext masks
are packed into one int, one field of w = 8 * (universe // 8 + 1) bits
per group in canonical order. A mask fills at most w - 1 bits, so each
field keeps a spare top bit. For a member X, adding w - 1 ones to every
field of packed & (X copied into each field) sets a field's top bit
exactly when X meets that group's mask, and the spare bit keeps the carry
inside the field. The lowest field whose top bit stays clear names the
canonically smallest Y that X fails against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import bits
from .stable import SetFamily

GREEDOID = "GREEDOID"
ACCESSIBILITY_FAIL = "ACCESSIBILITY_FAIL"
EXCHANGE_FAIL = "EXCHANGE_FAIL"


@dataclass(frozen=True)
class GreedoidVerdict:
    status: str
    witness_x: int | None
    witness_y: int | None
    family_size: int
    universe: int

    @property
    def holds(self) -> bool:
        return self.status == GREEDOID

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "witness_x": None if self.witness_x is None else list(bits(self.witness_x)),
            "witness_y": None if self.witness_y is None else list(bits(self.witness_y)),
            "family_size": self.family_size,
            "universe": self.universe,
        }


def _require_empty(f: SetFamily) -> None:
    # the canonical order puts the empty set first
    if f.members[:1] != (0,):
        raise ValueError("family violates the contract: the empty set is not a member")


def _extension_map(f: SetFamily) -> tuple[dict[int, int], int | None]:
    """ext(Y) for every member Y, and the first inaccessible member (or None).

    Members are visited in canonical order, so the first nonempty member
    with no removable element is the canonically smallest one.
    """
    _require_empty(f)
    ext = dict.fromkeys(f.members, 0)
    stuck = None
    for z in f.members:
        accessible = not z
        rest = z
        while rest:
            low = rest & -rest
            rest ^= low
            y = z ^ low
            if y in ext:
                ext[y] |= low
                accessible = True
        if not accessible and stuck is None:
            stuck = z
    return ext, stuck


def _exchange_failure(ext: dict[int, int], universe: int) -> tuple[int, int] | None:
    """The canonically smallest (X, Y) with |X| = |Y| + 1 and X & ext(Y) == 0.

    ``ext`` is keyed by the members in canonical order, each a subset of
    ``range(universe)``.
    """
    # size -> {ext mask: first member with it}; insertion follows canonical order
    groups: dict[int, dict[int, int]] = {}
    for y, e in ext.items():
        groups.setdefault(y.bit_count(), {}).setdefault(e, y)
    # one w-bit field per group, with a spare top bit (see the module docstring)
    nbytes = universe // 8 + 1
    w = 8 * nbytes
    one = (1).to_bytes(nbytes, "little")
    size = level = None
    for x in ext:
        k = x.bit_count()
        if k != size:
            size, level = k, groups.get(k - 1)
            if level is not None:
                packed = int.from_bytes(b"".join(e.to_bytes(nbytes, "little") for e in level), "little")
                rep = int.from_bytes(one * len(level), "little")
                high = rep << (w - 1)
                low = high - rep
        if level is None:
            continue
        # a field's top bit is set iff X meets that group's ext mask
        hit = ((packed & x * rep) + low) & high
        if hit != high:
            zero = high ^ hit
            first = (zero & -zero).bit_length() // w - 1
            return x, list(level.values())[first]
    return None


def check_accessibility(f: SetFamily) -> int | None:
    """None on pass, else the canonically smallest member with no removable element."""
    return _extension_map(f)[1]


def check_exchange(f: SetFamily) -> tuple[int, int] | None:
    """None on pass, else the canonically smallest failing pair (X, Y)."""
    return _exchange_failure(_extension_map(f)[0], f.universe)


def is_greedoid(f: SetFamily) -> GreedoidVerdict:
    """Accessibility first, then exchange; the first failing axiom names the verdict."""
    ext, stuck = _extension_map(f)
    if stuck is not None:
        return GreedoidVerdict(ACCESSIBILITY_FAIL, stuck, None, len(f), f.universe)
    exc = _exchange_failure(ext, f.universe)
    if exc is not None:
        return GreedoidVerdict(EXCHANGE_FAIL, exc[0], exc[1], len(f), f.universe)
    return GreedoidVerdict(GREEDOID, None, None, len(f), f.universe)


def accessibility_chain(f: SetFamily, s: int) -> list[int]:
    """Nested members from the empty set up to ``s``, one new vertex per step.

    Peeling is deterministic: each step drops the largest-index vertex
    whose removal stays in the family, which makes every intermediate set
    the canonically smallest feasible predecessor.
    """
    if s not in f:
        raise ValueError("set is not a member of the family")
    chain = [s]
    cur = s
    while cur:
        nxt = None
        for v in bits(cur):
            cand = cur ^ (1 << v)
            if cand in f:
                nxt = cand  # keep scanning: later (larger) vertices win
        if nxt is None:
            raise ValueError(
                f"no accessibility chain: stuck at member with vertices {sorted(bits(cur))}"
            )
        chain.append(nxt)
        cur = nxt
    chain.reverse()
    return chain
