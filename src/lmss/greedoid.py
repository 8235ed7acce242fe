"""Greedoid axiom checks with minimal counterexample witnesses.

A family is checked for accessibility (every nonempty member can drop one
element and stay a member) and exchange (a member one larger than another
can donate an element). Witnesses are the canonically smallest failures,
so verdicts are reproducible test anchors.

Both axioms are read from one pass over the members that builds the
extension map ext(Y) = {v not in Y : Y + v is a member} for every member
Y: each member Z ORs v into ext(Z - v) for every v whose removal stays in
the family, and Z is accessible when some such v exists. The map is a
list aligned with the members in canonical order, and each removal costs
one hash probe: a dict from member to position answers whether Z - v is a
member and where its ext entry sits. A pair (X, Y) with |X| = |Y| + 1
then fails exchange exactly when X & ext(Y) == 0, and members of one size
with equal ext masks fail against the same X, so only the first of each
group (the canonically smallest) is tried.

Canonical order sorts by size first, so each size level is one slice of
the members and of ext, found once by bisecting on member size. A
level's groups are its slice of ext deduplicated in first-occurrence
order, and a level is tried only when the level one size smaller exists.
A failing group is mapped back to its first member by searching for its
mask in that smaller level's slice alone, since a member of another size
may share the mask.

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

from bisect import bisect_right
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


def _extension_map(f: SetFamily) -> tuple[list[int], int | None]:
    """ext(Y) for every member Y, and the first inaccessible member (or None).

    ``ext[i]`` belongs to ``f.members[i]``. Members are visited in canonical
    order, so the first nonempty member with no removable element is the
    canonically smallest one.
    """
    _require_empty(f)
    members = f.members
    index = dict(zip(members, range(len(members)))).get
    ext = [0] * len(members)
    stuck = None
    for z in members:
        accessible = not z
        rest = z
        while rest:
            low = rest & -rest
            rest ^= low
            i = index(z ^ low)
            if i is not None:
                ext[i] |= low
                accessible = True
        if not accessible and stuck is None:
            stuck = z
    return ext, stuck


def _exchange_failure(members: tuple[int, ...], ext: list[int], universe: int) -> tuple[int, int] | None:
    """The canonically smallest (X, Y) with |X| = |Y| + 1 and X & ext(Y) == 0.

    ``members`` are in canonical order, each a subset of ``range(universe)``,
    and ``ext[i]`` is the ext mask of ``members[i]``.
    """
    # one w-bit field per group, with a spare top bit (see the module docstring)
    nbytes = universe // 8 + 1
    w = 8 * nbytes
    one = (1).to_bytes(nbytes, "little")
    lo = 0  # members[lo:mid] is the level below members[mid:hi]
    mid = bisect_right(members, 0, key=int.bit_count)
    while mid < len(members):
        k = members[mid].bit_count()
        hi = bisect_right(members, k, mid, key=int.bit_count)
        if members[lo].bit_count() == k - 1:
            # ext mask -> None, in first-occurrence (canonical) order
            level = dict.fromkeys(ext[lo:mid])
            packed = int.from_bytes(b"".join(e.to_bytes(nbytes, "little") for e in level), "little")
            rep = int.from_bytes(one * len(level), "little")
            high = rep << (w - 1)
            low = high - rep
            for x in members[mid:hi]:
                # a field's top bit is set iff X meets that group's ext mask
                hit = ((packed & x * rep) + low) & high
                if hit != high:
                    zero = high ^ hit
                    mask = list(level)[(zero & -zero).bit_length() // w - 1]
                    return x, members[ext.index(mask, lo, mid)]
        lo, mid = mid, hi
    return None


def check_accessibility(f: SetFamily) -> int | None:
    """None on pass, else the canonically smallest member with no removable element."""
    return _extension_map(f)[1]


def check_exchange(f: SetFamily) -> tuple[int, int] | None:
    """None on pass, else the canonically smallest failing pair (X, Y)."""
    return _exchange_failure(f.members, _extension_map(f)[0], f.universe)


def is_greedoid(f: SetFamily) -> GreedoidVerdict:
    """Accessibility first, then exchange; the first failing axiom names the verdict."""
    ext, stuck = _extension_map(f)
    if stuck is not None:
        return GreedoidVerdict(ACCESSIBILITY_FAIL, stuck, None, len(f), f.universe)
    exc = _exchange_failure(f.members, ext, f.universe)
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
