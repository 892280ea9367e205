"""Named categories of partitions: membership and enumeration.

The named categories come in two groups.  The uncolored ones (NC2, NC12,
NC12', NC12#, NCeven, NC', NC, P2) are color-insensitive predicates on the
block structure; membership ignores the coloring entirely.  CU is the
colored category of noncrossing pair partitions where connected points
have the same color in different rows and different colors in the same
row.  (The pair-and-color rule alone admits the crossing swap, which the
corresponding quantum group excludes, so noncrossing is part of the CU
predicate here.)

Members of a frame are enumerated directly, not filtered: every category
but P2 is built as noncrossing partitions in the circular order, pruned
by its block sizes (and, for CU, by the color rule), and sorted by
labels.  P2 takes every pair partition.  Of each membership predicate,
only the part the construction does not guarantee runs on the members
built (singleton parity, the NC12sharp rule, odd-block parity); the full
predicate stays the one definition of membership, behind `contains`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import TooLarge
from .partitions import (
    Partition,
    all_colorings,
    circular_order,
    enumerate_noncrossing,
    enumerate_partitions,
)
from .words import WHITE

MAX_FRAME_POINTS = 12


# ---------------------------------------------------------------------------
# Membership predicates


def _sizes(p: Partition) -> list[int]:
    return [len(b) for b in p.blocks]


def _singleton_parity_ok(p: Partition) -> bool:
    return sum(1 for b in p.blocks if len(b) == 1) % 2 == 0


def _odd_block_parity_ok(p: Partition) -> bool:
    return sum(1 for s in _sizes(p) if s % 2) % 2 == 0


def _sharp_ok(p: Partition) -> bool:
    """Even number of singletons between any two connected points, in the
    circular order."""
    order = circular_order(p.n_upper, p.n_lower)
    single = [len(p.blocks[p.labels[pt]]) == 1 for pt in order]
    prefix = [0]
    for s in single:
        prefix.append(prefix[-1] + (1 if s else 0))
    for blk in p.blocks:
        if len(blk) != 2:
            continue
        a, b = sorted(order[pt] for pt in blk)
        if (prefix[b] - prefix[a + 1]) % 2:
            return False
    return True


def in_nc2(p: Partition) -> bool:
    return p.is_noncrossing() and all(s == 2 for s in _sizes(p))


def in_nc12(p: Partition) -> bool:
    return p.is_noncrossing() and all(s <= 2 for s in _sizes(p))


def in_nc12_prime(p: Partition) -> bool:
    return in_nc12(p) and _singleton_parity_ok(p)


def in_nc12_sharp(p: Partition) -> bool:
    return in_nc12_prime(p) and _sharp_ok(p)


def in_nc_even(p: Partition) -> bool:
    return p.is_noncrossing() and all(s % 2 == 0 for s in _sizes(p))


def in_nc_prime(p: Partition) -> bool:
    return p.is_noncrossing() and _odd_block_parity_ok(p)


def in_nc(p: Partition) -> bool:
    return p.is_noncrossing()


def in_p2(p: Partition) -> bool:
    return all(s == 2 for s in _sizes(p))


def in_cu(p: Partition) -> bool:
    """Noncrossing pairs; same color across rows, different color within."""
    if not p.is_noncrossing():
        return False
    k = p.n_upper
    for blk in p.blocks:
        if len(blk) != 2:
            return False
        a, b = blk
        same_row = (a < k) == (b < k)
        if same_row and p.color(a) == p.color(b):
            return False
        if not same_row and p.color(a) != p.color(b):
            return False
    return True


@dataclass(frozen=True)
class CategorySpec:
    """A named category: a membership predicate."""

    name: str
    predicate: callable = field(compare=False)
    colored: bool = False

    def __str__(self) -> str:
        return self.name


CU = CategorySpec("CU", in_cu, colored=True)
NC2 = CategorySpec("NC2", in_nc2)
NC12 = CategorySpec("NC12", in_nc12)
NC12_PRIME = CategorySpec("NC12prime", in_nc12_prime)
NC12_SHARP = CategorySpec("NC12sharp", in_nc12_sharp)
NC_EVEN = CategorySpec("NCeven", in_nc_even)
NC_PRIME = CategorySpec("NCprime", in_nc_prime)
NC = CategorySpec("NCall", in_nc)
P2 = CategorySpec("P2", in_p2)

NAMED = {
    c.name: c
    for c in (CU, NC2, NC12, NC12_PRIME, NC12_SHARP, NC_EVEN, NC_PRIME, NC, P2)
}

# block sizes that bound the noncrossing enumeration of each category
_BLOCK_SIZES = {
    "NC2": {2},
    "NC12": {1, 2},
    "NC12prime": {1, 2},
    "NC12sharp": {1, 2},
    "NCeven": set(range(2, MAX_FRAME_POINTS + 1, 2)),
}

# the part of each predicate that this block-size and color-pruned
# construction does not guarantee; the other categories need no check
_UNGUARANTEED = {
    "NC12prime": _singleton_parity_ok,
    "NC12sharp": lambda p: _singleton_parity_ok(p) and _sharp_ok(p),
    "NCprime": _odd_block_parity_ok,
}


def contains(cat: CategorySpec, p: Partition) -> bool:
    return cat.predicate(p)


@lru_cache(maxsize=None)
def _enumerate_cached(cat_name: str, upper: str, lower: str) -> tuple[Partition, ...]:
    cat = NAMED[cat_name]
    if cat is P2:
        candidates = enumerate_partitions(upper, lower, pair_only=True)
    else:
        candidates = enumerate_noncrossing(
            upper, lower, _BLOCK_SIZES.get(cat_name), colored=cat.colored
        )
    check = _UNGUARANTEED.get(cat_name)
    return tuple(p for p in candidates if check is None or check(p))


def enumerate_members(cat: CategorySpec, upper: str, lower: str) -> list[Partition]:
    """All members of the category with the given frame."""
    if len(upper) + len(lower) > MAX_FRAME_POINTS:
        raise TooLarge(f"frame has {len(upper) + len(lower)} > {MAX_FRAME_POINTS} points")
    return list(_enumerate_cached(cat.name, upper, lower))


def all_members(cat: CategorySpec, point_bound: int) -> list[Partition]:
    """All members with at most point_bound points.

    For uncolored categories only all-white frames are produced (membership
    does not depend on the coloring, and all computations downstream are
    color-blind for these categories).  For CU every coloring is scanned.
    """
    out = []
    for k in range(point_bound + 1):
        for l in range(point_bound + 1 - k):
            if cat.colored:
                for up in all_colorings(k):
                    for lo in all_colorings(l):
                        out.extend(enumerate_members(cat, up, lo))
            else:
                out.extend(enumerate_members(cat, WHITE * k, WHITE * l))
    return out
