"""Named categories of partitions: one definition each, read by both
membership and enumeration.

Each category is a `CategorySpec`, a piece of data with four fields (the
noncrossing categories of Banica-Speicher, "Liberation of orthogonal Lie
groups", and Weber, "On the classification of easy quantum groups"):

* `block_size`: which block sizes are allowed, as a function of the
  size, so that no point bound is built into a category;
* `even_points`: whether a frame must hold an even number of points.
  This is the parity rule of NC12prime (an even number of singletons:
  with blocks of at most two points, the singletons have the parity of
  the points), of NC12sharp, and of NCprime (an even number of odd
  blocks: the block sizes add up to the point count), decided once per
  frame;
* `rule`: at most one extra condition, read on the circle reading
  (`partitions.circle_reading`: the labels in circular order, blocks
  numbered by first appearance), namely an even number of singletons
  between any two connected points (NC12sharp);
* `colored`: whether the unitary color rule applies, so that connected
  points have the same color in different rows and different colors in
  the same row (only CU; the other categories ignore the coloring).  On
  the circle, with the lower colors flipped, each pair joins two
  different colors, which `partitions._alternates` checks.

Every category is noncrossing.  The pair-and-color rule alone admits the
crossing swap, which the corresponding quantum group excludes, so CU is
noncrossing too.

`contains` checks the four fields and noncrossing, the rule and the color
rule on the partition's circle reading.  `enumerate_members` builds the
members of a frame from the same fields rather than filtering every
partition: a frame of the wrong parity has none, and otherwise they are
the noncrossing partitions in the circular order, pruned by the block
sizes and, for CU, filtered by the same color rule, then kept by the same
rule, each decided once per circle shape, which is a circle reading, and
sorted by labels.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import groupby
from typing import Callable, NamedTuple

from .errors import TooLarge
from .partitions import Partition, _alternates, _noncrossing, _whites, circle_reading
from .partitions import enumerate_noncrossing
from .words import BLACK, WHITE, all_words, conjugate

MAX_FRAME_POINTS = 12


# ---------------------------------------------------------------------------
# The rules


def _sharp_ok(circle: tuple[int, ...]) -> bool:
    """Even number of singletons between the two points of each pair of a
    circle reading: the singleton parity is the same at both points."""
    size = Counter(circle)
    parity, opened = 0, {}
    for b in circle:
        if size[b] == 1:
            parity ^= 1
        elif size[b] == 2 and opened.setdefault(b, parity) != parity:
            return False
    return True


class CategorySpec(NamedTuple):
    """A named noncrossing category: allowed block sizes, whether frames
    need an even number of points (checked once per frame), one optional
    rule on circle readings (decided once per circle shape), and whether
    colors matter."""

    name: str
    block_size: Callable[[int], bool]
    rule: Callable[[tuple[int, ...]], bool] | None = None
    colored: bool = False
    even_points: bool = False

    def __str__(self) -> str:
        return self.name


CU = CategorySpec("CU", lambda s: s == 2, colored=True)
NC2 = CategorySpec("NC2", lambda s: s == 2)
NC12 = CategorySpec("NC12", lambda s: s <= 2)
NC12_PRIME = CategorySpec("NC12prime", lambda s: s <= 2, even_points=True)
NC12_SHARP = CategorySpec("NC12sharp", lambda s: s <= 2, _sharp_ok, even_points=True)
NC_EVEN = CategorySpec("NCeven", lambda s: s % 2 == 0)
NC_PRIME = CategorySpec("NCprime", lambda s: True, even_points=True)
NC = CategorySpec("NCall", lambda s: True)

NAMED = {c.name: c for c in (CU, NC2, NC12, NC12_PRIME, NC12_SHARP, NC_EVEN, NC_PRIME, NC)}


def contains(cat: CategorySpec, p: Partition) -> bool:
    if (cat.even_points and p.n_points % 2) or not all(cat.block_size(len(b)) for b in p.blocks):
        return False
    circle = circle_reading(p)  # the one relabel, read by the three circle rules
    return (
        _noncrossing(circle)
        and (not cat.colored or _alternates(circle, _whites(p.upper + conjugate(p.lower))))
        and (cat.rule is None or cat.rule(circle))
    )


@lru_cache(maxsize=None)
def _candidates(upper: str, lower: str, sizes: tuple, colored: bool, rule) -> tuple[Partition, ...]:
    """The members of a frame of the right parity, shared by the categories
    with the same block sizes and rule (NCall and NCprime; NC12 and
    NC12prime).  A frame with at most one point in a row shares its label
    tuples with the sorted shape table it reads (enumerate_noncrossing), so
    caching it holds only its Partitions."""
    return tuple(enumerate_noncrossing(upper, lower, sizes, colored, rule))


def enumerate_members(cat: CategorySpec, upper: str, lower: str) -> list[Partition]:
    """All members of the category with the given frame, sorted by labels."""
    n = len(upper) + len(lower)
    if n > MAX_FRAME_POINTS:
        raise TooLarge(f"frame has {n} > {MAX_FRAME_POINTS} points")
    if cat.colored and 2 * (upper.count(WHITE) + lower.count(BLACK)) != n:
        # each pair takes one o and one x of the circular color word
        # upper + conjugate(lower), so an unbalanced frame has no member
        return []
    if cat.even_points and n % 2:
        return []
    # the cache keeps the sizes of every frame in its key, and a tuple of
    # them takes a quarter of the memory of a frozenset or less
    sizes = tuple(s for s in range(1, n + 1) if cat.block_size(s))
    return list(_candidates(upper, lower, sizes, cat.colored, cat.rule))


def all_members(cat: CategorySpec, point_bound: int) -> list[Partition]:
    """All members with at most point_bound points.

    For uncolored categories only all-white frames are produced (membership
    does not depend on the coloring, and all computations downstream are
    color-blind for these categories).  For CU every coloring is scanned.
    """
    if cat.colored:
        rows = [list(ws) for _, ws in groupby(all_words(point_bound), len)]
    else:
        rows = [[WHITE * n] for n in range(point_bound + 1)]
    out = []
    for k in range(point_bound + 1):
        for l in range(point_bound - k + 1):
            for up in rows[k]:
                for lo in rows[l]:
                    out.extend(enumerate_members(cat, up, lo))
    return out
