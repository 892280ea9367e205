"""Two-colored partitions of upper and lower points.

A partition has k upper points and l lower points, each colored white
('o') or black ('x'), and a set partition of the k + l points into
blocks.  Points are indexed 0..k-1 (upper, left to right) then
k..k+l-1 (lower, left to right).

str prints a partition as ``upper;lower;b_0,...,b_{k+l-1}`` where upper
and lower are color words ('e' when empty) and b_i is the 1-based block
label of point i, blocks numbered by first appearance.  Example: the
two-block crossing pair partition with upper 'ox' and lower 'ox' prints
as ``ox;ox;1,2,1,2``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .errors import InputError, ShapeMismatch
from .words import WHITE, conjugate, word_to_str


@lru_cache(maxsize=None)
def circular_order(k: int, l: int) -> tuple[int, ...]:
    """The points of a frame with k upper and l lower points in circular
    order: upper left to right, then lower right to left.  The order is
    its own inverse: position i holds point order[i] and point i sits at
    position order[i]."""
    return tuple(range(k)) + tuple(range(k + l - 1, k - 1, -1))


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[ri] = rj


def _canonical_labels(labels, order) -> tuple[int, ...]:
    """The labels of the points in order, blocks renumbered 0, 1, ... by
    first appearance: the one relabel of the package.  With order the
    points in their own order it canonicalizes; with circular_order it
    gives the circle reading."""
    first: dict[int, int] = {}
    out = []
    for i in order:
        b = labels[i]
        if b not in first:
            first[b] = len(first)
        out.append(first[b])
    return tuple(out)


def circle_reading(p: Partition) -> tuple[int, ...]:
    """p's labels read around the circle of its frame (circular_order),
    blocks numbered by first appearance: what the category rules read."""
    return _canonical_labels(p.labels, circular_order(p.n_upper, p.n_lower))


def _whites(colors: str) -> tuple[int, ...]:
    """The positions of the white letters of a color word."""
    return tuple(i for i, c in enumerate(colors) if c == WHITE)


def _alternates(circle: tuple[int, ...], whites: tuple[int, ...]) -> bool:
    """The unitary color rule on a circle reading of pairs: each pair joins
    a white and a black position of the circular color word (upper +
    conjugate(lower)), whose white positions are whites (_whites).  That
    holds when half the positions are white and no two share a label."""
    return 2 * len(whites) == len(circle) == 2 * len({circle[i] for i in whites})


def _noncrossing(circle: tuple[int, ...]) -> bool:
    """Whether a circle reading (circle_reading) is noncrossing: read with
    a stack of open blocks, a block met again closes every block opened
    since, and a closed block met again crosses it."""
    stack: list[int] = []
    closed = set()
    for b in circle:
        if b in closed:
            return False
        if b in stack:
            while stack[-1] != b:
                closed.add(stack.pop())
        else:
            stack.append(b)
    return True


class Partition:
    def __init__(self, upper: str, lower: str, labels: tuple[int, ...]):
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "labels", labels)  # canonical block label of each point
        self.__post_init__()

    def __post_init__(self):
        # any sequence of block ids is stored numbered by first appearance
        n = len(self.upper) + len(self.lower)
        if len(self.labels) != n:
            raise ShapeMismatch("label count does not match point count")
        canonical = _canonical_labels(self.labels, range(n))
        if canonical != self.labels:
            object.__setattr__(self, "labels", canonical)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.upper, self.lower, self.labels) == (other.upper, other.lower, other.labels)

    def __hash__(self) -> int:
        return hash((self.upper, self.lower, self.labels))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __str__(self) -> str:
        return "{};{};{}".format(
            word_to_str(self.upper),
            word_to_str(self.lower),
            ",".join(str(b + 1) for b in self.labels),
        )

    # -- basic data ----------------------------------------------------

    @property
    def n_upper(self) -> int:
        return len(self.upper)

    @property
    def n_lower(self) -> int:
        return len(self.lower)

    @property
    def n_points(self) -> int:
        return len(self.labels)

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        nb = max(self.labels, default=-1) + 1
        out: list[list[int]] = [[] for _ in range(nb)]
        for i, b in enumerate(self.labels):
            out[b].append(i)
        return tuple(tuple(blk) for blk in out)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @cached_property
    def through_blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks meeting both rows, ordered by smallest upper point."""
        k = self.n_upper
        return tuple(b for b in self.blocks if b[0] < k <= b[-1])

    @property
    def n_through(self) -> int:
        return len(self.through_blocks)

    # -- category operations --------------------------------------------

    def tensor(self, other: "Partition") -> "Partition":
        """Horizontal concatenation."""
        k1, l1 = self.n_upper, self.n_lower
        k2, l2 = other.n_upper, other.n_lower
        shift = self.n_blocks
        lab = [0] * (k1 + k2 + l1 + l2)
        for i, b in enumerate(self.labels):
            j = i if i < k1 else i + k2
            lab[j] = b
        for i, b in enumerate(other.labels):
            j = k1 + i if i < k2 else k1 + l1 + i
            lab[j] = b + shift
        return Partition(self.upper + other.upper, self.lower + other.lower, lab)

    def adjoint(self) -> "Partition":
        """Reflect across the horizontal axis; colors stay with their points."""
        k, l = self.n_upper, self.n_lower
        lab = list(self.labels[k:]) + list(self.labels[:k])
        return Partition(self.lower, self.upper, lab)

    def compose(self, other: "Partition") -> tuple["Partition", int]:
        """Vertical composition self . other, stacking other on top.

        other : (k -> l) drawn above, self : (l -> m) below; the l lower
        points of other are glued to the l upper points of self.  Returns
        the composed (k -> m) partition together with the number of
        closed middle loops.  Colors on the glued row must agree.
        """
        if other.lower != self.upper:
            raise ShapeMismatch("middle colors do not match")
        k, l = other.n_upper, other.n_lower
        m = self.n_lower
        # points: 0..k-1 upper, k..k+l-1 middle, k+l..k+l+m-1 lower
        uf = UnionFind(k + l + m)
        for blk in other.blocks:
            for a, b in zip(blk, blk[1:]):
                uf.union(a, b)
        for blk in self.blocks:
            for a, b in zip(blk, blk[1:]):
                uf.union(a + k, b + k)
        roots = [uf.find(i) for i in range(k + l + m)]
        outer = roots[:k] + roots[k + l :]
        loops = len(set(roots[k : k + l]).difference(outer))
        # the constructor numbers the outer roots by first appearance
        return Partition(other.upper, self.lower, outer), loops

    def reverse(self) -> "Partition":
        """Mirror left-right and invert every color."""
        k, l = self.n_upper, self.n_lower
        perm = list(range(k - 1, -1, -1)) + list(range(k + l - 1, k - 1, -1))
        lab = [self.labels[p] for p in perm]
        return Partition(conjugate(self.upper), conjugate(self.lower), lab)


def _trusted_partition(upper: str, lower: str, labels: tuple[int, ...]) -> Partition:
    """A Partition from labels already canonical and of the right length,
    without __post_init__, its attributes set in __init__'s order so that
    instances keep the shared-key attribute dict."""
    p = object.__new__(Partition)
    object.__setattr__(p, "upper", upper)
    object.__setattr__(p, "lower", lower)
    object.__setattr__(p, "labels", labels)
    return p


def _row_square(row: tuple[int, ...], through: set[int]) -> tuple[int, ...]:
    """Labels of r*r, given the labels of r's upper row and the labels of
    r's through-blocks (of rr*, given r's lower row).  The row's blocks sit
    on top and again below, where a block not in through is its own
    complement ~b and so a fresh block; the one relabel numbers both."""
    doubled = row + tuple([b if b in through else ~b for b in row])
    return _canonical_labels(doubled, range(len(doubled)))


# ---------------------------------------------------------------------------
# Constructors for common partitions


def identity(colors: str) -> Partition:
    """p_w for w = colors: each upper point joined to the lower point below it."""
    n = len(colors)
    return Partition(colors, colors, tuple(list(range(n)) * 2))


def duality(c1: str, c2: str) -> Partition:
    """D_{c1 c2}: two upper points in one block, no lower points."""
    if c1 == c2:
        raise InputError("duality partition needs two different colors")
    return Partition(c1 + c2, "", (0, 0))


def singleton() -> Partition:
    """s: one white lower point in its own block."""
    return Partition("", WHITE, (0,))


def one_block(upper: str, lower: str) -> Partition:
    """All points in a single block (p_3, p_4 and friends)."""
    n = len(upper) + len(lower)
    return Partition(upper, lower, (0,) * n)


# ---------------------------------------------------------------------------
# Enumeration


def _set_partitions(n: int) -> list[tuple[int, ...]]:
    """All set partitions of range(n) as canonical label tuples, in
    increasing order.  Point by point, each partition of the points so far
    is extended by every open block, then by a new one."""
    level = [((), 0)]  # (labels, number of blocks)
    for _ in range(n):
        level = [(t + (b,), m + (b == m)) for t, m in level for b in range(m + 1)]
    return [t for t, _ in level]


def enumerate_partitions(upper: str, lower: str):
    """All partitions with the given colored rows, sorted by labels."""
    for labels in _set_partitions(len(upper) + len(lower)):
        yield Partition(upper, lower, labels)


@lru_cache(maxsize=None)
def _noncrossing_shapes(n: int, sizes: frozenset, colors: str | None, rule=None):
    """Noncrossing partitions of n positions on a circle as circle
    readings: label tuples indexed by position, blocks numbered by first
    appearance, sorted, one table per key.

    Positions are visited in order with a stack of open blocks.  Each
    position opens a block or joins one on the stack; joining closes
    every block above it, since a later point of those would cross.  A
    block is pruned once it outgrows max(sizes) or closes with a size not
    in sizes.  With colors (the circular color word), the pair shapes of
    n positions that obey the unitary color rule (_alternates), filtered
    from the uncolored pair shapes.  With rule, only the shapes the rule
    accepts: a shape is a circle reading, which is what a rule reads.
    """
    if rule is not None:
        # the rule-free shapes under the key enumerate_noncrossing gives them
        return tuple(filter(rule, _noncrossing_shapes(n, sizes, colors, None)))
    if colors is not None:
        pairs = _noncrossing_shapes(n, frozenset({2}), None, None)
        whites = _whites(colors)
        return tuple(s for s in pairs if _alternates(s, whites))
    top = max(sizes, default=0)
    labels = [0] * n
    out = []

    def rec(i: int, opened: int, stack: tuple):
        if i == n:
            if all(s in sizes for _, s in stack):
                out.append(tuple(labels))
            return
        labels[i] = opened
        rec(i + 1, opened + 1, stack if top == 1 else stack + ((opened, 1),))
        for j in range(len(stack) - 1, -1, -1):
            b, s = stack[j]
            labels[i] = b
            rec(i + 1, opened, stack[:j] if s + 1 == top else stack[:j] + ((b, s + 1),))
            if s not in sizes:
                break  # joining further down would close this block

    rec(0, 0, ())
    return tuple(sorted(out))


def enumerate_noncrossing(
    upper: str, lower: str, block_sizes, colored: bool = False, rule=None
) -> list[Partition]:
    """The noncrossing partitions of the frame whose block sizes lie in
    block_sizes, sorted by labels.  With colored, the pair partitions
    obeying the unitary color rule: same color across the rows, different
    colors within a row.  With rule, only those whose circle reading
    (circle_reading) it accepts, decided once per circle shape, since the
    shape is that reading.  The rule must accept a shape exactly when it
    accepts the shape's reflections, as every named rule does on the point
    counts its category has.

    Built directly in the circular order rather than filtered from all
    set partitions.  Shapes are shared between frames with the same
    number of points; when colored, the pair shapes of that number are
    filtered by the color rule once per circular color word, and the
    frames of one word share the result.
    A frame with at most one lower point lists its points in the circular
    order, so its members are the sorted table of shapes itself.  One with
    at most one upper point lists them in a reflection of that order, so
    its members are the table of the reflected key: the same key when
    uncolored, else the reflected circular color word.  Either way the
    members share their label tuples with the table.  Every other frame
    cuts each shape by the one relabel, _canonical_labels, read in the
    frame's point order, and sorts the cuts.  The labels are canonical
    either way, so the Partitions are built by _trusted_partition.
    """
    k, l = len(upper), len(lower)
    # read in circular order with lower colors flipped, a pair obeys the
    # color rule exactly when its two colors differ
    colors = upper + conjugate(lower) if colored else None
    if k <= 1 < l and colored:
        # the point order reverses the circle (k = 0) or the circle after
        # its first position (k = 1)
        colors = colors[::-1] if k == 0 else colors[:1] + colors[:0:-1]
    shapes = _noncrossing_shapes(k + l, frozenset(block_sizes), colors, rule)
    if k > 1 and l > 1:
        order = circular_order(k, l)
        shapes = sorted([_canonical_labels(shape, order) for shape in shapes])
    return [_trusted_partition(upper, lower, labels) for labels in shapes]
