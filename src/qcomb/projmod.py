"""Modules of projective partitions: equivalence, domination, bounded
closure and classification against the named catalogs.

A module over a category C is a set of projective partitions closed under
tensor, conjugation (reverse) and r(.)r* for r in C.  Within a point bound
we compute closures using the equivalent characterization: closed under
tensor, reverse, equivalence saturation and downward domination.
`test_closure_matches_the_literal_module_definition` checks it against
the literal definition, with r ranging over every bounded witness.

A PartitionUniverse walks no diagram of the category.  A projective of
P(w, w) is its row's partition plus a set of through-blocks
(Freslon-Weber, "On the representation theory of partition (easy)
quantum groups"), so the universe reads the bounded projectives off the
rows of at most point_bound // 2 points.  It lists the projectives below
each projective p off p's labels: each grouping of p's through-blocks,
with some groups made through-blocks, names one candidate, and a
candidate that is no projective of the category is not in the index.
In a noncrossing category the witness r of p ~ q (r*r = p, rr* = q) is
unique: `glue(p, q)`, p's row over q's with the through-blocks joined
left to right, as two of them cannot cross.  Witnesses compose: for
witnesses r of p ~ q and u of q ~ s, ur is in C with (ur)*(ur) = p and
(ur)(ur)* = s on a frame within the half bound, so ur = glue(p, s) and
one representative per class decides.

Everything but the classes depends only on the block sizes up to the
bound, the rule and the coloring, since P(w, w) always has an even
number of points and a parity rule cannot tell its projectives apart.
So the projectives, their index, domination, reverses, point counts and
tensors live in one `_Kernel` per such key, cached at module level as
`categories._candidates` caches frames: NCprime reads NCall's kernel and
NC12prime reads NC12's.  The classes stay per universe, because a glue
witness may have an odd number of points.  Closures run on projective
numbers, forming each tensor pair once per kernel; Partitions come back
only in the returned modules.  The closure of generators in one class
is the closure of that class, which each universe computes once, so
`distinct_generated_modules` reads the closures `catalog` made.
`members`, every member within the bound, is built only when read.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from typing import NamedTuple

from .categories import CU, NC, NC2, NC12, NC12_PRIME, NC12_SHARP, NC_EVEN, NC_PRIME, CategorySpec
from .categories import all_members, contains
from .errors import NoCatalogMatch, NotInCategory, TooLarge
from .partitions import Partition, _row_square, _set_partitions, _trusted_partition
from .partitions import enumerate_noncrossing, identity, one_block, singleton
from .words import WHITE, all_words

EMPTY = Partition("", "", ())


class PartitionUniverse:
    """The projectives of a category with at most point_bound // 2 points
    in each row, numbered row by row (shortest first, each sorted by
    labels), and their classes, domination, reverses and tensors.  All but
    the classes live in the category's _Kernel, which the universes of one
    set of projectives share."""

    def __init__(self, cat: CategorySpec, point_bound: int):
        self.cat = cat
        self.point_bound = point_bound
        sizes = tuple(s for s in range(1, point_bound + 1) if cat.block_size(s))
        self._kernel = _kernel(sizes, cat.rule, cat.colored, point_bound)
        self._closures: dict[frozenset[int], frozenset[int]] = {}

    @cached_property
    def members(self) -> list[Partition]:
        """Every member with at most point_bound points."""
        return all_members(self.cat, self.point_bound)

    def normalize(self, p: Partition) -> Partition:
        """Uncolored categories are materialized on all-white frames, so
        results of color-flipping operations are recolored back."""
        return _normalize(self.cat, p)

    @property
    def projectives(self) -> list[Partition]:
        return self._kernel.projectives

    @cached_property
    def equivalence_classes(self) -> list[frozenset[int]]:
        """Classes of ~ as sets of projective numbers, by the witnesses whose
        rows fit half the point bound: a projective joins the first class of
        its through count whose first member glues to it in the category."""
        reps: dict[int, list[tuple[Partition, list[int]]]] = {}
        classes: list[list[int]] = []
        for i, p in enumerate(self.projectives):
            same = reps.setdefault(p.n_through, [])
            for rep, members in same:
                if contains(self.cat, glue(rep, p)):
                    members.append(i)
                    break
            else:
                classes.append([i])
                same.append((p, classes[-1]))
        return [frozenset(members) for members in classes]

    @cached_property
    def dominated_by(self) -> list[tuple[int, ...]]:
        """For each projective p, the numbers of all projectives q < p
        (_Kernel.dominated_by)."""
        return self._kernel.dominated_by

    @cached_property
    def _class_of(self) -> list[frozenset[int]]:
        of = {i: cls for cls in self.equivalence_classes for i in cls}
        return [of[i] for i in range(len(of))]

    def _class_closure(self, cls: frozenset[int]) -> frozenset[int]:
        """The closure of one class, computed once per universe: the
        closure of any generators in that class."""
        if cls not in self._closures:
            self._closures[cls] = _close(self, frozenset(), cls)
        return self._closures[cls]

    def _module(self, ids) -> ProjectiveModule:
        return ProjectiveModule(frozenset(self.projectives[i] for i in ids))


def _normalize(cat: CategorySpec, p: Partition) -> Partition:
    if cat.colored:
        return p
    return Partition(WHITE * p.n_upper, WHITE * p.n_lower, p.labels)


class _Kernel:
    """What decides the bounded projectives of a category and all but its
    classes: its block sizes up to the bound, its rule and whether it is
    colored.  P(w, w) always has an even number of points, so a parity
    rule makes no difference: NCprime shares NCall's kernel and NC12prime
    NC12's.  Holds the projectives, their index, domination, reverses,
    point counts and tensors, each built when first read."""

    def __init__(self, cat: CategorySpec, point_bound: int):
        self.cat = cat
        self.point_bound = point_bound
        self._tensors: dict[tuple[int, int], int] = {}

    @cached_property
    def projectives(self) -> list[Partition]:
        half = self.point_bound // 2
        rows = all_words(half) if self.cat.colored else (WHITE * n for n in range(half + 1))
        return [p for row in rows for p in _row_projectives(self.cat, row)]

    @cached_property
    def index(self) -> dict[tuple[str, tuple[int, ...]], int]:
        """Projective numbers by frame and labels, for tensors, reverses and generators."""
        return {(p.upper, p.labels): i for i, p in enumerate(self.projectives)}

    @cached_property
    def dominated_by(self) -> list[tuple[int, ...]]:
        """For each projective p, the numbers of all projectives q < p.
        As qp = q = pq, q's upper row merges only p's through-blocks into
        groups, and q's through-blocks are some of those groups: each
        grouping of p's through-blocks, relabeled to its first block,
        with each choice of through groups the block sizes allow, is
        looked up among the projectives."""
        size, out = self.cat.block_size, []
        for p in self.projectives:
            row = p.labels[: p.n_upper]
            through = sorted(set(row).intersection(p.labels[p.n_upper :]))
            below = []
            for grouping in _set_partitions(len(through)):
                first = {b: through[grouping.index(g)] for b, g in zip(through, grouping)}
                merged = tuple(first.get(b, b) for b in row)
                groups = sorted(set(first.values()))
                kinds = [[t for t in (False, True) if size(merged.count(b) * (1 + t))] for b in groups]
                for choice in product(*kinds):
                    chosen = {b for b, t in zip(groups, choice) if t}
                    j = self.index.get((p.upper, _row_square(merged, chosen)))
                    if j is not None:
                        below.append(j)
            out.append(tuple(sorted(below)))
        return out

    @cached_property
    def reverse(self) -> list[int]:
        reverses = (_normalize(self.cat, p.reverse()) for p in self.projectives)
        return [self.index[(q.upper, q.labels)] for q in reverses]

    @cached_property
    def points(self) -> list[int]:
        return [p.n_points for p in self.projectives]

    def tensor(self, i: int, j: int) -> int:
        """The number of projective i tensor projective j, within the bound."""
        if (i, j) not in self._tensors:
            p = self.projectives[i].tensor(self.projectives[j])
            self._tensors[i, j] = self.index[(p.upper, p.labels)]
        return self._tensors[i, j]


@lru_cache(maxsize=None)
def _kernel(sizes: tuple, rule, colored: bool, point_bound: int) -> _Kernel:
    """The one kernel of the categories with these block sizes up to the
    bound, rule and coloring, as categories._candidates shares frames."""
    return _Kernel(CategorySpec("", frozenset(sizes).__contains__, rule, colored), point_bound)


def _row_projectives(cat: CategorySpec, row: str) -> list[Partition]:
    """The projectives of P(row, row) in the category, sorted by labels:
    each noncrossing partition of the row with each set of its blocks made
    through-blocks.  A block of s points appears twice, as two blocks of
    s points, unless it is a through-block of 2s points."""
    sizes = [s for s in range(1, len(row) + 1) if cat.block_size(s) or cat.block_size(2 * s)]
    out = []
    for part in enumerate_noncrossing(row, "", sizes):
        kinds = [[t for t in (False, True) if cat.block_size(len(blk) * (1 + t))] for blk in part.blocks]
        for choice in product(*kinds):
            through = {b for b, t in enumerate(choice) if t}
            p = _trusted_partition(row, row, _row_square(part.labels, through))
            if contains(cat, p):
                out.append(p)
    out.sort(key=lambda p: p.labels)
    return out


def glue(p: Partition, q: Partition) -> Partition:
    """The only noncrossing r with r*r = p and rr* = q, for projectives
    with equally many through-blocks: p's upper row over q's, with their
    through-blocks joined left to right."""
    joined = {q.labels[c[0]]: p.labels[b[0]] for b, c in zip(p.through_blocks, q.through_blocks)}
    lower = [joined.get(b, b + p.n_blocks) for b in q.labels[: q.n_upper]]
    return Partition(p.upper, q.upper, p.labels[: p.n_upper] + tuple(lower))


class ProjectiveModule(NamedTuple):
    members: frozenset[Partition]


def closure(universe: PartitionUniverse, gens) -> ProjectiveModule:
    """Least bounded fixpoint containing gens, closed under tensor,
    reverse, equivalence saturation and downward domination.  Generators
    over the bound are dropped."""
    gens = [g for g in map(universe.normalize, gens) if g.n_points <= universe.point_bound]
    index = universe._kernel.index
    ids = [index.get((g.upper, g.labels)) if g.lower == g.upper else None for g in gens]
    if None in ids:
        bad = gens[ids.index(None)]
        raise NotInCategory(f"{bad} is not a bounded projective of {universe.cat}")
    classes = {universe._class_of[i] for i in ids}
    if len(classes) == 1:
        return universe._module(universe._class_closure(classes.pop()))
    return universe._module(_close(universe, frozenset(), ids))


def _close(universe: PartitionUniverse, closed: frozenset[int], gens) -> frozenset[int]:
    """The closure of closed | gens, as projective numbers, where closed
    is already closed."""
    bound, kernel = universe.point_bound, universe._kernel
    points, class_of = kernel.points, universe._class_of
    reverse, dominated_by, tensor = kernel.reverse, universe.dominated_by, kernel.tensor
    members = set(closed)
    by_points: list[list[int]] = [[] for _ in range(bound + 1)]
    for i in closed:
        by_points[points[i]].append(i)
    queue: list[int] = []

    def add(i: int):
        if i in members:
            return
        for j in class_of[i]:
            if j not in members:
                members.add(j)
                by_points[points[j]].append(j)
                queue.append(j)

    for g in gens:
        add(g)
    while queue:
        i = queue.pop()
        add(reverse[i])
        for j in dominated_by[i]:
            add(j)
        # a bucket may grow while it is walked; its new members are
        # paired with i either way
        for bucket in by_points[: bound - points[i] + 1]:
            for j in bucket:
                add(tensor(i, j))
                add(tensor(j, i))
    return frozenset(members)


# ---------------------------------------------------------------------------
# Catalog


def catalog_generators(cat: CategorySpec) -> dict[str, list[Partition]]:
    """Named generating sets for the known module catalogs.

    proj0 is generated by the empty partition together with ss* where the
    category has singletons; proj2 by the doubled identity strand; proj
    by the identity; the NCeven extra entry by the one-block square;
    the cap module by the empty partition alone.
    """
    bar = identity(WHITE)
    two = bar.tensor(bar)
    ss = singleton().compose(singleton().adjoint())[0]  # s s* in P(1,1)
    p4 = one_block(WHITE * 2, WHITE * 2)
    if cat in (NC2, NC12):
        return {"proj0": [EMPTY], "proj2": [two], "proj": [bar]}
    if cat in (NC12_PRIME, NC12_SHARP, NC_PRIME):
        # in NCprime, proj2 (the closure of the doubled strand) is a
        # genuine fourth module: every partition in this category has an
        # even total number of points, so no operation can produce an
        # odd-row projective from even-row generators and the doubled
        # strand can never reach the single strand.
        return {"cap": [EMPTY], "proj0": [ss], "proj2": [two], "proj": [bar]}
    if cat is NC_EVEN:
        return {"proj0": [EMPTY], "proj_half": [p4], "proj2": [two], "proj": [bar]}
    if cat is NC:
        return {"proj0": [EMPTY], "proj": [bar]}
    if cat is CU:
        raise NoCatalogMatch("the CU catalog is indexed by admissible word sets; use word_module")
    raise NoCatalogMatch(f"no catalog for {cat}")


def catalog(universe: PartitionUniverse) -> dict[str, ProjectiveModule]:
    return {
        name: closure(universe, gens)
        for name, gens in catalog_generators(universe.cat).items()
    }


def distinct_generated_modules(universe: PartitionUniverse) -> list[ProjectiveModule]:
    """All distinct closures of single projective generators, closed under
    pairwise joins.  Equivalent generators give the same module, so each
    class's closure is read from the universe's memo, where catalog's
    closures already are.

    Joins go round by round, each new module listed after those before
    it; a round joins only the pairs with a module new in the last round,
    as the joins of earlier pairs are listed already, and skips a pair
    whose smaller module lies in the bigger, which is their join."""
    modules = dict.fromkeys(map(universe._class_closure, universe.equivalence_classes))
    joined = 0  # every pair among the first `joined` modules is joined
    while joined < len(modules):
        mods = list(modules)
        for i, a in enumerate(mods):
            for b in mods[max(i + 1, joined) :]:
                big, small = (a, b) if len(a) >= len(b) else (b, a)
                if not small <= big:
                    modules.setdefault(_close(universe, big, small - big))
        joined = len(mods)
    return [universe._module(m) for m in modules]


# ---------------------------------------------------------------------------
# CU: word modules


def through_word_module(mod: ProjectiveModule) -> frozenset[str]:
    return frozenset(through_word(p) for p in mod.members)


def through_word(p: Partition) -> str:
    """The word read off the through-blocks of a CU projective."""
    if not contains(CU, p):
        raise NotInCategory("not a CU partition")
    return "".join(p.upper[blk[0]] for blk in p.through_blocks)


def word_module(universe: PartitionUniverse, w: str) -> ProjectiveModule:
    """Module generated by the strand partition p_w over CU.  A p_w over
    the bound raises: closure would drop it and return a module that
    misses its bounded members."""
    if 2 * len(w) > universe.point_bound:
        raise TooLarge(f"p_{w} has {2 * len(w)} > {universe.point_bound} points")
    return closure(universe, [identity(w)])
