"""Modules of projective partitions: equivalence, domination, bounded
closure and classification against the named catalogs.

A module over a category C is a set of projective partitions closed under
tensor, conjugation (reverse) and r(.)r* for r in C.  Within a point bound
we compute closures using the equivalent characterization: closed under
tensor, reverse, equivalence saturation and downward domination.  The
r(.)r* form is checked separately as a property.

Everything here works relative to a PartitionUniverse, which materializes
the category up to a point bound once and precomputes projectives,
equivalence classes and domination edges.  r*r and rr* are read straight
off the labels of one row of r and of the blocks that also meet the other
row (Freslon-Weber, "On the representation theory of partition (easy)
quantum groups"), so the classes join r*r with rr* for every bounded
witness r without composing.  Domination composes only pairs that can
pass: a projective strictly below p has fewer through-blocks than p.  Closures
pair each new member only with members that fit under the bound, and
`distinct_generated_modules` grows each join from the larger module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .categories import CU, NC, NC2, NC12, NC12_PRIME, NC12_SHARP, NC_EVEN, NC_PRIME, CategorySpec
from .categories import all_members, contains, enumerate_members
from .errors import NoCatalogMatch, NotInCategory, TooLarge
from .partitions import Partition, UnionFind, _square_labels, identity, one_block, singleton
from .words import WHITE

EMPTY = Partition("", "", ())


class PartitionUniverse:
    """All members of a category with at most point_bound points, plus the
    derived projective structure."""

    def __init__(self, cat: CategorySpec, point_bound: int):
        self.cat = cat
        self.point_bound = point_bound
        self.members: list[Partition] = all_members(cat, point_bound)

    def normalize(self, p: Partition) -> Partition:
        """Uncolored categories are materialized on all-white frames, so
        results of color-flipping operations are recolored back."""
        if self.cat.colored:
            return p
        return Partition(WHITE * p.n_upper, WHITE * p.n_lower, p.labels)

    @cached_property
    def projectives(self) -> list[Partition]:
        return [p for p in self.members if p.is_projective()]

    @cached_property
    def equivalence_classes(self) -> list[frozenset[Partition]]:
        """Classes of ~ restricted to witnesses r in the category whose
        r*r and rr* stay within the point bound."""
        projectives = self.projectives
        # keyed by frame and labels, so that r*r and rr* need no Partition
        idx = {(p.upper, p.labels): i for i, p in enumerate(projectives)}
        uf = UnionFind(len(projectives))
        half = self.point_bound // 2
        for r in self.members:
            if r.n_upper > half or r.n_lower > half:
                continue
            rr, ss = _square_labels(r)
            i, j = idx.get((r.upper, rr)), idx.get((r.lower, ss))
            if i is not None and j is not None:
                uf.union(i, j)
        groups: dict[int, list[Partition]] = {}
        for i, p in enumerate(projectives):
            groups.setdefault(uf.find(i), []).append(p)
        return [frozenset(g) for g in groups.values()]

    @cached_property
    def class_of(self) -> dict[Partition, frozenset[Partition]]:
        return {p: cls for cls in self.equivalence_classes for p in cls}

    @cached_property
    def dominated_by(self) -> dict[Partition, frozenset[Partition]]:
        """For each projective p, all projectives q with q < p."""
        by_frame: dict[str, list[Partition]] = {}
        for p in self.projectives:
            by_frame.setdefault(p.upper, []).append(p)
        # p < p.  q = qp has at most p's through-blocks, and as many only
        # when q = p: distinct comparable idempotents of a finite semigroup
        # lie in different J-classes, and the J-classes of the partition
        # monoid are its through-block counts
        return {
            p: frozenset(
                q
                for q in by_frame[p.upper]
                if q is p or (q.n_through < p.n_through and dominated(q, p))
            )
            for p in self.projectives
        }


def _squares(r: Partition) -> tuple[Partition, Partition]:
    """(r*r, rr*)."""
    rr, ss = _square_labels(r)
    return Partition(r.upper, r.upper, rr), Partition(r.lower, r.lower, ss)


def dominated(q: Partition, p: Partition) -> bool:
    """q < p: both compositions of the projectives return q."""
    if q.upper != p.upper or q.lower != p.lower:
        return False
    return q.compose(p)[0] == q and p.compose(q)[0] == q


def equivalent(universe: PartitionUniverse, p: Partition, q: Partition):
    """Search for a witness r in the category with r*r = p and rr* = q.
    The witness frame is forced: upper = frame of p, lower = frame of q."""
    for r in enumerate_members(universe.cat, p.upper, q.upper):
        if _squares(r) == (p, q):
            return r
    return None


@dataclass(frozen=True)
class ProjectiveModule:
    members: frozenset[Partition]


def closure(universe: PartitionUniverse, gens) -> ProjectiveModule:
    """Least bounded fixpoint containing gens, closed under tensor,
    reverse, equivalence saturation and downward domination."""
    members = _close(universe, frozenset(), map(universe.normalize, gens))
    return ProjectiveModule(members)


def _close(universe: PartitionUniverse, closed: frozenset, gens) -> frozenset[Partition]:
    """The closure of closed | gens, where closed is already closed."""
    bound = universe.point_bound
    members = set(closed)
    by_points: list[list[Partition]] = [[] for _ in range(bound + 1)]
    for p in closed:
        by_points[p.n_points].append(p)
    queue: list[Partition] = []

    def add(p: Partition):
        # callers normalize: tensor, class and domination results already are
        if p.n_points > bound or p in members:
            return
        if p not in universe.class_of:
            raise NotInCategory(f"{p} is not a bounded projective of {universe.cat}")
        for q in universe.class_of[p]:
            if q not in members:
                members.add(q)
                by_points[q.n_points].append(q)
                queue.append(q)

    for g in gens:
        add(g)
    while queue:
        p = queue.pop()
        add(universe.normalize(p.reverse()))
        for q in universe.dominated_by[p]:
            add(q)
        # a bucket may grow while it is walked; its new members are
        # paired with p either way
        for bucket in by_points[: bound - p.n_points + 1]:
            for q in bucket:
                add(p.tensor(q))
                add(q.tensor(p))
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
    if cat in (NC12_PRIME, NC12_SHARP):
        return {"cap": [EMPTY], "proj0": [ss], "proj2": [two], "proj": [bar]}
    if cat is NC_EVEN:
        return {"proj0": [EMPTY], "proj_half": [p4], "proj2": [two], "proj": [bar]}
    if cat is NC:
        return {"proj0": [EMPTY], "proj": [bar]}
    if cat is NC_PRIME:
        # proj2 (the closure of the doubled strand) is a genuine fourth
        # module here: every partition in this category has an even total
        # number of points, so no operation can produce an odd-row
        # projective from even-row generators and the doubled strand can
        # never reach the single strand.
        return {"cap": [EMPTY], "proj0": [ss], "proj2": [two], "proj": [bar]}
    if cat is CU:
        raise NoCatalogMatch("the CU catalog is indexed by admissible word sets; use word_module")
    raise NoCatalogMatch(f"no catalog for {cat}")


def catalog(universe: PartitionUniverse) -> dict[str, ProjectiveModule]:
    return {
        name: closure(universe, gens)
        for name, gens in catalog_generators(universe.cat).items()
    }


def classify_module(universe: PartitionUniverse, gens) -> str:
    """Name of the unique catalog module matching closure(gens) within
    the bound."""
    target = closure(universe, gens)
    for name, mod in catalog(universe).items():
        if mod.members == target.members:
            return name
    raise NoCatalogMatch(
        f"closure of {sorted(map(str, gens))} matches no catalog entry of "
        f"{universe.cat} at bound {universe.point_bound}"
    )


def distinct_generated_modules(universe: PartitionUniverse) -> list[ProjectiveModule]:
    """All distinct closures of single projective generators, closed under
    pairwise joins.  One closure is computed per equivalence class since
    equivalent generators give the same module."""
    modules: dict[frozenset, ProjectiveModule] = {}
    for cls in universe.equivalence_classes:
        rep = next(iter(cls))
        mod = closure(universe, [rep])
        modules[mod.members] = mod
    changed = True
    while changed:
        changed = False
        mods = list(modules.values())
        for i, a in enumerate(mods):
            for b in mods[i + 1 :]:
                big, small = (a, b) if len(a.members) >= len(b.members) else (b, a)
                join = _close(universe, big.members, small.members - big.members)
                if join not in modules:
                    modules[join] = ProjectiveModule(join)
                    changed = True
    return list(modules.values())


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
