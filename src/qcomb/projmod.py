"""Modules of projective partitions: equivalence, domination, bounded
closure and classification against the named catalogs.

A module over a category C is a set of projective partitions closed under
tensor, conjugation (reverse) and r(.)r* for r in C.  Within a point bound
we compute closures using the equivalent characterization: closed under
tensor, reverse, equivalence saturation and downward domination.  The
r(.)r* form is checked separately as a property.

Everything here works relative to a PartitionUniverse, which materializes
the category up to a point bound once and precomputes projectives,
equivalence classes (a union-find sweep over all bounded witnesses
r -> (r*r, rr*)) and domination edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .categories import CU, NC, NC2, NC12, NC12_PRIME, NC12_SHARP, NC_EVEN, NC_PRIME, CategorySpec
from .categories import all_members, contains, enumerate_members
from .errors import NoCatalogMatch, NotInCategory
from .partitions import Partition, UnionFind, identity, one_block, singleton, word_partition
from .words import WHITE

EMPTY = Partition("", "", ())


class PartitionUniverse:
    """All members of a category with at most point_bound points, plus the
    derived projective structure."""

    def __init__(self, cat: CategorySpec, point_bound: int):
        self.cat = cat
        self.point_bound = point_bound
        self.members: list[Partition] = all_members(cat, point_bound)
        self.member_set = frozenset(self.members)

    def normalize(self, p: Partition) -> Partition:
        """Uncolored categories are materialized on all-white frames, so
        results of color-flipping operations are recolored back."""
        if self.cat.colored:
            return p
        return Partition(WHITE * p.n_upper, WHITE * p.n_lower, p.labels)

    @cached_property
    def projectives(self) -> list[Partition]:
        return [p for p in self.members if p.upper == p.lower and p.is_projective()]

    @cached_property
    def _proj_index(self) -> dict[Partition, int]:
        return {p: i for i, p in enumerate(self.projectives)}

    @cached_property
    def equivalence_classes(self) -> list[frozenset[Partition]]:
        """Classes of ~ restricted to witnesses r in the category whose
        r*r and rr* stay within the point bound."""
        idx = self._proj_index
        uf = UnionFind(len(self.projectives))
        half = self.point_bound // 2
        for r in self.members:
            if r.n_upper > half or r.n_lower > half:
                continue
            p = r.adjoint().compose(r)[0]
            q = r.compose(r.adjoint())[0]
            if p in idx and q in idx:
                uf.union(idx[p], idx[q])
        groups: dict[int, list[Partition]] = {}
        for p, i in idx.items():
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
        return {
            p: frozenset(q for q in by_frame[p.upper] if dominated(q, p))
            for p in self.projectives
        }


def dominated(q: Partition, p: Partition) -> bool:
    """q < p: both compositions of the projectives return q."""
    if q.upper != p.upper or q.lower != p.lower:
        return False
    return q.compose(p)[0] == q and p.compose(q)[0] == q


def equivalent(universe: PartitionUniverse, p: Partition, q: Partition):
    """Search for a witness r in the category with r*r = p and rr* = q.
    The witness frame is forced: upper = frame of p, lower = frame of q."""
    for r in enumerate_members(universe.cat, p.upper, q.upper):
        if r.adjoint().compose(r)[0] == p and r.compose(r.adjoint())[0] == q:
            return r
    return None


@dataclass(frozen=True)
class ProjectiveModule:
    cat_name: str
    point_bound: int
    members: frozenset[Partition]
    name: str = ""

    def __contains__(self, p: Partition) -> bool:
        return p in self.members


def closure(universe: PartitionUniverse, gens, name: str = "") -> ProjectiveModule:
    """Least bounded fixpoint containing gens, closed under tensor,
    reverse, equivalence saturation and downward domination."""
    members: set[Partition] = set()
    queue: list[Partition] = []

    def add(p: Partition):
        p = universe.normalize(p)
        if p.n_points > universe.point_bound or p in members:
            return
        if p not in universe.class_of:
            raise NotInCategory(f"{p} is not a bounded projective of {universe.cat}")
        for q in universe.class_of[p]:
            if q not in members:
                members.add(q)
                queue.append(q)

    for g in gens:
        add(g)
    while queue:
        p = queue.pop()
        add(p.reverse())
        for q in universe.dominated_by[p]:
            add(q)
        for q in list(members):
            if p.n_points + q.n_points <= universe.point_bound:
                add(p.tensor(q))
                add(q.tensor(p))
    return ProjectiveModule(universe.cat.name, universe.point_bound, frozenset(members), name)


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
        raise ValueError("the CU catalog is indexed by admissible word sets; use word_module")
    raise ValueError(f"no catalog for {cat}")


def catalog(universe: PartitionUniverse) -> dict[str, ProjectiveModule]:
    return {
        name: closure(universe, gens, name)
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
                join = closure(universe, list(a.members | b.members))
                if join.members not in modules:
                    modules[join.members] = join
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
    """Module generated by the strand partition p_w over CU."""
    return closure(universe, [word_partition(w)], name=f"<p_{w or 'e'}>")
