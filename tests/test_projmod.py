"""Projective diagrams, equivalence, domination and module closures."""

from itertools import groupby

import pytest

from qcomb import projmod, words
from qcomb import categories
from qcomb.categories import CU, NAMED, NC2, NC_PRIME, all_members, contains, enumerate_members
from qcomb.errors import NotInCategory, TooLarge
from qcomb.partitions import (
    Partition,
    UnionFind,
    _row_square,
    circle_reading,
    duality,
    enumerate_noncrossing,
    enumerate_partitions,
    identity,
)
from qcomb.projmod import (
    PartitionUniverse,
    catalog,
    catalog_generators,
    closure,
    distinct_generated_modules,
    glue,
    through_word,
    through_word_module,
    word_module,
)
from qcomb.words import WHITE, all_words

EMPTY = Partition("", "", ())
BAR = identity("o")
TWO = identity("oo")
CUPCAP = duality("o", "x").adjoint().compose(duality("o", "x"))[0]


def universe(name, bound=6):
    return PartitionUniverse(NAMED[name], bound)


def test_domination_is_two_sided_absorption():
    assert oracle_dominated(CUPCAP, identity("ox"))
    assert not oracle_dominated(identity("ox"), CUPCAP)
    assert oracle_dominated(CUPCAP, CUPCAP)
    # different frames never dominate
    assert not oracle_dominated(EMPTY, BAR)


def test_equivalence_witness_links_the_empty_diagram_to_the_nested_pair():
    r = glue(EMPTY, CUPCAP)
    assert contains(NC2, r)
    # the witness conjugates one projective into the other
    assert r.adjoint().compose(r)[0] == EMPTY
    assert r.compose(r.adjoint())[0] == CUPCAP


def test_no_equivalence_across_row_parity_in_the_odd_block_parity_category():
    # the only candidate witness is the lone singleton, an odd block
    r = glue(Partition("o", "o", (0, 1)), EMPTY)
    assert r == Partition("o", "", (0,))
    assert not contains(NC_PRIME, r)


def test_closures_contain_their_generators_and_only_projectives():
    # members are stored in the all-white color normalization
    nested = Partition("oo", "oo", (0, 0, 1, 1))
    u = universe("NC2")
    m = closure(u, [nested])
    assert nested in m.members
    for p in m.members:
        assert p.upper == p.lower
        assert p.adjoint() == p
        assert p.compose(p)[0] == p


def test_closure_drops_over_bound_generators_and_rejects_the_rest_outside_the_universe():
    assert closure(universe("NC2", 2), [TWO]).members == frozenset()
    for name, bad in [
        ("NC2", Partition("o", "o", (0, 1))),  # s s*, singletons are not in NC2
        ("NC2", duality("o", "x")),  # not projective
        ("CU", Partition("o", "x", (0, 0))),  # the labels and upper row of p_o
    ]:
        with pytest.raises(NotInCategory, match="is not a bounded projective"):
            closure(universe(name, 2), [BAR, bad])


def test_catalog_names_and_sizes_at_bound_six():
    assert {k: len(v.members) for k, v in catalog(universe("NC2")).items()} == {
        "proj0": 2,
        "proj2": 3,
        "proj": 7,
    }
    assert {k: len(v.members) for k, v in catalog(universe("NCall")).items()} == {
        "proj0": 9,
        "proj": 29,
    }
    assert set(catalog(universe("NCeven"))) == {"proj0", "proj_half", "proj2", "proj"}
    assert set(catalog(universe("NCprime"))) == {"cap", "proj0", "proj2", "proj"}


def test_fork_witness_collapses_the_two_strand_module_onto_the_full_one():
    # with singletons allowed, the strand-plus-singleton diagram conjugates
    # the single strand into a projective dominated by the doubled strand,
    # so the closure of the doubled strand absorbs the full module
    u = universe("NC12")
    fork = Partition("o", "oo", (0, 0, 1))
    rr = fork.compose(fork.adjoint())[0]
    assert fork.adjoint().compose(fork)[0] == BAR
    assert oracle_dominated(rr, TWO)
    proj2 = closure(u, [TWO])
    proj = closure(u, [BAR])
    assert proj2.members == proj.members


def test_row_parity_separates_modules_when_singletons_come_in_pairs():
    u = universe("NCprime")
    proj2 = closure(u, [TWO])
    assert all(len(p.upper) % 2 == 0 for p in proj2.members)
    assert BAR not in proj2.members
    assert BAR in closure(u, [BAR]).members


@pytest.mark.parametrize("name", ["NC2", "NCall", "NCprime"])
def test_catalog_modules_are_stable_under_sandwiching(name):
    u = universe(name)
    for mod in catalog(u).values():
        for p in mod.members:
            for q in mod.members:
                if p.upper != q.upper:
                    continue
                s = q.compose(p.compose(q)[0])[0]
                assert s.adjoint() == s
                assert s.compose(s)[0] == s
                assert s in mod.members


def test_through_words_read_off_the_propagating_strands():
    assert through_word(identity("ox")) == "ox"
    assert through_word(CUPCAP) == ""
    assert through_word(EMPTY) == ""


def test_word_modules_in_the_unitary_category_recover_generated_word_sets():
    u = PartitionUniverse(CU, 6)
    for w in ("", "ox"):
        mod = word_module(u, w)
        assert through_word_module(mod) == words.generate([w], 3).members


# ---------------------------------------------------------------------------
# Differential oracle: the module kernel that builds r*r and rr* by
# composition, compares every pair of projectives on a frame, and closes
# each join from scratch, walking every member for tensor partners


def even_odd_block_count(p):
    return sum(len(b) % 2 for b in p.blocks) % 2 == 0


def even_singleton_count(p):
    return sum(len(b) == 1 for b in p.blocks) % 2 == 0


# the rules as written, each read on every member of every frame
LITERAL_RULES = {
    "NC12prime": even_singleton_count,
    "NC12sharp": lambda p: even_singleton_count(p) and categories._sharp_ok(circle_reading(p)),
    "NCprime": even_odd_block_count,
}


def oracle_members(cat, bound):
    """Every member up to the bound, frame by frame in the order of
    all_members, each frame enumerated for this category alone, with the
    parity rules counting the singletons or the odd blocks."""
    if cat.colored:
        rows = [list(ws) for _, ws in groupby(all_words(bound), len)]
    else:
        rows = [[WHITE * n] for n in range(bound + 1)]
    rule = LITERAL_RULES.get(cat.name)
    out = []
    for k in range(bound + 1):
        for l in range(bound + 1 - k):
            for up in rows[k]:
                for lo in rows[l]:
                    n = k + l
                    sizes = {s for s in range(1, n + 1) if cat.block_size(s)}
                    out.extend(
                        p
                        for p in enumerate_noncrossing(up, lo, sizes, colored=cat.colored)
                        if rule is None or rule(p)
                    )
    return out


def oracle_dominated(q, p):
    if q.upper != p.upper or q.lower != p.lower:
        return False
    return q.compose(p)[0] == q and p.compose(q)[0] == q


class OracleUniverse:
    def __init__(self, cat, point_bound):
        self.cat = cat
        self.point_bound = point_bound
        self.members = oracle_members(cat, point_bound)
        # p is projective when p* = p and pp = p, checked by composing
        self.projectives = [
            p
            for p in self.members
            if p.upper == p.lower and p.adjoint() == p and p.compose(p)[0] == p
        ]
        idx = {p: i for i, p in enumerate(self.projectives)}
        uf = UnionFind(len(self.projectives))
        half = point_bound // 2
        for r in self.members:
            if r.n_upper > half or r.n_lower > half:
                continue
            p = r.adjoint().compose(r)[0]
            q = r.compose(r.adjoint())[0]
            if p in idx and q in idx:
                uf.union(idx[p], idx[q])
        groups = {}
        for p, i in idx.items():
            groups.setdefault(uf.find(i), []).append(p)
        self.equivalence_classes = [frozenset(g) for g in groups.values()]
        self.class_of = {p: cls for cls in self.equivalence_classes for p in cls}
        by_frame = {}
        for p in self.projectives:
            by_frame.setdefault(p.upper, []).append(p)
        self.dominated_by = {
            p: frozenset(q for q in by_frame[p.upper] if oracle_dominated(q, p))
            for p in self.projectives
        }

    def normalize(self, p):
        if self.cat.colored:
            return p
        return Partition(WHITE * p.n_upper, WHITE * p.n_lower, p.labels)


def oracle_closure(universe, gens):
    members = set()
    queue = []

    def add(p):
        p = universe.normalize(p)
        if p.n_points > universe.point_bound or p in members:
            return
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
    return frozenset(members)


def oracle_distinct_modules(universe):
    """Member sets in the order distinct_generated_modules lists them."""
    modules = {}
    for cls in universe.equivalence_classes:
        modules[oracle_closure(universe, [next(iter(cls))])] = None
    changed = True
    while changed:
        changed = False
        mods = list(modules)
        for i, a in enumerate(mods):
            for b in mods[i + 1 :]:
                join = oracle_closure(universe, list(a | b))
                if join not in modules:
                    modules[join] = None
                    changed = True
    return list(modules)


def assert_universe_matches_oracle(u, old):
    assert u.members == old.members
    ps = u.projectives
    assert ps == old.projectives
    assert [frozenset(ps[i] for i in c) for c in u.equivalence_classes] == old.equivalence_classes
    assert {ps[i]: frozenset(ps[j] for j in js) for i, js in enumerate(u.dominated_by)} == (
        old.dominated_by
    )


UNCOLORED = ["NC2", "NC12", "NC12prime", "NC12sharp", "NCeven", "NCall", "NCprime"]


@pytest.mark.parametrize("bound", range(9))
@pytest.mark.parametrize("name", UNCOLORED)
def test_module_kernel_matches_the_composing_oracle(name, bound):
    u = PartitionUniverse(NAMED[name], bound)
    old = OracleUniverse(NAMED[name], bound)
    assert_universe_matches_oracle(u, old)
    mods = catalog(u)
    for key, gens in catalog_generators(u.cat).items():
        assert mods[key].members == oracle_closure(old, gens)
    assert [m.members for m in distinct_generated_modules(u)] == oracle_distinct_modules(old)


def round_by_round_modules(u):
    """Member sets in the order distinct_generated_modules lists them,
    joining every pair of modules in each round, by the kernel's closure."""
    modules = dict.fromkeys(projmod._close(u, frozenset(), cls) for cls in u.equivalence_classes)
    changed = True
    while changed:
        changed = False
        mods = list(modules)
        for i, a in enumerate(mods):
            for b in mods[i + 1 :]:
                join = projmod._close(u, a, b - a)
                if join not in modules:
                    modules[join] = None
                    changed = True
    return [u._module(m).members for m in modules]


@pytest.mark.parametrize("bound", range(9))
def test_unitary_distinct_modules_keep_the_round_by_round_order(bound):
    u = PartitionUniverse(CU, bound)
    assert [m.members for m in distinct_generated_modules(u)] == round_by_round_modules(u)


@pytest.mark.parametrize("bound", [4, 6, 8])
def test_unitary_word_modules_match_the_composing_oracle(bound):
    u = PartitionUniverse(CU, bound)
    old = OracleUniverse(CU, bound)
    assert_universe_matches_oracle(u, old)
    for w in ("", "ox", "ooxx", "o", "x", "oxxo", "ooxxo"):
        if 2 * len(w) > bound:
            # closure drops an over-bound generator, so the module would be empty
            with pytest.raises(TooLarge, match=f"p_{w} has {2 * len(w)} > {bound} points"):
                word_module(u, w)
        else:
            assert word_module(u, w).members == oracle_closure(old, [identity(w)])


def test_squares_read_off_the_labels_equal_the_compositions():
    # the labels of r*r and rr* read off r, and r read back off them: the
    # witness of p ~ q is unique in a noncrossing category
    for cat in NAMED.values():
        for r in all_members(cat, 6):
            rr, ss = r.adjoint().compose(r)[0], r.compose(r.adjoint())[0]
            assert square_labels(r) == (rr.labels, ss.labels)
            assert glue(rr, ss) == r, str(r)


@pytest.mark.parametrize("name", ["NCall", "NCprime"])
def test_a_dominated_projective_has_fewer_through_blocks(name):
    old = OracleUniverse(NAMED[name], 8)
    pairs = [(q, p) for p, qs in old.dominated_by.items() for q in qs if q != p]
    assert pairs
    for q, p in pairs:
        assert q.n_through < p.n_through


def upper_and_through(p):
    """The labels of p's upper row and those of its through-blocks."""
    upper = p.labels[: p.n_upper]
    return upper, frozenset(upper).intersection(p.labels[p.n_upper :])


def label_below(q, p) -> bool:
    """q < p for projectives of one frame given by `upper_and_through`:
    each block of p's upper row lies in one of q's, a block of q's upper
    row holding two or more of p's holds only through-blocks of p, and
    each through-block of q contains one of p (qp = q; its adjoint is pq = q)."""
    (q_upper, q_through), (p_upper, p_through) = q, p
    block_of = {}  # p's upper-row blocks to q's
    parts = {}  # q's upper-row blocks to p's
    for a, b in zip(q_upper, p_upper):
        if block_of.setdefault(b, a) != a:
            return False
        parts.setdefault(a, set()).add(b)
    return all(
        (len(bs) == 1 or bs <= p_through) and (a not in q_through or not p_through.isdisjoint(bs))
        for a, bs in parts.items()
    )


def test_label_read_domination_matches_composition_on_the_partition_monoid():
    # every projective of P(w, w), crossing ones included: the rule reads
    # only the upper-row labels and the through-blocks
    pairs = dominated = 0
    for w in ["", "o", "oo", "ox", "ooo", "oxo", "oooo", "oxox"]:
        ps = [p for p in enumerate_partitions(w, w) if p.adjoint() == p and p.compose(p)[0] == p]
        rows = [upper_and_through(p) for p in ps]
        for q, q_row in zip(ps, rows):
            for p, p_row in zip(ps, rows):
                below = oracle_dominated(q, p)
                assert label_below(q_row, p_row) == below, (str(q), str(p))
                pairs += 1
                dominated += below
    assert (pairs, dominated) == (18717, 1376)


@pytest.mark.parametrize(
    "name, bound",
    [(name, bound) for name in NAMED for bound in range(11)] + [("NCall", 12), ("NCprime", 12)],
)
def test_generated_domination_matches_the_label_pair_test(name, bound):
    # every ordered pair of projectives of one frame, with no through-count
    # prune, against the projectives listed below each one from its labels
    u = PartitionUniverse(NAMED[name], bound)
    rows = [upper_and_through(p) for p in u.projectives]
    by_frame = {}
    for i, p in enumerate(u.projectives):
        by_frame.setdefault(p.upper, []).append(i)
    expected = [
        tuple(j for j in by_frame[p.upper] if label_below(rows[j], rows[i]))
        for i, p in enumerate(u.projectives)
    ]
    assert u.dominated_by == expected


# ---------------------------------------------------------------------------
# The module definition itself: the least bounded set of projectives closed
# under tensor, reverse and r p r* for every bounded witness r


def half_members(cat, bound):
    """all_members(cat, bound) filtered to rows of at most bound // 2
    points, in the same order, enumerating only those frames."""
    half = bound // 2
    if cat.colored:
        rows = [list(ws) for _, ws in groupby(all_words(half), len)]
    else:
        rows = [[WHITE * n] for n in range(half + 1)]
    return [
        r
        for k in range(half + 1)
        for l in range(half + 1)
        for up in rows[k]
        for lo in rows[l]
        for r in enumerate_members(cat, up, lo)
    ]


class LiteralModules:
    def __init__(self, universe):
        self.universe = universe
        self.witnesses = {}
        for r in half_members(universe.cat, universe.point_bound):
            self.witnesses.setdefault(r.upper, []).append((r, r.adjoint()))
        self.sandwiched = {}

    def sandwiches(self, p):
        """r p r* for every witness r whose upper row is p's frame."""
        if p not in self.sandwiched:
            self.sandwiched[p] = [
                r.compose(p.compose(r_adj)[0])[0] for r, r_adj in self.witnesses.get(p.upper, ())
            ]
        return self.sandwiched[p]

    def closure(self, gens):
        u = self.universe
        members, queue = set(), []

        def add(p):
            p = u.normalize(p)
            if p not in members:
                members.add(p)
                queue.append(p)

        for g in gens:
            add(g)
        while queue:
            p = queue.pop()
            add(p.reverse())
            for s in self.sandwiches(p):
                add(s)
            for q in list(members):
                if p.n_points + q.n_points <= u.point_bound:
                    add(p.tensor(q))
                    add(q.tensor(p))
        return frozenset(members)


@pytest.mark.parametrize("name", NAMED)
def test_closure_matches_the_literal_module_definition(name):
    # every single projective generator at bound 6, the catalog generators
    # among them
    u = universe(name)
    literal = LiteralModules(u)
    for p in u.projectives:
        assert closure(u, [p]).members == literal.closure([p]), str(p)


@pytest.mark.parametrize("name", UNCOLORED)
def test_distinct_modules_are_closed_under_every_bounded_witness(name):
    # the r(.)r* part of the module definition, for every witness r in the
    # category whose rows fit half the bound
    u = universe(name)
    literal = LiteralModules(u)
    for module in distinct_generated_modules(u):
        for p in module.members:
            for s in literal.sandwiches(p):
                assert u.normalize(s) in module.members, (str(p), str(s))


# ---------------------------------------------------------------------------
# The universe read off the rows


def test_the_module_table_never_builds_the_full_member_list():
    # nor any frame of the category: the projectives come off the rows and
    # the classes off glued witnesses (CU has no catalog)
    for name in ["NCall", "CU"]:
        before = categories._candidates.cache_info()
        u = PartitionUniverse(NAMED[name], 10)
        if name != "CU":
            catalog(u)
        distinct_generated_modules(u)
        assert "members" not in u.__dict__
        assert categories._candidates.cache_info() == before, name


def square_labels(r):
    """The labels of r*r and rr*, read off r's rows and through-blocks."""
    upper, lower = r.labels[: r.n_upper], r.labels[r.n_upper :]
    through = set(upper).intersection(lower)
    return _row_square(upper, through), _row_square(lower, through)


def square_pass(cat, bound):
    """Projectives and classes by walking every half-bound member r: r is
    a projective when its rows agree and it is its own r*r, and ~ joins
    r*r with rr*, both read off r's labels, by union-find."""
    projectives, parent, groups = [], {}, {}

    def find(a):
        while parent.setdefault(a, a) != a:
            parent[a] = a = parent[parent[a]]
        return a

    for r in half_members(cat, bound):
        rr, ss = square_labels(r)
        if r.upper == r.lower and rr == r.labels:
            projectives.append(r)
        parent[find((r.upper, rr))] = find((r.lower, ss))
    for i, p in enumerate(projectives):
        groups.setdefault(find((p.upper, p.labels)), []).append(i)
    return projectives, [frozenset(g) for g in groups.values()]


@pytest.mark.parametrize("bound", range(11))
@pytest.mark.parametrize("name", NAMED)
def test_row_projectives_and_glued_classes_match_the_member_walk(name, bound):
    u = PartitionUniverse(NAMED[name], bound)
    assert (u.projectives, u.equivalence_classes) == square_pass(NAMED[name], bound)


@pytest.mark.parametrize("name", NAMED)
def test_half_bound_members_are_the_full_list_filtered(name):
    # the member walk and the literal witnesses enumerate only the frames
    # with rows of at most bound // 2 points
    cat = NAMED[name]
    for bound in range(9):
        half = bound // 2
        assert half_members(cat, bound) == [
            r for r in all_members(cat, bound) if r.n_upper <= half and r.n_lower <= half
        ]
