"""Diagram categories: membership and enumeration against oracles.

Oracles on one-row all-white frames:
  * noncrossing pairings of 2n points: Catalan(n);
  * noncrossing blocks of size at most two: Motzkin numbers;
  * all noncrossing partitions: Catalan numbers.
On a frame with an even number of points the parity-restricted variants
coincide with their parents when the restriction is automatic: blocks of
size at most two on an even frame always leave an even number of
singletons, and every noncrossing partition of an even frame has an even
number of odd blocks.

The categories are data; the differential oracle is one membership
predicate per category, written out by hand rather than read from it,
with its own crossing test rather than partitions._noncrossing.
`contains` must agree with it on every partition of the frames checked,
and the enumeration must equal its filter over every set partition (every
pair partition, for CU on the largest colored frames).
The counts at 10 and 11 points are checked against closed forms: Catalan,
Motzkin and the Fuss-Catalan numbers C(3m, m)/(2m+1), which count
noncrossing partitions of 2m points into blocks of even size.
"""

import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from math import comb

import pytest

from qcomb.categories import (
    CU,
    NAMED,
    NC_EVEN,
    NC_PRIME,
    _candidates,
    _sharp_ok,
    all_members,
    contains,
    enumerate_members,
)
from qcomb.partitions import (
    Partition,
    _noncrossing,
    circle_reading,
    circular_order,
    duality,
    enumerate_noncrossing,
    enumerate_partitions,
    identity,
    one_block,
    singleton,
)

# ---------------------------------------------------------------------------
# Membership oracle: one predicate per category


def sizes(p):
    return [len(b) for b in p.blocks]


def singleton_parity_ok(p):
    return sum(1 for b in p.blocks if len(b) == 1) % 2 == 0


def odd_block_parity_ok(p):
    return sum(1 for s in sizes(p) if s % 2) % 2 == 0


def sharp_ok(p):
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


@lru_cache(maxsize=None)
def noncrossing_circle(circle):
    return not any(
        circle[a] == circle[c] != circle[b] == circle[d] for a, b, c, d in combinations(range(len(circle)), 4)
    )


def noncrossing(p):
    """No a < b < c < d around the circle (the upper row left to right,
    then the lower row right to left) with a, c in one block and b, d in
    another: the definition, independent of partitions._noncrossing."""
    k = p.n_upper
    return noncrossing_circle(p.labels[:k] + p.labels[k:][::-1])


def in_nc2(p):
    return noncrossing(p) and all(s == 2 for s in sizes(p))


def in_nc12(p):
    return noncrossing(p) and all(s <= 2 for s in sizes(p))


def in_nc12_prime(p):
    return in_nc12(p) and singleton_parity_ok(p)


def in_nc12_sharp(p):
    return in_nc12_prime(p) and sharp_ok(p)


def in_nc_even(p):
    return noncrossing(p) and all(s % 2 == 0 for s in sizes(p))


def in_nc_prime(p):
    return noncrossing(p) and odd_block_parity_ok(p)


def in_nc(p):
    return noncrossing(p)


def in_cu(p):
    """Noncrossing pairs; same color across rows, different color within."""
    if not noncrossing(p):
        return False
    k = p.n_upper
    colors = p.upper + p.lower
    for blk in p.blocks:
        if len(blk) != 2:
            return False
        a, b = blk
        same_row = (a < k) == (b < k)
        if same_row and colors[a] == colors[b]:
            return False
        if not same_row and colors[a] != colors[b]:
            return False
    return True


ORACLE = {
    "CU": in_cu,
    "NC2": in_nc2,
    "NC12": in_nc12,
    "NC12prime": in_nc12_prime,
    "NC12sharp": in_nc12_sharp,
    "NCeven": in_nc_even,
    "NCprime": in_nc_prime,
    "NCall": in_nc,
}


def test_the_oracle_covers_every_named_category():
    assert set(ORACLE) == set(NAMED)


CATALAN = [1, 1, 2, 5, 14, 42]
MOTZKIN = [1, 1, 2, 4, 9, 21, 51]


def count(name, lower):
    return len(enumerate_members(NAMED[name], "", lower))


def test_noncrossing_pairing_counts():
    for n in range(4):
        assert count("NC2", "o" * (2 * n)) == CATALAN[n]
        assert count("NC2", "o" * (2 * n + 1)) == 0


def test_small_block_counts_are_motzkin():
    for n in range(7):
        assert count("NC12", "o" * n) == MOTZKIN[n]


def test_noncrossing_counts_are_catalan():
    for n in range(6):
        assert count("NCall", "o" * n) == CATALAN[n]


def test_parity_restrictions_are_automatic_on_even_frames():
    for n in range(0, 7, 2):
        lower = "o" * n
        a = {p for p in enumerate_members(NAMED["NC12prime"], "", lower)}
        b = {p for p in enumerate_members(NAMED["NC12"], "", lower)}
        assert a == b
        c = {p for p in enumerate_members(NAMED["NCprime"], "", lower)}
        d = {p for p in enumerate_members(NAMED["NCall"], "", lower)}
        assert c == d


def test_odd_block_parity_is_point_count_parity():
    # NCprime checks the point count; the block sizes add up to it
    for n in range(9):
        for p in enumerate_partitions("o" * n, ""):
            assert odd_block_parity_ok(p) == (n % 2 == 0)
            assert contains(NC_PRIME, p) == in_nc_prime(p)


# set partitions of n points into blocks of at most two points
TELEPHONE = [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620]


def test_singleton_parity_is_point_count_parity_with_blocks_of_at_most_two():
    # NC12prime and NC12sharp check the point count; the singletons and
    # the pairs add up to it
    for n in range(10):
        small = [lab for lab in set_partition_labels(n, False) if max(Counter(lab).values(), default=0) <= 2]
        assert len(small) == TELEPHONE[n]
        for lab in small:
            p = Partition("o" * (n // 2), "o" * (n - n // 2), lab)
            assert singleton_parity_ok(p) == (n % 2 == 0)
            for name in ("NC12prime", "NC12sharp"):
                assert contains(NAMED[name], p) == ORACLE[name](p), (name, str(p))


def test_the_sharp_rule_reads_only_the_circle():
    # the enumeration decides it once per circle shape, which is the
    # circle reading of each member cut from it
    verdicts = Counter()
    for n in range(9):
        for upper, lower in frames(n, ["o" * n]):
            order = circular_order(len(upper), len(lower))
            for p in enumerate_members(NAMED["NC12"], upper, lower):
                circle = Partition("o" * n, "", [p.labels[i] for i in order])
                verdicts[sharp_ok(p)] += 1
                assert _sharp_ok(circle.labels) == _sharp_ok(circle_reading(p)) == sharp_ok(p), str(p)
    assert sum(verdicts.values()) == sum((n + 1) * motzkin(n) for n in range(9))
    assert verdicts[False] > 0


def test_member_lists_stay_within_a_bounded_working_set():
    # the shapes are shared by all frames and warmed first; the frames are
    # built afresh.  The peak is about 3.4 MiB for the 17,577 members, and
    # above 6 MiB when each member holds its own attribute dict
    for n in range(9):
        enumerate_noncrossing("", "o" * n, range(1, n + 1))
    _candidates.cache_clear()
    tracemalloc.start()
    try:
        members = all_members(NAMED["NCall"], 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(members) == sum(comb(2 * n, n) for n in range(9))
    assert peak < 4.5 * 2**20


def test_parity_restricted_categories_have_no_odd_frames():
    for name in ("NC12prime", "NCprime", "NCeven", "NC12sharp"):
        assert count(name, "ooo") == 0


def test_even_block_counts():
    assert [count("NCeven", "o" * n) for n in (0, 2, 4, 6)] == [1, 1, 3, 12]


def test_unitary_pairing_counts_follow_the_color_pattern():
    for k in range(5):
        assert len(enumerate_members(CU, "", "ox" * k)) == CATALAN[k]
    assert count("CU", "oo") == 0


def test_unitary_pairings_are_noncrossing():
    for p in enumerate_members(CU, "", "ox" * 3):
        assert _noncrossing(circle_reading(p))
        assert all(len(b) == 2 for b in p.blocks)


def test_membership_predicates_on_distinguished_diagrams():
    fork = Partition("o", "oo", (0, 0, 1))
    assert contains(NAMED["NC12"], fork)
    assert not contains(NAMED["NC12prime"], fork)
    assert not contains(NAMED["NC2"], singleton())
    assert contains(NAMED["NC12"], singleton())
    assert not contains(NAMED["NC2"], Partition("ox", "xo", (0, 1, 1, 0)))
    assert contains(CU, duality("o", "x"))
    assert contains(CU, identity("ox"))


def test_all_members_respects_the_point_bound():
    got = all_members(NAMED["NC2"], 4)
    assert all(len(p.upper) + len(p.lower) <= 4 for p in got)
    assert identity("o") in got


def test_enumeration_is_deterministic():
    a = enumerate_members(NAMED["NCall"], "ox", "xo")
    b = enumerate_members(NAMED["NCall"], "ox", "xo")
    assert a == b


RULED = [c for c in NAMED.values() if c.rule is not None or c.even_points]


@pytest.mark.parametrize("cat", RULED, ids=str)
def test_ruled_members_are_the_candidates_the_rule_keeps(cat):
    # the members of the same category without its parity and rule, kept
    # by the hand-written predicate
    candidates_of = cat._replace(rule=None, even_points=False)
    for n in range(9):
        for upper, lower in frames(n, ["o" * n]):
            kept = [p for p in enumerate_members(candidates_of, upper, lower) if ORACLE[cat.name](p)]
            got = enumerate_members(cat, upper, lower)
            assert got == kept, (upper, lower)
            # each call returns a fresh list
            got.clear()
            assert enumerate_members(cat, upper, lower) == kept, (upper, lower)


def test_even_blocks_have_no_size_cap():
    assert contains(NC_EVEN, one_block("o" * 7, "o" * 7))
    assert not contains(NC_EVEN, one_block("o" * 7, "o" * 6))


# ---------------------------------------------------------------------------
# Membership and enumeration against the oracle over all candidates


@lru_cache(maxsize=None)
def set_partition_labels(n, pairs_only):
    """Labels of every set partition of n points (of every pair partition
    with pairs_only), in increasing order, from the unrestricted
    enumeration."""
    parts = enumerate_partitions("", "o" * n)
    return [p.labels for p in parts if not pairs_only or all(len(b) == 2 for b in p.blocks)]


def frames(n, colorings):
    for colors in colorings:
        for k in range(n + 1):
            yield "".join(colors[:k]), "".join(colors[k:])


def assert_matches_filter(cats, upper, lower, pairs_only=False):
    """The filter of the candidates by the oracle: contains keeps the same
    candidates, and the enumeration yields them in the same order."""
    n = len(upper) + len(lower)
    candidates = [Partition(upper, lower, lab) for lab in set_partition_labels(n, pairs_only)]
    for cat in cats:
        oracle = ORACLE[cat.name]
        kept = [p for p in candidates if oracle(p)]
        assert [p for p in candidates if contains(cat, p)] == kept, (cat.name, upper, lower)
        assert enumerate_members(cat, upper, lower) == kept, (cat.name, upper, lower)


@pytest.mark.parametrize("n", range(9))
def test_enumeration_matches_the_filter_on_white_frames(n):
    for upper, lower in frames(n, ["o" * n]):
        assert_matches_filter(NAMED.values(), upper, lower)


@pytest.mark.parametrize("n", range(7))
def test_enumeration_matches_the_filter_on_every_coloring(n):
    for upper, lower in frames(n, product("ox", repeat=n)):
        assert_matches_filter(NAMED.values(), upper, lower)


@pytest.mark.parametrize("n", [7, 8])
def test_unitary_enumeration_matches_the_filter_on_every_coloring(n):
    for upper, lower in frames(n, product("ox", repeat=n)):
        assert_matches_filter([CU], upper, lower, pairs_only=True)


@pytest.mark.parametrize("n", range(9))
def test_unbalanced_unitary_frames_skip_the_enumeration_cache(n):
    # a frame whose circular color word upper + conjugate(lower) holds
    # unequal numbers of o and x has no member, and returns before the
    # cache: no hit, no miss, no entry
    cu_sizes = tuple(s for s in range(1, n + 1) if CU.block_size(s))
    unbalanced = 0
    for upper, lower in frames(n, product("ox", repeat=n)):
        before = _candidates.cache_info()
        members = enumerate_members(CU, upper, lower)
        if 2 * (upper.count("o") + lower.count("x")) != n:
            assert _candidates.cache_info() == before, (upper, lower)
            unbalanced += 1
        assert members == list(_candidates(upper, lower, cu_sizes, True, None)), (upper, lower)
    # the frames of n points whose circular word has k o's number
    # (n + 1) C(n, k), balanced only at k = n/2
    assert unbalanced == (n + 1) * (2**n - (comb(n, n // 2) if n % 2 == 0 else 0))


def catalan(m):
    return comb(2 * m, m) // (m + 1)


def motzkin(n):
    m = [1, 1]
    for i in range(2, n + 1):
        m.append(((2 * i + 1) * m[-1] + (3 * i - 3) * m[-2]) // (i + 2))
    return m[n]


@pytest.mark.parametrize("n", [10, 11])
def test_counts_at_ten_and_eleven_points_follow_closed_forms(n):
    upper, lower = "o" * 3, "o" * (n - 3)
    m = n // 2
    assert len(enumerate_members(NAMED["NCall"], upper, lower)) == catalan(n)
    assert len(enumerate_members(NAMED["NC12"], upper, lower)) == motzkin(n)
    even = n % 2 == 0
    assert len(enumerate_members(NAMED["NC2"], upper, lower)) == (catalan(m) if even else 0)
    fuss = comb(3 * m, m) // (2 * m + 1)
    assert len(enumerate_members(NAMED["NCeven"], upper, lower)) == (fuss if even else 0)
