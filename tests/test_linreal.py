"""Tensor realizations of diagrams and exact rank computations.

Rank oracle: over (C^N)^{\\otimes n} the span of the maps of all set
partitions of n points equals the space of vectors invariant under the
diagonal symmetric group S_N, whose dimension is the number of index
orbits, i.e. the sum of Stirling numbers S(n, j) for j <= N.

Differential oracles: the sparse PartitionMap realization, the per-pair
law check built on it, the dense numpy law kernel that replaced it, the
all-pairs law pairing, the union-find join_block_count, the min-label
propagation along successor maps, the modular elimination that cleared
and reduced all rows below a pivot at once on a copy and the lazy one
that reduced each column in place and searched it twice are the code the
bit-vector, merge-walk and lazily reducing kernels replaced, and the
modular rank of the whole Gram residue is the certificate that the
rotation-character blocks replaced.

Closed-form oracles for the Gram matrices of NC(k), the noncrossing
partitions of k points: Di Francesco's meander determinant (Commun. Math.
Phys. 191, 1998) gives det N^B exactly, zeros included, and since
S_N^+ = S_N for N <= 3 (Wang, Commun. Math. Phys. 195, 1998) the rank of
NC(k) at those N is the Stirling sum above.  At N = 1 every realization
is the 1x1 matrix [1], so CU(empty, w) spans one dimension when w has a
pairing and none when it has not.
"""

import itertools
import tracemalloc
from functools import lru_cache
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcomb import laws, linreal
from qcomb.categories import CU, NAMED, enumerate_members
from qcomb.errors import LawViolation, ShapeMismatch, TooLarge
from qcomb.laws import _rank_bareiss, check_laws, law_pairs, realize, small_partitions
from qcomb.linreal import _rank_mod_p, fixed_points_dim, gram_exponents, gram_rank
from qcomb.partitions import (
    Partition,
    UnionFind,
    circular_order,
    duality,
    enumerate_partitions,
    identity,
    one_block,
)
from qcomb.qgraph import ONE, Quad
from qcomb.words import all_words


# -- differential oracles ---------------------------------------------------


class PartitionMap:
    """Sparse integer matrix of shape N^l x N^k realizing a partition with
    k upper (source) and l lower (target) points.  Stored as a map from
    (target tuple, source tuple) to integer entry."""

    def __init__(self, k: int, l: int, N: int, entries: dict):
        self.k = k
        self.l = l
        self.N = N
        self.entries = {key: v for key, v in entries.items() if v}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PartitionMap)
            and (self.k, self.l, self.N) == (other.k, other.l, other.N)
            and self.entries == other.entries
        )

    def scaled(self, c: int) -> "PartitionMap":
        return PartitionMap(self.k, self.l, self.N, {key: c * v for key, v in self.entries.items()})

    def adjoint(self) -> "PartitionMap":
        return PartitionMap(
            self.l, self.k, self.N, {(s, t): v for (t, s), v in self.entries.items()}
        )

    def tensor(self, other: "PartitionMap") -> "PartitionMap":
        if self.N != other.N:
            raise ShapeMismatch("dimension mismatch")
        entries = {}
        for (t1, s1), v1 in self.entries.items():
            for (t2, s2), v2 in other.entries.items():
                entries[(t1 + t2, s1 + s2)] = v1 * v2
        return PartitionMap(self.k + other.k, self.l + other.l, self.N, entries)

    def compose(self, other: "PartitionMap") -> "PartitionMap":
        """self after other."""
        if self.N != other.N or self.k != other.l:
            raise ShapeMismatch("composition shapes do not match")
        by_target: dict = {}
        for (t, s), v in other.entries.items():
            by_target.setdefault(t, []).append((s, v))
        entries: dict = {}
        for (t, m), v1 in self.entries.items():
            for s, v2 in by_target.get(m, ()):
                key = (t, s)
                entries[key] = entries.get(key, 0) + v1 * v2
        return PartitionMap(other.k, self.l, self.N, entries)


def realize_oracle(p, N):
    """The 0/1 matrix delta_p as a PartitionMap, one entry per assignment."""
    k, l = p.n_upper, p.n_lower
    entries = {}
    for assign in product(range(N), repeat=p.n_blocks):
        joint = tuple(assign[b] for b in p.labels)
        entries[(joint[k:], joint[:k])] = 1
    return PartitionMap(k, l, N, entries)


def check_laws_oracle(pairs, N):
    """check_laws before the dense kernel: every map realized per pair."""
    checked = 0
    orientation = None
    for q, p in pairs:
        tp, tq = realize_oracle(p, N), realize_oracle(q, N)
        if realize_oracle(p.adjoint(), N) != tp.adjoint():
            raise LawViolation(f"adjoint law fails for {p}")
        if realize_oracle(p.tensor(q), N) != tp.tensor(tq):
            raise LawViolation(f"tensor law fails for {p} (x) {q}")
        if p.lower != q.upper:
            continue
        comp, rl = q.compose(p)
        lhs = tq.compose(tp)
        rhs = realize_oracle(comp, N)
        if lhs == rhs.scaled(N**rl):
            fit = "maps_scale_composite"
        elif rhs == lhs.scaled(N**rl):
            fit = "composite_scales_maps"
        else:
            raise LawViolation(f"loop law fails for {q} after {p}")
        if rl > 0:
            if orientation is None:
                orientation = fit
            elif orientation != fit:
                raise LawViolation(
                    f"loop-law orientation flips at {q} after {p}: {orientation} vs {fit}"
                )
        checked += 1
    return {"orientation": orientation, "pairs_checked": checked, "N": N}


def realize_dense(p, N):
    """The dense 0/1 int64 matrix of shape N^l x N^k that realize built
    before the bit vectors, multi-indices read big-endian."""
    k, l = p.n_upper, p.n_lower
    nb = p.n_blocks
    # one column per assignment of values to the blocks, gathered to points
    joint = np.indices((N,) * nb).reshape(nb, N**nb)[list(p.labels)]
    rows = N ** np.arange(l - 1, -1, -1, dtype=np.int64) @ joint[k:]
    cols = N ** np.arange(k - 1, -1, -1, dtype=np.int64) @ joint[:k]
    T = np.zeros((N**l, N**k), dtype=np.int64)
    T[rows, cols] = 1
    return T


def check_laws_dense(pairs, N):
    """check_laws before the bit vectors: the dense kernel, each distinct
    partition realized once, the tensor law on the Kronecker product by
    broadcasting and the loop law on the matrix product."""
    memo = {}

    def T(p):
        m = memo.get(p)
        if m is None:
            m = memo[p] = realize_dense(p, N).astype(np.uint8)
        return m

    def outer(a, b):
        (r1, c1), (r2, c2) = a.shape, b.shape
        return (a[:, None, :, None] * b[None, :, None, :]).reshape(r1 * r2, c1 * c2)

    adjoint_checked = set()
    checked = 0
    orientation = None
    for q, p in pairs:
        tp, tq = T(p), T(q)
        if p not in adjoint_checked:
            if not np.array_equal(T(p.adjoint()), tp.T):
                raise LawViolation(f"adjoint law fails for {p}")
            adjoint_checked.add(p)
        if not np.array_equal(T(p.tensor(q)), outer(tp, tq)):
            raise LawViolation(f"tensor law fails for {p} (x) {q}")
        if p.lower != q.upper:
            continue
        comp, rl = q.compose(p)
        lhs = np.matmul(tq, tp, dtype=np.int64)
        rhs = T(comp).astype(np.int64)
        if np.array_equal(lhs, N**rl * rhs):
            fit = "maps_scale_composite"
        elif np.array_equal(rhs, N**rl * lhs):
            fit = "composite_scales_maps"
        else:
            raise LawViolation(f"loop law fails for {q} after {p}")
        if rl > 0:
            if orientation is None:
                orientation = fit
            elif orientation != fit:
                raise LawViolation(
                    f"loop-law orientation flips at {q} after {p}: {orientation} vs {fit}"
                )
        checked += 1
    return {"orientation": orientation, "pairs_checked": checked, "N": N}


def law_pairs_oracle(max_points):
    """Every pair of small partitions, filtered by combined point count."""
    parts = small_partitions(max_points)
    for p in parts:
        for q in parts:
            if p.n_points + q.n_points <= max_points:
                yield q, p


def join_block_count(p, q):
    """Number of blocks of the join of p and q on their common point set."""
    n = p.n_points
    uf = UnionFind(n)
    for part in (p, q):
        for blk in part.blocks:
            for a, b in zip(blk, blk[1:]):
                uf.union(a, b)
    return len({uf.find(i) for i in range(n)})


# pairs per batch in exponents_by_min_labels; keeps each temporary near 1 MB
PAIR_CHUNK = 4096


def successors(circles):
    """Row i maps each point to the next point of its block under
    circles[i], cyclically, so that the block is one cycle of the map."""
    succ = np.empty((len(circles), len(circles[0])), dtype=np.intp)
    for i, labels in enumerate(circles):
        blocks = {}
        for point, b in enumerate(labels):
            blocks.setdefault(b, []).append(point)
        for blk in blocks.values():
            succ[i, blk] = blk[1:] + blk[:1]
    return succ


def exponents_by_min_labels(circles):
    """The join block counts of every pair of circle readings, in numpy
    batches of pairs: min-label propagation along the two successor maps
    of a pair reaches the least point of each block of the join, which is
    then the one point whose label is itself."""
    m, n = len(circles), len(circles[0])
    succ = successors(circles)
    B = np.empty((m, m), dtype=np.int64)
    points = np.arange(n)
    r0 = 0
    while r0 < m:
        r1 = min(m, r0 + max(1, PAIR_CHUNK // (m - r0)))
        I = np.repeat(np.arange(r0, r1), m - r0)
        J = np.tile(np.arange(r0, m), r1 - r0)
        offset = (np.arange(len(I)) * n)[:, None]
        nxt_p = (succ[I] + offset).ravel()
        nxt_q = (succ[J] + offset).ravel()
        lab = np.tile(points, len(I))
        while True:
            new = np.minimum(lab, np.minimum(lab[nxt_p], lab[nxt_q]))
            if np.array_equal(new, lab):
                break
            lab = new
        counts = (lab.reshape(len(I), n) == points).sum(axis=1)
        B[I, J] = counts
        B[J, I] = counts
        r0 = r1
    return B


def bits(m):
    """A PartitionMap as a bit vector: bit col * N^l + row for the entry at
    the lower multi-index row and the upper one col, read big-endian."""
    out = 0
    for (t, s), v in m.entries.items():
        assert v == 1, "a realization has 0/1 entries"
        row = sum(x * m.N ** (m.l - 1 - i) for i, x in enumerate(t))
        col = sum(x * m.N ** (m.k - 1 - i) for i, x in enumerate(s))
        out |= 1 << (col * m.N**m.l + row)
    return out


def stirling2(n, j):
    if n == j == 0:
        return 1
    if n == 0 or j == 0:
        return 0
    return j * stirling2(n - 1, j) + stirling2(n - 1, j - 1)


def all_parts(n):
    return list(enumerate_partitions("", "o" * n))


def test_rank_of_all_partitions_matches_diagonal_invariants():
    for n in (2, 3, 4):
        for N in (2, 3):
            expected = sum(stirling2(n, j) for j in range(1, N + 1))
            assert gram_rank(all_parts(n), N) == expected


def test_rank_collapses_to_one_on_a_single_point_space():
    # every diagram realizes to the same all-ones vector at N = 1, this
    # also exercises the exact fallback path for rank-deficient families
    assert gram_rank(all_parts(4), 1) == 1


def test_noncrossing_families_have_full_rank_for_large_N():
    nc = enumerate_members(NAMED["NCall"], "", "o" * 4)
    assert gram_rank(nc, 4) == len(nc) == 14
    assert gram_rank(nc, 5) == 14


def test_rank_agrees_between_gram_and_explicit_vectors():
    parts = all_parts(3)
    assert linreal.rank(parts, 2) == gram_rank(parts, 2)


def test_fixed_point_dimensions_count_unitary_pairings():
    for N in (2, 3, 4):
        assert fixed_points_dim("ox", N) == 1
    assert fixed_points_dim("oxox", 4) == 2
    assert fixed_points_dim("oo", 4) == 0


def test_realized_identity_has_diagonal_entries():
    # one upper and one lower point: bit col * 3 + row for row == col
    assert realize(identity("o"), 3) == 1 << 0 | 1 << 4 | 1 << 8


def test_realized_cup_pairs_equal_indices():
    d = duality("o", "x").adjoint()  # no upper points, two lower points
    # bits are the lower multi-indices 00, 01, 10, 11
    assert realize(d, 2) == 0b1001


def test_realization_budgets_are_checked_before_allocating():
    with pytest.raises(TooLarge, match="point budget"):
        realize(one_block("o" * 6, "o" * 5), 2)
    with pytest.raises(TooLarge, match="entry budget"):
        realize(one_block("o" * 5, "o" * 5), 5)  # 5^10 entries
    # one block: the N constant assignments, the last at index 4^10 - 1
    T = realize(one_block("o" * 5, "o" * 5), 4)
    assert (T.bit_length(), bin(T).count("1")) == (4**10, 4)


def test_laws_hold_exactly_on_small_diagrams():
    for N in (2, 3):
        report = check_laws(law_pairs(4), N)
        assert report["orientation"] == "maps_scale_composite"
        assert report["pairs_checked"] > 0


def test_law_pairs_stay_within_the_point_bound():
    for p, q in law_pairs(4):
        assert len(p.upper) + len(p.lower) <= 4
        assert len(q.upper) + len(q.lower) <= 4


# -- differential and negative tests of the bit-vector law kernel ------------


@pytest.mark.parametrize("N,max_points", [(2, 6), (3, 6), (4, 6)])
def test_dense_realization_matches_the_sparse_oracle(N, max_points):
    # the bit vector is dense: one bit per entry of T_p
    for p in small_partitions(max_points):
        assert realize(p, N) == bits(realize_oracle(p, N)), p


@pytest.mark.parametrize("N", (2, 3, 4))
@pytest.mark.parametrize("max_points", range(6))
def test_law_report_matches_the_per_pair_oracle(max_points, N):
    assert check_laws(law_pairs(max_points), N) == check_laws_oracle(
        law_pairs_oracle(max_points), N
    )


@pytest.mark.parametrize("N", (2, 3))
def test_law_report_matches_the_dense_kernel_at_6_points(N):
    assert check_laws(law_pairs(6), N) == check_laws_dense(law_pairs(6), N)


@pytest.mark.parametrize("max_points", range(7))
def test_law_pairs_match_the_all_pairs_filter(max_points):
    assert list(law_pairs(max_points)) == list(law_pairs_oracle(max_points))


EMPTY = Partition("", "", ())
CUP = Partition("", "oo", (0, 0))
CAP = CUP.adjoint()
# a strand beside a cup, and a strand beside a cap: the cap after the cup
# closes one loop and leaves the strand
STRAND_CUP = Partition("o", "ooo", (0, 0, 1, 1))
STRAND_CAP = STRAND_CUP.adjoint()


def but(owner, name, target, change):
    """owner.name with its result at target, its first argument, replaced by
    change(result)."""
    real = getattr(owner, name)

    def fake(x, *args):
        out = real(x, *args)
        return change(out) if x == target else out

    return fake


def test_transposed_realization_breaks_the_adjoint_law(monkeypatch):
    # both upper points in one block, the lower points apart
    p = Partition("oo", "oo", (0, 0, 1, 2))
    assert p.adjoint() != p
    # an adjoint that does not reflect p reads T_p transposed
    monkeypatch.setattr(Partition, "adjoint", but(Partition, "adjoint", p, lambda a: p))
    with pytest.raises(LawViolation, match="adjoint law fails"):
        check_laws([(EMPTY, p)], 2)
    with pytest.raises(LawViolation):
        check_laws(law_pairs(4), 2)


def test_flipped_tensor_entry_breaks_the_tensor_law(monkeypatch):
    # one bit flipped in every vector built on the labels of CUP (x) CAP,
    # which only its reading has in this pair
    labels = CUP.tensor(CAP).labels
    monkeypatch.setattr(laws, "_vector", but(laws, "_vector", labels, lambda v: v ^ 1 << 1))
    with pytest.raises(LawViolation, match="tensor law fails"):
        check_laws([(CAP, CUP)], 3)
    with pytest.raises(LawViolation):
        check_laws(law_pairs(4), 3)


def test_swapped_tensor_factors_break_the_tensor_law(monkeypatch):
    p, q = CUP, identity("o")
    monkeypatch.setattr(Partition, "tensor", but(Partition, "tensor", p, lambda t: q.tensor(p)))
    with pytest.raises(LawViolation, match="tensor law fails"):
        check_laws([(q, p)], 2)


def test_composite_scaled_by_the_wrong_power_breaks_the_loop_law(monkeypatch):
    comp, loops = STRAND_CAP.compose(STRAND_CUP)
    assert (comp, loops) == (identity("o"), 1)
    # one loop too many scales the composite by N^2 instead of N
    monkeypatch.setattr(
        Partition, "compose", but(Partition, "compose", STRAND_CAP, lambda c: (c[0], c[1] + 1))
    )
    with pytest.raises(LawViolation, match="loop law fails"):
        check_laws([(STRAND_CAP, STRAND_CUP)], 2)


def test_a_wrong_composite_breaks_the_loop_law(monkeypatch):
    # the strand cut into an upper and a lower singleton
    cut = Partition("o", "o", (0, 1))
    monkeypatch.setattr(
        Partition, "compose", but(Partition, "compose", STRAND_CAP, lambda c: (cut, c[1]))
    )
    with pytest.raises(LawViolation, match="loop law fails"):
        check_laws([(STRAND_CAP, STRAND_CUP)], 2)


# -- differential tests of the Gram exponent kernel --------------------------


def join_matrix(parts):
    """Per-pair union-find reference for gram_exponents."""
    n = len(parts)
    B = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i, n):
            B[i, j] = B[j, i] = join_block_count(parts[i], parts[j])
    return B


def frames(max_points):
    for n in range(max_points + 1):
        for k in range(n + 1):
            yield n, k


@pytest.mark.parametrize("n,k", list(frames(6)))
def test_gram_exponents_match_union_find_on_all_partitions(n, k):
    parts = list(enumerate_partitions("o" * k, "o" * (n - k)))
    assert np.array_equal(gram_exponents(parts), join_matrix(parts))


@lru_cache(maxsize=None)
def frame_join_matrix(cat, upper, lower):
    """join_matrix of one frame of a category, computed once per session."""
    return join_matrix(enumerate_members(cat, upper, lower))


@pytest.mark.parametrize("n,k", list(frames(7)))
def test_gram_exponents_match_union_find_on_noncrossing_frames(n, k):
    frame = (NAMED["NCall"], "o" * k, "o" * (n - k))
    assert np.array_equal(gram_exponents(enumerate_members(*frame)), frame_join_matrix(*frame))


def test_gram_exponents_match_union_find_on_unitary_frames():
    checked = 0
    for n, k in frames(8):
        for colors in itertools.product("ox", repeat=n):
            parts = enumerate_members(CU, "".join(colors[:k]), "".join(colors[k:]))
            if parts:
                assert np.array_equal(gram_exponents(parts), join_matrix(parts))
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("n,k", [(n, k) for n, k in frames(7) if k < n])
def test_gram_exponents_are_covariant_under_rotation(n, k):
    # Read in circular order, frame (k, n-k) becomes frame (n, 0).  The
    # rotation relabels both partitions of a pair alike, so each join
    # keeps its block count, and noncrossing partitions stay noncrossing.
    order = circular_order(k, n - k)
    flat = enumerate_members(NAMED["NCall"], "o" * n, "")
    position = {p: i for i, p in enumerate(flat)}
    parts = enumerate_members(NAMED["NCall"], "o" * k, "o" * (n - k))
    perm = [position[Partition("o" * n, "", [p.labels[j] for j in order])] for p in parts]
    assert sorted(perm) == list(range(len(flat)))
    assert np.array_equal(gram_exponents(parts), gram_exponents(flat)[np.ix_(perm, perm)])


def test_gram_exponents_of_no_members_is_an_empty_read_only_matrix():
    # no member has a point, and the type holding a point count of 0 is uint8
    B = gram_exponents([])
    assert B.shape == (0, 0) and B.dtype == np.uint8
    assert not B.flags.writeable


# -- the circle-family memo of gram_rank --------------------------------------


def clear_memos():
    """Empty both rank memos: the small families' and the residue's."""
    laws._small_rank.cache_clear()
    linreal._family.cache_clear()


def family_of(parts):
    """The memo entry of the circle family of parts, made if not held."""
    return linreal._family(frozenset(linreal._circles(parts)))


def one_residue(family):
    """The size of the block M_j of each rotation character j <= h/2 of a
    memo entry, j = 0 first, that meets an orbit: the number of orbits
    whose size times j the group order h divides, when not 0.  The sizes
    are checked to make up the whole residue: each j with 0 < 2j < h
    stands for j and h - j."""
    h, sizes = len(family.exponents), family.sizes
    counts = [int(np.count_nonzero(j * sizes % h == 0)) for j in range(h // 2 + 1)]
    assert sum((1 if 2 * j % h == 0 else 2) * k for j, k in enumerate(counts)) == sizes.sum()
    return [k for k in counts if k]


def test_gram_rank_memo_follows_the_family():
    linreal._family.cache_clear()
    a = all_parts(4)
    b = list(reversed(a))
    c = all_parts(5)[: len(a)]
    for family in (a, b, c, a):
        assert gram_rank(family, 2) == linreal.rank(family, 2)
        B = gram_exponents(family)
        assert np.array_equal(B, join_matrix(family))
        assert not B.flags.writeable
        with pytest.raises(ValueError):
            B[0, 0] = 0
    # a and its reversal are one family, stored once with its rank at
    # N = 2; gram_exponents neither reads nor fills the memo
    info = linreal._family.cache_info()
    assert (info.currsize, info.misses, info.hits) == (2, 2, 2)
    for f in (family_of(a), family_of(c)):
        E = f.exponents
        assert E.shape == (len(E), len(f.sizes), len(f.sizes)) and f.ranks.keys() == {2}
        assert E.dtype == np.uint8 and not E.flags.writeable


def memo_frames():
    """Every NCall frame up to 7 points and every non-empty CU frame up to
    6, with the N to rank each at: 2..5, but only 4 and 5 at 7 points,
    where NC(7) is rank-deficient below 4 and its 429 rows exceed the
    exact elimination's budget."""
    for n, k in frames(7):
        yield NAMED["NCall"], "o" * k, "o" * (n - k), (4, 5) if n == 7 else (2, 3, 4, 5)
    for n, k in frames(6):
        for colors in itertools.product("ox", repeat=n):
            upper, lower = "".join(colors[:k]), "".join(colors[k:])
            if enumerate_members(CU, upper, lower):
                yield CU, upper, lower, (2, 3, 4, 5)


def memo_pass(cleared: bool) -> list[int]:
    """Rank every memo frame with fresh memos, cleared before every rank
    when asked, and check the exponents after each frame."""
    clear_memos()
    ranks = []
    for cat, upper, lower, Ns in memo_frames():
        parts = enumerate_members(cat, upper, lower)
        for N in Ns:
            if cleared:
                clear_memos()
            ranks.append(gram_rank(parts, N))
        assert np.array_equal(gram_exponents(parts), frame_join_matrix(cat, upper, lower))
    return ranks


def test_shared_memo_ranks_match_a_cleared_memo():
    shared = memo_pass(cleared=False)
    # the NCall frames of one point count are one family, and so are the
    # CU frames of one circular color word whatever the split: the 36
    # NCall and 177 CU frames make 22 families.  The 4 above
    # _SMALL_FAMILY members, NC(4) to NC(7), hold one residue memo entry
    # each, and the other 18 one small-family entry per N they are
    # ranked at, 72 in all
    assert linreal._family.cache_info().currsize == 4
    assert laws._small_rank.cache_info().currsize == 72
    assert shared == memo_pass(cleared=True)


def test_each_circle_family_is_eliminated_once_per_N(monkeypatch):
    linreal._family.cache_clear()
    eliminated = []
    real = linreal._rank_mod_p

    def counted(M):
        eliminated.append(len(M))
        return real(M)

    monkeypatch.setattr(linreal, "_rank_mod_p", counted)
    for a in range(9):
        parts = enumerate_members(NAMED["NCall"], "o" * a, "o" * (8 - a))
        for N in (4, 5):
            assert gram_rank(parts, N) == 1430
    # one residue per N, one block per rotation character j <= 4 of the
    # 8 turns of NC(8)
    assert linreal._family.cache_info().currsize == 1
    family = family_of(parts)
    assert len(family.exponents) == 8
    assert eliminated == one_residue(family) * 2


def counted_certification(monkeypatch, residue_rank=None):
    """Fresh memos, with the row count of every modular and every Bareiss
    elimination recorded; residue_rank, if given, replaces the modular
    rank of each character block the certification sees."""
    clear_memos()
    calls = {"mod_p": [], "bareiss": []}
    mod_p, bareiss = linreal._rank_mod_p, laws._rank_bareiss

    def counted_mod_p(M):
        calls["mod_p"].append(len(M))
        r = mod_p(M)
        return r if residue_rank is None else residue_rank(r)

    def counted_bareiss(M):
        calls["bareiss"].append(len(M))
        return bareiss(M)

    monkeypatch.setattr(linreal, "_rank_mod_p", counted_mod_p)
    monkeypatch.setattr(laws, "_rank_bareiss", counted_bareiss)
    return calls


def test_a_full_rank_family_is_certified_by_one_residue(monkeypatch):
    calls = counted_certification(monkeypatch)
    parts = enumerate_members(NAMED["NCall"], "oo", "oo")
    assert gram_rank(parts, 4) == 14
    assert linreal._family.cache_info().currsize == 1
    assert calls == {"mod_p": one_residue(family_of(parts)), "bareiss": []}


def test_a_deficient_family_runs_one_residue_then_bareiss(monkeypatch):
    calls = counted_certification(monkeypatch)
    parts = all_parts(4)
    assert gram_rank(parts, 2) == sum(stirling2(4, j) for j in range(1, 3)) == 8
    assert linreal._family.cache_info().currsize == 1
    assert calls == {"mod_p": one_residue(family_of(parts)), "bareiss": [15]}


def test_a_deficient_residue_of_a_full_rank_family_is_settled_by_bareiss(monkeypatch):
    # the residue rank only bounds the rational rank from below, so a
    # residue that reads one short must not become the rank: the first
    # block, of the trivial character, reads one short
    short = iter([1])
    calls = counted_certification(monkeypatch, residue_rank=lambda r: r - next(short, 0))
    parts = enumerate_members(NAMED["NCall"], "oo", "oo")
    assert gram_rank(parts, 4) == 14
    assert linreal._family.cache_info().currsize == 1
    assert calls == {"mod_p": one_residue(family_of(parts)), "bareiss": [14]}


def word_families(length):
    """The circle families of CU(empty, w), one per family, over the
    words w up to length that have a pairing."""
    lists = (enumerate_members(CU, "", w) for w in all_words(length))
    return list({frozenset(linreal._circles(ps)) for ps in lists if ps})


def test_at_N_1_every_unitary_word_spans_at_most_one_dimension(monkeypatch):
    # at N = 1 every realization is the same 1x1 matrix [1], so the span of
    # CU(empty, w) is one-dimensional when w has a pairing and zero when
    # not.  Each of the 176 families is settled by Bareiss once: the 22
    # above _SMALL_FAMILY members after a residue that falls short, since
    # each is deficient, and the 154 others with no residue
    calls = counted_certification(monkeypatch)
    for w in all_words(10):
        assert fixed_points_dim(w, 1) == (1 if enumerate_members(CU, "", w) else 0), w
    circles = word_families(10)
    large = [c for c in circles if len(c) > laws._SMALL_FAMILY]
    assert (len(circles), len(large)) == (176, 22)
    assert linreal._family.cache_info().currsize == 22
    assert laws._small_rank.cache_info().currsize == 154
    blocks = [k for c in large for k in one_residue(linreal._family(c))]
    assert sorted(calls["mod_p"]) == sorted(blocks)
    assert sorted(calls["bareiss"]) == sorted(map(len, circles))


def test_at_N_equal_to_the_prime_every_family_is_settled_by_bareiss(monkeypatch):
    # at N = p every entry N^e of a residue with a point is 0 modulo p, so
    # each of the 22 families above _SMALL_FAMILY members reads rank 0
    # there and goes to the exact elimination once, which finds the
    # unitary pairings independent; the 153 others with a point are
    # settled by that elimination alone
    residues = []
    calls = counted_certification(monkeypatch, residue_rank=lambda r: residues.append(r) or r)
    for w in all_words(10):
        if w:
            parts = enumerate_members(CU, "", w)
            assert gram_rank(parts, linreal._PRIME) == len(parts), w
    circles = [c for c in word_families(10) if c != {()}]
    large = [c for c in circles if len(c) > laws._SMALL_FAMILY]
    assert (len(circles), len(large)) == (175, 22)
    assert linreal._family.cache_info().currsize == 22
    assert laws._small_rank.cache_info().currsize == 153
    blocks = [k for c in large for k in one_residue(linreal._family(c))]
    assert sorted(calls["mod_p"]) == sorted(blocks) and set(residues) == {0}
    assert sorted(calls["bareiss"]) == sorted(map(len, circles))


@pytest.mark.parametrize(
    "name,points,want",
    [("NCeven", 6, 10), ("NCeven", 8, 35), ("NC12sharp", 6, 20), ("NC12sharp", 8, 70)],
)
def test_named_deficient_families_are_settled_by_one_bareiss_call(monkeypatch, name, points, want):
    # at N = 2 these families are rank-deficient, and below the count of
    # set partitions into at most two blocks that bounds every family of
    # their frame, so neither their residue nor that bound settles the
    # rank: the exact elimination runs once, on the distinct members
    calls = counted_certification(monkeypatch)
    half = "o" * (points // 2)
    parts = enumerate_members(NAMED[name], half, half)
    assert gram_rank(parts, 2) == want < len(parts)
    assert want < sum(stirling2(points, j) for j in (1, 2))
    assert calls["bareiss"] == [len(parts)]
    assert linreal.rank(parts, 2) == want


def test_a_full_memo_evicts_the_least_recently_used_family_and_stays_exact():
    clear_memos()
    # each run of _SMALL_FAMILY + 1 consecutive 7-point set partitions is
    # a family of its own, just above the small families
    runs = [
        all_parts(7)[i : i + laws._SMALL_FAMILY + 1] for i in range(linreal._MAX_FAMILIES - 1)
    ]
    old, used = all_parts(4), all_parts(5)

    def exact(parts):
        n = parts[0].n_points
        return [gram_rank(parts, N) for N in (2, 3)] == [
            sum(stirling2(n, j) for j in range(N + 1)) for N in (2, 3)
        ]

    assert exact(old) and exact(used)
    for parts in runs[:-1]:
        assert gram_rank(parts, 2) == linreal.rank(parts, 2)
    assert linreal._family.cache_info().currsize == linreal._MAX_FAMILIES
    # a hit makes the oldest family the most recently used, so the next
    # family evicts the second oldest
    assert exact(old)
    assert gram_rank(runs[-1], 2) == linreal.rank(runs[-1], 2)
    assert linreal._family.cache_info().currsize == linreal._MAX_FAMILIES
    assert family_of(old).ranks == {2: 8, 3: 14}
    assert laws._small_rank.cache_info().currsize == 0
    misses = linreal._family.cache_info().misses
    assert family_of(used).ranks == {}
    assert linreal._family.cache_info().misses == misses + 1
    assert exact(used)


def test_an_out_of_budget_rank_is_not_stored():
    linreal._family.cache_clear()
    parts = enumerate_members(NAMED["NCall"], "o" * 7, "")
    for _ in range(2):
        with pytest.raises(TooLarge, match="rank defect"):
            gram_rank(parts, 2)
    assert linreal._family.cache_info().currsize == 1
    assert family_of(parts).ranks == {}


@pytest.mark.parametrize("first", ["repeated", "distinct"])
def test_a_family_with_repeated_members_ranks_its_distinct_members(first):
    # the memo keeps one row per circle reading, so a member listed twice
    # must neither count twice in the rank nor lose its own row and column
    parts = all_parts(4)
    repeated = parts + parts[::3] + parts[:1]
    for N in (1, 2, 3, 4):
        linreal._family.cache_clear()
        want = linreal.rank(parts, N)
        lists = [repeated, parts] if first == "repeated" else [parts, repeated]
        assert [gram_rank(ps, N) for ps in lists] == [want, want]
        assert np.array_equal(gram_exponents(repeated), join_matrix(repeated))
        assert linreal._family.cache_info().currsize == 1


MIXED_FRAMES = {
    # a 4-point member first, a 2-point one first, and two splits of 2 points
    "4 then 2": [Partition("", "oooo", (0, 0, 1, 1)), Partition("", "oo", (0, 1))],
    "2 then 4": [Partition("", "oo", (0, 1)), Partition("", "oooo", (0, 0, 1, 1))],
    "same size": [Partition("o", "o", (0, 0)), Partition("", "oo", (0, 0))],
}


@pytest.mark.parametrize("parts", MIXED_FRAMES.values(), ids=MIXED_FRAMES.keys())
@pytest.mark.parametrize(
    "compute", [gram_exponents, lambda parts: gram_rank(parts, 3)], ids=["exponents", "rank"]
)
def test_members_of_different_frames_raise_before_the_memo(parts, compute):
    clear_memos()
    with pytest.raises(ShapeMismatch, match="mixed frames"):
        compute(parts)
    assert linreal._family.cache_info() == (0, 0, linreal._MAX_FAMILIES, 0)
    assert laws._small_rank.cache_info().currsize == 0


# -- small families, ranked by Bareiss without the residue ---------------------


@lru_cache(maxsize=None)
def small_families():
    """The circle families of at most _SMALL_FAMILY members, one member
    list each: of every frame up to 8 points of each named category, white
    points only where the category has one color, of every CU coloring up
    to 8 points, and of the first m set partitions of 4 and of 5 points,
    which make the sizes no category frame has."""
    lists = [all_parts(n)[:m] for n in (4, 5) for m in range(1, laws._SMALL_FAMILY + 1)]
    for cat in NAMED.values():
        for n, k in frames(8):
            colorings = itertools.product("ox", repeat=n) if cat.colored else ["o" * n]
            for colors in colorings:
                lists.append(enumerate_members(cat, "".join(colors[:k]), "".join(colors[k:])))
    families = {}
    for parts in lists:
        circles = frozenset(linreal._circles(parts)) if parts else frozenset()
        if 0 < len(circles) <= laws._SMALL_FAMILY:
            families.setdefault(circles, parts)
    return list(families.items())


def test_small_families_cover_every_size_up_to_the_bound():
    sizes = {len(circles) for circles, _ in small_families()}
    assert sizes == set(range(1, laws._SMALL_FAMILY + 1))


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, linreal._PRIME])
def test_small_family_ranks_match_the_residue_certificate(N):
    # the residue path, called directly, on the families it no longer sees
    clear_memos()
    for circles, _ in small_families():
        assert laws._small_rank(circles, N) == linreal._family_rank(circles, N), (sorted(circles), N)


def test_small_family_join_counts_match_gram_exponents():
    for circles, parts in small_families():
        readings = linreal._circles(parts)
        counts = [[laws._join_count(p, q) for q in readings] for p in readings]
        assert np.array_equal(gram_exponents(parts), np.array(counts)), readings


def test_a_family_of_the_small_bound_skips_the_residue_and_one_above_it_does_not(monkeypatch):
    K = laws._SMALL_FAMILY
    at, above = all_parts(4)[:K], all_parts(4)[: K + 1]
    want = [linreal.rank(at, 3), linreal.rank(above, 3)]
    calls = counted_certification(monkeypatch)
    assert gram_rank(at, 3) == want[0]
    assert calls == {"mod_p": [], "bareiss": [K]}
    assert linreal._family.cache_info().currsize == 0
    assert gram_rank(above, 3) == want[1]
    assert calls["mod_p"] == one_residue(family_of(above)) != []
    assert linreal._family.cache_info().currsize == 1


# -- closed-form oracles: the meander determinant and S_N^+ = S_N -------------


def binomial(n, r):
    return comb(n, r) if r >= 0 else 0


def meander_determinant(k, N):
    """det N^B on NC(k) by Di Francesco's formula, as an exact a + b sqrt(N):
    N^(C_k/2) times U_j(sqrt N)^a(k, j) for j = 1..k, where U_j are the
    Chebyshev polynomials of the second kind."""
    x = Quad.sqrt(N)
    U = [ONE, x]
    for _ in range(k):
        U.append(x * U[-1] - U[-2])
    catalan = comb(2 * k, k) // (k + 1)
    det = Quad.of(N ** (catalan // 2)) * (x if catalan % 2 else ONE)
    for j in range(1, k + 1):
        a = binomial(2 * k, k - j) - 2 * binomial(2 * k, k - j - 1) + binomial(2 * k, k - j - 2)
        for _ in range(a):
            det = det * U[j]
    return det


def bareiss_determinant(M):
    """Fraction-free elimination over the integers, as an object array."""
    A = np.array(M, dtype=object)
    sign, prev = 1, 1
    for c in range(len(A)):
        nz = np.flatnonzero(A[c:, c] != 0)
        if nz.size == 0:
            return 0
        piv = c + int(nz[0])
        if piv != c:
            A[[c, piv]] = A[[piv, c]]
            sign = -sign
        A[c + 1 :, c + 1 :] = (
            A[c, c] * A[c + 1 :, c + 1 :] - np.outer(A[c + 1 :, c], A[c, c + 1 :])
        ) // prev
        prev = A[c, c]
    return sign * prev


@pytest.mark.parametrize("k", range(1, 7))
def test_noncrossing_gram_determinants_match_the_meander_formula(k):
    linreal._family.cache_clear()
    parts = enumerate_members(NAMED["NCall"], "o" * k, "")
    B = gram_exponents(parts)
    zeros = 0
    for N in range(1, 7):
        det = bareiss_determinant([[N ** int(e) for e in row] for row in B])
        assert meander_determinant(k, N) == Quad.of(det), N
        assert (gram_rank(parts, N) == len(parts)) == (det != 0), N
        zeros += det == 0
    # U_2(1) = U_3(sqrt 2) = U_5(sqrt 3) = 0
    assert zeros == (k >= 2) + (k >= 3) + (k >= 5)


@pytest.mark.parametrize("N", (1, 2, 3))
def test_noncrossing_ranks_below_4_count_the_set_partitions(N):
    linreal._family.cache_clear()
    for k in range(7):
        parts = enumerate_members(NAMED["NCall"], "o" * k, "")
        assert gram_rank(parts, N) == sum(stirling2(k, j) for j in range(N + 1))


# Entries and products stay small enough that every nonzero minor is below
# the prime, so the residue rank equals the rational rank exactly.
small_int = st.integers(min_value=-3, max_value=3)


@st.composite
def small_matrices(draw):
    def matrix(rows, cols):
        row = st.lists(small_int, min_size=cols, max_size=cols)
        return draw(st.lists(row, min_size=rows, max_size=rows))

    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return matrix(rows, cols)
    # a product through an inner dimension of at most 3 is rank-deficient
    # whenever both sides exceed it
    inner = draw(st.integers(1, 3))
    left, right = matrix(rows, inner), matrix(inner, cols)
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]


# the default row chunk, and two that put chunk boundaries inside the
# rows of small matrices
ROW_CHUNKS = [linreal._ROW_CHUNK, 8, 1]


@given(small_matrices())
def test_modular_rank_matches_bareiss(M):
    assert _rank_mod_p(np.array(M, dtype=np.int64) % linreal._PRIME) == _rank_bareiss(M)


def rank_mod_p_by_copies(M, p):
    """Gaussian elimination over F_p on a reduced copy of M, clearing all
    rows below each pivot at once: the kernel _rank_mod_p replaced."""
    A = np.mod(M, p).astype(np.int64, copy=False)
    rows, cols = A.shape
    rank = 0
    for c in range(cols):
        nz = np.flatnonzero(A[rank:, c])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            A[[rank, piv]] = A[[piv, rank]]
        inv = pow(int(A[rank, c]), p - 2, p)
        pivot_row = A[rank, c:] * inv % p
        below = rank + 1 + np.flatnonzero(A[rank + 1 :, c])
        if below.size:
            A[below, c:] = (A[below, c:] - np.outer(A[below, c], pivot_row)) % p
        rank += 1
        if rank == rows:
            break
    return rank


@given(small_matrices())
def test_modular_rank_matches_the_copying_kernel_at_every_row_chunk(M):
    p = linreal._PRIME
    want = rank_mod_p_by_copies(np.array(M, dtype=np.int64), p)
    for row_chunk in ROW_CHUNKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linreal, "_ROW_CHUNK", row_chunk)
            assert _rank_mod_p(np.array(M, dtype=np.int64) % p) == want, row_chunk


def rank_mod_p_reducing_in_place(A):
    """The lazy elimination over F_p, p = _PRIME, that reduced each
    column below the rank and the pivot row in A itself, found the rows
    to clear by a second search of the column below the pivot and took
    their multipliers from A: the kernel _rank_mod_p replaced.  A is
    overwritten."""
    p = linreal._PRIME
    rows, cols = A.shape
    rank = 0
    for c in range(cols):
        column = A[rank:, c]
        column %= p
        nz = np.flatnonzero(column)
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            A[[rank, piv]] = A[[piv, rank]]
        A[rank, c:] %= p
        inv = pow(int(A[rank, c]), p - 2, p)
        pivot_row = A[rank, c:] * inv % p
        below = rank + 1 + np.flatnonzero(A[rank + 1 :, c])
        step = max(1, linreal._ROW_CHUNK // (cols - c))
        for i in range(0, below.size, step):
            chunk = below[i : i + step]
            block = A[chunk, c:]
            block -= np.outer(block[:, 0], pivot_row)
            A[chunk, c:] = block
        rank += 1
        if rank == rows:
            break
    return rank


@st.composite
def zero_heavy_residues(draw):
    """Residues with entries in [0, p), about half of them 0, whose first
    column is 0 in the first row and not in a row below it, so that the
    first pivot, and often later ones, lies below the rank."""
    p = linreal._PRIME
    rows, cols = draw(st.integers(2, 8)), draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.just(0), st.sampled_from([1, 2, p - 1]), st.integers(1, p - 1))
    A = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    A[0][0] = 0
    A[draw(st.integers(1, rows - 1))][0] = draw(st.integers(1, p - 1))
    return A


@given(zero_heavy_residues())
def test_modular_rank_matches_the_in_place_reducing_kernel_on_zero_heavy_residues(A):
    p = linreal._PRIME
    want = rank_mod_p_by_copies(np.array(A, dtype=np.int64), p)
    for row_chunk in ROW_CHUNKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linreal, "_ROW_CHUNK", row_chunk)
            assert rank_mod_p_reducing_in_place(np.array(A, dtype=np.int64)) == want, row_chunk
            assert _rank_mod_p(np.array(A, dtype=np.int64)) == want, row_chunk


# the certification prime before the lazy reduction: the copying kernel
# ranks every circle family modulo it
OLD_PRIME = 2**31 - 1


def residue(B, N, prime):
    """The Gram matrix N^B modulo prime, as int64."""
    table = np.array([pow(N, e, prime) for e in range(int(B.max()) + 1)], dtype=np.int64)
    return table[B]


@lru_cache(maxsize=None)
def circle_families():
    """(name, members, exponents, Ns) for every NCall circle family up to
    8 points, to rank at N = 2..5, and every CU circle family up to 8
    points, to rank at N = 2..4.  The frames with all points in the lower
    row reach every family, since a family is its points read around the
    circle."""
    families = {}
    for cat, words, Ns in [
        (NAMED["NCall"], ["o" * n for n in range(9)], (2, 3, 4, 5)),
        (CU, all_words(8), (2, 3, 4)),
    ]:
        for w in words:
            parts = enumerate_members(cat, "", w)
            if parts:
                key = (cat.name, frozenset(linreal._circles(parts)))
                name = f"{cat.name} {w or 'e'}"
                families.setdefault(key, (name, parts, gram_exponents(parts), Ns))
    return list(families.values())


@lru_cache(maxsize=None)
def copying_rank(i, N):
    _, _, B, _ = circle_families()[i]
    return rank_mod_p_by_copies(residue(B, N, OLD_PRIME), OLD_PRIME)


def test_gram_exponents_match_the_min_label_kernel_on_circle_families():
    families = circle_families()
    for name, parts, B, _ in families:
        assert np.array_equal(B, exponents_by_min_labels(linreal._circles(parts))), name
    assert {429, 1430} <= {len(parts) for _, parts, _, _ in families}


def assert_in_place_ranks_match_the_copying_kernel():
    families = circle_families()
    for i, (name, _, B, Ns) in enumerate(families):
        for N in Ns:
            want = copying_rank(i, N)
            assert _rank_mod_p(residue(B, N, linreal._PRIME)) == want, (name, N)
    # NC(7) and NC(8) are deficient at N = 2 and 3, so the comparison
    # covers eliminations that run out of pivots as well as full ones
    ranks = {copying_rank(i, N) for i, (_, _, _, Ns) in enumerate(families) for N in Ns}
    assert {64, 365, 128, 1094, 429, 1430} <= ranks
    assert len(families) == 9 + 50


@pytest.mark.parametrize("row_chunk", ROW_CHUNKS)
def test_in_place_modular_rank_matches_the_copying_kernel_on_circle_families(
    row_chunk, monkeypatch
):
    # the ranks modulo the certification prime, whose rows below the
    # pivots are never reduced again, against the copying kernel's
    # modulo 2^31 - 1
    monkeypatch.setattr(linreal, "_ROW_CHUNK", row_chunk)
    assert_in_place_ranks_match_the_copying_kernel()


def test_every_full_rank_family_above_the_bareiss_budget_is_certified_by_one_residue(
    monkeypatch,
):
    # above 400 members a deficient residue raises TooLarge, so a prime
    # that made a full-rank family look deficient would refuse its rank
    checked = []
    for i, (name, parts, _, Ns) in enumerate(circle_families()):
        for N in Ns:
            if len(parts) > 400 and copying_rank(i, N) == len(parts):
                calls = counted_certification(monkeypatch)
                assert gram_rank(parts, N) == len(parts), (name, N)
                assert linreal._family.cache_info().currsize == 1
                assert calls == {"mod_p": one_residue(family_of(parts)), "bareiss": []}, (name, N)
                checked.append((len(parts), N))
    assert checked == [(429, 4), (429, 5), (1430, 4), (1430, 5)]


# -- the rotation characters of the certification ----------------------------


@lru_cache(maxsize=None)
def rotation_families():
    """(name, members, Ns) for each circle family of circle_families() at
    its Ns, of all set partitions of up to 5 points, crossing ones
    included, at N = 1..4, and of every CU word up to length 10 at
    N = 2..5; a family met twice is ranked at the union of its Ns."""
    families = {}

    def add(name, parts, Ns):
        key = frozenset(linreal._circles(parts))
        families.setdefault(key, (name, parts, set()))[2].update(Ns)

    for name, parts, _, Ns in circle_families():
        add(name, parts, Ns)
    for n in range(6):
        add(f"all {n}", all_parts(n), (1, 2, 3, 4))
    for w in all_words(10):
        parts = enumerate_members(CU, "", w)
        if parts:
            add(f"CU {w}", parts, (2, 3, 4, 5))
    return [(name, parts, sorted(Ns)) for name, parts, Ns in families.values()]


def turned_reading(c, d):
    """The circle reading c with its points moved d places back around
    the circle, its blocks numbered by first appearance."""
    first = {}
    return tuple(first.setdefault(b, len(first)) for b in c[d:] + c[:d])


def test_stored_blocks_match_union_find_on_every_rotation_family():
    # a memo entry's exponents [r, O, O'] are the join block counts of the
    # member r turns from orbit O's first against orbit O''s first; the
    # turns move the points n / h places, the orbits cover the family
    # once, and their sizes add up to its distinct members
    entries = 0
    for name, parts, _ in rotation_families():
        circles = linreal._circles(parts)
        rows = sorted(set(circles))
        family = linreal._family(frozenset(circles))
        sizes, turns = linreal._orbits(rows)
        h, n = len(turns), len(rows[0])
        assert np.array_equal(family.sizes, sizes) and sizes.sum() == len(rows), name
        orbits = [[turned_reading(rows[i], r * n // h) for r in range(h)] for i in turns[0]]
        assert [[rows[i] for i in col] for col in turns.T] == orbits, name
        assert [len(set(orbit)) for orbit in orbits] == sizes.tolist(), name
        assert set().union(*orbits) == set(rows), name
        # the union-find joins of every row against each orbit's first
        members = [Partition("", "o" * n, c) for c in rows]
        joins = np.array([[join_block_count(p, members[i]) for i in turns[0]] for p in members])
        assert np.array_equal(family.exponents, joins[turns]), name
        entries += family.exponents.size
    assert entries == 328496


def test_character_blocks_rank_the_full_residue():
    # the blocks of the rotation characters, the conjugate ones counted
    # twice, have the rank of the whole Gram residue modulo the prime
    orders, pairs = {}, 0
    for name, parts, Ns in rotation_families():
        family = family_of(parts)
        B = gram_exponents(parts)
        for N in Ns:
            want = _rank_mod_p(residue(B, N, linreal._PRIME))
            assert linreal._residue_rank(family, N) == want, (name, N)
            pairs += 1
        h = len(family.exponents)
        orders.setdefault(h, [0, 0])[0] += 1
        orders[h][1] += bool((family.sizes < h).any())
    # the turn orders met, with the families of each that have an orbit
    # smaller than the group
    assert orders == {
        1: [142, 0], 2: [30, 30], 3: [1, 1], 4: [5, 5], 5: [2, 2],
        6: [2, 2], 7: [1, 1], 8: [2, 2], 10: [1, 1],
    }
    assert (len(rotation_families()), pairs) == (186, 748)


def test_conjugate_character_blocks_are_transposed_by_the_orbit_sizes():
    # G symmetric and invariant under the turn give M_(h-j) = D M_j^T D^-1,
    # D the diagonal of the orbit sizes, which is why the certification
    # ranks only j <= h/2
    p = linreal._PRIME
    blocks = 0
    for name, parts, Ns in rotation_families():
        family = family_of(parts)
        h, sizes = len(family.exponents), family.sizes
        for N in Ns:
            A = residue(family.exponents, N, p)
            for j in range(h):
                M = linreal._block(A, sizes, j)
                D = sizes[j * sizes % h == 0].astype(np.int64)
                D_inv = np.array([pow(int(d), p - 2, p) for d in D], dtype=np.int64)
                want = D[:, None] * M.T % p * D_inv % p
                assert np.array_equal(linreal._block(A, sizes, (h - j) % h), want), (name, N, j)
                blocks += 1
    assert blocks > 748


@pytest.mark.parametrize("row_chunk", ROW_CHUNKS)
def test_modular_rank_matches_the_in_place_reducing_kernel_on_character_blocks(
    row_chunk, monkeypatch
):
    # every block M_j, j <= h/2, that the certification of a circle family
    # of up to 8 points eliminates at N = 2..5, which _residue_rank hands
    # over whole when h = 1 and skips when j meets no orbit
    monkeypatch.setattr(linreal, "_ROW_CHUNK", row_chunk)
    p = linreal._PRIME
    blocks, rows, ranks = 0, 0, set()
    for name, parts, _, _ in circle_families():
        family = family_of(parts)
        h, sizes = len(family.exponents), family.sizes
        for N in (2, 3, 4, 5):
            A = residue(family.exponents, N, p)
            for j in range(h // 2 + 1):
                if not (j * sizes % h == 0).any():
                    continue
                M = A[0] if h == 1 else linreal._block(A, sizes, j)
                want = rank_mod_p_reducing_in_place(M.copy())
                assert _rank_mod_p(M.copy()) == want, (name, N, j)
                blocks, rows = blocks + 1, rows + len(M)
                ranks.add((len(M), want))
    # blocks that run out of pivots are met as well as full ones
    assert any(r < m for m, r in ranks) and any(0 < r == m for m, r in ranks)
    # 9 NCall and 50 CU families at four N each; 15 characters of them
    # meet no orbit
    assert (blocks, rows) == (408 - 4 * 15, 5676)


def test_the_prime_has_every_root_of_unity_up_to_12_and_lazy_headroom():
    p = linreal._PRIME
    assert p < 2**22 and all(p % d for d in range(2, int(p**0.5) + 1))
    # 27720 = lcm(1, ..., 12); 17 generates F_p^*, so 17^((p-1)/h) has
    # order exactly h
    assert (p - 1) % 27720 == 0
    factors = [q for q in range(2, 12) if (p - 1) % q == 0 and all(q % d for d in range(2, q))]
    assert factors == [2, 3, 5, 7, 11]
    assert (p - 1) // (2**4 * 3**3 * 5**3 * 7 * 11) == 1
    assert all(pow(linreal._ROOT, (p - 1) // q, p) != 1 for q in factors)
    # the rows below a pivot are never reduced again within a family of
    # up to 208,012 members, the 12-point noncrossing partitions
    assert linreal._LAZY == 533483 >= comb(24, 12) // 13 == 208012


def test_a_block_above_the_lazy_headroom_raises_before_its_first_pivot():
    # a row of a larger block could take _LAZY updates, each below
    # (p - 1)^2, and leave int64 without a reduction to catch it
    with pytest.raises(TooLarge, match="533484 rows exceed"):
        _rank_mod_p(np.zeros((linreal._LAZY + 1, 1), dtype=np.int64))
    assert _rank_mod_p(np.ones((linreal._LAZY, 1), dtype=np.int64)) == 1


def test_a_turn_order_that_does_not_divide_p_minus_1_is_not_used(monkeypatch):
    # the 13 turns of a 13-point partition form one orbit of order 13,
    # which does not divide p - 1, so the family is ranked whole; the 14
    # turns of a 14-point one have order 14 = 2 * 7, which does
    blocks, block = [], linreal._block

    def counted(A, sizes, j):
        blocks.append(j)
        return block(A, sizes, j)

    monkeypatch.setattr(linreal, "_block", counted)
    for n, h in [(13, 1), (14, 14)]:
        labels = [0, 1, 0, 2, 2] + list(range(3, n - 2))
        shapes = {tuple(labels[r:] + labels[:r]) for r in range(n)}
        parts = [Partition("", "o" * n, c) for c in shapes]
        family = family_of(parts)
        assert len(family.exponents) == h
        want = _rank_mod_p(residue(gram_exponents(parts), 3, linreal._PRIME))
        blocks.clear()
        assert linreal._residue_rank(family, 3) == want
        # a family ranked whole hands its residue over without a block
        assert len(blocks) == (0 if h == 1 else h // 2 + 1), n
        assert np.array_equal(gram_exponents(parts), join_matrix(parts))


def test_a_character_that_meets_no_orbit_is_not_blocked(monkeypatch):
    # six points turned one place at a time, h = 6: the all-singleton and
    # the one-block member are orbits of one, the pairings (01)(23)(45) and
    # (12)(34)(50) an orbit of two; no orbit size times j = 1 or 2 is a
    # multiple of 6, so only j = 0 and j = 3 have a block
    blocks, block = [], linreal._block

    def counted(A, sizes, j):
        blocks.append(j)
        return block(A, sizes, j)

    monkeypatch.setattr(linreal, "_block", counted)
    shapes = [(0, 1, 2, 3, 4, 5), (0,) * 6, (0, 0, 1, 1, 2, 2), (0, 1, 1, 2, 2, 0)]
    parts = [Partition("", "o" * 6, c) for c in shapes]
    family = family_of(parts)
    assert len(family.exponents) == 6 and sorted(family.sizes.tolist()) == [1, 1, 2]
    for N in (1, 2, 3):
        blocks.clear()
        want = _rank_mod_p(residue(gram_exponents(parts), N, linreal._PRIME))
        assert linreal._residue_rank(family, N) == want, N
        assert want == linreal.rank(parts, N), N
        assert blocks == [0, 3], N


def test_modular_elimination_stays_within_a_bounded_working_set():
    # NC(7) at N = 4: the residue is 429 x 429 int64 (1.4 MiB); clearing
    # all rows below a pivot at once on a copy of it peaked at 4.3 MiB
    # beyond it, row chunks of at most _ROW_CHUNK entries at 0.4 MiB
    parts = enumerate_members(NAMED["NCall"], "o" * 7, "")
    R = residue(gram_exponents(parts), 4, linreal._PRIME)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert _rank_mod_p(R) == 429
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"{peak / 2**20:.2f} MiB beyond the residue"


def test_exponents_stay_within_a_bounded_working_set():
    # NC(8): the result is 1,430 x 190 uint8, one column per rotation
    # orbit; the pair batches of the min-label kernel peaked at about
    # 2.0 MiB beyond the 1,430 x 1,430 matrix, and the merge walk holds at
    # most 9 label matrices of 11 KiB each
    parts = enumerate_members(NAMED["NCall"], "o" * 8, "")
    circles = list(dict.fromkeys(linreal._circles(parts)))
    _, turns = linreal._orbits(circles)
    firsts = [circles[i] for i in turns[0]]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        B = linreal._exponents(circles, firsts)
        peak = tracemalloc.get_traced_memory()[1] - before - B.nbytes
    finally:
        tracemalloc.stop()
    assert B.shape == (1430, len(firsts))
    assert peak < 2**20, f"{peak / 2**20:.2f} MiB beyond the result"


@pytest.mark.parametrize("N", (2, 3))
@pytest.mark.parametrize("n,k", list(frames(5)))
def test_gram_rank_matches_explicit_rank_on_deficient_families(n, k, N):
    parts = list(enumerate_partitions("o" * k, "o" * (n - k)))
    assert gram_rank(parts, N) == linreal.rank(parts, N)
