"""Tensor realizations of diagrams and exact rank computations.

Rank oracle: over (C^N)^{\\otimes n} the span of the maps of all set
partitions of n points equals the space of vectors invariant under the
diagonal symmetric group S_N, whose dimension is the number of index
orbits, i.e. the sum of Stirling numbers S(n, j) for j <= N.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcomb import linreal
from qcomb.categories import CU, NAMED, enumerate_members
from qcomb.linreal import (
    _PRIMES,
    _rank_bareiss,
    _rank_mod_p,
    check_laws,
    fixed_points_dim,
    gram_exponents,
    gram_rank,
    join_block_count,
    law_pairs,
    realize,
)
from qcomb.partitions import duality, enumerate_partitions, identity


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
    maps = [realize(p, 2) for p in parts]
    assert linreal.rank(maps) == gram_rank(parts, 2)


def test_fixed_point_dimensions_count_unitary_pairings():
    for N in (2, 3, 4):
        assert fixed_points_dim("ox", N) == 1
    assert fixed_points_dim("oxox", 4) == 2
    assert fixed_points_dim("oo", 4) == 0


def test_realized_identity_has_diagonal_entries():
    m = realize(identity("o"), 3)
    assert (m.k, m.l) == (1, 1)
    assert m.entries == {((i,), (i,)): 1 for i in range(3)}


def test_realized_cup_pairs_equal_indices():
    d = duality("o", "x").adjoint()  # no upper points, two lower points
    m = realize(d, 2)
    assert (m.k, m.l) == (0, 2)
    assert m.entries == {((0, 0), ()): 1, ((1, 1), ()): 1}


def test_laws_hold_exactly_on_small_diagrams():
    for N in (2, 3):
        report = check_laws(law_pairs(4), N)
        assert report["orientation"] == "maps_scale_composite"
        assert report["pairs_checked"] > 0


def test_law_pairs_stay_within_the_point_bound():
    for p, q in law_pairs(4):
        assert len(p.upper) + len(p.lower) <= 4
        assert len(q.upper) + len(q.lower) <= 4


# -- differential tests of the batched Gram kernel ---------------------------


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


@pytest.mark.parametrize("n,k", list(frames(7)))
def test_gram_exponents_match_union_find_on_noncrossing_frames(n, k):
    parts = enumerate_members(NAMED["NCall"], "o" * k, "o" * (n - k))
    assert np.array_equal(gram_exponents(parts), join_matrix(parts))


def test_gram_exponents_match_union_find_on_unitary_frames():
    checked = 0
    for n, k in frames(8):
        for colors in itertools.product("ox", repeat=n):
            parts = enumerate_members(CU, "".join(colors[:k]), "".join(colors[k:]))
            if parts:
                assert np.array_equal(gram_exponents(parts), join_matrix(parts))
                checked += 1
    assert checked > 0


def test_gram_exponents_memo_follows_the_family():
    a = all_parts(4)
    b = list(reversed(a))
    c = all_parts(5)[: len(a)]
    for family in (a, b, c, a):
        B = gram_exponents(family)
        assert np.array_equal(B, join_matrix(family))
        assert not B.flags.writeable
        with pytest.raises(ValueError):
            B[0, 0] = 0


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


@given(small_matrices(), st.sampled_from(_PRIMES))
def test_modular_rank_matches_bareiss(M, prime):
    assert _rank_mod_p(np.array(M, dtype=np.int64), prime) == _rank_bareiss(M)


@pytest.mark.parametrize("N", (2, 3))
@pytest.mark.parametrize("n,k", list(frames(5)))
def test_gram_rank_matches_explicit_rank_on_deficient_families(n, k, N):
    parts = list(enumerate_partitions("o" * k, "o" * (n - k)))
    assert gram_rank(parts, N) == linreal.rank([realize(p, N) for p in parts])
