"""Exact ranks of the linear realizations of partitions on (C^N)^(tensor k).

The realizations T_p and their laws are the bit vectors of laws.py.

Ranks are certified exactly through the Gram matrix: for 0/1 vectors
indexed by joint assignments, <T_p, T_q> = N^(number of blocks of the
join of p and q on all k+l points).  laws._rank, which decides the
certificate and holds the one rank memo, asks this module for the
residue of a family above laws._SMALL_FAMILY members.  A full-rank
residue of the Gram matrix modulo a prime certifies full rank over the
rationals; otherwise laws._rank settles it by fraction-free elimination
over the integers.
The prime is 4,158,001 = 150 * 27720 + 1, below 2^22; 27720 is the
least common multiple of 1..12, so F_p holds a primitive h-th root of
unity, a power of the primitive root 17, for every h up to 12.  A
residue modulo any prime has rank at most the rational rank, so a prime
can only make a full-rank family look deficient, which sends it to the
exact elimination or, above 400 members, to TooLarge: it never yields a
wrong rank.  On every NCall circle family up to 8 points at N = 2..5
and every CU one at N = 2..4, the ranks modulo this prime equal those
modulo 2^31 - 1.

The residue is ranked one rotation character at a time.  A turn of the
circle that maps a family to itself maps the join of two members to the
join of their images, so it leaves the Gram matrix invariant; over F_p
the family's space then splits into one eigenspace of the turn per
character of its rotation group, each mapped to itself by the Gram
matrix, and the rank is the sum of the ranks of the blocks, one per
character (Gatermann and Parrilo, "Symmetry groups, semidefinite
programs, and sums of squares", JPAA 2004; on NC(n) this is the
rotation symmetry of Di Francesco's meander Gram matrix, "Meander
determinants", CMP 1998).  The Gram matrix is symmetric, so the blocks
of conjugate characters have the same rank and only the characters up
to half the group order are eliminated (_residue_rank gives the blocks).
NC(8), whose 1,430 members make 190 orbits of 8 turns, is certified by
five eliminations of 170 to 190 rows instead of one of 1,430, and each
elimination pays numpy's per-pivot overhead on fewer pivots.  A family
without rotation symmetry is ranked whole, as the one block of a group
of order 1.

The modular elimination runs in place on the residue, an int64 matrix
with entries in [0, p) that the certification builds and hands over, and
clears the rows below each pivot a chunk of at most _ROW_CHUNK entries
at a time, so its working set beyond the residue is one column and about
0.4 MiB whatever the family size.  It reduces lazily, as in Dumas,
Giorgi and Pernet, "Dense linear algebra over word-size prime fields:
the FFLAS and FFPACK packages" (ACM TOMS 2008): each pivot reduces its
column below the rank once, into a copy whose nonzeros give the pivot,
the rows to clear and their multipliers, and the tail of its own row,
and the rows below take the update unreduced; a row that is 0 in the
pivot column is not touched.  Most character blocks have a few rows,
where a pivot's time is the interpreter's steps around its numpy calls
rather than arithmetic.  An update moves an entry by less than (p - 1)^2
and a row takes one per pivot above it, so a block of up to
(2^63 - p) // (p - 1)^2 = 533,483 rows, more than the 208,012
noncrossing partitions of 12 points, is never reduced again; a larger
block raises TooLarge before its first pivot.

The join block counts of a family are computed by merges, one column q
at a time for every p at once, and the certificate reads only the
columns of one q per rotation orbit.  The members' labels start as one
matrix; each merge of q joins a point to the first point of its block,
relabels the block it joins in every p and counts down where the two
blocks were apart.  The q's are visited in the order of their merge
sequences with a stack of the labels after each merge, so q's that
share leading merges share the labels after them, and at most n + 1
label matrices are held for n points.

One memo, an lru_cache of at most _MAX_FAMILIES entries, holds the
circle families whose residues are ranked here; their ranks are in
laws._rank's memo, keyed by family and N.  A family's key is the set of
its members' circle readings (partitions.circle_reading: the labels in
circular order, blocks numbered by first appearance), so all frames
with the same points around one circle share an entry: the NCall frames
(a, n-a) of one n, or the CU frames of one circular color word,
whatever the split.  A turn of a reading is the same relabel, _canonical_labels, read
from another starting point.  An entry holds what the residue reads at
every N: the sizes of the rotation orbits, and the join block counts of
every turn of each orbit's first member against every orbit's first
member, stored as the smallest unsigned integer type that holds the
point count (uint8 on every frame a suite ranks).

This is the package's numpy module, and nothing on the import path of
the command line imports it: `verify fusion-rank` loads it only on a
family above laws._SMALL_FAMILY members, from length 8 on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import TooLarge
# the realization and rank API, re-exported
from .laws import _circles, check_laws, fixed_points_dim, gram_rank, rank, realize, small_partitions
from .partitions import Partition, _canonical_labels


_PRIME = 4158001  # 150 * 27720 + 1, below 2^22; 27720 = lcm(1, ..., 12)
_ROOT = 17  # a primitive root modulo _PRIME
_LAZY = (2**63 - _PRIME) // (_PRIME - 1) ** 2  # rows _rank_mod_p never reduces again


# ---------------------------------------------------------------------------
# Exact ranks


# entries per row chunk cleared by _rank_mod_p; keeps each temporary
# near 128 KB
_ROW_CHUNK = 2**14
# circle families kept by the Gram memo, the least recently used evicted
# first; `verify fusion-rank --length 10` meets 176 of them
_MAX_FAMILIES = 256


class _Family(NamedTuple):
    """A memo entry, over the rotation orbits of a circle family: the
    orbit sizes, and the exponents, whose entry [r, O, O'] is the join
    block count of the member r turns from orbit O's first against orbit
    O''s first."""

    sizes: np.ndarray
    exponents: np.ndarray


def _exponents(circles: list[tuple[int, ...]], qs: list[tuple[int, ...]]) -> np.ndarray:
    """The join block counts of every reading of circles with each of qs,
    one column per q."""
    m, n = len(circles), len(circles[0])
    B = np.empty((m, len(qs)), dtype=np.min_scalar_type(n))
    # row i of L holds every p's label of point i; the labels are
    # canonical, so p has max + 1 blocks, and a label's first point in q
    # is its first index
    L = np.array(circles, dtype=B.dtype).reshape(m, n).T.copy()
    count = L.max(axis=0) + 1 if n else np.zeros(m, dtype=B.dtype)
    # q's merges join each point to the first point of its block
    merges = [tuple((q.index(b), c) for c, b in enumerate(q) if q.index(b) != c) for q in qs]
    # stack[d]: the labels and block counts of every p joined with the
    # first d merges of the last q, so q's that share leading merges
    # share the labels after them
    stack = [(L, count)]
    last: tuple = ()
    for j in sorted(range(len(qs)), key=merges.__getitem__):
        shared = 0
        while shared < min(len(last), len(merges[j])) and last[shared] == merges[j][shared]:
            shared += 1
        del stack[shared + 1 :]
        for a, c in merges[j][shared:]:
            L, count = stack[-1]
            merged = L.copy()
            np.copyto(merged, L[a], where=L == L[c])
            stack.append((merged, count - (L[a] != L[c])))
        B[:, j] = stack[-1][1]
        last = merges[j]
    B.flags.writeable = False
    return B


def _turned(circles: list[tuple[int, ...]], row: dict, d: int) -> list[int] | None:
    """The row of each reading with its points moved d places back around
    the circle, or None if one leaves the family."""
    order = [*range(d, len(circles[0])), *range(d)]
    out = []
    for c in circles:
        i = row.get(_canonical_labels(c, order))
        if i is None:
            return None
        out.append(i)
    return out


def _orbits(circles: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The sizes of the orbits of the readings under the family's
    rotation group, and the (h, orbits) rows r turns from each orbit's
    first reading.  A turn moves the points d places around the circle,
    for the least d dividing the point count n whose turn maps the family
    to itself and whose order h = n / d divides p - 1, so that F_p holds
    a primitive h-th root of unity."""
    m, n = len(circles), len(circles[0])
    row = {c: i for i, c in enumerate(circles)}
    for h in range(n, 1, -1):
        if n % h == 0 and (_PRIME - 1) % h == 0:
            turn = _turned(circles, row, n // h)
            if turn is not None:
                break
    else:
        h, turn = 1, list(range(m))
    orbit, first = [-1] * m, []
    for i in range(m):
        x = i
        while orbit[x] < 0:
            orbit[x] = len(first)
            x = turn[x]
        if orbit[i] == len(first):
            first.append(i)
    turns = np.empty((h, len(first)), dtype=np.intp)
    turns[0] = first
    turn = np.array(turn, dtype=np.intp)
    for r in range(1, h):
        turns[r] = turn[turns[r - 1]]
    return np.bincount(orbit), turns


@lru_cache(maxsize=_MAX_FAMILIES)
def _family(circles: frozenset) -> _Family:
    """The memo entry of the circle family whose members read circles
    around the circle, its rows numbered in sorted order."""
    rows = sorted(circles)
    sizes, turns = _orbits(rows)
    exponents = _exponents(rows, [rows[i] for i in turns[0]])[turns]
    exponents.flags.writeable = False
    return _Family(sizes, exponents)


def gram_exponents(parts: list[Partition]) -> np.ndarray:
    """Matrix of b(p v q); the Gram matrix of the T_p at dimension N is
    N raised to this, entrywise.  The result is read-only.

    Reading the points around the circle of a frame is a bijection of
    the points, and a bijection of the points maps the join of p and q
    to the join of their images, block for block, so the matrix is that
    of the members' circle readings, in the order of parts.  It is
    computed afresh and not memoized: gram_rank keeps only the columns
    of one member per rotation orbit.  Members of different frames raise
    ShapeMismatch."""
    if not parts:
        # no member, no point: the type of a point count of 0
        B = np.zeros((0, 0), dtype=np.min_scalar_type(0))
        B.flags.writeable = False
        return B
    circles = _circles(parts)
    return _exponents(circles, circles)


def _rank_mod_p(A: np.ndarray) -> int:
    """Rank over F_p of A, p = _PRIME, eliminated in place.

    A is an int64 residue with entries in [0, p) that the caller owns
    and hands over: it is overwritten.  Each column is reduced below the
    rank once, into a copy, and its nonzeros give both the pivot, the
    first of them, and the rows to clear, the others, with their
    multipliers.  Only those rows are cleared, and only right of the
    pivot column, which is not read again: the rank needs an echelon
    form, not a reduced one.  They are cleared a chunk of rows at a time,
    at most _ROW_CHUNK entries each, so the working set beyond A is the
    column copy and one chunk.

    Reduction is lazy: each pivot reduces only its column below the rank
    and the tail of its own row, so the multipliers and the pivot row
    lie in [0, p), and an update moves an entry of a row below down by
    less than (p - 1)^2, once per pivot above it: entries stay in
    (-2^63, p) when A has at most _LAZY rows, and a larger A raises
    TooLarge at once."""
    rows, cols = A.shape
    if rows > _LAZY:
        raise TooLarge(f"{rows} rows exceed the {_LAZY}-row budget of the modular elimination")
    p = _PRIME
    rank = 0
    for c in range(cols):
        col = A[rank:, c] % p
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        first = int(nz[0])
        if first:
            A[[rank, rank + first]] = A[[rank + first, rank]]
        if nz.size > 1:
            inv = pow(int(col[first]), -1, p)
            pivot_row = A[rank, c + 1 :] % p * inv % p
            step = max(1, _ROW_CHUNK // (cols - c))
            for i in range(1, nz.size, step):
                chunk = nz[i : i + step]
                A[rank + chunk, c + 1 :] -= col[chunk, None] * pivot_row
        rank += 1
        if rank == rows:
            break
    return rank


def _block(A: np.ndarray, sizes: np.ndarray, j: int) -> np.ndarray:
    """M_j modulo the prime over the orbits whose size times j the group
    order h divides; A[r, O, O'] is the Gram residue of the member r
    turns from orbit O's first against orbit O''s first, sizes the orbit
    sizes."""
    h = len(A)
    keep = np.flatnonzero(j * sizes % h == 0)
    # w^(jr) for r below the orbit's size, 0 from there on
    w = pow(_ROOT, (_PRIME - 1) // h * j, _PRIME)
    powers = np.array([pow(w, r, _PRIME) for r in range(h)], dtype=np.int64)
    weights = np.where(np.arange(h)[:, None] < sizes, powers[:, None], 0)
    # each product is below p^2, and h of them stay below 2^63
    M = np.einsum("rk,rkl->kl", weights, A)
    return M[keep[:, None], keep] % _PRIME


def _residue_rank(family: _Family, N: int) -> int:
    """Rank over F_p of the Gram residue at N of a memo entry, one
    rotation character at a time.

    The family's rotation group of order h permutes its members and
    leaves G = N^B invariant, and over F_p, which holds a primitive h-th
    root of unity w and in which h is invertible, F_p^m splits into the
    eigenspaces of the rotation, one per character j = 0..h-1, each
    mapped to itself by G (Gatermann and Parrilo, JPAA 2004; see the
    module docstring).  Character j meets orbit O when h divides j|O|,
    and on those orbits G acts by

        M_j[O, O'] = sum over r < |O| of w^(jr) G[s^r p_O, p_O'],

    s the turn and p_O the orbit's first member.  So the residue rank is
    the sum of the ranks of the M_j.  G is symmetric and invariant, so
    M_(-j) = D M_j^T D^-1 with D = diag(|O|), and characters j and h - j
    have the same rank: the sum counts twice each j with 0 < 2j < h and
    once j = 0 and 2j = h; a character that meets no orbit has an empty
    block and is skipped.  A family without rotation symmetry has h = 1
    and one block, its residue, ranked as it is."""
    E, sizes = family.exponents, family.sizes
    h = len(E)
    # table holds N^e reduced modulo the prime, so table[E] is the exact
    # residue of the Gram matrix however large N^e grows
    table = np.array([pow(N, e, _PRIME) for e in range(int(E.max()) + 1)], dtype=np.int64)
    A = table[E]
    if h == 1:
        return _rank_mod_p(A[0])
    return sum(
        (1 if 2 * j % h == 0 else 2) * _rank_mod_p(_block(A, sizes, j))
        for j in range(h // 2 + 1)
        if (j * sizes % h == 0).any()
    )
