"""The realization laws as identities of Python ints, without numpy.

T_p sends a source multi-index to the sum of the target multi-indices
whose joint assignment is constant on every block of p.  Its entries are
0/1, so realize keeps it as an int whose bit col * N^l + row, the joint
assignment read as a base-N number in point order, is set exactly where
T_p has a 1.  A reading of p sets the bits of the same assignments under
other place values of its points.  check_laws checks (Banica and
Speicher, "Liberation of orthogonal Lie groups", Adv. Math. 2009):

* adjoint: T_{p*} read lower row first is T_p;
* tensor: T_{p (x) q} read p's points first is stretch(T_p) * T_q, bit i
  of T_p moved to bit i * N^(points of q): the Kronecker product, with
  no carries since T_q < 2^(N^(points of q));
* loop: T_q . T_p = N^rl T_{qp}, read off one product (_loop_layout).

gram_rank ranks a circle family of at most _SMALL_FAMILY members by
Bareiss on its Gram matrix <T_p, T_q> = N^b(p v q), a larger one in linreal.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache

from .categories import CU, enumerate_members
from .errors import LawViolation, ShapeMismatch, TooLarge
from .partitions import WHITE, Partition, _canonical_labels, circular_order, enumerate_partitions

MAX_POINTS = 10
MAX_ENTRIES = 2**20  # N^points, the bits of the largest realization


def _vector(labels, weights, N: int, base: int = 0) -> int:
    """The bits base + sum(a_i weights[i]) of the assignments a of values
    below N constant on each block, after the budget checks.  A block of
    weight w < 0 sets bits of weight -w from base + (N - 1) w, at least 0."""
    n = len(labels)
    if n > MAX_POINTS:
        raise TooLarge(f"{n} points exceeds the {MAX_POINTS}-point budget")
    if N**n > MAX_ENTRIES:
        raise TooLarge(f"N^points = {N**n} exceeds the {MAX_ENTRIES}-entry budget")
    block = [0] * (max(labels, default=-1) + 1)
    for b, w in zip(labels, weights):
        block[b] += w
    v = 1
    for w in block:
        if w < 0:
            base += (N - 1) * w
            w = -w
        before = v
        for x in range(1, N):
            v |= before << x * w
    return v << base


@lru_cache(maxsize=None)
def _weights(n: int, N: int) -> tuple[int, ...]:
    """Big-endian place values of n base-N digits."""
    return tuple(N ** (n - 1 - i) for i in range(n))


def realize(p: Partition, N: int) -> int:
    """T_p as a bit vector, with N^b(p) bits set: bit col * N^l + row for
    each upper multi-index col and lower one row, both big-endian, whose
    joint assignment is constant on every block."""
    return _vector(p.labels, _weights(p.n_points, N), N)


def small_partitions(max_points: int) -> list[Partition]:
    """All partitions of at most max_points points over all frames, all
    white: the realizations depend only on the uncolored blocks."""
    out: list[Partition] = []
    for total in range(max_points + 1):
        for k in range(total + 1):
            out.extend(enumerate_partitions(WHITE * k, WHITE * (total - k)))
    return out


def law_pairs(max_points: int):
    """Pairs (q, p) with combined point count within max_points, for the
    composition-law suite.  small_partitions is sorted by point count, so
    each p is paired with the prefix of partners that fit."""
    parts = small_partitions(max_points)
    counts = [p.n_points for p in parts]
    for p in parts:
        for q in parts[: bisect_right(counts, max_points - p.n_points)]:
            yield q, p


@lru_cache(maxsize=256)
def _loop_layout(k: int, m: int, l: int, N: int):
    """Where one product holds T_q . T_p, p: k -> m and q: m -> l.  With
    M = N^m, L = N^l, R = L (2M - 1) and fields of W bits, above any count,
    p's reading puts T_p[m, u] at field L m + R u and q's, its middle index
    reversed, T_q[t, m] at t + L (M - 1 - m); their product holds
    (T_q . T_p)[t, u] at L (M - 1) + R u + t, the terms m != m' elsewhere
    below R (u + 1).  Returns the bit weights of the readings of p, q and
    qp, the base of the last two and the mask of T_q . T_p's fields."""
    M, L = N**m, N**l
    W = M.bit_length()
    R = L * (2 * M - 1)
    base = W * L * (M - 1)
    mask = sum(((1 << L * W) - 1) << (base + W * R * u) for u in range(N**k))
    upper = tuple(W * R * x for x in _weights(k, N))
    middle = tuple(W * L * x for x in _weights(m, N))
    lower = tuple(W * x for x in _weights(l, N))
    return upper + middle, tuple(-x for x in middle) + lower, upper + lower, base, mask


def check_laws(pairs, N: int) -> dict:
    """Verify the adjoint, tensor and loop laws on pairs (q, p), raising
    LawViolation on a failure.  Reports the composable pairs and the loop
    orientation, "maps_scale_composite" (T_q . T_p = N^rl T_{qp}) once a
    pair closes a loop: a 0/1 T_{qp} is not N^rl > 1 times an int one."""

    @lru_cache(maxsize=None)
    def T(p: Partition) -> int:
        """T_p, realized once, with its adjoint law checked."""
        v = realize(p, N)
        k, w = p.n_upper, _weights(p.n_points, N)
        # p*'s lower row holds p's upper points, read first
        if _vector(p.adjoint().labels, w[k:] + w[:k], N) != v:
            raise LawViolation(f"adjoint law fails for {p}")
        return v

    # each p's pairs come together in law_pairs, so recent stretches serve them
    stretch = lru_cache(maxsize=16)(lambda p, weights: _vector(p.labels, weights, N))
    orientation, checked = None, 0
    for q, p in pairs:
        T(p)  # each partition's adjoint law, once
        k, m, l, n = p.n_upper, p.n_lower, q.n_lower, p.n_points + q.n_points
        # p (x) q holds p upper, q upper, p lower, q lower; p's points weigh w[:k + m]
        w = _weights(n, N)
        order = w[:k] + w[k + m : n - l] + w[k : k + m] + w[n - l :]
        if _vector(p.tensor(q).labels, order, N) != stretch(p, w) * T(q):
            raise LawViolation(f"tensor law fails for {p} (x) {q}")
        if p.lower != q.upper:
            continue
        comp, rl = q.compose(p)
        p_reading, q_reading, comp_reading, base, mask = _loop_layout(k, m, l, N)
        product = _vector(p.labels, p_reading, N) * _vector(q.labels, q_reading, N, base)
        if product & mask != N**rl * _vector(comp.labels, comp_reading, N, base):
            raise LawViolation(f"loop law fails for {q} after {p}")
        if rl > 0:
            orientation = "maps_scale_composite"
        checked += 1
    return {"orientation": orientation, "pairs_checked": checked, "N": N}


# Families of at most this many members are ranked here, larger ones by
# linreal's residue: with numpy loaded, a first rank at N = 4 of a CU family
# of 1 to 7 members took 10-190 us here and 95-320 us there, of 10 0.4 ms
# on both, of 14 0.85 and 0.66 ms.  No CU family has 8 or 9 members.
_SMALL_FAMILY = 8


def _circles(parts: list[Partition]) -> list[tuple[int, ...]]:
    """Each member's circle reading (circle_reading), the circular order
    of their common frame looked up once."""
    if len({(p.upper, p.lower) for p in parts}) > 1:
        raise ShapeMismatch("mixed frames")
    order = circular_order(parts[0].n_upper, parts[0].n_lower)
    return [_canonical_labels(p.labels, order) for p in parts]


def _join_count(p: tuple[int, ...], q: tuple[int, ...]) -> int:
    """b(p v q) of two circle readings of the same points: p's blocks,
    each block of q merging those of its points into its first point's."""
    rep, first = list(range(max(p, default=-1) + 1)), {}
    for a, b in zip(p, q):
        x, y = rep[first.setdefault(b, a)], rep[a]
        if x != y:
            rep = [x if r == y else r for r in rep]
    return len(set(rep))


def _rank_bareiss(M: list[list[int]]) -> int:
    """Fraction-free elimination over the integers; exact, no floats."""
    A = [row[:] for row in M]
    rows, cols = len(A), len(A[0]) if A else 0
    rank, prev = 0, 1
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if A[r][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        for r in range(rank + 1, rows):
            for cc in range(c + 1, cols):
                A[r][cc] = (A[rank][c] * A[r][cc] - A[r][c] * A[rank][cc]) // prev
            A[r][c] = 0
        prev = A[rank][c]
        rank += 1
        if rank == rows:
            break
    return rank


@lru_cache(maxsize=256)  # `verify fusion-rank --length 10` ranks 154 small families
def _small_rank(circles: frozenset, N: int) -> int:
    """Exact rank at N of the Gram matrix of a small circle family."""
    rows = sorted(circles)
    return _rank_bareiss([[N ** _join_count(p, q) for q in rows] for p in rows])


def gram_rank(parts: list[Partition], N: int) -> int:
    """Exact rank over the rationals of {T_p : p in parts} at dimension N.

    The rank is certified once per circle family and N: the Gram matrix of
    parts is the family's with rows and columns permuted together and
    repeated.  A family of at most _SMALL_FAMILY members is certified by
    Bareiss on its exact Gram matrix, with no residue; a larger one by
    linreal._family_rank.  Members of different frames raise ShapeMismatch."""
    if not parts:
        return 0
    circles = frozenset(_circles(parts))
    if len(circles) <= _SMALL_FAMILY:
        return _small_rank(circles, N)
    from . import linreal

    return linreal._family_rank(circles, N)


def rank(parts: list[Partition], N: int) -> int:
    """Exact rank of the realizations of parts at dimension N, on their bit
    vectors (small inputs).  Members of different frames raise ShapeMismatch."""
    if len({(p.upper, p.lower) for p in parts}) > 1:
        raise ShapeMismatch("mixed frames")
    vectors = [realize(p, N) for p in parts]
    width = max((v.bit_length() for v in vectors), default=0)
    return _rank_bareiss([[v >> i & 1 for i in range(width)] for v in vectors])


def fixed_points_dim(w: str, N: int) -> int:
    """Dimension of the span of {T_p : p in CU(empty, w)}."""
    return gram_rank(enumerate_members(CU, "", w), N)
