"""Exact linear realizations of partitions on (C^N)^(tensor k).

T_p sends a source multi-index to the sum of target multi-indices such
that the joint assignment is constant on every block of p.  Entries are
0/1, so everything here is integer arithmetic; no floating point.

Ranks are certified exactly through the Gram matrix: for 0/1 vectors
indexed by joint assignments, <T_p, T_q> = N^(number of blocks of the
join of p and q on all k+l points).  A full-rank residue of the Gram
matrix modulo a prime certifies full rank over the rationals; otherwise
a fraction-free elimination over the integers settles the rank exactly.

The join block counts of a family are computed for all pairs at once in
numpy batches: each partition becomes a successor map that cycles through
every block, and min-label propagation along the two maps of a pair
reaches the least point of each block of the join.  The exponent matrix
of the most recent family is memoized, so the ranks at several N share
one matrix.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .partitions import WHITE, Partition, UnionFind, enumerate_partitions


class TooLarge(Exception):
    pass


class ShapeMismatch(Exception):
    pass


class LawViolation(Exception):
    pass


MAX_POINTS = 10
_PRIMES = (2147483647, 2147483629, 2147483587)


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


def realize(p: Partition, N: int) -> PartitionMap:
    """The 0/1 matrix delta_p; the number of nonzeros is N^b(p)."""
    k, l = p.n_upper, p.n_lower
    if k + l > MAX_POINTS:
        raise TooLarge(f"{k + l} points exceeds the {MAX_POINTS}-point budget")
    nb = p.n_blocks
    entries = {}
    for assign in product(range(N), repeat=nb):
        joint = tuple(assign[b] for b in p.labels)
        entries[(joint[k:], joint[:k])] = 1
    return PartitionMap(k, l, N, entries)


# ---------------------------------------------------------------------------
# Composition laws


def small_partitions(max_points: int) -> list[Partition]:
    """All partitions over all frames with at most max_points points,
    one representative (all-white) coloring each: the matrix entries
    depend only on the uncolored block structure."""
    out: list[Partition] = []
    for total in range(max_points + 1):
        for k in range(total + 1):
            out.extend(enumerate_partitions(WHITE * k, WHITE * (total - k)))
    return out


def law_pairs(max_points: int):
    """Pairs (q, p) with combined point count within max_points, for the
    composition-law suite."""
    parts = small_partitions(max_points)
    for p in parts:
        for q in parts:
            if p.n_points + q.n_points <= max_points:
                yield q, p


def check_laws(pairs, N: int) -> dict:
    """Verify the adjoint, tensor and loop laws on composable pairs.

    The loop law is oriented empirically: for each composable pair the
    matrix product T_q . T_p is compared with both N^rl * T_{qp} and
    T_{qp} scaled the other way; a single orientation must fit all pairs.
    Returns a report dict with the orientation and the number of pairs
    checked.  Raises LawViolation on any failure.
    """
    checked = 0
    orientation = None
    for q, p in pairs:
        tp, tq = realize(p, N), realize(q, N)
        if realize(p.adjoint(), N) != tp.adjoint():
            raise LawViolation(f"adjoint law fails for {p}")
        if realize(p.tensor(q), N) != tp.tensor(tq):
            raise LawViolation(f"tensor law fails for {p} (x) {q}")
        if p.lower != q.upper:
            continue
        comp, rl = q.compose(p)
        lhs = tq.compose(tp)
        rhs = realize(comp, N)
        if lhs == rhs.scaled(N**rl):
            fit = "maps_scale_composite"  # T_q . T_p = N^rl T_{qp}
        elif rhs == lhs.scaled(N**rl):
            fit = "composite_scales_maps"  # T_{qp} = N^rl T_q . T_p
        else:
            raise LawViolation(f"loop law fails for {q} after {p}")
        if rl > 0:
            if orientation is None:
                orientation = fit
            elif orientation != fit:
                raise LawViolation(
                    f"loop-law orientation flips at {q} after {p}: "
                    f"{orientation} vs {fit}"
                )
        checked += 1
    return {"orientation": orientation, "pairs_checked": checked, "N": N}


# ---------------------------------------------------------------------------
# Exact ranks


def join_block_count(p: Partition, q: Partition) -> int:
    """Number of blocks of the join of p and q on their common point set."""
    n = p.n_points
    uf = UnionFind(n)
    for part in (p, q):
        for blk in part.blocks:
            for a, b in zip(blk, blk[1:]):
                uf.union(a, b)
    return len({uf.find(i) for i in range(n)})


# pairs per batch in gram_exponents; keeps each temporary near 1 MB
_PAIR_CHUNK = 4096


def _successors(parts: tuple[Partition, ...]) -> np.ndarray:
    """Row i maps each point to the next point of its block under parts[i],
    cyclically, so that the block is one cycle of the map."""
    succ = np.empty((len(parts), parts[0].n_points), dtype=np.intp)
    for i, p in enumerate(parts):
        for blk in p.blocks:
            succ[i, list(blk)] = blk[1:] + blk[:1]
    return succ


@lru_cache(maxsize=1)
def _exponents(parts: tuple[Partition, ...]) -> np.ndarray:
    m, n = len(parts), parts[0].n_points
    succ = _successors(parts)
    B = np.empty((m, m), dtype=np.int64)
    points = np.arange(n)
    r0 = 0
    while r0 < m:
        # rows r0..r1-1 against columns r0..m-1; the pairs below the
        # diagonal inside the band are recomputed, which is cheap
        r1 = min(m, r0 + max(1, _PAIR_CHUNK // (m - r0)))
        I = np.repeat(np.arange(r0, r1), m - r0)
        J = np.tile(np.arange(r0, m), r1 - r0)
        offset = (np.arange(len(I)) * n)[:, None]
        nxt_p = (succ[I] + offset).ravel()
        nxt_q = (succ[J] + offset).ravel()
        # min-label propagation: at the fixed point every point carries
        # the least point of its block of the join, so each block has
        # exactly one point whose label is itself
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
    B.flags.writeable = False
    return B


def gram_exponents(parts: list[Partition]) -> np.ndarray:
    """Matrix of b(p v q); the Gram matrix of the T_p at dimension N is
    N raised to this, entrywise.  The result is read-only: the matrix of
    the most recent family is memoized and shared between callers."""
    if not parts:
        return np.zeros((0, 0), dtype=np.int64)
    return _exponents(tuple(parts))


def _rank_mod_p(M: np.ndarray, p: int) -> int:
    """Gaussian elimination over F_p; int64 is safe for p < 2^31.

    Only the rows below the pivot are cleared, and only from the pivot
    column on: the rank needs an echelon form, not a reduced one."""
    A = np.mod(M, p).astype(np.int64)
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


def _rank_bareiss(M: list[list[int]]) -> int:
    """Fraction-free elimination over the integers; exact, no floats."""
    A = [row[:] for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    rank = 0
    prev = 1
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


def gram_rank(parts: list[Partition], N: int) -> int:
    """Exact rank over the rationals of {T_p : p in parts} at dimension N."""
    if not parts:
        return 0
    frames = {(p.upper, p.lower) for p in parts}
    if len(frames) > 1:
        raise ShapeMismatch("mixed frames")
    B = gram_exponents(parts)
    n = len(parts)
    # a full-rank residue modulo a prime certifies full rational rank;
    # the table holds N^e reduced modulo the prime, so table[B] is the
    # exact residue of the Gram matrix however large N^e grows
    for prime in _PRIMES:
        table = np.array([pow(N, e, prime) for e in range(int(B.max()) + 1)], dtype=np.int64)
        if _rank_mod_p(table[B], prime) == n:
            return n
    # modular rank only bounds the rational rank from below, so a
    # deficient family needs the integer elimination to settle the value
    if n > 400:
        raise TooLarge(
            f"rank defect suspected on a {n}x{n} Gram matrix; "
            "exact elimination at this size is out of budget"
        )
    G_exact = [[N ** int(B[i, j]) for j in range(n)] for i in range(n)]
    return _rank_bareiss(G_exact)


def rank(maps: list[PartitionMap]) -> int:
    """Exact rank of explicit partition maps (small inputs)."""
    if not maps:
        return 0
    shape = {(m.k, m.l, m.N) for m in maps}
    if len(shape) > 1:
        raise ShapeMismatch("mixed shapes")
    keys = sorted({key for m in maps for key in m.entries})
    M = [[m.entries.get(key, 0) for key in keys] for m in maps]
    return _rank_bareiss(M)


def fixed_points_dim(w: str, N: int) -> int:
    """Dimension of the span of {T_p : p in CU(empty, w)}."""
    from .categories import CU, enumerate_members

    parts = enumerate_members(CU, "", w)
    return gram_rank(parts, N)
