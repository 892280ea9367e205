"""Rooted regular quantum trees over a finite quantum space.

The base space is either C^N with the uniform state (delta^2 = N) or
M_N(C) with the normalized trace (delta^2 = N^2).  The depth-k tree is
the direct sum of the tensor powers B^0 .. B^k with the weighted state
psi_k = (1/delta_k) sum delta^i psi^i and adjacency Id + sum (x -> x o 1).
Level i multiplies componentwise, so each fact about it is the base fact
to the power i: check_delta_form scans the base once, and no level's
basis is listed.

All scalar arithmetic is exact in the field Q(sqrt(N)) (rational when
sqrt(N) or delta is rational), so the reported Schur constants are exact
values, not approximations.  The conjugation check works over Q(i), with
i = Quad.sqrt(-1), and compares its matrices with ==.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product
from random import Random
from typing import NamedTuple

from .errors import InputError, NotUnitary, TooLarge

# the largest dimension of a tree level, B^i for i <= depth
MAX_LEVEL_DIM = 5000


# ---------------------------------------------------------------------------
# Exact scalars a + b sqrt(d)


def _exact(x) -> Fraction:
    """x as a Fraction, so that / stays exact on int input; a float is refused."""
    if isinstance(x, float):
        raise InputError(f"a Quad coefficient must be exact, got the float {x!r}")
    return x if type(x) is Fraction else Fraction(x)


class Quad:
    __slots__ = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        # sqrt(0) = 0; _squarefree needs d != 0
        a, b = _exact(a), _exact(b) if d else Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)  # radicand; ignored when b == 0

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @staticmethod
    def of(x) -> "Quad":
        return Quad(x, 0, 1)

    @staticmethod
    def sqrt(n: int) -> "Quad":
        r = math.isqrt(abs(n))
        if r * r == n:
            return Quad.of(r)
        return Quad(0, 1, n)

    def _squarefree(self) -> "Quad":
        """The same number with the largest square dividing d moved into b."""
        s = max(f for f in range(1, math.isqrt(abs(self.d)) + 1) if self.d % (f * f) == 0)
        return Quad(self.a, self.b * s, self.d // (s * s))

    def _join(self, other: "Quad") -> tuple["Quad", "Quad", int]:
        """Both operands over one radicand, square factors taken out only where two differ."""
        if self.b and other.b and self.d != other.d:
            self, other = self._squarefree(), other._squarefree()
            if self.d != other.d:
                raise InputError("mixed radicands")
        return self, other, self.d if self.b else other.d

    def __add__(self, other: "Quad") -> "Quad":
        x, y, d = self._join(other)
        return Quad(x.a + y.a, x.b + y.b, d)

    def __sub__(self, other: "Quad") -> "Quad":
        x, y, d = self._join(other)
        return Quad(x.a - y.a, x.b - y.b, d)

    def __mul__(self, other: "Quad") -> "Quad":
        x, y, d = self._join(other)
        return Quad(x.a * y.a + x.b * y.b * d, x.a * y.b + x.b * y.a, d)

    def inverse(self) -> "Quad":
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("zero scalar")
        return Quad(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other: "Quad") -> "Quad":
        return self * other.inverse()

    def _key(self) -> tuple:
        """The number, not its representation: (a, 0, 0) when b = 0, else
        over the squarefree radicand, with a radicand of 1 folded into a."""
        if self.b == 0:
            return self.a, 0, 0
        x = self._squarefree()
        return (x.a + x.b, 0, 0) if x.d == 1 else (x.a, x.b, x.d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quad):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt({self.d})"
        return f"{self.a}{'+' if self.b > 0 else '-'}{abs(self.b)}*sqrt({self.d})"


ZERO = Quad.of(0)
ONE = Quad.of(1)


# ---------------------------------------------------------------------------
# Base quantum spaces


class QuantumSpace(NamedTuple):
    """C^N with the uniform state or M_N(C) with the normalized trace."""

    kind: str  # "classical" | "matrix"
    N: int

    @property
    def delta(self) -> Quad:
        return Quad.sqrt(self.dim)

    @property
    def labels(self) -> list:
        if self.kind == "classical":
            return list(range(self.N))
        return [(a, b) for a in range(self.N) for b in range(self.N)]

    @property
    def dim(self) -> int:
        return self.N if self.kind == "classical" else self.N * self.N

    def mult(self, x, y):
        """Product of two basis elements: a basis element or None."""
        if self.kind == "classical":
            return x if x == y else None
        return (x[0], y[1]) if x[1] == y[0] else None

    def mult_pairs(self, z) -> list:
        """All basis pairs (x, y) with x y = z."""
        if self.kind == "classical":
            return [(z, z)]
        return [((z[0], b), (b, z[1])) for b in range(self.N)]

    def state(self, x) -> Fraction:
        """psi on a basis element."""
        if self.kind == "classical":
            return Fraction(1, self.N)
        return Fraction(1, self.N) if x[0] == x[1] else Fraction(0)

    def unit_support(self) -> list:
        """Basis elements appearing in 1 (all coefficients are 1)."""
        if self.kind == "classical":
            return list(range(self.N))
        return [(a, a) for a in range(self.N)]

    def basis_norm(self) -> Fraction:
        """<b, b> = psi(b* b), equal for every basis element."""
        return Fraction(1, self.N)


def classical(N: int) -> QuantumSpace:
    return QuantumSpace("classical", N)


def matrix_trace(N: int) -> QuantumSpace:
    return QuantumSpace("matrix", N)


def check_delta_form(base: QuantumSpace) -> bool:
    """m m* = delta^2 id on the base, with the GNS adjoint of psi.

    For a basis element z, m*(z) = (1/<b,b>) sum of the pairs listed for z,
    so m m*(z) = (#pairs / <b,b>) z when each pair gives z back, and the
    check is arithmetic.  This is the one scan of the base's pairs; every
    tree level reads its count off the base (QuantumTree.pair_counts).
    """
    counts = set()
    for z in base.labels:
        pairs = base.mult_pairs(z)
        if any(base.mult(x, y) != z for x, y in pairs):
            return False
        counts.add(len(pairs))
    return len(counts) == 1 and Fraction(counts.pop()) / base.basis_norm() == base.dim


# ---------------------------------------------------------------------------
# Quantum trees


class QuantumTree:
    """Direct sum of B^0..B^k; basis elements are (level, tuple) pairs."""

    def __init__(self, base: QuantumSpace, depth: int):
        if base.dim**depth > MAX_LEVEL_DIM:
            raise TooLarge("tree level dimension out of budget")
        self.base = base
        self.depth = depth
        self.delta = base.delta
        self.delta_powers = [ONE]  # delta^0 .. delta^depth
        for _ in range(depth):
            self.delta_powers.append(self.delta_powers[-1] * self.delta)
        self.delta_k = sum(self.delta_powers[1:], ONE)

    def basis_norm(self, i: int, weighted: bool = True) -> Quad:
        """<x, x> for a level-i basis element: (1/N)^i per tensorand,
        weighted by delta^i / delta_k under psi_k."""
        h = Quad.of(self.base.basis_norm() ** i)
        if weighted:
            h = h * self.delta_powers[i] / self.delta_k
        return h

    @property
    def pair_counts(self) -> list[Fraction]:
        """The number of pairs multiplying to a level-i basis element, per
        level: c^i, where c = delta^2 <b, b> is the base count.  Precondition:
        the base passes check_delta_form, which suites.trees runs first, so
        each base element has c pairs giving it back, and the pairs of a
        level-i tuple are the componentwise products of its tensorands'."""
        c = self.base.dim * self.base.basis_norm()
        return [c**i for i in range(self.depth + 1)]

    def state_is_unital(self) -> bool:
        """psi_k applied to the unit of B_k equals 1.  The unit of level i
        is 1 tensored i times and psi^i is the product state, so level i
        gives delta^i psi(1)^i, with psi(1) summed once over the base's
        unit support."""
        psi_one = sum(map(self.base.state, self.base.unit_support()), Fraction(0))
        total = sum((p * Quad.of(psi_one**i) for i, p in enumerate(self.delta_powers)), ZERO)
        return total / self.delta_k == ONE


class SchurReport(NamedTuple):
    base: str
    N: int
    depth: int
    mode: str  # "weighted" (psi_k GNS) | "per-level"
    id_constants: list[Quad]  # below the top level, also the embedding constants
    delta_k_squared: Quad
    matches_global_constant: bool

    def verdict(self) -> str:
        if self.matches_global_constant:
            return "global constant delta_k^2"
        return "level-dependent constants"

    def lines(self) -> list[str]:
        out = [
            f"base={self.base}({self.N}) depth={self.depth} mode={self.mode} "
            f"delta_k^2={self.delta_k_squared}"
        ]
        for i, c in enumerate(self.id_constants):
            out.append(
                f"  level {i}: id coefficient {c}"
                + (f", embedding coefficient {c}" if i < self.depth else "")
            )
        out.append(f"  verdict: {self.verdict()}")
        return out


def schur_constants(tree: QuantumTree, weighted: bool = True) -> SchurReport:
    """Decompose m (A_k o A_k) m* in {Id_level, A_i} exactly.

    m* is the GNS adjoint of multiplication, either for the weighted state
    psi_k or for the per-level unweighted states.  For a level-i basis
    element x, m*(x) = (1/h_i) sum of pairs (u, v) with u v = x, and the
    operator acts as

        L(x) = (pairs / h_i) (x + x o 1)        (x o 1 absent at level k)

    because the cross terms Id o A and A o Id land in the kernel of m.
    Level i multiplies componentwise, so the pairs of x are the products
    of its tensorands' pairs, c^i of them for the base count c, and the
    constant is the same across the basis of each level.  The base
    decides every level (QuantumTree.pair_counts).
    """
    base = tree.base
    id_consts = [Quad.of(n) / tree.basis_norm(i, weighted) for i, n in enumerate(tree.pair_counts)]
    dk2 = tree.delta_k * tree.delta_k
    matches = all(c == dk2 for c in id_consts)
    return SchurReport(
        base.kind,
        base.N,
        tree.depth,
        "weighted" if weighted else "per-level",
        id_consts,
        dk2,
        matches,
    )


def embedding_scalars(tree: QuantumTree) -> list[Quad]:
    """<A_i x, A_i x> / <x, x> under psi_k, per level; constant by direct
    computation (the embedded unit contributes one extra state factor and
    one extra weight factor)."""
    out = []
    for i in range(tree.depth):
        num = tree.basis_norm(i + 1) * Quad.of(len(tree.base.unit_support()))
        out.append(num / tree.basis_norm(i))
    return out


# ---------------------------------------------------------------------------
# Classical tree extraction


def classical_graph(N: int, k: int) -> dict[tuple, list[tuple]]:
    """Parent -> children adjacency of A_k - Id on the delta basis of the
    classical base: x o 1 is the sum of the x (x) j over the support of 1."""
    base = QuantumTree(classical(N), k).base  # refuses a level out of budget
    ones = base.unit_support()
    adj = {t: [t + (j,) for j in ones] for i in range(k) for t in product(base.labels, repeat=i)}
    return adj | {t: [] for t in product(base.labels, repeat=k)}


# ---------------------------------------------------------------------------
# Conjugation action over Q(i)


def _kron(A: list[list[Quad]], B: list[list[Quad]]) -> list[list[Quad]]:
    return [[x * y for x in ra for y in rb] for ra in A for rb in B]


def _matmul(A: list[list[Quad]], B: list[list[Quad]]) -> list[list[Quad]]:
    return [[sum(map(Quad.__mul__, row, col), ZERO) for col in zip(*B)] for row in A]


def _adjoint(A: list[list[Quad]]) -> list[list[Quad]]:
    """The conjugate transpose; a + b i has conjugate a - b i."""
    return [[Quad(x.a, -x.b, x.d) for x in col] for col in zip(*A)]


def _circle_point(rng: Random) -> tuple[Fraction, Fraction]:
    """(cos, sin) = (m^2 - n^2, 2mn) / (m^2 + n^2), a rational point of the unit circle."""
    m, n = rng.randint(1, 9), rng.randint(1, 9)
    return Fraction(m * m - n * n, m * m + n * n), Fraction(2 * m * n, m * m + n * n)


def exact_unitary(N: int, rng: Random) -> list[list[Quad]]:
    """An N x N unitary over Q(i): a diagonal of phases (a + bi) / (a - bi),
    that is cos + i sin, then a plane rotation of each pair of rows.  Such
    phases and rotations generate a dense subgroup of U(N)."""
    phases = [Quad(*_circle_point(rng), -1) for _ in range(N)]
    V = [[phases[r] if r == c else ZERO for c in range(N)] for r in range(N)]
    for p, q in combinations(range(N), 2):
        c, s = map(Quad.of, _circle_point(rng))
        rows = V[p], V[q]
        V[p] = [c * x - s * y for x, y in zip(*rows)]
        V[q] = [s * x + c * y for x, y in zip(*rows)]
    return V


def action_commutes(N: int, k: int, V: list[list[Quad]]) -> bool:
    """For the matrix-trace base with a scalar unitary V over Q(i), check
    on matrix units that conjugation at level i+1 of T o 1 equals the
    embedding of the conjugation at level i, and that each level's trace
    is preserved."""
    one = [[Quad.of(r == c) for c in range(N)] for r in range(N)]
    if _matmul(V, _adjoint(V)) != one:
        raise NotUnitary("V V* is not the identity")
    Vi = [[ONE]]  # V tensored i times
    for i in range(k):
        Vnext = _kron(Vi, V)
        dim = N**i
        for a, b in product(range(dim), repeat=2):
            T = [[Quad.of((r, c) == (a, b)) for c in range(dim)] for r in range(dim)]
            inner = _matmul(_matmul(Vi, T), _adjoint(Vi))
            if _matmul(_matmul(Vnext, _kron(T, one)), _adjoint(Vnext)) != _kron(inner, one):
                return False
            # the trace of E_ab is [a == b]
            if sum((inner[r][r] for r in range(dim)), ZERO) != Quad.of(a == b):
                return False
        Vi = Vnext
    return True
