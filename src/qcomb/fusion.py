"""Fusion semi-ring arithmetic on words over {o, x}.

Irreducibles are labelled by words; the basic product is

    w (x) w' = sum over splittings w = a.z, w' = conj(z).b of a.b,

summed with multiplicities.  Restriction to an admissible word set, the
wreath semi-ring on words of irreducible labels, the level-shift map psi
with its inverse (maximal decomposition), and free-product fusion for
factor-tagged letters are built on top of it.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .errors import ClosureViolation, MalformedWord, NotInSet
from .words import AdmissibleSetSpec, conjugate, member, white, word_to_str


def product_u(w: str, w2: str) -> Counter:
    """Tensor decomposition of the irreducibles labelled w and w2."""
    out: Counter = Counter()
    for i in range(len(w) + 1):
        a, z = w[:i], w[i:]
        zbar = conjugate(z)
        if w2.startswith(zbar):
            out[a + w2[len(zbar) :]] += 1
    return out


def fold_product(words) -> Counter:
    """Left-to-right fusion fold of a sequence of single-letter words."""
    acc: Counter = Counter({"": 1})
    for w in words:
        nxt: Counter = Counter()
        for v, m in acc.items():
            for r, m2 in product_u(v, w).items():
                nxt[r] += m * m2
        acc = nxt
    return acc


def restricted_product(spec: AdmissibleSetSpec, w: str, w2: str) -> Counter:
    """Fusion inside the admissible set; every output term must stay in
    the set, otherwise the set was not admissible."""
    if not member(spec, w) or not member(spec, w2):
        raise NotInSet(f"inputs must lie in {spec}")
    out = product_u(w, w2)
    for term in out:
        if not member(spec, term):
            raise ClosureViolation(
                f"{word_to_str(term)} escapes {spec} in "
                f"{word_to_str(w)} (x) {word_to_str(w2)}"
            )
    return out


# ---------------------------------------------------------------------------
# Wreath semi-ring


class WreathWord(NamedTuple):
    """A word whose letters are irreducible labels of the base ring."""

    letters: tuple[str, ...]

    def __str__(self) -> str:
        return "".join(f"[{word_to_str(l)}]" for l in self.letters) if self.letters else "1"


def wreath_product(x: WreathWord, y: WreathWord) -> Counter:
    """Three-term recursive product on the wreath semi-ring.

    x (x) y = [x.y]
            + sum over irreducibles g in product_u(last(x), first(y)),
              including the trivial one, of [init(x), g, tail(y)]
            + if last(x) = conj(first(y)): init(x) (x) tail(y).
    """
    if not x.letters or not y.letters:
        return Counter({WreathWord(x.letters + y.letters): 1})
    a, b = x.letters, y.letters
    out: Counter = Counter({WreathWord(a + b): 1})
    for g, m in product_u(a[-1], b[0]).items():
        out[WreathWord(a[:-1] + (g,) + b[1:])] += m
    if a[-1] == conjugate(b[0]):
        for z, m in wreath_product(WreathWord(a[:-1]), WreathWord(b[1:])).items():
            out[z] += m
    return out


# ---------------------------------------------------------------------------
# The level-shift isomorphism


def a_map(w: str) -> str:
    """a(w) = o w x."""
    return "o" + w + "x"


def psi(x: WreathWord, k: int) -> str:
    """Concatenate a(letter) over the letters; letters must be balanced
    words with prefix balances in [0, k]."""
    spec = white(k)
    for l in x.letters:
        if not member(spec, l):
            raise NotInSet(f"letter {word_to_str(l)} not in White({k})")
    return "".join(a_map(l) for l in x.letters)


def psi_inverse(v: str, k: int) -> WreathWord:
    """Maximal decomposition: split at every first return of the prefix
    balance to zero and strip the outer o/x of each piece."""
    if not member(white(k + 1), v):
        raise NotInSet(f"{word_to_str(v)} not in White({k + 1})")
    letters = []
    start = 0
    bal = 0
    for i, ch in enumerate(v):
        bal += 1 if ch == "o" else -1
        if bal == 0:
            letters.append(v[start + 1 : i])
            start = i + 1
    return WreathWord(tuple(letters))


def psi_vector(v: Counter, k: int) -> Counter:
    return Counter({psi(x, k): m for x, m in v.items()})


# ---------------------------------------------------------------------------
# Free-product fusion


class FreeWord:
    """Alternating word of (factor, label) letters; labels are non-trivial
    irreducibles of their factor (empty words are not allowed as letters)."""

    def __init__(self, letters: tuple[tuple[str, str], ...]):
        if any(f1 == f2 for (f1, _), (f2, _) in zip(letters, letters[1:])):
            raise MalformedWord("consecutive letters from the same factor")
        if any(not l for _, l in letters):
            raise MalformedWord("trivial letter in a free-product word")
        object.__setattr__(self, "letters", letters)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash((self.letters,))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __str__(self) -> str:
        return "".join(f"[{f}:{l}]" for f, l in self.letters) if self.letters else "1"


def free_product_fusion(x: FreeWord, y: FreeWord) -> Counter:
    """Fusion in a free product of U^+ factors: cross-factor junctions
    concatenate, a same-factor junction fuses there by product_u, with full
    cancellation recursing inward."""
    if not x.letters or not y.letters:
        return Counter({FreeWord(x.letters + y.letters): 1})
    a, b = x.letters, y.letters
    (fa, la), (fb, lb) = a[-1], b[0]
    if fa != fb:
        return Counter({FreeWord(a + b): 1})
    out: Counter = Counter()
    for g, m in product_u(la, lb).items():
        if g:
            out[FreeWord(a[:-1] + ((fa, g),) + b[1:])] += m
        else:
            for z, m2 in free_product_fusion(FreeWord(a[:-1]), FreeWord(b[1:])).items():
                out[z] += m * m2
    return out
