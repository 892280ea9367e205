"""Word calculus on the two-letter alphabet {o, x}.

Words are plain Python strings over ``o`` (white) and ``x`` (black); the
empty word is ``""`` and serializes as ``e``.  This module provides color
balance, conjugation, elementary cancellations, the catalog of admissible
word sets (sets closed under concatenation, conjugation and cancellation
of an adjacent ``ox``/``xo`` pair: the empty set, the balanced-mod-k
words, and the bands of balanced words whose prefix balances stay in an
interval [-k2, k]) and their sizes by length, generated closures capped
by those sizes, classification against the catalog by size, and the
canonical reduction of a balanced word to ``o^k x^k``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .errors import InputError, MalformedWord, NoCatalogMatch, PreconditionViolated
from .errors import TooLarge, Violation

WHITE = "o"
BLACK = "x"
ALPHABET = (WHITE, BLACK)

_FLIP = str.maketrans("ox", "xo")

INF = math.inf

# Largest working length (bound plus headroom) classify runs a closure at:
# the closure of a word set can hold every word up to that length.
MAX_WORKING_LENGTH = 18


def validate_word(w: str) -> str:
    if any(c not in ALPHABET for c in w):
        raise MalformedWord(f"invalid letters in word {w!r}")
    return w


def word_to_str(w: str) -> str:
    """Serialize a word; the empty word prints as 'e'."""
    return w if w else "e"


def word_from_str(s: str) -> str:
    if s == "e":
        return ""
    return validate_word(s)


def color_balance(w: str) -> int:
    """Number of white letters minus number of black letters."""
    return w.count(WHITE) - w.count(BLACK)


def conjugate(w: str) -> str:
    """Reverse the word and flip every letter; an involution."""
    return w[::-1].translate(_FLIP)


def prefix_balances(w: str) -> list[int]:
    """Balances of the prefixes w[:1], ..., w[:n]."""
    out = []
    c = 0
    for ch in w:
        c += 1 if ch == WHITE else -1
        out.append(c)
    return out


def cancellations(w: str) -> set[str]:
    """All words obtained by deleting one adjacent 'ox' or 'xo' pair."""
    out = set()
    for i in range(len(w) - 1):
        if w[i] != w[i + 1]:
            out.add(w[:i] + w[i + 2 :])
    return out


def all_words(max_len: int) -> Iterator[str]:
    """All words of length <= max_len, shortest first."""
    level = [""]
    yield ""
    for _ in range(max_len):
        level = [w + c for w in level for c in ALPHABET]
        yield from level


# ---------------------------------------------------------------------------
# Catalog of admissible sets


class AdmissibleSetSpec(NamedTuple):
    """One entry of the admissible-set catalog.

    kinds:
      - "empty"                     the empty set
      - "mod",  k >= 1              balanced-mod-k words
      - "band", 0 <= k, k2 <= inf   balanced, prefix balances in [-k2, k]
    Every balanced entry is a band: White(k) is the band with k2 = 0,
    Black(k2) the one with k = 0, and Pair(k, k2) the rest, so __str__
    names a band by its parameters.  Use the module-level constructors;
    they check the parameters, so each set of words has a unique spec.
    """

    kind: str
    k: float | int | None = None
    k2: float | int | None = None

    def __str__(self) -> str:
        def fmt(v):
            return "inf" if v == INF else str(v)

        if self.kind == "empty":
            return "Empty"
        if self.kind == "mod":
            return f"ModK({fmt(self.k)})"
        if self.k2 == 0:
            return f"White({fmt(self.k)})"
        if self.k == 0:
            return f"Black({fmt(self.k2)})"
        return f"Pair({fmt(self.k)},{fmt(self.k2)})"


def empty_set() -> AdmissibleSetSpec:
    return AdmissibleSetSpec("empty")


def mod_k(k: int) -> AdmissibleSetSpec:
    if k < 1:
        raise InputError("mod_k requires k >= 1")
    return AdmissibleSetSpec("mod", int(k))


def _check_bound(k) -> float | int:
    if k == INF:
        return INF
    k = int(k)
    if k < 0:
        raise InputError("bound must be >= 0")
    return k


def pair(k, k2) -> AdmissibleSetSpec:
    """The balanced words whose prefix balances stay in [-k2, k]."""
    return AdmissibleSetSpec("band", _check_bound(k), _check_bound(k2))


def white(k) -> AdmissibleSetSpec:
    return pair(k, 0)


def black(k) -> AdmissibleSetSpec:
    return pair(0, k)


def member(spec: AdmissibleSetSpec, w: str) -> bool:
    """Decide membership in one left-to-right scan."""
    if spec.kind == "empty":
        return False
    if spec.kind == "mod":
        return color_balance(w) % spec.k == 0
    c, lo, hi = 0, -spec.k2, spec.k
    for ch in w:
        c += 1 if ch == WHITE else -1
        if not (lo <= c <= hi):
            return False
    return c == 0


def canonical_generators(spec: AdmissibleSetSpec) -> set[str]:
    """Generators of the set, where it is finitely generated."""
    if spec.kind == "empty":
        return set()
    if spec.kind == "mod":
        return {WHITE * spec.k}
    if INF in (spec.k, spec.k2):
        raise InputError(f"{spec} is not finitely generated")
    gens = set()
    if spec.k:
        gens.add(WHITE * spec.k + BLACK * spec.k)
    if spec.k2:
        gens.add(BLACK * spec.k2 + WHITE * spec.k2)
    return gens or {""}


# ---------------------------------------------------------------------------
# Generated closures


@lru_cache(maxsize=256)
def _counts(spec: AdmissibleSetSpec, length_bound: int) -> tuple[int, ...]:
    """The number of members of each length n <= length_bound: for the mod
    kind, the sum of C(n, j) over the j with 2j - n in kZ; for a band, the
    balance walks of n steps inside [-k2, k] that end at 0."""
    if spec.kind == "empty":
        return (0,) * (length_bound + 1)
    if spec.kind == "mod":
        return tuple(
            sum(math.comb(n, j) for j in range(n + 1) if (2 * j - n) % spec.k == 0)
            for n in range(length_bound + 1)
        )
    out, walks = [], {0: 1}  # the walks of n steps, by their end balance
    for n in range(length_bound + 1):
        out.append(walks.get(0, 0))
        inside = range(max(-spec.k2, -n - 1), min(spec.k, n + 1) + 1)
        walks = {b: walks.get(b - 1, 0) + walks.get(b + 1, 0) for b in inside}
    return tuple(out)


def _least_superset(gens: frozenset[str]) -> AdmissibleSetSpec:
    """The least catalog set holding gens, and so their closure: concatenation
    adds color balances and conjugation negates them; on balanced words it
    keeps the prefix balances, and a cancellation makes no new extreme."""
    if not gens:
        return empty_set()
    g = math.gcd(*map(color_balance, gens))
    if g:
        return mod_k(g)
    balances = [0] + [b for w in gens for b in prefix_balances(w)]
    return pair(max(balances), -min(balances))


class GeneratedWordSet(NamedTuple):
    members: frozenset[str]


def generate(gens: Iterable[str], length_bound: int, headroom: int = 0) -> GeneratedWordSet:
    """Least fixpoint of {concatenation, conjugation, one cancellation},
    truncated to words of length <= length_bound.

    Some short members are only derivable through longer intermediates
    (a concatenation followed by cancellations); headroom admits
    intermediate words up to length_bound + headroom, keeping only the
    final slice.  Every returned word is genuinely derivable.

    Every operation stays inside `_least_superset(gens)`, so nothing is
    formed at a length that holds that set's count (`_counts`), and the
    closure stops once every length up to length_bound does: the slice is
    then the set's truncation.  The work list is taken shortest word
    first, and a word taken concatenates in both orders with itself and
    the words taken before it, within the working length, so each pair is
    formed once.  From working length 2 on, a one-letter member ends the
    closure at once: with its conjugate it generates every word up to the
    working length (at working length 1 it cannot reach the empty word).

    No word is formed at a terminal length: a length above length_bound
    that no concatenation can extend, every length from
    max(length_bound + 1, bound - 1) up, where bound is the working
    length.  A word w.v there is a concatenation of members, since
    generators are at most length_bound long and a cancellation ends at
    most at bound - 2.  Its conjugate is conj(v).conj(w), again such a
    concatenation, and a cancellation inside w or v gives w'.v or w.v',
    a concatenation at length m - 2 that the closure forms anyway.  So
    the junction cancellation w[:-1] + v[1:], where w ends on the other
    letter than v starts with, is all a terminal pair adds."""
    gens = frozenset(validate_word(g) for g in gens)
    if any(len(g) > length_bound for g in gens):
        raise InputError("generator longer than the length bound")
    if headroom < 0:
        raise InputError("headroom must be >= 0")
    bound = length_bound + headroom
    terminal = max(length_bound + 1, bound - 1)  # bound + 1, none, at headroom 0
    caps = list(_counts(_least_superset(gens), bound))
    members: set[str] = set(gens)
    sizes = [0] * (bound + 1)  # members of each length
    taken: list[list[str]] = [[] for _ in range(bound + 1)]
    pending: list[list[str]] = [[] for _ in range(bound + 1)]
    for g in gens:
        sizes[len(g)] += 1
        pending[len(g)].append(g)
    n = 0
    while n <= bound and sizes[: length_bound + 1] != caps[: length_bound + 1]:
        if not pending[n]:
            n += 1
            continue
        if bound > 1 and sizes[1]:
            return GeneratedWordSet(frozenset(all_words(length_bound)))
        w = pending[n].pop()
        taken[n].append(w)
        new = set()
        if sizes[n] < caps[n]:
            new.add(conjugate(w))
        if n >= 2 and sizes[n - 2] < caps[n - 2]:
            new |= cancellations(w)
        for m in range(n, terminal):
            if sizes[m] < caps[m]:
                for v in taken[m - n]:
                    new.add(w + v)
                    new.add(v + w)
        # a terminal pair has two nonempty words, so m >= 2
        for m in range(max(n, terminal, 2), bound + 1):
            if sizes[m - 2] < caps[m - 2]:
                for v in taken[m - n]:
                    if w[-1] != v[0]:
                        new.add(w[:-1] + v[1:])
                    if v[-1] != w[0]:
                        new.add(v[:-1] + w[1:])
        new -= members
        members |= new
        for v in new:
            sizes[len(v)] += 1
            pending[len(v)].append(v)
            n = min(n, len(v))
    return GeneratedWordSet(frozenset(w for w in members if len(w) <= length_bound))


def truncation(spec: AdmissibleSetSpec, length_bound: int) -> frozenset[str]:
    """Members of the set with length <= length_bound.

    The members are grown letter by letter from the empty word, with the
    prefixes of each length grouped by their balance.  For a band a
    prefix is extended only while its balance stays in [-k2, k] and can
    still return to 0 in the letters left; for the mod kind, while it can
    still reach a multiple of k in the letters left.  So every prefix
    grown is the start of a member."""
    if spec.kind == "empty":
        return frozenset()
    mod = spec.k if spec.kind == "mod" else None
    lo, hi = (-INF, INF) if mod else (-spec.k2, spec.k)
    out: list[str] = []
    level = {0: [""]}
    for n in range(length_bound + 1):
        for c, ws in level.items():
            if (c % mod == 0) if mod else (c == 0):
                out.extend(ws)
        left = length_bound - n - 1  # letters left after the next one
        if left < 0:
            break
        nxt: dict[int, list[str]] = {}
        for c, ws in level.items():
            for b, letter in ((c + 1, WHITE), (c - 1, BLACK)):
                # the distance to the nearest balance a member may end on
                to_end = min(b % mod, -b % mod) if mod else abs(b)
                if lo <= b <= hi and to_end <= left:
                    nxt.setdefault(b, []).extend([w + letter for w in ws])
        level = nxt
    return frozenset(out)


class ClassificationResult(NamedTuple):
    spec: AdmissibleSetSpec
    flags: tuple[str, ...] = ()


def _candidate_specs(length_bound: int) -> list[AdmissibleSetSpec]:
    """Catalog entries whose length-bounded truncations can differ,
    in reporting priority (smallest parameters first)."""
    ks = list(range(1, length_bound // 2 + 1))
    cands = [empty_set(), white(0)] + [band(k) for k in ks for band in (white, black)]
    cands += [white(INF), black(INF)] + [pair(k, k2) for k in ks + [INF] for k2 in ks + [INF]]
    return cands + [mod_k(k) for k in range(1, length_bound + 1)]


def classify(gens: Iterable[str], length_bound: int) -> ClassificationResult:
    """Match the generated closure against the catalog of admissible sets.

    Truncation semantics: specs are compared through their length-bounded
    slices; when several parameters give the same slice, the smallest one
    is reported and the ambiguity is flagged.  A catalog set holding gens
    holds their closure, so it matches when the sizes (`_counts`) agree.
    Raises TooLarge before a closure would run at a working length (bound
    plus headroom) above MAX_WORKING_LENGTH.
    """
    gens = frozenset(gens)
    max_gen = max((len(g) for g in gens), default=0)
    if gens and length_bound < max_gen:
        raise InputError("length bound must cover the longest generator")
    holding = [sp for sp in _candidate_specs(length_bound) if all(member(sp, g) for g in gens)]
    matches: list[AdmissibleSetSpec] = []
    for headroom in range(0, 2 * max_gen + 5, 2):
        if length_bound + headroom > MAX_WORKING_LENGTH:
            raise TooLarge(
                f"the closure of {','.join(sorted(map(word_to_str, gens)))} at bound"
                f" {length_bound} needs working length {length_bound + headroom}"
                f" > {MAX_WORKING_LENGTH}"
            )
        size = len(generate(gens, length_bound, headroom).members)
        matches = [sp for sp in holding if sum(_counts(sp, length_bound)) == size]
        if matches:
            break
    if not matches:
        raise NoCatalogMatch(
            f"no catalog truncation at L={length_bound} equals the closure of {sorted(gens)}"
        )
    more = ", ".join(str(m) for m in matches[1:])
    return ClassificationResult(matches[0], ("parameter may be larger: " + more,) if more else ())


# ---------------------------------------------------------------------------
# Canonical reduction


def reduce(w: str, k: int) -> list[str]:
    """Cancellation trace from w down to o^k x^k.

    Requires w balanced with prefix balances in [0, k] and maximum prefix
    balance exactly k.  Each consecutive pair of trace entries differs by
    one elementary cancellation; the trace starts at w and ends at o^k x^k.

    Each step deletes the first 'xo'.  That pair is a valley of the
    balance walk, so deleting it keeps the walk in [0, k] and keeps its
    peak k.  The only balanced word without an 'xo' is o^a x^a, and its
    peak k forces a = k.
    """
    validate_word(w)
    if not member(white(k), w) or (max(prefix_balances(w), default=0) != k):
        raise PreconditionViolated(
            f"{word_to_str(w)} is not a White({k}) word with peak balance {k}"
        )
    trace = [w]
    cur = w
    while "xo" in cur:
        cur = cur.replace("xo", "", 1)
        trace.append(cur)
    if cur != WHITE * k + BLACK * k:
        raise Violation(f"{word_to_str(w)} reduced to {word_to_str(cur)}, not o^{k} x^{k}")
    return trace


def sample_peak_word(k: int, max_len: int, rng) -> str:
    """Random balanced word with prefix balances in [0, k] and maximum
    prefix balance exactly k, of length between 2k and max_len."""
    if k < 1 or max_len < 2 * k:
        raise InputError("need k >= 1 and max_len >= 2k")
    while True:
        half = rng.randint(k, max_len // 2)
        c, w = 0, []
        for step in range(2 * half):
            remaining = 2 * half - step
            can_up = c < k and c + 1 <= remaining - 1
            can_down = c > 0
            if not can_down:
                up = True
            elif not can_up:
                up = False
            else:
                up = rng.random() < 0.5
            c += 1 if up else -1
            w.append(WHITE if up else BLACK)
        word = "".join(w)
        if max(prefix_balances(word)) == k:
            return word
