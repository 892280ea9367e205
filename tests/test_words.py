"""Two-colored words, admissible sets, classification and reduction.

Size oracles: the number of balanced words of length 2n whose prefix
balances stay in [0, k] is the number of Dyck paths of semilength n with
height at most k.  For k = 1 that is 1, for k = 2 it is 2^(n-1), and for
k = 3 it is the odd-indexed Fibonacci numbers 1, 2, 5, 13.
"""

import functools
import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from qcomb import errors, words

word_st = st.text(alphabet="ox", max_size=8)

SHORT_WORDS = ["".join(t) for n in range(1, 5) for t in itertools.product("ox", repeat=n)]
# the empty set, every single word and every pair of words of length <= 4
SHORT_SETS = [()] + [(w,) for w in SHORT_WORDS] + list(itertools.combinations(SHORT_WORDS, 2))
LADDER_WORDS = ["o", "oo", "ooo", "ooxx", "oxxo", "ooooo", "xxxxx"]
GENERATOR_PAIRS = [
    ("ox", "ooo"),
    ("xo", "oooo"),
    ("ox", "xxoo"),
    ("ooxx", "oxox"),
    ("oooo", "xxxxx"),
    ("oox", "xxo"),
]


# -- differential oracles ---------------------------------------------------


def generate_oracle(gens, length_bound, headroom=0):
    """The pairwise closure generate computed before its length buckets:
    each word taken from the work list is tried against every member, and
    pairs too long for the working length are dropped (here before
    concatenating, which changes no result)."""
    bound = length_bound + headroom
    members = set(gens)
    queue = list(gens)
    while queue:
        w = queue.pop()
        new = {words.conjugate(w)} | words.cancellations(w)
        for v in members:
            if len(w) + len(v) <= bound:
                new.add(w + v)
                new.add(v + w)
        for v in new:
            if v not in members:
                members.add(v)
                queue.append(v)
    return frozenset(w for w in members if len(w) <= length_bound)


def truncation_oracle(spec, length_bound):
    """Every word up to the bound, filtered by membership."""
    return frozenset(w for w in words.all_words(length_bound) if words.member(spec, w))


def generate_capped_oracle(gens, length_bound, headroom=0):
    """generate as it was before the catalog counts: a length stops taking
    new words only once it holds all 2^n words, and the closure runs until
    its work list is empty or it holds a one-letter word."""
    gens = frozenset(words.validate_word(g) for g in gens)
    if any(len(g) > length_bound for g in gens):
        raise errors.InputError("generator longer than the length bound")
    bound = length_bound + headroom
    members = set(gens)
    by_length = [[] for _ in range(bound + 1)]
    pending = [[] for _ in range(bound + 1)]
    for g in gens:
        by_length[len(g)].append(g)
        pending[len(g)].append(g)
    n = 0
    while n <= bound:
        if not pending[n]:
            n += 1
            continue
        if bound and by_length[1]:
            return words.GeneratedWordSet(frozenset(words.all_words(length_bound)))
        w = pending[n].pop()
        new = set()
        if len(by_length[n]) < 1 << n:
            new.add(words.conjugate(w))
        if n >= 2 and len(by_length[n - 2]) < 1 << (n - 2):
            new |= words.cancellations(w)
        for m in range(n, bound + 1):
            if len(by_length[m]) < 1 << m:
                for v in by_length[m - n]:
                    new.add(w + v)
                    new.add(v + w)
        new -= members
        members |= new
        for v in new:
            by_length[len(v)].append(v)
            pending[len(v)].append(v)
            n = min(n, len(v))
    return words.GeneratedWordSet(frozenset(w for w in members if len(w) <= length_bound))


@functools.lru_cache(maxsize=1)  # each test case runs at one bound
def catalog_slices(length_bound):
    """Each distinct catalog truncation at the bound mapped to the specs
    that have it, in reporting priority."""
    slices = {}
    for sp in words._candidate_specs(length_bound):
        slices.setdefault(words.truncation(sp, length_bound), []).append(sp)
    return slices


def classify_oracle(gens, length_bound, generate=generate_capped_oracle):
    """classify as it was before the catalog counts: the closure slice is
    looked up among the catalog truncations."""
    gens = frozenset(gens)
    max_gen = max((len(g) for g in gens), default=0)
    if gens and length_bound < max_gen:
        raise errors.InputError("length bound must cover the longest generator")
    slices = catalog_slices(length_bound)
    matches = []
    for headroom in range(0, 2 * max_gen + 5, 2):
        if length_bound + headroom > words.MAX_WORKING_LENGTH:
            raise errors.TooLarge(
                f"the closure of {','.join(sorted(map(words.word_to_str, gens)))} at bound"
                f" {length_bound} needs working length {length_bound + headroom}"
                f" > {words.MAX_WORKING_LENGTH}"
            )
        matches = slices.get(generate(gens, length_bound, headroom).members, [])
        if matches:
            break
    if not matches:
        raise errors.NoCatalogMatch(
            f"no catalog truncation at L={length_bound} equals the closure of {sorted(gens)}"
        )
    spec = matches[0]
    flags = []
    if len(matches) > 1:
        flags.append("parameter may be larger: " + ", ".join(str(m) for m in matches[1:]))
    if words.INF in (spec.k, spec.k2):
        flags.append("infinite parameter certified only up to the length bound")
    return words.ClassificationResult(spec, tuple(flags))


def outcome(classify, gens, length_bound):
    """The spec and flags, or the type and message of the error."""
    try:
        result = classify(gens, length_bound)
    except errors.InputError as e:
        return type(e), str(e)
    return str(result.spec), result.flags


def test_str_roundtrip_uses_e_for_the_empty_word():
    assert words.word_to_str("") == "e"
    assert words.word_from_str("e") == ""
    assert words.word_from_str("ooxx") == "ooxx"
    with pytest.raises(ValueError):
        words.validate_word("zz")


@given(word_st)
def test_conjugate_is_an_involution_and_negates_balance(w):
    assert words.conjugate(words.conjugate(w)) == w
    assert words.color_balance(words.conjugate(w)) == -words.color_balance(w)


@given(word_st)
def test_prefix_balances_track_the_running_color_count(w):
    bals = words.prefix_balances(w)
    assert len(bals) == len(w)
    running = 0
    for ch, b in zip(w, bals):
        running += 1 if ch == "o" else -1
        assert b == running
    if w:
        assert bals[-1] == words.color_balance(w)


@given(word_st)
def test_cancellations_remove_one_adjacent_opposite_pair(w):
    expected = {
        w[:i] + w[i + 2 :]
        for i in range(len(w) - 1)
        if w[i : i + 2] in ("ox", "xo")
    }
    assert words.cancellations(w) == expected


def _sizes_by_length(spec, bound):
    out = {}
    for w in words.truncation(spec, bound):
        out[len(w)] = out.get(len(w), 0) + 1
    return out


def test_truncation_sizes_match_bounded_height_dyck_counts():
    assert _sizes_by_length(words.white(1), 8) == {0: 1, 2: 1, 4: 1, 6: 1, 8: 1}
    assert _sizes_by_length(words.white(2), 8) == {0: 1, 2: 1, 4: 2, 6: 4, 8: 8}
    assert _sizes_by_length(words.white(3), 8) == {0: 1, 2: 1, 4: 2, 6: 5, 8: 13}


def test_black_sets_are_colorflips_of_white_sets():
    flip = str.maketrans("ox", "xo")
    left = {w.translate(flip) for w in words.truncation(words.white(2), 6)}
    assert left == words.truncation(words.black(2), 6)


def test_mod_k_truncation_contains_every_word_of_matching_balance():
    t = words.truncation(words.mod_k(2), 4)
    for w in words.all_words(4):
        assert (w in t) == (words.color_balance(w) % 2 == 0)
    t1 = words.truncation(words.mod_k(1), 3)
    assert all(w in t1 for w in words.all_words(3))


@given(word_st, st.integers(min_value=1, max_value=3))
def test_white_membership_is_balance_zero_with_bounded_heights(w, k):
    bals = words.prefix_balances(w)
    expected = (
        words.color_balance(w) == 0
        and all(0 <= b <= k for b in bals)
    )
    assert words.member(words.white(k), w) == expected


# -- the balanced entries as one band kind -----------------------------------

BAND_PARAMS = [0, 1, 2, 3, 4, words.INF]


def band_name(k, k2):
    """The catalog name of the band [-k2, k]."""
    def fmt(v):
        return "inf" if v == words.INF else str(v)

    if k2 == 0:
        return f"White({fmt(k)})"
    if k == 0:
        return f"Black({fmt(k2)})"
    return f"Pair({fmt(k)},{fmt(k2)})"


def in_band(w, k, k2):
    """Balanced, with every prefix balance in [-k2, k]."""
    balances = itertools.accumulate(1 if c == "o" else -1 for c in w)
    return w.count("o") == w.count("x") and all(-k2 <= b <= k for b in balances)


def test_white_black_and_pair_name_one_band():
    assert words.white(0) == words.black(0) == words.pair(0, 0)
    for k in BAND_PARAMS:
        assert str(words.white(k)) == band_name(k, 0)
        assert str(words.black(k)) == band_name(0, k)
        assert words.pair(k, 0) == words.white(k)
        assert words.pair(0, k) == words.black(k)
        for k2 in BAND_PARAMS:
            assert str(words.pair(k, k2)) == band_name(k, k2)
    assert str(words.black(0)) == "White(0)"
    assert str(words.pair(2, words.INF)) == "Pair(2,inf)"


def test_band_membership_matches_the_prefix_balance_test_on_every_short_word():
    specs = {(k, 0): words.white(k) for k in BAND_PARAMS}
    specs.update({(0, k): words.black(k) for k in BAND_PARAMS})
    specs.update({(k, k2): words.pair(k, k2) for k in BAND_PARAMS for k2 in BAND_PARAMS})
    for w in words.all_words(8):
        for (k, k2), spec in specs.items():
            assert words.member(spec, w) == in_band(w, k, k2), (w, k, k2)


def candidate_names(length_bound):
    """The catalog in reporting priority: Empty, White(0), White(k) and
    Black(k) for k up to half the bound, White(inf), Black(inf), every
    Pair with both parameters in 1..half or inf, and ModK(k) for k up to
    the bound."""
    ks = [str(k) for k in range(1, length_bound // 2 + 1)]
    names = ["Empty", "White(0)"] + [f"{c}({k})" for k in ks for c in ("White", "Black")]
    names += ["White(inf)", "Black(inf)"]
    names += [f"Pair({k},{k2})" for k in ks + ["inf"] for k2 in ks + ["inf"]]
    return names + [f"ModK({k})" for k in range(1, length_bound + 1)]


def test_candidate_specs_keep_their_reporting_order():
    # classify reports the first spec of a slice and flags the rest, so
    # the order decides both the answer and its ambiguity flags
    got = [[str(sp) for sp in words._candidate_specs(L)] for L in range(17)]
    assert got == [candidate_names(L) for L in range(17)]
    assert " ".join(got[4]) == (
        "Empty White(0) White(1) Black(1) White(2) Black(2) White(inf) Black(inf)"
        " Pair(1,1) Pair(1,2) Pair(1,inf) Pair(2,1) Pair(2,2) Pair(2,inf)"
        " Pair(inf,1) Pair(inf,2) Pair(inf,inf) ModK(1) ModK(2) ModK(3) ModK(4)"
    )
    # the names as the catalog with separate white, black and pair kinds
    # printed them, for every bound up to 16
    text = "\n".join(" ".join(names) for names in got)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "005083eed49847bb1dfed112b719aa8450450c28b51ed66e3c3a3595608872ea"
    )


def test_empty_set_has_an_empty_truncation():
    assert words.truncation(words.empty_set(), 4) == frozenset()
    assert not words.member(words.empty_set(), "ox")


def test_classification_of_small_generator_sets():
    assert words.classify([], 8).spec == words.empty_set()
    assert words.classify(["o"], 8).spec == words.mod_k(1)
    assert words.classify(["oo"], 8).spec == words.mod_k(2)
    assert words.classify(["ox"], 8).spec == words.white(1)
    assert words.classify(["ooxx"], 8).spec == words.white(2)
    assert words.classify(["xxoo"], 8).spec == words.black(2)


@pytest.mark.parametrize(
    "spec",
    [
        words.empty_set(),
        words.mod_k(1),
        words.mod_k(3),
        words.white(1),
        words.white(3),
        words.black(2),
        words.pair(1, 2),
    ],
    ids=str,
)
def test_canonical_generators_classify_back_to_their_spec(spec):
    gens = words.canonical_generators(spec)
    assert words.classify(gens, 8).spec == spec


def test_generated_sets_contain_the_unit_and_are_conjugation_closed():
    g = words.generate(["ooxx"], 8)
    assert "" in g.members
    assert "ooxx" in g.members
    assert {words.conjugate(w) for w in g.members} == set(g.members)


def test_generated_set_fills_its_truncation_with_headroom():
    # without headroom the deepest cancellation products are missed, the
    # classifier widens the working bound before comparing
    g = words.generate(["ooxx"], 8, headroom=2)
    assert set(g.members) == set(words.truncation(words.white(2), 8))


@pytest.mark.parametrize("headroom", [0, 2])
def test_generate_matches_the_pairwise_closure_on_short_generators(headroom):
    for w in SHORT_WORDS:
        assert words.generate([w], 8, headroom).members == generate_oracle([w], 8, headroom), w


@pytest.mark.parametrize("headroom", [2, 3, 4])
def test_generate_matches_the_pairwise_closure_on_the_ladder(headroom):
    for w in LADDER_WORDS:
        assert words.generate([w], 8, headroom).members == generate_oracle([w], 8, headroom), w


@pytest.mark.parametrize("headroom", [0, 2])
def test_generate_matches_the_pairwise_closure_on_generator_pairs(headroom):
    for gens in GENERATOR_PAIRS:
        got = words.generate(gens, 8, headroom).members
        assert got == generate_oracle(gens, 8, headroom), gens


@pytest.mark.parametrize("working", range(13))
def test_generate_matches_the_parent_closure_at_every_headroom(working):
    # every short set at every bound L <= 8 and headroom 0-4 with working
    # length L + headroom: headroom 1 makes only the working length
    # terminal, headroom 2 and more its last two lengths, and at L <= 2
    # terminal lengths start at 1-3.  Each oracle closure is computed once
    # at the working length and sliced at each L.  Above working length 6
    # the pairwise closure, quadratic in its size, is too slow for tier-1,
    # so the capped closure stands in, and at 12 (L = 8, headroom 4) it
    # runs on every other set
    for gens in SHORT_SETS[:: 2 if working == 12 else 1]:
        longest = max(map(len, gens), default=0)
        bounds = range(max(longest, working - 4), min(working, 8) + 1)
        if not bounds:
            continue
        if working <= 6:
            closure = generate_oracle(gens, working)
        else:
            closure = generate_capped_oracle(gens, working).members
        for L in bounds:
            got = words.generate(gens, L, working - L).members
            assert got == frozenset(w for w in closure if len(w) <= L), (gens, L)


def test_generate_forms_no_word_at_a_terminal_length():
    # generate(["ooo"], 12, 2) filled lengths 13 and 14 nearly whole when
    # it formed their words, a tracemalloc peak of 1.41 MiB, against about
    # 0.46 MiB forming only their junction cancellations
    gens = frozenset(["ooo"])
    words._counts(words._least_superset(gens), 14)  # warm the cache
    tracemalloc.start()
    try:
        words.generate(gens, 12, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.8 * 2**20, f"{peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("bound", range(9))
def test_classify_matches_the_slice_table_over_the_capped_closure(bound):
    for gens in SHORT_SETS:
        assert outcome(words.classify, gens, bound) == outcome(classify_oracle, gens, bound), gens


@pytest.mark.parametrize("bound", range(9, 13))
def test_classify_by_count_matches_the_slice_table(bound, monkeypatch):
    # above bound 8 the capped closure is too slow for tier-1, so both
    # sides read the same closure slices, computed once (classify runs at
    # most seven headrooms): this compares the matching by count, its
    # flags and its errors
    closures = functools.lru_cache(maxsize=8)(words.generate)
    monkeypatch.setattr(words, "generate", closures)
    for gens in SHORT_SETS:
        want = outcome(functools.partial(classify_oracle, generate=closures), gens, bound)
        assert outcome(words.classify, gens, bound) == want, gens


def test_each_closure_lies_in_its_least_catalog_superset():
    slices = {sp: words.truncation(sp, 8) for sp in words._candidate_specs(8)}
    for gens in SHORT_SETS:
        spec = words._least_superset(frozenset(gens))
        for w in words.generate(gens, 8, 2).members:
            assert words.member(spec, w), (gens, w)
        # least: inside every catalog set that holds the generators
        least = words.truncation(spec, 8)
        for sp, ws in slices.items():
            if all(words.member(sp, g) for g in gens):
                assert least <= ws, (gens, spec, sp)


def test_counts_equal_the_truncation_sizes_on_every_candidate_spec():
    for bound in range(13):
        for spec in words._candidate_specs(bound):
            sizes = [0] * (bound + 1)
            for w in words.truncation(spec, bound):
                sizes[len(w)] += 1
            assert list(words._counts(spec, bound)) == sizes, (spec, bound)


def test_generate_rejects_negative_headroom():
    with pytest.raises(ValueError):
        words.generate(["ox"], 8, -1)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.text(alphabet="ox", min_size=1, max_size=4), min_size=1, max_size=3),
    st.integers(min_value=4, max_value=8),
    st.integers(min_value=0, max_value=2),
)
def test_generated_sets_are_closed_within_the_bound(gens, bound, headroom):
    got = words.generate(gens, bound, headroom).members
    assert set(gens) <= got
    for w in got:
        assert len(w) <= bound
        assert words.conjugate(w) in got
        assert words.cancellations(w) <= got
    for u, v in itertools.product(got, repeat=2):
        if len(u) + len(v) <= bound:
            assert u + v in got, (u, v)


def test_truncation_matches_the_filter_on_every_candidate_spec():
    for bound in range(13):
        for spec in words._candidate_specs(bound):
            assert words.truncation(spec, bound) == truncation_oracle(spec, bound), (spec, bound)


def test_reduce_fixes_the_normal_form_and_traces_single_cancellations():
    assert words.reduce("ooxx", 2) == ["ooxx"]
    trace = words.reduce("oxooxx", 2)
    assert trace[0] == "oxooxx" and trace[-1] == "ooxx"
    for a, b in zip(trace, trace[1:]):
        assert b in words.cancellations(a)


def test_reduce_rejects_words_with_the_wrong_peak():
    with pytest.raises(words.PreconditionViolated):
        words.reduce("ooxx", 1)


def test_reduce_raises_a_violation_when_the_word_does_not_end_at_the_staircase(monkeypatch):
    # a precondition that admits an unbalanced word leaves oox, which has no
    # xo to delete and is not ooxx
    monkeypatch.setattr(words, "member", lambda spec, w: True)
    with pytest.raises(errors.Violation):
        words.reduce("oox", 2)


def test_reduce_traces_every_peak_word_up_to_14_letters():
    traced = 0
    for k in range(1, 8):
        for w in words.truncation(words.white(k), 14):
            if max(words.prefix_balances(w), default=0) != k:
                continue
            trace = words.reduce(w, k)
            assert len(trace) == (len(w) - 2 * k) // 2 + 1, w
            assert trace[0] == w and trace[-1] == "o" * k + "x" * k, w
            assert all(b in words.cancellations(a) for a, b in zip(trace, trace[1:])), w
            traced += 1
    # every nonempty balanced word whose prefix balances stay >= 0: the
    # Catalan numbers C_1 + ... + C_7
    assert traced == 1 + 2 + 5 + 14 + 42 + 132 + 429


def test_sampled_peak_words_reduce_to_the_staircase():
    rng = random.Random(20250826)
    for _ in range(60):
        k = rng.randint(1, 4)
        w = words.sample_peak_word(k, 12, rng)
        assert len(w) <= 12
        assert max(words.prefix_balances(w)) == k
        assert words.member(words.white(k), w)
        trace = words.reduce(w, k)
        assert trace[0] == w
        assert trace[-1] == "o" * k + "x" * k
        assert all(b in words.cancellations(a) for a, b in zip(trace, trace[1:]))
