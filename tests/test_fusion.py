"""Fusion products: the free rule, restricted sets, wreath words and the
level-shift isomorphism.

Oracle: the multiplicity of the trivial word in the 2k-fold alternating
product is the number of noncrossing color-matched pairings of the pattern,
which is Catalan(k).
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from qcomb import fusion, words
from qcomb.fusion import FreeWord, WreathWord

CATALAN = [1, 1, 2, 5, 14]

word_st = st.text(alphabet="ox", max_size=4)


def test_single_letter_products():
    assert fusion.product_u("o", "x") == Counter({"ox": 1, "": 1})
    assert fusion.product_u("x", "o") == Counter({"xo": 1, "": 1})
    assert fusion.product_u("o", "o") == Counter({"oo": 1})
    assert fusion.product_u("ox", "ox") == Counter({"oxox": 1, "ox": 1, "": 1})


@given(word_st, word_st)
def test_product_multiplicities_are_zero_or_one_and_lengths_shrink_in_pairs(w, w2):
    out = fusion.product_u(w, w2)
    total = len(w) + len(w2)
    assert out[w + w2] == 1
    for term, mult in out.items():
        assert mult == 1
        assert (total - len(term)) % 2 == 0
        assert 0 <= len(term) <= total


@given(word_st, word_st)
def test_product_respects_color_balance(w, w2):
    bal = words.color_balance(w) + words.color_balance(w2)
    for term in fusion.product_u(w, w2):
        assert words.color_balance(term) == bal


def _convolve(vec: Counter, w: str) -> Counter:
    out: Counter = Counter()
    for term, mult in vec.items():
        for t2, m2 in fusion.product_u(term, w).items():
            out[t2] += mult * m2
    return out


@given(word_st, word_st, word_st)
@settings(max_examples=50, deadline=None)
def test_product_is_associative_on_multiplicity_vectors(a, b, c):
    left = _convolve(Counter(fusion.product_u(a, b)), c)
    right: Counter = Counter()
    for term, mult in fusion.product_u(b, c).items():
        for t2, m2 in fusion.product_u(a, term).items():
            right[t2] += mult * m2
    assert left == right


def test_trivial_multiplicity_of_alternating_powers_is_catalan():
    for k in range(5):
        assert fusion.fold_product(list("ox" * k))[""] == CATALAN[k]


def test_restricted_product_stays_inside_an_admissible_set():
    spec = words.white(2)
    out = fusion.restricted_product(spec, "ooxx", "ooxx")
    assert all(words.member(spec, t) for t in out)
    assert out == fusion.product_u("ooxx", "ooxx")


def test_restricted_product_rejects_outside_inputs():
    with pytest.raises(fusion.NotInSet):
        fusion.restricted_product(words.white(1), "ooxx", "ox")


def test_wreath_word_string_roundtrip():
    x = WreathWord(("ox", "", "ooxx"))
    assert str(x) == "[ox][e][ooxx]"
    assert str(WreathWord(())) == "1"


def test_wreath_product_three_term_recursion():
    out = fusion.wreath_product(WreathWord(("o",)), WreathWord(("x",)))
    assert {str(k): v for k, v in out.items()} == {
        "[o][x]": 1,
        "[ox]": 1,
        "[e]": 1,
        "1": 1,
    }


def test_wreath_product_with_the_unit_is_trivial():
    x = WreathWord(("ox", "o"))
    assert fusion.wreath_product(x, WreathWord(())) == Counter({x: 1})
    assert fusion.wreath_product(WreathWord(()), x) == Counter({x: 1})


def test_level_shift_wraps_each_letter():
    assert fusion.a_map("") == "ox"
    assert fusion.psi(WreathWord(("ox", "")), 1) == "ooxxox"
    assert fusion.psi_inverse("ooxxox", 1) == WreathWord(("ox", ""))


def test_level_shift_is_a_bijection_on_short_words():
    for k in (1, 2):
        seen = set()
        for v in words.truncation(words.white(k + 1), 6):
            x = fusion.psi_inverse(v, k)
            assert fusion.psi(x, k) == v
            assert all(words.member(words.white(k), l) for l in x.letters)
            assert x not in seen
            seen.add(x)


def test_level_shift_rejects_letters_above_the_level():
    with pytest.raises(fusion.NotInSet):
        fusion.psi(WreathWord(("ooxx",)), 1)
    with pytest.raises(fusion.NotInSet):
        fusion.psi_inverse("oooxxx", 1)


def test_free_product_concatenates_across_factors_and_fuses_within():
    a = FreeWord((("A", "o"),))
    b = FreeWord((("B", "o"),))
    cross = fusion.free_product_fusion(a, b)
    assert cross == Counter({FreeWord((("A", "o"), ("B", "o"))): 1})
    same = fusion.free_product_fusion(a, FreeWord((("A", "x"),)))
    assert {str(k): v for k, v in same.items()} == {"[A:ox]": 1, "1": 1}


def test_free_words_reject_malformed_letters():
    with pytest.raises(fusion.MalformedWord):
        FreeWord((("A", "o"), ("A", "x")))
    with pytest.raises(fusion.MalformedWord):
        FreeWord((("A", ""),))
