"""Error paths that no other test reaches: each bad input raises the one
errors class (or, for Quad.inverse, the ZeroDivisionError of the
arithmetic protocol) that says what is wrong, and nothing more general."""

import random

import pytest

from qcomb import errors, linreal, projmod, qgraph, words
from qcomb.categories import CU, NAMED, enumerate_members
from qcomb.partitions import Partition, duality, identity, one_block

BAD_INPUTS = {
    "partition-label-count": (lambda: Partition("o", "", (0, 0)), errors.ShapeMismatch),
    "compose-middle-colors": (lambda: identity("o").compose(identity("x")), errors.ShapeMismatch),
    "duality-one-color": (lambda: duality("o", "o"), errors.InputError),
    "members-above-12-points": (lambda: enumerate_members(NAMED["NCall"], "o" * 7, "o" * 6), errors.TooLarge),
    "mod-0": (lambda: words.mod_k(0), errors.InputError),
    "pair-negative-bound": (lambda: words.pair(-1, 0), errors.InputError),
    "generators-of-white-inf": (lambda: words.canonical_generators(words.white(words.INF)), errors.InputError),
    "generator-over-the-bound": (lambda: words.generate(["oxox"], 2), errors.InputError),
    "peak-word-k-0": (lambda: words.sample_peak_word(0, 4, random.Random(0)), errors.InputError),
    "rank-mixed-shapes": (lambda: linreal.rank([identity("o"), duality("o", "x")], 2), errors.ShapeMismatch),
    "quad-mixed-radicands": (lambda: qgraph.Quad.sqrt(2) + qgraph.Quad.sqrt(3), errors.InputError),
    "quad-i-times-sqrt-2": (lambda: qgraph.Quad.sqrt(-1) * qgraph.Quad.sqrt(2), errors.InputError),
    "quad-zero-inverse": (lambda: qgraph.Quad.of(0).inverse(), ZeroDivisionError),
    "tree-over-the-level-budget": (lambda: qgraph.QuantumTree(qgraph.classical(2), 13), errors.TooLarge),
    "through-word-outside-cu": (lambda: projmod.through_word(one_block("o", "x")), errors.NotInCategory),
    "catalog-of-cu": (lambda: projmod.catalog_generators(CU), errors.NoCatalogMatch),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_a_bad_input_raises_its_own_error_class(case):
    call, cls = BAD_INPUTS[case]
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is cls, info.value


def test_the_rank_of_no_realization_is_0():
    assert linreal.rank([], 2) == 0
