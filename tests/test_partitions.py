"""Two-colored diagram basics: frames, operations, counting oracles.

Counting oracles are classical integer sequences computed independently of
the enumeration code: Bell numbers for all set partitions, Catalan numbers
for noncrossing partitions and noncrossing pairings.  The recursion that
carried each open block's color is the differential oracle of the colored
shapes, which are filtered from the uncolored pair shapes.
"""

from functools import lru_cache
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qcomb.partitions import (
    Partition,
    _noncrossing,
    _noncrossing_shapes,
    circle_reading,
    circular_order,
    duality,
    enumerate_noncrossing,
    enumerate_partitions,
    identity,
    one_block,
    singleton,
)

BELL = [1, 1, 2, 5, 15, 52]
CATALAN = [1, 1, 2, 5, 14, 42, 132]


@lru_cache(maxsize=None)
def frame(upper: str, lower: str) -> tuple:
    return tuple(enumerate_partitions(upper, lower))


color_words = st.text(alphabet="ox", max_size=3)


@st.composite
def small_partitions(draw):
    upper = draw(color_words)
    lower = draw(color_words)
    return draw(st.sampled_from(frame(upper, lower)))


def test_counts_all_partitions_are_bell_numbers():
    for n in range(6):
        assert len(frame("", "o" * n)) == BELL[n]


def test_counts_noncrossing_are_catalan():
    for n in range(7):
        got = enumerate_noncrossing("", "o" * n, range(1, n + 1))
        assert len(got) == CATALAN[n]


def test_counts_noncrossing_pairings_are_catalan():
    for n in range(4):
        got = enumerate_noncrossing("", "o" * (2 * n), block_sizes={2})
        assert len(got) == CATALAN[n]


def colored_shapes_by_recursion(colors: str) -> tuple:
    """The noncrossing pair shapes of the circular color word colors whose
    two colors differ in every pair, the color of each open block carried
    on the recursion's stack and checked at each join: the code the filter
    of the uncolored pair shapes replaced."""
    n = len(colors)
    sizes, top = frozenset({2}), 2
    if 2 * colors.count("o") != n:
        return ()
    labels = [0] * n
    out = []

    def rec(i: int, opened: int, stack: tuple):
        if i == n:
            if all(s in sizes for _, s, _ in stack):
                out.append(tuple(labels))
            return
        color = colors[i]
        labels[i] = opened
        rec(i + 1, opened + 1, stack + ((opened, 1, color),))
        for j in range(len(stack) - 1, -1, -1):
            b, s, c = stack[j]
            if c != color:
                labels[i] = b
                rec(i + 1, opened, stack[:j] if s + 1 == top else stack[:j] + ((b, s + 1, c),))
            if s not in sizes:
                break

    rec(0, 0, ())
    return tuple(out)


def test_colored_shapes_match_the_colored_recursion_on_every_word_up_to_12_points():
    # the uncached function, so the 8,191 words leave no cache entry each
    shapes = _noncrossing_shapes.__wrapped__
    per_length = [0] * 13
    for n in range(13):
        for colors in product("ox", repeat=n):
            colors = "".join(colors)
            got = shapes(n, frozenset({2}), colors, None)
            assert got == colored_shapes_by_recursion(colors), colors
            per_length[n] += len(got)
    # a pair shape of 2m points obeys the color rule on the 2^m words that
    # color each of its pairs o and x in either order
    assert per_length == [CATALAN[n // 2] * 2 ** (n // 2) if n % 2 == 0 else 0 for n in range(13)]


def alternates_by_word(circle, colors):
    """The color rule as it read the color word again at every shape."""
    whites = {b for b, c in zip(circle, colors) if c == "o"}
    return 2 * len(whites) == len(circle) == 2 * colors.count("o")


def test_colored_shapes_match_the_rule_read_on_the_word_at_every_balanced_word():
    # the white positions are found once per word, not once per shape
    shapes = _noncrossing_shapes.__wrapped__
    for n in range(0, 11, 2):
        pairs = shapes(n, frozenset({2}), None, None)
        words = 0
        for colors in product("ox", repeat=n):
            colors = "".join(colors)
            if 2 * colors.count("o") == n:
                want = tuple(s for s in pairs if alternates_by_word(s, colors))
                assert shapes(n, frozenset({2}), colors, None) == want, colors
                words += 1
        assert words == comb(n, n // 2)


def first_appearance_canonical(labels):
    """Each label is at most one more than the largest label before it."""
    top = -1
    for b in labels:
        if b > top + 1:
            return False
        top = max(top, b)
    return True


@pytest.mark.parametrize("n", range(8))
def test_enumeration_lists_the_canonical_label_tuples_in_order(n):
    # every labelling of n points, filtered: each set partition once, in
    # increasing order, whatever the split of the points into rows
    want = [t for t in product(range(n), repeat=n) if first_appearance_canonical(t)]
    for k in {0, n // 2, n}:
        got = [p.labels for p in enumerate_partitions("o" * k, "x" * (n - k))]
        assert got == want


def test_counts_do_not_depend_on_colors_or_split():
    assert len(frame("", "oxox")) == len(frame("", "oooo"))
    assert len(frame("ox", "ox")) == len(frame("", "oooo"))


def test_labels_are_canonicalized_by_first_appearance():
    p = Partition("o", "oo", (5, 2, 5))
    assert p.labels == (0, 1, 0)
    assert p == Partition("o", "oo", (0, 1, 0))
    assert str(p) == "o;oo;1,2,1"


def test_basic_constructors():
    p = identity("ox")
    assert p.upper == p.lower == "ox"
    assert p.blocks == ((0, 2), (1, 3))
    assert singleton().upper == "" and len(singleton().lower) == 1
    d = duality("o", "x")
    assert d.upper == "ox" and d.lower == ""
    assert one_block("o", "o").blocks == ((0, 1),)


def test_circular_order_is_its_own_inverse():
    assert circular_order(2, 3) == (0, 1, 4, 3, 2)
    for k in range(5):
        for l in range(5):
            order = circular_order(k, l)
            assert sorted(order) == list(range(k + l))
            assert all(order[order[i]] == i for i in order)


def test_noncrossing_predicate():
    assert not _noncrossing(circle_reading(Partition("ox", "xo", (0, 1, 1, 0))))
    assert _noncrossing(circle_reading(identity("oo")))
    assert _noncrossing(circle_reading(duality("o", "x")))


@given(small_partitions())
def test_adjoint_swaps_rows_and_is_an_involution(p):
    q = p.adjoint()
    assert (q.upper, q.lower) == (p.lower, p.upper)
    assert q.adjoint() == p


@given(small_partitions())
def test_reverse_is_an_involution(p):
    assert p.reverse().reverse() == p


@given(small_partitions(), small_partitions())
def test_tensor_concatenates_frames(p, q):
    t = p.tensor(q)
    assert t.upper == p.upper + q.upper
    assert t.lower == p.lower + q.lower
    assert len(t.blocks) == len(p.blocks) + len(q.blocks)


@given(small_partitions())
def test_tensor_unit_is_the_empty_diagram(p):
    unit = Partition("", "", ())
    assert p.tensor(unit) == p
    assert unit.tensor(p) == p


@given(small_partitions(), small_partitions(), small_partitions())
@settings(max_examples=40)
def test_tensor_is_associative(p, q, r):
    assert p.tensor(q).tensor(r) == p.tensor(q.tensor(r))


@given(small_partitions())
def test_composition_with_identity_is_neutral(p):
    assert p.compose(identity(p.upper)) == (p, 0)
    assert identity(p.lower).compose(p) == (p, 0)


@st.composite
def composable(draw, count):
    """count partitions, each composable after the one before it."""
    rows = [draw(color_words) for _ in range(count + 1)]
    return [draw(st.sampled_from(frame(upper, lower))) for upper, lower in zip(rows, rows[1:])]


@given(composable(3))
@settings(max_examples=60)
def test_composition_is_associative_and_loops_add(chain):
    p, q, r = chain
    rq, rq_loops = r.compose(q)
    left, left_loops = rq.compose(p)
    qp, qp_loops = q.compose(p)
    right, right_loops = r.compose(qp)
    assert left == right
    assert rq_loops + left_loops == qp_loops + right_loops


@given(composable(2), composable(2))
@settings(max_examples=60)
def test_interchange_law(left, right):
    # (a (x) b)(c (x) d) = ac (x) bd, with the loops of both columns
    c, a = left
    d, b = right
    ac, ac_loops = a.compose(c)
    bd, bd_loops = b.compose(d)
    assert a.tensor(b).compose(c.tensor(d)) == (ac.tensor(bd), ac_loops + bd_loops)


def test_composition_closes_a_loop():
    d = duality("o", "x")
    assert d.compose(d.adjoint()) == (Partition("", "", ()), 1)


def test_composition_of_cap_after_cup_is_the_nested_projective():
    d = duality("o", "x")
    cupcap, loops = d.adjoint().compose(d)
    assert loops == 0
    assert cupcap.upper == cupcap.lower == "ox"
    assert cupcap.blocks == ((0, 1), (2, 3))


@given(small_partitions(), st.data())
@settings(max_examples=60)
def test_adjoint_reverses_composition(p, data):
    q = data.draw(st.sampled_from(frame(p.lower, data.draw(color_words))))
    composite, loops = q.compose(p)
    star_composite, star_loops = p.adjoint().compose(q.adjoint())
    assert composite.adjoint() == star_composite
    assert loops == star_loops


def test_through_blocks_of_identity():
    p = identity("ox")
    assert p.n_through == 2
    assert len(p.through_blocks) == 2
