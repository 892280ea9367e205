"""Quantum spaces, quantum trees and their symmetry invariants.

Oracles: a rooted tree of depth k over a base of N points has
(N^(k+1) - 1) / (N - 1) vertices, N of them adjacent to the root; the
per-level Schur constants of the weighted tree state are delta_k * delta^i
where delta is the square root of the base dimension and delta_k is the
truncated geometric sum 1 + delta + ... + delta^k.
"""

import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qcomb import cli, errors, qgraph, suites
from qcomb.qgraph import (
    ONE,
    Quad,
    QuantumSpace,
    QuantumTree,
    action_commutes,
    check_delta_form,
    classical,
    classical_graph,
    embedding_scalars,
    exact_unitary,
    matrix_trace,
    schur_constants,
)

DATA = Path(__file__).parent / "data"

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
nonzero = rationals.filter(bool)


def quad(a, b, d=2):
    return Quad(Fraction(a), Fraction(b), d)


@given(rationals, rationals, rationals, rationals)
def test_quadratic_field_arithmetic(a, b, c, d):
    x = Quad(a, b, 2)
    y = Quad(c, d, 2)
    assert x + y == Quad(a + c, b + d, 2)
    assert x * y == y * x
    assert x * (y + ONE) == x * y + x
    if x != Quad.of(0):
        assert x * x.inverse() == ONE


def test_square_roots_of_integers():
    s2 = Quad.sqrt(2)
    assert s2 * s2 == Quad.of(2)
    assert Quad.sqrt(4) == Quad.of(2)
    assert Quad.of(3) + s2 == quad(3, 1)


def test_square_roots_of_negative_integers_are_imaginary():
    i = Quad.sqrt(-1)
    assert i == Quad(Fraction(0), Fraction(1), -1)
    assert i * i == Quad.of(-1)
    assert Quad.sqrt(-4) * Quad.sqrt(-4) == Quad.of(-4)
    assert (ONE + i) * (ONE - i) == Quad.of(2)
    assert (ONE + i).inverse() == quad(Fraction(1, 2), Fraction(-1, 2), -1)


def test_radicands_that_differ_by_a_square_factor_mix():
    # sqrt(8) = 2 sqrt(2), sqrt(-4) = 2i and sqrt(12) = 2 sqrt(3)
    assert Quad.sqrt(8) * Quad.sqrt(2) == Quad.sqrt(2) * Quad.sqrt(8) == Quad.of(4)
    assert Quad.sqrt(-4) * Quad.sqrt(-1) == Quad.of(-2)
    assert Quad.sqrt(12) + Quad.sqrt(3) == quad(0, 3, 3)
    assert Quad.sqrt(18) - Quad.sqrt(8) == quad(0, 1, 2)
    assert Quad.sqrt(-12) * Quad.sqrt(-27) == Quad.of(-18)
    # a radicand meeting only itself keeps its square factor
    assert str(Quad.sqrt(8)) == "1*sqrt(8)"
    assert str(Quad.sqrt(8) + Quad.sqrt(8)) == "2*sqrt(8)"
    for x, y in [(2, 3), (-2, 2), (8, 3), (-4, 8)]:
        with pytest.raises(errors.InputError, match="mixed radicands"):
            Quad.sqrt(x) + Quad.sqrt(y)


def test_equal_numbers_over_different_radicands_compare_and_hash_alike():
    # 2 sqrt(2) = sqrt(8), 2i = sqrt(-4), 1 + sqrt(4) = 3 = 3 sqrt(1)
    for x, y in [
        (Quad.sqrt(8), Quad.of(2) * Quad.sqrt(2)),
        (Quad.sqrt(-4), Quad.of(2) * Quad.sqrt(-1)),
        (quad(1, 1, 4), Quad.of(3)),
        (quad(0, 3, 1), Quad.of(3)),
        (quad(Fraction(1, 2), 1, 12), quad(Fraction(1, 2), 2, 3)),
    ]:
        assert x == y and y == x and hash(x) == hash(y), (str(x), str(y))
        assert len({x, y}) == 1
    assert Quad.sqrt(8) != Quad.sqrt(2)
    assert quad(1, 1, 4) != Quad.of(2)
    assert Quad.sqrt(-1) != Quad.of(1)


def test_int_coefficients_stay_exact_and_floats_are_refused():
    # with int a and b, / on the coefficients once gave floats
    assert str(Quad(1, 1, 2).inverse()) == "-1+1*sqrt(2)"
    half = Quad(3, 0, 1) / Quad(2, 0, 1)
    assert half.a == Fraction(3, 2) and type(half.a) is Fraction
    assert all(type(c) is Fraction for c in (Quad(3, 4, 5).a, Quad(3, 4, 5).b, Quad(3, 4, 0).b))
    for a, b in [(1.5, 0), (0, 0.5), (1.0, 1)]:
        with pytest.raises(errors.InputError, match="float"):
            Quad(a, b, 2)


def test_a_negative_radical_coefficient_prints_one_sign():
    # the + before b once printed as +- when b was negative
    assert str(Quad(3, 1, 2).inverse()) == "3/7-1/7*sqrt(2)"
    assert str(Quad(1, -2, 2)) == "1-2*sqrt(2)"
    assert str(Quad(0, -2, 2)) == "-2*sqrt(2)"
    assert str(Quad(-1, 2, 3)) == "-1+2*sqrt(3)"


def test_a_zero_radicand_is_a_rational():
    # sqrt(0) = 0, so b sqrt(0) adds nothing to a, whatever b is
    zero = Quad(0, 1, 0)
    assert zero == Quad.of(0) and Quad.of(0) == zero and hash(zero) == hash(Quad.of(0))
    assert quad(3, 5, 0) == Quad.of(3) and hash(quad(3, 5, 0)) == hash(Quad.of(3))
    assert str(quad(3, 5, 0)) == "3"
    for y in [Quad.of(2), Quad.sqrt(2), Quad.sqrt(8), Quad.sqrt(-1), quad(1, 2, 0)]:
        assert zero + y == y + zero == y
        assert y - zero == y and zero - y == Quad.of(0) - y
        assert zero * y == y * zero == Quad.of(0)
        assert quad(3, 5, 0) * y == Quad.of(3) * y
    assert len({zero, Quad.of(0), quad(0, -7, 0)}) == 1


@given(rationals, nonzero, rationals, nonzero, st.integers(1, 6), st.sampled_from([2, 3, -1, -3, 5]))
def test_a_square_factor_in_one_radicand_moves_into_its_coefficient(a, b, c, e, s, d):
    x, y = Quad(a, b, d * s * s), Quad(c, e, d)
    assert x + y == y + x == Quad(a + c, b * s + e, d)
    assert x - y == Quad(a - c, b * s - e, d)
    assert x * y == y * x == Quad(a * c + b * s * e * d, a * e + b * s * c, d)


def test_delta_form_axiom_holds_for_both_base_kinds():
    for base in (classical(2), classical(3), matrix_trace(2), matrix_trace(3)):
        assert check_delta_form(base)


def test_weighted_constants_are_a_geometric_ladder():
    r = schur_constants(QuantumTree(classical(2), 2), weighted=True)
    assert r.id_constants == [quad(3, 1), quad(2, 3), quad(6, 2)]
    assert r.delta_k_squared == quad(11, 6)
    r3 = schur_constants(QuantumTree(classical(3), 3), weighted=True)
    assert r3.id_constants == [
        Quad(Fraction(4), Fraction(4), 3),
        Quad(Fraction(12), Fraction(4), 3),
        Quad(Fraction(12), Fraction(12), 3),
        Quad(Fraction(36), Fraction(12), 3),
    ]
    rm = schur_constants(QuantumTree(matrix_trace(2), 2), weighted=True)
    assert rm.id_constants == [Quad.of(7), Quad.of(14), Quad.of(28)]
    assert rm.delta_k_squared == Quad.of(49)


def test_per_level_constants_are_powers_of_the_base_dimension():
    r = schur_constants(QuantumTree(classical(2), 2), weighted=False)
    assert r.id_constants == [ONE, Quad.of(2), Quad.of(4)]
    rm = schur_constants(QuantumTree(matrix_trace(2), 2), weighted=False)
    assert rm.id_constants == [ONE, Quad.of(4), Quad.of(16)]


def test_constants_match_the_single_global_value_only_at_depth_zero():
    assert schur_constants(QuantumTree(classical(2), 0)).matches_global_constant
    assert not schur_constants(QuantumTree(classical(2), 2)).matches_global_constant


@pytest.mark.parametrize(
    "broken",
    [
        lambda pairs: pairs + pairs,  # a second copy: the base count varies
        lambda pairs: [(1, 1)],  # the count holds, but the pair gives 1, not 0
    ],
    ids=["repeated pair", "wrong product"],
)
def test_a_broken_multiplication_is_a_violation_not_an_assertion(monkeypatch, capsys, broken):
    original = QuantumSpace.mult_pairs

    def broken_at_zero(self, z):
        pairs = original(self, z)
        return broken(pairs) if z == 0 else pairs

    monkeypatch.setattr(QuantumSpace, "mult_pairs", broken_at_zero)
    assert not check_delta_form(classical(2))
    code = cli.main(["verify", "trees", "--base", "c2", "--depth", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "delta-form axiom FAILS\nverdict: fail\n"
    assert captured.err == ""


def enumerated_pair_counts(tree):
    """Per level, the number of pairs multiplying to each basis element,
    listed componentwise from the base's pairs; every pair must multiply
    back to its element and every element of a level must have as many."""
    base = tree.base
    counts = []
    for i in range(tree.depth + 1):
        seen = set()
        for t in itertools.product(base.labels, repeat=i):
            pairs = [
                (tuple(u for u, _ in combo), tuple(v for _, v in combo))
                for combo in itertools.product(*map(base.mult_pairs, t))
            ]
            assert all(tuple(map(base.mult, us, vs)) == t for us, vs in pairs)
            seen.add(len(pairs))
        assert len(seen) == 1, (i, seen)
        counts.append(seen.pop())
    return counts


def enumerated_unital_sum(tree):
    """psi_k(1), summing psi^i over every tuple of the unit's support."""
    total = Quad.of(0)
    for i, delta_i in enumerate(tree.delta_powers):
        terms = itertools.product(tree.base.unit_support(), repeat=i)
        level = sum((math.prod(map(tree.base.state, t)) for t in terms), Fraction(0))
        total = total + delta_i * Quad.of(level)
    return total / tree.delta_k


SMALL_TREES = [
    (base, depth)
    for base in [classical(n) for n in range(1, 6)] + [matrix_trace(n) for n in range(1, 5)]
    for depth in range(13)
    if base.dim**depth <= 1000
]


@pytest.mark.parametrize("state_scale", [1, 2], ids=["psi", "2 psi"])
def test_closed_forms_match_the_level_enumeration(monkeypatch, state_scale):
    # 2 psi is not unital, so the closed form must also say False where the
    # enumeration does
    original = QuantumSpace.state
    monkeypatch.setattr(QuantumSpace, "state", lambda self, x: state_scale * original(self, x))
    for base, depth in SMALL_TREES:
        tree = QuantumTree(base, depth)
        assert tree.pair_counts == enumerated_pair_counts(tree), (base, depth)
        unital = enumerated_unital_sum(tree) == ONE
        assert unital == (state_scale == 1 or depth == 0), (base, depth)
        assert tree.state_is_unital() == unital, (base, depth)


def test_pinned_tree_outputs():
    # lines of every in-budget c1-c12 and m1-m12 tree at depths 0-4, plus
    # c2 at depth 12 and m70 at depth 1
    pinned = json.loads((DATA / "trees.json").read_text())
    found = {}
    for key in pinned:
        kind, n, depth = re.fullmatch(r"--base ([cm])(\d+) --depth (\d+)", key).groups()
        base = (classical if kind == "c" else matrix_trace)(int(n))
        out = suites.trees(base, int(depth))
        found[key] = {"ok": out.ok, "lines": out.lines}
    assert found == pinned


def test_embedding_scalars_are_the_square_root_of_the_dimension():
    t = QuantumTree(classical(2), 2)
    assert embedding_scalars(t) == [Quad.sqrt(2), Quad.sqrt(2)]


def test_tree_counts_match_the_geometric_series():
    for N in (1, 2, 3):
        for k in (0, 1, 2, 3):
            g = classical_graph(N, k)
            # at N = 1 the series is k + 1 ones, and its closed form divides by 0
            total = k + 1 if N == 1 else (N ** (k + 1) - 1) // (N - 1)
            assert (len(g), sum(len(children) for children in g.values())) == (total, total - 1)


def test_classical_graph_is_a_rooted_regular_tree():
    g = classical_graph(2, 2)
    assert len(g) == 7
    assert g[()] == [(0,), (1,)]
    # each non-leaf vertex has exactly N children, leaves have none
    child_counts = sorted(len(v) for v in g.values())
    assert child_counts == [0, 0, 0, 0, 2, 2, 2]
    children = [w for nbrs in g.values() for w in nbrs]
    assert len(children) == len(set(children)) == 6
    assert set(children) | {()} == set(g)


def test_sampled_unitaries_are_exact_and_commute_with_the_action():
    rng = random.Random(7)
    for N, k in [(1, 2), (2, 2), (3, 1)]:
        V = exact_unitary(N, rng)
        # row r of V times the conjugate of row c of V is entry (r, c) of V V*
        for r, c in itertools.product(range(N), repeat=2):
            entry = sum((x * Quad(y.a, -y.b, y.d) for x, y in zip(V[r], V[c])), Quad.of(0))
            assert entry == Quad.of(r == c)
        # the phases leave Q: some entry has a nonzero imaginary part
        assert any(x.b != 0 and x.d == -1 for row in V for x in row)
        assert action_commutes(N, k, V)


def test_action_rejects_non_unitaries():
    zero = Quad.of(0)
    with pytest.raises(qgraph.NotUnitary):
        action_commutes(2, 1, [[ONE, zero], [zero, Quad.of(2)]])
    V = exact_unitary(3, random.Random(1))
    V[0][0] = V[0][0] + Quad.of(Fraction(1, 10**12))
    with pytest.raises(qgraph.NotUnitary):
        action_commutes(3, 1, V)
