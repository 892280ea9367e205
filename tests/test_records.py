"""The package's value records keep the semantics of the frozen dataclasses
they replace: equal fields give equal records with equal hashes, the hash
of the field tuple (so set and dict orders do not move), fields that
cannot be assigned, and the same positional and keyword constructors and
defaults.  Nine records are NamedTuples.  Partition, Quad and FreeWord are
plain classes that spell those semantics out: Partition and FreeWord
validate their fields, Partition keeps an instance dict for its cached
properties, and Quad compares and hashes by value however its radicand
is written, which is its field tuple over a squarefree radicand other
than 1."""

import tracemalloc
from fractions import Fraction

import pytest

from qcomb import categories, errors, fusion, linreal, projmod, qgraph, words
from qcomb.partitions import Partition, _trusted_partition, identity


def _sizes(s):
    return s == 2


def _any_size(s):
    return True


def _rule(circle):
    return True


# class, field names in constructor order, defaults, and two value tuples
# that differ in every field; each value of the second may replace the
# first's in its place
RECORDS = [
    (
        categories.CategorySpec,
        ("name", "block_size", "rule", "colored", "even_points"),
        {"rule": None, "colored": False, "even_points": False},
        ("A", _sizes, None, False, False),
        ("B", _any_size, _rule, True, True),
    ),
    (words.AdmissibleSetSpec, ("kind", "k", "k2"), {"k": None, "k2": None}, ("band", 1, 0), ("mod", 2, 3)),
    (words.GeneratedWordSet, ("members",), {}, (frozenset({"ox"}),), (frozenset({"", "xo"}),)),
    (
        words.ClassificationResult,
        ("spec", "flags"),
        {"flags": ()},
        (words.white(1), ()),
        (words.mod_k(2), ("parameter may be larger: ModK(4)",)),
    ),
    (fusion.WreathWord, ("letters",), {}, (("ox", ""),), (("o",),)),
    (fusion.FreeWord, ("letters",), {}, ((("A", "o"), ("B", "x")),), ((("B", "o"),),)),
    (
        projmod.ProjectiveModule,
        ("members",),
        {},
        (frozenset({identity("o")}),),
        (frozenset({identity("oo"), identity("")}),),
    ),
    (qgraph.QuantumSpace, ("kind", "N"), {}, ("classical", 2), ("matrix", 3)),
    (
        qgraph.SchurReport,
        ("base", "N", "depth", "mode", "id_constants", "delta_k_squared", "matches_global_constant"),
        {},
        ("classical", 2, 1, "weighted", (qgraph.ONE,), qgraph.ONE, True),
        ("matrix", 3, 2, "per-level", (qgraph.ZERO,), qgraph.Quad.of(4), False),
    ),
    (qgraph.Quad, ("a", "b", "d"), {}, (Fraction(1), Fraction(2), 3), (Fraction(5), Fraction(7), 5)),
    (Partition, ("upper", "lower", "labels"), {}, ("o", "o", (0, 0)), ("x", "x", (0, 1))),
]

IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, defaults, one, other", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records_and_the_field_tuple_hash(cls, fields, defaults, one, other):
    a, b = cls(*one), cls(*one)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(one))
    for i in range(len(fields)):
        changed = one[:i] + (other[i],) + one[i + 1 :]
        assert cls(*changed) != a, fields[i]
        assert hash(cls(*changed)) == hash(changed), fields[i]


@pytest.mark.parametrize("cls, fields, defaults, one, other", RECORDS, ids=IDS)
def test_a_field_cannot_be_assigned(cls, fields, defaults, one, other):
    record = cls(*one)
    for name, value in zip(fields, other):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) == getattr(cls(*one), name)


@pytest.mark.parametrize("cls, fields, defaults, one, other", RECORDS, ids=IDS)
def test_positional_and_keyword_constructors_and_defaults(cls, fields, defaults, one, other):
    record = cls(*one)
    assert cls(**dict(zip(fields, one))) == record
    assert tuple(getattr(record, name) for name in fields) == one
    required = fields[: len(fields) - len(defaults)]
    assert fields[len(required) :] == tuple(defaults)
    bare = cls(*one[: len(required)])
    assert {name: getattr(bare, name) for name in defaults} == defaults


def test_records_of_other_classes_stay_apart():
    # a NamedTuple equals any tuple of its fields, so the plain classes are
    # the ones a caller could mistake for another record
    letters = (("A", "o"),)
    assert fusion.FreeWord(letters) != fusion.WreathWord(letters)
    assert Partition("", "", ()) != ("", "", ())
    assert qgraph.Quad.of(1) != (Fraction(1), Fraction(0), 1)


def test_the_family_memo_entry_is_a_read_only_two_field_record():
    # the ranks are in laws._rank's memo; an entry holds what the residue
    # reads at every N, and a caller can change neither a field nor an array
    assert linreal._Family._fields == ("sizes", "exponents")
    assert linreal._Family._field_defaults == {}
    linreal._family.cache_clear()
    try:
        one = linreal._family(frozenset({(0, 0), (0, 1)}))
        two = linreal._family(frozenset({(0, 0, 0), (0, 1, 1), (0, 0, 1)}))
        assert [len(f.exponents[0]) for f in (one, two)] == [2, 3]
        with pytest.raises(AttributeError):
            one.exponents = two.exponents
        with pytest.raises(ValueError):
            one.exponents[0, 0, 0] = 0
    finally:
        linreal._family.cache_clear()


def test_every_partition_call_and_no_trusted_one_runs_the_class_hook(monkeypatch):
    # bench/tracer.py counts constructions by replacing this hook on the class
    seen = []
    original = Partition.__post_init__

    def counted(p):
        seen.append(p)
        original(p)

    monkeypatch.setattr(Partition, "__post_init__", counted)
    p = Partition("oo", "o", [4, 4, 9])
    assert seen == [p] and p.labels == (0, 0, 1)
    q = Partition(upper="o", lower="oo", labels=(1, 2, 1))
    assert seen == [p, q] and q.labels == (0, 1, 0)
    t = _trusted_partition("o", "o", (0, 0))
    assert len(seen) == 2
    composed, loops = q.compose(t)
    tensored = p.tensor(t)
    assert seen == [p, q, composed, tensored] and loops == 0
    with pytest.raises(errors.ShapeMismatch):
        Partition("o", "o", (0,))
    assert len(seen) == 5


def test_trusted_and_validated_partitions_compare_and_hash_alike():
    members = categories.all_members(categories.NAMED["NCall"], 5)
    for p in members:
        q = Partition(p.upper, p.lower, list(p.labels))
        assert p == q and hash(p) == hash(q) and str(p) == str(q)
        assert list(vars(p))[:3] == list(vars(q)) == ["upper", "lower", "labels"]
    assert len(set(members) | {Partition(p.upper, p.lower, p.labels) for p in members}) == len(members)


def test_validated_partitions_share_the_attribute_key_table_of_trusted_ones():
    # a member with its own attribute dict costs about a hundred bytes more.
    # Objects reused from the interpreter's free lists are not traced, so
    # each side makes many more members than those lists hold
    labels = (0, 1, 0, 1)

    def per_instance(make):
        tracemalloc.start()
        try:
            made = [make("oo", "oo", labels) for _ in range(20000)]
            for p in made:
                p.blocks  # the cached property writes the instance dict
            return tracemalloc.get_traced_memory()[0] / len(made)
        finally:
            tracemalloc.stop()

    trusted, validated = per_instance(_trusted_partition), per_instance(Partition)
    assert abs(validated - trusted) < 16, (validated, trusted)
