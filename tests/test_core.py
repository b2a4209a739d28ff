import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from troparr import (
    Arrangement,
    CellGraph,
    OrderedPartition,
    ProjectivePoint,
    TypeVector,
    dual_subdivision,
    enumerate_ordered_partitions,
    enumerate_realizations,
    parse_rational,
)
from troparr.core import DEFAULT_BUDGET, MAX_LABEL, Meter

from conftest import type_total_size

rationals = st.fractions(max_denominator=50)


def fubini(d: int) -> int:
    """Independent recursive count of ordered partitions."""
    from math import comb

    if d == 0:
        return 1
    return sum(comb(d, k) * fubini(d - k) for k in range(1, d + 1))


def test_normalize_examples():
    assert ProjectivePoint((1, 1, 0)).normalized().coords == (1, 1, 0)
    assert ProjectivePoint((2, 2, 1)).normalized().coords == (1, 1, 0)
    assert ProjectivePoint((0, 0, 0)).normalized().coords == (0, 0, 0)


@given(st.lists(rationals, min_size=2, max_size=6), rationals)
def test_normalize_shift_invariant_and_idempotent(coords, c):
    p = ProjectivePoint(tuple(coords))
    shifted = ProjectivePoint(tuple(x + c for x in coords))
    assert p.normalized() == shifted.normalized()
    assert p.normalized().normalized() == p.normalized()
    assert p.normalized().coords[-1] == 0


def test_point_rejects_floats_and_short_vectors():
    with pytest.raises(TypeError):
        ProjectivePoint((0.5, 1))
    with pytest.raises(ValueError):
        ProjectivePoint((1,))


def test_ordered_partitions_small():
    assert len(enumerate_ordered_partitions(1)) == 1
    two = enumerate_ordered_partitions(2)
    assert {p.text() for p in two} == {"({1,2})", "({1}|{2})", "({2}|{1})"}
    # the one order: first block by size, then lexicographically, then the rest's
    assert [p.text() for p in enumerate_ordered_partitions(3)] == [
        "({1}|{2}|{3})", "({1}|{3}|{2})", "({1}|{2,3})",
        "({2}|{1}|{3})", "({2}|{3}|{1})", "({2}|{1,3})",
        "({3}|{1}|{2})", "({3}|{2}|{1})", "({3}|{1,2})",
        "({1,2}|{3})", "({1,3}|{2})", "({2,3}|{1})",
        "({1,2,3})",
    ]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_ordered_partition_counts_match_recursive_oracle(d):
    parts = enumerate_ordered_partitions(d)
    assert len(parts) == fubini(d) == {1: 1, 2: 3, 3: 13, 4: 75}[d]
    assert len(set(parts)) == len(parts)
    for p in parts:
        labels = [x for b in p.blocks for x in b]
        assert sorted(labels) == list(range(1, d + 1))
        assert all(b for b in p.blocks)


def test_ordered_partitions_reject_bad_d():
    with pytest.raises(ValueError):
        enumerate_ordered_partitions(0)


def test_ordered_partition_validation():
    with pytest.raises(ValueError):
        OrderedPartition((frozenset({1}), frozenset({1, 2})))  # overlap
    with pytest.raises(ValueError):
        OrderedPartition((frozenset({1}), frozenset({3})))  # gap


def test_type_total_size():
    assert type_total_size(TypeVector.of({1, 2}, {1, 2, 3})) == 5
    assert type_total_size(TypeVector.of({1}, {1})) == 2
    assert type_total_size(TypeVector.of({1, 2, 3}, {3})) == 4


def test_type_vector_validation_and_text():
    with pytest.raises(ValueError):
        TypeVector.of({1}, set())
    T = TypeVector.of({2, 1}, {3, 1, 2})
    assert T.text() == "({1,2},{1,2,3})"
    assert TypeVector.parse(T.text()) == T


@given(
    st.lists(
        st.sets(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
        min_size=1,
        max_size=4,
    )
)
def test_type_text_round_trip(entries):
    T = TypeVector.of(*entries)
    assert TypeVector.parse(T.text()) == T


def test_public_type_construction_still_validates():
    # the type walk builds its types without re-validating them; every
    # public way in keeps rejecting empty entries and non-positive labels
    for entries in [(frozenset(),), (frozenset({1}), frozenset()), (frozenset({0}),), (frozenset({1, -2}),)]:
        with pytest.raises(ValueError):
            TypeVector(entries)
        with pytest.raises(ValueError):
            TypeVector.of(*entries)
    for bad in [(frozenset({True}),), (frozenset({"1"}),), ()]:
        with pytest.raises(ValueError):
            TypeVector(bad)
    for bad in ["({1},{})", "({0},{1})", "({-1})"]:
        with pytest.raises(ValueError):
            TypeVector.parse(bad)
    with pytest.raises(ValueError):
        TypeVector.of({1}, {2}).with_entry(2, ())
    # a type the walk builds equals and hashes as the validated one
    walked = TypeVector._trusted((0b110, 0b1000))
    public = TypeVector.of({2, 1}, {3})
    assert walked == public and hash(walked) == hash(public) and walked.text() == "({1,2},{3})"


def test_types_are_label_masks_and_round_trip_through_their_entries():
    # the one field is masks, bit j for label j; the label sets are read off
    # it and build the same type back, with the same hash
    assert [f.name for f in dataclasses.fields(TypeVector)] == ["masks"]
    T = TypeVector.of({2, 1}, {3})
    assert T.masks == (0b110, 0b1000) and T.entries == (frozenset({1, 2}), frozenset({3}))
    assert T.max_label() == 3 and T.entry(2) == frozenset({3}) and T.key() == ((1, 2), (3,))
    rng = random.Random(13)
    for n in range(1, 8):
        for d in range(1, 8):
            for _ in range(10):
                T = TypeVector(frozenset(rng.sample(range(1, d + 1), rng.randint(1, d))) for _ in range(n))
                fresh = TypeVector(T.entries)
                assert fresh == T and hash(fresh) == hash(T) and fresh.masks == T.masks
                assert T.masks == tuple(sum(1 << j for j in e) for e in T.entries)
                assert T.key() == tuple(tuple(sorted(e)) for e in T.entries)
                assert T.max_label() == max(map(max, T.entries)) and TypeVector.parse(T.text()) == T


def test_type_labels_past_the_cap_are_refused():
    # a label mask holds a bit per label up to its largest, so every public
    # way in refuses a label past MAX_LABEL before building the mask
    message = f"^labels must be at most MAX_LABEL = {MAX_LABEL}, got {MAX_LABEL + 1}$"
    assert TypeVector.of({1, MAX_LABEL}).max_label() == MAX_LABEL
    with pytest.raises(ValueError, match=message):
        TypeVector.of({1}, {2, MAX_LABEL + 1})
    with pytest.raises(ValueError, match=message):
        TypeVector.parse(f"({{1}},{{{MAX_LABEL + 1}}})")
    with pytest.raises(ValueError, match=message):
        TypeVector.of({1}, {2}).with_entry(1, {MAX_LABEL + 1})


def test_type_parse_rejects_garbage():
    # a leading zero and a non-ASCII digit (Arabic-Indic one) are not canonical
    for bad in ["", "()", "({})", "({2,1})", "({1},)", "{1}", "({1}", "({1},{0})", "({01},{2})", "({\u0661},{2})"]:
        with pytest.raises(ValueError):
            TypeVector.parse(bad)


def test_rational_grammar():
    assert parse_rational("3") == 3
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational("+1/2") == Fraction(1, 2)
    assert parse_rational("2.50") == Fraction(5, 2)
    assert parse_rational("-0.000000000000000001") == Fraction(-1, 10**18)
    for bad in ["1/0", "1e5", "0.1234567890123456789", "1.", ".5", "a", "1 / 2", ""]:
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_rational_grammar_takes_ascii_digits_only():
    # \d would match every Unicode decimal digit: "١/٢" read as 1/2
    for bad in ["١", "١/٢", "1/٢", "0.٥", "-٣", "1_0", "1/1_0"]:
        with pytest.raises(ValueError, match="not a rational literal"):
            parse_rational(bad)


def test_format_parse_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        q = Fraction(rng.randint(-500, 500), rng.randint(1, 400))
        assert parse_rational(str(q)) == q


def test_arrangement_normalizes_rows_and_validates():
    arr = Arrangement.from_rows([[1, 1, 1], [2, 3, 1]])
    assert arr.rows() == ((0, 0, 0), (1, 2, 0))
    assert arr.n == 2 and arr.d == 3
    with pytest.raises(ValueError):
        Arrangement.from_rows([])
    with pytest.raises(ValueError):
        Arrangement.from_rows([[1], [2]])
    with pytest.raises(ValueError):
        Arrangement.from_rows([[1, 2], [1, 2, 3]])
    with pytest.raises(IndexError):
        arr.apex(3)


def test_cell_graph_validation_and_text():
    g = CellGraph(2, 3, frozenset({(2, 3), (1, 1)}))
    assert g.text() == "[(1,1),(2,3)]"
    with pytest.raises(ValueError):
        CellGraph(2, 3, frozenset({(3, 1)}))
    with pytest.raises(ValueError):
        CellGraph(2, 3, frozenset({(1, 4)}))
    # an index that is not an int, or is a bool, is refused, not truncated
    for edges in ({(1.5, 2.9)}, {(True, Fraction(7, 3))}, {("1", "2")}):
        with pytest.raises(ValueError):
            CellGraph(2, 3, edges)


def test_sorted_edges_are_kept_outside_the_fields():
    # the fields are n, d and the edge mask; the edges, sorted or not, are
    # read off its bits and round-trip, on every edge set of small shapes
    assert [f.name for f in dataclasses.fields(CellGraph)] == ["n", "d", "mask"]
    g = CellGraph(2, 3, frozenset({(2, 1), (1, 3), (1, 1), (2, 2)}))
    assert g.mask == 0b11101 and g == CellGraph._trusted(2, 3, 0b11101)
    assert g.text() == "[(1,1),(1,3),(2,1),(2,2)]"
    rng = random.Random(11)
    for n, d in [(1, 2), (2, 2), (2, 3), (3, 2), (4, 5), (7, 7)]:
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, d + 1)]
        for _ in range(40):
            g = CellGraph(n, d, rng.sample(pairs, rng.randint(0, len(pairs))))
            fresh = CellGraph(n, d, g.edges)
            assert fresh == g and hash(fresh) == hash(g)
            assert list(g.sorted_edges()) == sorted(g.edges)
            assert g.text() == "[" + ",".join(f"({i},{j})" for i, j in sorted(g.edges)) + "]"


def test_a_budget_must_be_an_int():
    # a float or a bool budget is a TypeError naming its type, from the
    # meter every budgeted function makes, before any work
    arr = Arrangement.from_rows([[0, 0, 0], [1, 1, 0]])
    for budget in (2.5, True, False, "10", Fraction(3)):
        message = f"^budget must be an int, got {type(budget).__name__}$"
        for call in (Meter, lambda b: dual_subdivision(arr, b), lambda b: enumerate_realizations(arr, b)):
            with pytest.raises(TypeError, match=message):
                call(budget)
    assert (Meter().limit, Meter(0).limit, Meter(7).limit) == (DEFAULT_BUDGET, 0, 7)
