import random
from fractions import Fraction
from math import prod

import pytest

import troparr.geometry as geometry
from troparr import (
    Arrangement,
    OrderedPartition,
    ProjectivePoint,
    RealizationResult,
    ResourceLimitError,
    TypeVector,
    apex_type,
    enumerate_ordered_partitions,
    enumerate_realizations,
    enumerate_types,
    is_generic,
    perturb,
    realizable,
    refine,
    safe_radius,
    type_of_point,
    type_total_size,
)

from conftest import (
    nongeneric_on_apex,
    nongeneric_on_ray,
    random_arrangement,
    random_generic_arrangement,
    random_integer_arrangement,
    realizations_oracle,
    sampled_types,
)


def T(*entries):
    return TypeVector.of(*entries)


def test_type_of_point_e2(e2):
    assert type_of_point(e2, (1, 1, 0)) == T({1, 2}, {1, 2, 3})
    assert type_of_point(e2, (0, 0, 0)) == T({1, 2, 3}, {3})


def test_type_of_point_e1_sector(e1):
    # raw coordinates (0, -1) normalize to (1, 0): both entries pick sector 1
    assert type_of_point(e1, (0, -1)) == T({1}, {1})
    assert type_of_point(e1, (1, 0)) == T({1}, {1})


def test_type_of_point_rejects_mismatched_dimension(e2):
    with pytest.raises(ValueError):
        type_of_point(e2, (0, 0))


def test_apex_entry_is_full_set(e2):
    rng = random.Random(11)
    for _ in range(20):
        n, d = rng.choice([(2, 2), (2, 3), (3, 3), (3, 4)])
        arr = random_arrangement(rng, n, d)
        for i in range(1, n + 1):
            assert apex_type(arr, i).entry(i) == frozenset(range(1, d + 1))


def test_apex_type_examples(e2):
    assert apex_type(e2, 1) == T({1, 2, 3}, {3})
    assert apex_type(e2, 2) == T({1, 2}, {1, 2, 3})
    single = Arrangement.from_rows([[1, 2, 3]])
    assert apex_type(single, 1) == T({1, 2, 3})
    with pytest.raises(IndexError):
        apex_type(e2, 3)


def test_is_generic_reports(e1, e2):
    rep1 = is_generic(e1)
    assert rep1 and all(st.total == 3 for st in rep1.apexes)
    rep2 = is_generic(e2)
    assert not rep2
    assert rep2.apexes[0].generic and rep2.apexes[0].total == 4
    bad = rep2.apexes[1]
    assert bad.total == 5 and bad.bound == 4 and bad.offending == (1,)
    single = Arrangement.from_rows([[5, 0, 2]])
    assert is_generic(single)


def test_projective_invariance_of_types():
    rng = random.Random(23)
    for _ in range(25):
        n, d = rng.choice([(2, 3), (3, 3), (3, 2)])
        arr = random_arrangement(rng, n, d)
        x = [Fraction(rng.randint(-300, 300), 97) for _ in range(d)]
        c = Fraction(rng.randint(-50, 50), 7)
        shifted = [v + c for v in x]
        assert type_of_point(arr, x) == type_of_point(arr, shifted)
        # translating every apex and the point together changes nothing
        w = [Fraction(rng.randint(-20, 20), 3) for _ in range(d)]
        moved = Arrangement.from_rows(
            [[v + wj for v, wj in zip(row, w)] for row in arr.rows()]
        )
        assert type_of_point(arr, x) == type_of_point(moved, [v + wj for v, wj in zip(x, w)])


def test_realizable_e2_examples(e2):
    res = realizable(e2, T({2}, {1, 2, 3}))
    assert not res.realizable and res.witness is None and res.dimension is None

    res = realizable(e2, T({1, 2}, {1, 2, 3}))
    assert res.realizable and res.dimension == 0
    assert res.witness.coords == (1, 1, 0)

    res = realizable(e2, T({1, 2}, {1, 2}))
    assert res.realizable and res.dimension == 1
    assert type_of_point(e2, res.witness) == T({1, 2}, {1, 2})


def test_realizable_validates_input(e2):
    with pytest.raises(ValueError):
        realizable(e2, T({1}))  # wrong n
    with pytest.raises(ValueError):
        realizable(e2, T({1, 4}, {1}))  # label beyond d


def test_realizable_round_trip_on_random_points():
    rng = random.Random(5)
    for _ in range(30):
        n, d = rng.choice([(2, 2), (2, 3), (3, 3), (4, 2)])
        arr = random_arrangement(rng, n, d)
        x = ProjectivePoint(tuple(Fraction(rng.randint(-400, 400), 101) for _ in range(d)))
        Tx = type_of_point(arr, x)
        res = realizable(arr, Tx)
        assert res.realizable
        assert type_of_point(arr, res.witness) == Tx
        assert 0 <= res.dimension <= d - 1


def test_enumerate_types_e1(e1):
    expected = {
        T({1}, {1}),
        T({1, 2}, {1}),
        T({2}, {1}),
        T({2}, {1, 2}),
        T({2}, {2}),
    }
    assert enumerate_types(e1) == expected


def test_enumerate_types_e2(e2):
    # 13 realizable types; exhaustively derivable by hand from the two
    # apex fans (5 regions, 6 edges, 2 vertices)
    types = enumerate_types(e2)
    assert len(types) == 13
    for regions in [
        T({1}, {1}), T({2}, {2}), T({3}, {3}), T({1}, {3}), T({2}, {3}),
    ]:
        assert regions in types
    assert apex_type(e2, 1) in types and apex_type(e2, 2) in types
    assert T({1}, {1, 2, 3}) not in types  # the missing local refinement


def test_enumerate_types_single_hyperplane():
    arr = Arrangement.from_rows([[0, 0]])
    assert enumerate_types(arr) == {T({1}), T({2}), T({1, 2})}


def test_enumerate_types_budget():
    arr = Arrangement.from_rows([[0, 0, 0], [1, 1, 0]])
    with pytest.raises(ResourceLimitError, match="^type enumeration: 11 feasibility steps exceed budget 10$"):
        enumerate_types(arr, budget=10)


def _counted_steps(monkeypatch) -> list[bool]:
    results = []
    add_hyperplane = geometry._Feasibility.add_hyperplane

    def counted(state, i, labels):
        results.append(add_hyperplane(state, i, labels))
        return results[-1]

    monkeypatch.setattr(geometry._Feasibility, "add_hyperplane", counted)
    return results


def test_budget_counts_the_feasibility_steps_taken(monkeypatch):
    # the budget is the number of add_hyperplane calls the walk makes,
    # not the (2^d-1)^n = 759375 candidate types of a (5,4) input
    arr = random_arrangement(random.Random(54), 5, 4)
    calls = _counted_steps(monkeypatch)
    types = enumerate_types(arr, budget=10**9)
    steps = len(calls)
    assert steps < 20_000 < (2 ** 4 - 1) ** 5
    assert enumerate_types(arr, budget=steps) == types
    with pytest.raises(ResourceLimitError, match=f"^type enumeration: {steps} feasibility steps exceed budget {steps - 1}$"):
        enumerate_types(arr, budget=steps - 1)



def test_most_feasibility_steps_succeed(monkeypatch):
    # only entries passing the pairwise tests are tried; scanning all
    # 2^d - 1 entries per prefix made 13% of the steps feasible at (5,4)
    # and 6% at (3,6)
    results = _counted_steps(monkeypatch)
    for n, d in [(5, 4), (3, 6)]:
        results.clear()
        enumerate_types(random_generic_arrangement(random.Random(54), n, d))
        assert 2 * sum(results) >= len(results)


def test_identical_rows_take_one_step_per_entry(monkeypatch):
    # the second of two equal hyperplanes can only repeat the first
    # entry, so 4095 types take 2 * 4095 steps; a scan of every entry
    # per prefix would test 4095^2 of them
    results = _counted_steps(monkeypatch)
    types = enumerate_types(Arrangement.from_rows([[0] * 12] * 2))
    assert len(types) == 4095
    assert all(A == B for A, B in (t.entries for t in types))
    assert len(results) == 2 * 4095 and all(results)


def test_budget_refuses_past_the_first_two_hyperplanes_before_any_step(monkeypatch):
    # every one of the m = 2^d - 1 first entries is feasible and each has
    # a feasible second entry, so the walk takes at least 2m steps (m if
    # n = 1); below that the refusal comes before any step, with the
    # walk's message
    calls = _counted_steps(monkeypatch)
    rng = random.Random(2026)
    for n, d in [(1, 2), (1, 4), (2, 3), (3, 3), (2, 4), (4, 3)]:
        arr = random_arrangement(rng, n, d)
        m = 2 ** d - 1
        floor = m * (1 + (n >= 2))
        calls.clear()
        enumerate_types(arr, budget=10**9)
        assert len(calls) >= floor
        if n == 1:
            assert len(calls) == floor
            assert enumerate_types(arr, budget=floor)
        calls.clear()
        for budget in (0, floor // 2, floor - 1):
            with pytest.raises(ResourceLimitError, match=f"^type enumeration: {budget + 1} feasibility steps exceed budget {budget}$"):
                enumerate_types(arr, budget=budget)
        assert calls == []
    # a large d is refused before any candidate entry is generated
    monkeypatch.setattr(geometry, "_cliques", None)
    for n, d in [(1, 40), (2, 40), (2, 17)]:
        with pytest.raises(ResourceLimitError, match="^type enumeration: 200001 feasibility steps exceed budget 200000$"):
            enumerate_types(Arrangement.from_rows([[0] * d] * n))

def _assert_matches_oracle(arr, rng):
    expected = realizations_oracle(arr)
    assert enumerate_realizations(arr) == expected
    for T_, result in expected.items():
        assert realizable(arr, T_) == result
    labels = range(1, arr.d + 1)
    for _ in range(20):
        T_ = TypeVector(tuple(frozenset(rng.sample(labels, rng.randint(1, arr.d))) for _ in range(arr.n)))
        assert realizable(arr, T_) == expected.get(T_, RealizationResult(False))


def test_integer_kernel_matches_fraction_oracle():
    # types, witnesses and dimensions of the scaled int kernel equal the
    # Fraction DFS on every slice kind, degenerate ones included
    rng = random.Random(5150)
    shapes = [(2, 3), (3, 3), (4, 3), (5, 3), (2, 4), (3, 4)]
    for n, d in shapes:
        draws = [
            random_integer_arrangement(rng, n, d),
            random_arrangement(rng, n, d),
            nongeneric_on_apex(rng, n, d)[0],
            nongeneric_on_ray(rng, n, d)[0],
        ]
        for arr in draws:
            _assert_matches_oracle(arr, rng)
    _assert_matches_oracle(random_arrangement(rng, 4, 4), rng)


def test_integer_kernel_with_large_coprime_denominators():
    # denominators are distinct primes below 10^4, so the scale D is
    # their product (up to 36 digits) and the witnesses need every digit
    primes = iter(p for p in range(9999, 9000, -1) if all(p % q for q in range(2, 100)))
    rng = random.Random(10007)

    def entry() -> Fraction:
        p = next(primes)
        return Fraction(rng.randint(1, p - 1) + p * rng.randint(-3, 2), p)

    for n, d in [(2, 3), (3, 3), (4, 3), (3, 4)]:
        rows = [[entry() for _ in range(d - 1)] + [0] for _ in range(n)]
        arr = Arrangement.from_rows(rows)
        assert geometry._Feasibility(arr).scale == prod(x.denominator for row in rows for x in row)
        _assert_matches_oracle(arr, rng)
    # an on-apex copy of a large-denominator row ties exactly
    rows = [[Fraction(1, 9973), Fraction(-2, 9967), 0], [Fraction(5, 9949), Fraction(7, 9941), 0]]
    arr = Arrangement.from_rows(rows + [rows[0]])
    assert not is_generic(arr)
    _assert_matches_oracle(arr, rng)


def test_boundary_types_always_present():
    rng = random.Random(31)
    for _ in range(12):
        n, d = rng.choice([(2, 2), (2, 3), (3, 3)])
        arr = random_arrangement(rng, n, d)
        types = enumerate_types(arr)
        for j in range(1, d + 1):
            assert T(*([{j}] * n)) in types


def test_realization_dimensions_match_witnesses():
    rng = random.Random(43)
    for _ in range(6):
        n, d = rng.choice([(2, 3), (3, 2), (3, 3)])
        arr = random_arrangement(rng, n, d)
        for Tv, res in enumerate_realizations(arr).items():
            assert res.realizable
            assert type_of_point(arr, res.witness) == Tv


def test_refine_examples():
    t = T({1, 2}, {1, 2, 3})
    assert refine(t, OrderedPartition((frozenset({2}), frozenset({1, 3})))) == T({2}, {2})
    assert refine(t, OrderedPartition((frozenset({1, 3}), frozenset({2})))) == T({1}, {1, 3})
    assert refine(t, OrderedPartition((frozenset({1, 2, 3}),))) == t


def test_refine_properties():
    rng = random.Random(3)
    partitions = enumerate_ordered_partitions(3)
    singletons = OrderedPartition((frozenset({1}), frozenset({2}), frozenset({3})))
    for _ in range(50):
        entries = [
            set(rng.sample(range(1, 4), rng.randint(1, 3))) for _ in range(rng.randint(1, 3))
        ]
        t = T(*entries)
        for P in partitions:
            r = refine(t, P)
            assert all(a <= b for a, b in zip(r.entries, t.entries))
        assert all(len(e) == 1 for e in refine(t, singletons).entries)


def test_perturb_examples(e2):
    eps = Fraction(1, 100)
    assert is_generic(perturb(e2, 2, (eps, 0, 0)))
    assert is_generic(perturb(e2, 2, (0, eps, 0)))
    assert perturb(e2, 2, (0, 0, 0)) == e2
    with pytest.raises(IndexError):
        perturb(e2, 5, (0, 0, 0))


def test_perturb_by_safe_radius_preserves_genericity():
    rng = random.Random(17)
    for _ in range(15):
        n, d = rng.choice([(2, 3), (3, 3), (3, 2)])
        arr = random_generic_arrangement(rng, n, d)
        r = safe_radius(arr)
        assert r > 0
        for i in range(1, n + 1):
            for c in range(d):
                delta = [Fraction(0)] * d
                delta[c] = r
                assert is_generic(perturb(arr, i, delta))


def test_apex_total_lower_bound():
    rng = random.Random(59)
    for _ in range(40):
        n, d = rng.choice([(2, 2), (2, 3), (3, 3), (2, 4), (4, 2)])
        arr = random_arrangement(rng, n, d)
        report = is_generic(arr)
        for st in report.apexes:
            assert st.total >= n + d - 1
            assert st.generic == (st.total == n + d - 1)
            assert (st.total > n + d - 1) == bool(st.offending)


def test_zero_dimensional_types_have_distinct_forced_witnesses():
    # a 0-cell's realization is a single point, so witnesses of distinct
    # 0-dimensional types can never collide
    rng = random.Random(67)
    for _ in range(8):
        n, d = rng.choice([(2, 3), (3, 3), (3, 2)])
        arr = random_arrangement(rng, n, d)
        zero_cells = {
            Tv: res.witness
            for Tv, res in enumerate_realizations(arr).items()
            if res.dimension == 0
        }
        witnesses = list(zero_cells.values())
        assert len({w.coords for w in witnesses}) == len(witnesses)
        for Tv, w in zero_cells.items():
            assert type_of_point(arr, w) == Tv


def test_sampling_oracle_agrees_on_small_arrangements(e1, e2):
    rng = random.Random(71)
    for arr in [e1, e2]:
        types = enumerate_types(arr)
        seen = sampled_types(rng, arr, 4000)
        assert seen <= types
        full_dim = {t for t in types if all(len(e) == 1 for e in t.entries)}
        seen_full = {t for t in seen if all(len(e) == 1 for e in t.entries)}
        assert seen_full == full_dim
