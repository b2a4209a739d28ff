import random
from fractions import Fraction
from itertools import product
from math import comb, prod

import pytest

import troparr.envelope
import troparr.geometry as geometry
from troparr import (
    Arrangement,
    OrderedPartition,
    ProjectivePoint,
    RealizationResult,
    ResourceLimitError,
    TypeVector,
    dual_subdivision,
    enumerate_ordered_partitions,
    enumerate_realizations,
    is_generic,
    is_triangulation,
    realizable,
    regular_subdivision,
    type_of_point,
)

from conftest import (
    _Feasibility,
    _FractionTieGroups,
    apex_type,
    assert_every_entry_is_feasible,
    assert_faces_match_the_search,
    assert_realizable_matches,
    enumerate_types,
    minor_ties,
    move_apex,
    nongeneric_on_apex,
    nongeneric_on_ray,
    offending_apexes,
    offending_positions,
    random_arrangement,
    random_generic_arrangement,
    random_integer_arrangement,
    realizations_oracle,
    refine,
    safe_radius,
    sampled_types,
    search_realizations,
    search_steps,
    subdivision_of,
    type_counts,
    type_total_size,
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
    assert rep1 and rep1.minor is None
    assert all(type_total_size(apex_type(e1, i)) == 3 for i in (1, 2))
    # apex 2 on the {1,2}-ray of hyperplane 1's fan ties the minor on rows
    # 1, 2 and columns 1, 2
    rep2 = is_generic(e2)
    assert not rep2
    assert rep2.minor == ((1, 2), (1, 2), (((1, 1), (2, 2)), ((1, 2), (2, 1))))
    assert type_total_size(apex_type(e2, 1)) == 4 and offending_positions(e2, 1) == ()
    assert type_total_size(apex_type(e2, 2)) == 5 and offending_positions(e2, 2) == (1,)
    single = Arrangement.from_rows([[5, 0, 2]])
    assert is_generic(single) and is_generic(single).minor is None
    # every apex at its bound, but the minor on rows 1, 3, 4 ties
    tied = Arrangement.from_rows([[3, -2, 0], [0, -4, 0], [-4, -5, 0], [-1, 1, 0]])
    rep3 = is_generic(tied)
    assert not rep3 and not offending_apexes(tied)
    assert rep3.minor == ((1, 3, 4), (1, 2, 3), (((1, 2), (3, 1), (4, 3)), ((1, 3), (3, 2), (4, 1))))
    assert minor_ties(tied.rows(), rep3.minor)


def test_is_generic_stops_at_the_first_cell_that_is_not_a_tree(monkeypatch):
    # 30 equal rows at d = 4: the first cell is the whole product, where a
    # full walk would visit C(32, 29) = 4960 trees
    yields = []
    walk = troparr.envelope._pivot_walk

    def counted(*args):
        for cell in walk(*args):
            yields.append(cell)
            yield cell

    monkeypatch.setattr(troparr.envelope, "_pivot_walk", counted)
    assert not is_generic(Arrangement.from_rows([[0] * 4] * 30))
    assert len(yields) == 1


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
    # 13 types: a budget of 13 holds them, and one of 12 is refused
    arr = Arrangement.from_rows([[0, 0, 0], [1, 1, 0]])
    assert len(enumerate_types(arr, budget=13)) == 13
    with pytest.raises(ResourceLimitError, match="^type enumeration: 13 types exceed budget 12$"):
        enumerate_types(arr, budget=12)
    with pytest.raises(ValueError, match="^budget must be non-negative, got -1$"):
        enumerate_types(arr, budget=-1)


def _recorded(monkeypatch, module, name) -> list:
    # the arguments of every call of module.name, recorded when it is
    # called, before it does any work
    calls = []
    function = getattr(module, name)

    def recorded(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(module, name, recorded)
    return calls


def _yielded(monkeypatch, module, name) -> list:
    # every cell the walk module.name yields, recorded as it is yielded
    cells = []
    walk = getattr(module, name)

    def recorded(*args):
        for cell in walk(*args):
            cells.append(cell)
            yield cell

    monkeypatch.setattr(module, name, recorded)
    return cells


def _started_walks(monkeypatch) -> list[tuple[int, int]]:
    # the shape of every pivot walk started, recorded when it is called,
    # before its first tree
    started = []
    walk = troparr.envelope._pivot_walk

    def counted(n, d, *args):
        started.append((n, d))
        return walk(n, d, *args)

    monkeypatch.setattr(troparr.envelope, "_pivot_walk", counted)
    return started


def test_budget_counts_the_types_built():
    # the budget is the number of types the enumeration builds, not the
    # (2^d-1)^n = 759375 candidate types of a (5,4) input nor the S
    # steps the search over prefixes takes: a generic draw's T(5, 4) types
    # and a non-generic draw's are each refused one type short, where the
    # search, which takes more steps than there are types, refuses too
    rng = random.Random(54)
    generic, nongeneric = random_arrangement(rng, 5, 4), nongeneric_on_apex(rng, 5, 4)[0]
    assert is_generic(generic) and not is_generic(nongeneric)
    for arr in (generic, nongeneric):
        types = enumerate_types(arr, budget=10**9)
        count = len(types)
        assert types == set(search_realizations(arr))
        assert (count == type_counts(5, 4)[5]) == bool(is_generic(arr))
        assert count < search_steps(types) < 20_000 < (2 ** 4 - 1) ** 5
        assert enumerate_types(arr, budget=count) == types
        with pytest.raises(ResourceLimitError, match=f"^type enumeration: {count} types exceed budget {count - 1}$"):
            enumerate_types(arr, budget=count - 1)
        with pytest.raises(ResourceLimitError, match=f"^type enumeration: {count} feasibility steps exceed budget {count - 1}$"):
            search_realizations(arr, budget=count - 1)


def _budget_verdict(arr: Arrangement, budget: int, walked_first: bool = False):
    # the types of a fresh copy of arr under budget, or the refusal's
    # message; walked_first has is_generic walk its head, with no meter
    fresh = Arrangement.from_rows(arr.rows())
    if walked_first:
        is_generic(fresh)
    try:
        return enumerate_realizations(fresh, budget)
    except ResourceLimitError as error:
        return str(error)


def test_every_budget_is_refused_exactly_below_the_types():
    # enumerate_realizations refuses exactly the budgets below its T
    # types, always with the one message, and so accepts every budget
    # the search over prefixes accepts, from its S >= T steps up; a head
    # is_generic walked first, unmetered, gets the same verdict.  On the
    # 81 inputs of the (2,3) grid, entries in {-1, 0, 1} and last column
    # 0, every budget from 0 to S; on 240 small-integer draws, generic
    # and not, 0, the floor 2^d - 1 and one below, T - 3 to T + 1, and S
    rows = [[a, b, 0] for a in (-1, 0, 1) for b in (-1, 0, 1)]
    samples = [(Arrangement.from_rows(pair), True) for pair in product(rows, repeat=2)]
    rng = random.Random(5454)
    for k in range(240):
        n, d = rng.choice([(1, 2), (2, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (4, 4)])
        samples.append((random_integer_arrangement(rng, n, d, span=1 + k % 4), False))
    generic = 0
    for arr, every in samples:
        types = search_realizations(arr)
        count, steps, floor = len(types), search_steps(types), 2**arr.d - 1
        assert floor <= count <= steps
        budgets = range(steps + 1) if every else {0, floor - 1, floor, steps} | set(range(max(count - 3, 0), count + 2))
        generic += bool(is_generic(arr))
        for budget in budgets:
            expected = types if budget >= count else f"type enumeration: {budget + 1} types exceed budget {budget}"
            assert _budget_verdict(arr, budget) == expected, (arr.rows(), budget)
            assert _budget_verdict(arr, budget, walked_first=True) == expected, (arr.rows(), budget)
    assert 50 <= generic <= len(samples) - 50, generic


def test_every_generated_entry_is_feasible():
    # the tier-1 rational and integer suites at d <= 5, degenerate slices
    # included; test_grid.py adds the (3,3) and (2,4) grids under --grid
    rng = random.Random(5150)
    for n, d in [(2, 3), (3, 3), (4, 3), (5, 3), (2, 4), (3, 4), (4, 4), (5, 4), (2, 5), (3, 5)]:
        draws = [
            random_arrangement(rng, n, d),
            random_integer_arrangement(rng, n, d),
            nongeneric_on_apex(rng, n, d)[0],
            nongeneric_on_ray(rng, n, d)[0],
        ]
        for arr in draws:
            assert_every_entry_is_feasible(arr)


def test_identical_rows_take_one_step_per_entry():
    # the second of two equal hyperplanes can only repeat the first
    # entry, so there are 4095 types, one per first entry: the floor of
    # 2^12 - 1 is exact, a budget of 4095 holds them and one of 4094 is
    # refused before any face is built; the search takes 2 * 4095 steps
    arr = Arrangement.from_rows([[0] * 12] * 2)
    types = enumerate_types(arr, budget=4095)
    assert len(types) == 4095
    assert all(A == B for A, B in (t.entries for t in types))
    assert search_steps(types) == 2 * 4095
    with pytest.raises(ResourceLimitError, match="^type enumeration: 4095 types exceed budget 4094$"):
        enumerate_types(arr, budget=4094)


def test_the_cuts_are_capped_in_entries_built(monkeypatch):
    # all-zero n x d is one cell whose faces are (B, ..., B) for every
    # nonempty label set B; the closure cuts each with |B| >= 2 by its
    # 2^|B| - 2 proper submasks, n entries a try.  A cap of exactly that
    # work holds every face, and one entry less refuses the last cut
    for n, d in [(2, 3), (3, 4), (2, 6), (5, 5)]:
        arr = Arrangement.from_rows([[0] * d] * n)
        tries = sum(comb(d, k) * (2**k - 2) for k in range(2, d + 1))
        monkeypatch.setattr(geometry, "MAX_CUT_WORK", tries * n)
        assert len(enumerate_realizations(arr, budget=2**d - 1)) == 2**d - 1
        monkeypatch.setattr(geometry, "MAX_CUT_WORK", tries * n - 1)
        message = f"type enumeration: {tries} cuts x {n} entries = {tries * n} entries exceed the cap of {tries * n - 1}"
        with pytest.raises(ResourceLimitError, match=f"^{message}$"):
            enumerate_realizations(arr, budget=10**9)


def test_budget_refuses_below_the_floor_before_any_face(monkeypatch):
    # every one of the 2^d - 1 nonempty label masks is the first entry of
    # some type, so there are at least that many types; below that floor
    # the refusal comes before the walk over the envelope starts or any
    # face is built.  A single hyperplane has exactly the floor's types
    calls = _recorded(monkeypatch, geometry, "_faces")
    walks = _started_walks(monkeypatch)
    rng = random.Random(2026)
    for n, d in [(1, 2), (1, 4), (2, 3), (3, 3), (2, 4), (4, 3)]:
        floor = 2 ** d - 1
        draws = [random_arrangement(rng, n, d)] + ([nongeneric_on_apex(rng, n, d)[0]] if n >= 2 else [])
        assert is_generic(draws[0])
        for arr in draws:
            calls.clear()
            walks.clear()
            for budget in (0, floor // 2, floor - 1):
                with pytest.raises(ResourceLimitError, match=f"^type enumeration: {budget + 1} types exceed budget {budget}$"):
                    enumerate_types(arr, budget=budget)
            assert calls == [] and walks == []
            count = len(enumerate_types(arr, budget=10**9))
            assert len(calls) == 1
            assert (count == type_counts(n, d)[n]) == bool(is_generic(arr))
            assert count >= floor
            if n == 1:
                assert count == floor
                assert enumerate_types(arr, budget=floor)
    # a large d is refused before any face is built, and before any walk
    monkeypatch.setattr(geometry, "_faces", None)
    walks.clear()
    for n, d in [(1, 40), (2, 40), (2, 18)]:
        with pytest.raises(ResourceLimitError, match="^type enumeration: 200001 types exceed budget 200000$"):
            enumerate_types(Arrangement.from_rows([[0] * d] * n))
    assert walks == []


def test_generic_types_from_the_trees_match_the_fraction_oracle():
    # on a generic input the types and their dimensions are read off the
    # trees of the triangulation: they equal the Fraction search's, and
    # number T(n, d)
    rng = random.Random(4747)
    for n in range(1, 6):
        for d in range(2, 6):
            arr = random_generic_arrangement(rng, n, d)
            dimensions = enumerate_realizations(arr)
            assert dimensions == {T_: r.dimension for T_, r in realizations_oracle(arr).items()}, arr.rows()
            assert len(dimensions) == type_counts(n, d)[n]


def test_a_generic_input_never_reaches_the_search(monkeypatch):
    # a generic input's types are the faces of its trees: the walk over
    # cells, with the cuts of the faces of the cells that are not trees,
    # is never started, and its pivot walk is the one is_generic reads
    calls = _recorded(monkeypatch, geometry, "_cell_walk")
    walks = _started_walks(monkeypatch)
    rng = random.Random(4748)
    draws = [random_generic_arrangement(rng, n, d) for n, d in [(2, 3), (3, 3), (4, 3), (3, 4), (4, 4)]]
    draws.append(Arrangement.from_rows([[3 ** (4 * i + j) for j in range(4)] for i in range(5)]))
    for arr in draws:
        walks.clear()
        assert len(enumerate_realizations(arr)) == type_counts(arr.n, arr.d)[arr.n]
        assert is_generic(arr)
        assert walks == [(arr.n, arr.d)]
    assert calls == []


def test_budget_stops_a_generic_walk_after_one_tree_more_than_it_holds(monkeypatch):
    # each tree is a distinct vertex type: under a budget below the
    # C(n+d-2, n-1) trees, past the floor, the walk stops at tree
    # limit + 1 with the enumeration's message, and no cell is walked
    calls = _recorded(monkeypatch, geometry, "_cell_walk")
    yielded = []
    walk = troparr.envelope._pivot_walk

    def counted(*args):
        for cell in walk(*args):
            yielded.append(cell)
            yield cell

    monkeypatch.setattr(troparr.envelope, "_pivot_walk", counted)
    for n, d in [(5, 4), (6, 3), (7, 3)]:
        floor, trees = 2 ** d - 1, comb(n + d - 2, n - 1)
        for limit in range(floor, trees):
            yielded.clear()
            arr = Arrangement.from_rows([[3 ** (d * i + j) for j in range(d)] for i in range(n)])
            with pytest.raises(ResourceLimitError, match=f"^type enumeration: {limit + 1} types exceed budget {limit}$"):
                enumerate_realizations(arr, limit)
            assert len(yielded) == limit + 1, (n, d, limit)
            assert all(cell.bit_count() == n + d - 1 for cell in yielded)
            # a head is_generic walked first, unmetered, is refused the same
            assert is_generic(arr)
            yielded.clear()
            with pytest.raises(ResourceLimitError, match=f"^type enumeration: {limit + 1} types exceed budget {limit}$"):
                enumerate_realizations(arr, limit)
            assert yielded == []
    assert calls == []


def test_a_degenerate_input_walks_cells_not_trees(monkeypatch):
    # all-zero 9 x 9 has one cell, the whole product, of C(16, 8) = 12,870
    # trees: the pivot walk stops at its first tree, whose cell is not a
    # tree, and the walk over cells yields that one cell, whose 511 faces
    # that meet every row are the types
    trees, cells = _yielded(monkeypatch, troparr.envelope, "_pivot_walk"), _yielded(monkeypatch, geometry, "_cell_walk")
    arr = Arrangement.from_rows([[0] * 9] * 9)
    dimensions = enumerate_realizations(arr)
    assert len(dimensions) == 511 and not is_generic(arr)
    assert trees == cells == [(1 << 81) - 1]
    assert sorted(dimensions.values()) == sorted(9 - len(T.entries[0]) for T in dimensions)


def test_a_shut_witness_interval_raises_naming_its_stage():
    # a closed, consistent system leaves every root an open interval;
    # bounds x_2 - x_1 > 0 and x_1 - x_2 > 0 together shut label 2's
    state = _Feasibility(Arrangement.from_rows([[0, 0, 0]]))
    w = state.d + 1
    state.lower[2 * w + 1] = state.lower[1 * w + 2] = 0
    with pytest.raises(RuntimeError, match="^realization witness: the closed bounds leave label 2's group no open interval$"):
        state.witness()


def test_enumeration_depth_is_not_bounded_by_the_recursion_limit():
    # one stack frame per hyperplane of the prefix, not one Python call
    arr = Arrangement.from_rows([[0, 0]] * 1100)
    assert enumerate_realizations(arr) == {
        TypeVector((frozenset({1}),) * 1100): 1,
        TypeVector((frozenset({2}),) * 1100): 1,
        TypeVector((frozenset({1, 2}),) * 1100): 0,
    }


def _assert_matches_oracle(arr, rng):
    expected = realizations_oracle(arr)
    assert assert_faces_match_the_search(arr) == {T_: r.dimension for T_, r in expected.items()}
    for T_, result in expected.items():
        assert_realizable_matches(arr, T_, result)
    labels = range(1, arr.d + 1)
    for _ in range(20):
        T_ = TypeVector(tuple(frozenset(rng.sample(labels, rng.randint(1, arr.d))) for _ in range(arr.n)))
        assert_realizable_matches(arr, T_, expected.get(T_, RealizationResult(False)))


def test_integer_kernel_matches_fraction_oracle():
    # the types and dimensions of the walked cells' faces equal the
    # search's and the Fraction DFS's on every slice kind, degenerate ones
    # included, each cell walk finds the pivot walk's cells, and
    # realizable agrees with the Fraction DFS, with a witness of the type
    # and, on a vertex, the DFS's own
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


def _arrangement_of_chain(rng, d, chain):
    """An arrangement on which a random point x has type ``chain``: apex i
    equals x on the labels of entry i and lies above it on the others."""
    x = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(d)]
    rows = [
        [x[j - 1] if j in entry else x[j - 1] + Fraction(rng.randint(1, 30), rng.randint(1, 9)) for j in range(1, d + 1)]
        for entry in chain
    ]
    return Arrangement.from_rows(rows)


def test_tie_groups_match_the_fraction_union_find():
    # every step of each chain is feasible; later entries merge groups
    # that earlier ones merged, or tie labels already in one group
    rng = random.Random(2718)
    cases = []
    for d in (4, 5, 6):
        for chain in ([{1, 2}, {3, 4}, {2, 3}], [{3, 4}, {1, 2}, {1, 4}, {2, 3}], [{1, 2}, {d - 1, d}, {3, 4}, {2, 3, d}]):
            cases.append((_arrangement_of_chain(rng, d, chain), chain))
    for n in (3, 4):
        arr = nongeneric_on_apex(rng, n, 4)[0]
        vertices = sorted(T_.key() for T_, dim in enumerate_realizations(arr).items() if dim == 0)
        cases += [(arr, key) for key in vertices[:8]]
    for arr, chain in cases:
        state, groups = _Feasibility(arr), _FractionTieGroups(arr.d)
        for i, entry in enumerate(chain, 1):
            assert state.add_hyperplane(i, sum(1 << j for j in entry))
            base, *rest = sorted(entry)
            row = arr.apex(i).coords
            for j in rest:
                assert groups.union(j, base, row[j - 1] - row[base - 1])
            for v in range(1, arr.d + 1):
                assert (state.root[v], Fraction(state.offset[v], state.scale)) == groups.find(v), (arr.rows(), chain, i, v)


def test_integer_kernel_with_large_coprime_denominators():
    # denominators are distinct primes below 10^4, so the scale D is
    # their product (up to 36 digits) and the witnesses need every digit
    primes = iter(p for p in range(9999, 9000, -1) if all(p % q for q in range(2, 100)))
    rng = random.Random(10007)

    def entry() -> Fraction:
        p = next(primes)
        return Fraction(rng.randint(1, p - 1) + p * rng.randint(-3, 2), p)

    def assert_walks_match_the_types(arr: Arrangement) -> None:
        # the walks and the genericity test on the same scale, against
        # the enumeration's 0-dimensional types
        sub = subdivision_of(arr, enumerate_realizations(arr))
        assert dual_subdivision(arr) == sub == regular_subdivision(arr.rows()), arr.rows()
        assert is_generic(arr).generic == is_triangulation(sub), arr.rows()

    for n, d in [(2, 3), (3, 3), (4, 3), (3, 4)]:
        rows = [[entry() for _ in range(d - 1)] + [0] for _ in range(n)]
        arr = Arrangement.from_rows(rows)
        assert _Feasibility(arr).scale == prod(x.denominator for row in rows for x in row)
        _assert_matches_oracle(arr, rng)
        # (2, 3) is walked; the others are read off the plane
        assert min(n, d) == 2 or troparr.envelope._planar_cells(arr) is not None, rows
        assert_walks_match_the_types(arr)
    # an on-apex copy of a large-denominator row ties exactly
    rows = [[Fraction(1, 9973), Fraction(-2, 9967), 0], [Fraction(5, 9949), Fraction(7, 9941), 0]]
    arr = Arrangement.from_rows(rows + [rows[0]])
    assert not is_generic(arr)
    _assert_matches_oracle(arr, rng)
    assert_walks_match_the_types(arr)


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
        for Tv, dim in enumerate_realizations(arr).items():
            res = realizable(arr, Tv)
            assert res.realizable and res.dimension == dim
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
    assert is_generic(move_apex(e2, 2, (eps, 0, 0)))
    assert is_generic(move_apex(e2, 2, (0, eps, 0)))


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
                assert is_generic(move_apex(arr, i, delta))


def test_apex_total_lower_bound():
    rng = random.Random(59)
    for _ in range(40):
        n, d = rng.choice([(2, 2), (2, 3), (3, 3), (2, 4), (4, 2)])
        arr = random_arrangement(rng, n, d)
        for i in range(1, n + 1):
            total = type_total_size(apex_type(arr, i))
            assert total >= n + d - 1
            assert (total > n + d - 1) == bool(offending_positions(arr, i))


def test_zero_dimensional_types_have_distinct_forced_witnesses():
    # a 0-cell's realization is a single point, so witnesses of distinct
    # 0-dimensional types can never collide
    rng = random.Random(67)
    for _ in range(8):
        n, d = rng.choice([(2, 3), (3, 3), (3, 2)])
        arr = random_arrangement(rng, n, d)
        zero_cells = {}
        for Tv, dim in enumerate_realizations(arr).items():
            res = realizable(arr, Tv)
            assert res.dimension == dim
            if dim == 0:
                zero_cells[Tv] = res.witness
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
