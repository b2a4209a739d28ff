import random
from fractions import Fraction
from itertools import islice
from math import comb

import pytest
import sympy

import troparr.duality
import troparr.secondary
from troparr import (
    Arrangement,
    CellGraph,
    ResourceLimitError,
    Subdivision,
    dual_subdivision,
    gkz_vector,
    is_generic,
    refines,
    refining_triangulations,
    regular_subdivision,
    secondary_face_check,
)

from troparr.core import Meter
from troparr.duality import is_spanning_connected
from troparr.linalg import det_int, rank
from troparr.secondary import _cone, _entry, _in_cone, _moved, _scaled_rows

from conftest import (
    _perturbations,
    _tied_step,
    affine_rank_oracle,
    apex_type,
    assert_cell_walks_match_the_envelope,
    assert_the_lift_outlasts_the_worst_step,
    dual_subdivision_both_ways,
    enumerate_types,
    face_check_passes,
    face_dimension_oracle,
    gkz_as_dict,
    gkz_total,
    integer_incident,
    matching_gaps,
    move_apex,
    nongeneric_on_apex,
    nongeneric_on_ray,
    offending_apexes,
    pivot_walk_edges,
    random_arrangement,
    random_generic_arrangement,
    random_integer_arrangement,
    refinements_oracle,
    safe_radius,
    tie_broken,
    volume_oracle,
)


def G(n, d, *edges):
    return CellGraph(n, d, frozenset(edges))


def tri(n, d, *cells):
    return Subdivision(n, d, frozenset(G(n, d, *c) for c in cells))


SIMPLEX = ((1, 1), (1, 2), (1, 3), (2, 3))
PYRAMID = ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3))

# the two triangulations of the pyramid keep opposite diagonal pairs
SPLIT_A = tri(2, 3, SIMPLEX, ((1, 1), (1, 2), (2, 2), (2, 3)), ((1, 1), (2, 1), (2, 2), (2, 3)))
SPLIT_B = tri(2, 3, SIMPLEX, ((1, 1), (1, 2), (2, 1), (2, 3)), ((1, 2), (2, 1), (2, 2), (2, 3)))

# the 3x3 minors on rows 1-3 and 2-4 have their two best matchings
# 1/100000 apart, closer than any 2x2 gap
SIX_CYCLE = Arrangement.from_rows(
    [[0, 0, 0], [0, -1, Fraction(-200001, 100000)], [0, 1, -1], [0, 0, 0]]
)


def test_refining_triangulations_e2(e2):
    found = refining_triangulations(e2, dual_subdivision(e2))
    assert found == {SPLIT_A, SPLIT_B}


def test_refining_triangulations_oversampling_is_stable(e2):
    # every seed's sample of steps finds both splits of the pyramid
    base = dual_subdivision(e2)
    for seed in range(6):
        assert refining_triangulations(e2, base, seed=seed) == {SPLIT_A, SPLIT_B}


def test_refining_triangulations_takes_seed_and_budget_by_keyword(e2):
    # a third positional argument is refused, not read as the seed
    with pytest.raises(TypeError):
        refining_triangulations(e2, dual_subdivision(e2), 100)


def test_one_budget_for_the_whole_search(e2):
    # refining_triangulations' budget counts the trees of every step it
    # walks, C(3, 1) = 3 each on E2, where each walk lists a new
    # triangulation; secondary_face_check's counts its input's walk
    # first, then the same steps; the walk past either is refused before
    # it starts
    base = dual_subdivision(e2)
    found = refining_triangulations(e2, base)
    trees = 3 * len(found)
    assert refining_triangulations(e2, base, budget=trees) == found
    with pytest.raises(ResourceLimitError, match=f"^pivot walk: {trees} trees exceed budget {trees - 1}$"):
        refining_triangulations(e2, base, budget=trees - 1)
    assert set(secondary_face_check(e2, budget=3 + trees).refinements) == found
    with pytest.raises(ResourceLimitError, match=f"^pivot walk: {3 + trees} trees exceed budget {2 + trees}$"):
        secondary_face_check(e2, budget=2 + trees)
    with pytest.raises(ResourceLimitError, match="^pivot walk: 3 trees exceed budget 2$"):
        secondary_face_check(e2, budget=2)


def test_each_walk_is_charged_once(monkeypatch):
    # the all-zero 2x3 input is one coarse cell, the prism, with 6
    # triangulations: refining_triangulations' meter is charged C(3, 1) =
    # 3 trees by each step's own dual_subdivision and by nothing else;
    # secondary_face_check's one meter 3 for the input's walk, then 3 by
    # each step's
    zero = Arrangement.from_rows([[0, 0, 0]] * 2)
    base = dual_subdivision(zero)
    charges, walked = [], []
    charge, walk = Meter.charge, troparr.secondary.dual_subdivision

    def record(meter, *args):
        charges.append((meter, *args))
        charge(meter, *args)

    def count(arr, budget):
        walked.append(arr)
        return walk(arr, budget)

    monkeypatch.setattr(Meter, "charge", record)
    monkeypatch.setattr(troparr.secondary, "dual_subdivision", count)
    assert len(refining_triangulations(zero, base)) == len(walked) == 6
    meter = charges[0][0]
    assert charges == [(meter, "pivot walk", 3, "trees")] * len(walked)
    assert meter.spent == 18
    charges.clear(), walked.clear()
    assert secondary_face_check(zero).refinement_count == 6 and walked[0] == zero and len(walked) == 7
    meter = charges[0][0]
    assert charges == [(meter, "pivot walk", 3, "trees")] * len(walked)
    assert meter.spent == 21


def test_negative_budget_is_a_value_error(e2):
    # as it is for dual_subdivision, on a base that is a triangulation too
    generic = random_generic_arrangement(random.Random(3), 3, 3)
    for arr in (e2, generic):
        with pytest.raises(ValueError, match="^budget must be non-negative, got -1$"):
            refining_triangulations(arr, dual_subdivision(arr), budget=-1)
    with pytest.raises(ValueError, match="^budget must be non-negative, got -1$"):
        secondary_face_check(e2, budget=-1)


def test_a_base_of_another_shape_is_a_value_error(monkeypatch, e2):
    # the base must be the arrangement's own n x d subdivision: either
    # way round a mismatch is refused before any walk, not read as an
    # IndexError or as an internal fault
    wide = Arrangement.from_rows([[0, 0, 0], [1, 1, 0], [0, 0, 0]])
    cases = [(e2, dual_subdivision(wide), "3x3", "2x3"), (wide, dual_subdivision(e2), "2x3", "3x3")]
    monkeypatch.setattr(troparr.secondary, "dual_subdivision", None)
    for arr, base, theirs, ours in cases:
        with pytest.raises(ValueError, match=f"^the subdivision is {theirs}, the arrangement {ours}$"):
            refining_triangulations(arr, base)


FOREIGN = "^the subdivision was not returned by dual_subdivision for this arrangement$"


def test_a_foreign_base_is_a_value_error(monkeypatch, e2):
    # a base of the right shape that dual_subdivision did not return for
    # the arrangement is refused before any step, never returned as its
    # own refinement nor met as an internal fault, whatever is wrong with
    # it: two overlapping triangles of 2x2, whose second is no lower
    # facet; the one cell of 2x3 on an input that ties one of its cycles
    # but not the other two, and on a generic input, where its own edges
    # are not all tight; a refinement of E2, whose pieces leave a pyramid
    # edge tight; and E2's pyramid alone, a true cell, one simplex short
    # of the product's volume
    overlapping = tri(2, 2, ((1, 1), (1, 2), (2, 1)), ((1, 1), (1, 2), (2, 2)))
    whole = tri(2, 3, SIMPLEX + PYRAMID)
    cases = [
        ([[0, 0], [0, 1]], overlapping),
        ([[0, 0], [0, 5]], overlapping),
        ([[0, 1, 0], [0, 0, 0]], whole),
        ([[0, 0, 0], [0, 1, 2]], whole),
        (e2.rows(), SPLIT_A),
        (e2.rows(), tri(2, 3, PYRAMID)),
    ]
    monkeypatch.setattr(troparr.secondary, "dual_subdivision", None)
    for rows, base in cases:
        with pytest.raises(ValueError, match=FOREIGN):
            refining_triangulations(Arrangement.from_rows(rows), base)


def test_a_base_is_taken_by_provenance(monkeypatch, e2):
    # the walked base of an equal arrangement built separately is taken
    # as it is; a hand-built subdivision with exactly the walked cells,
    # equal to it as a value, and the walked base of E2 halved, whose
    # integer rows are E2's over another denominator, are refused before
    # any walk
    walked = dual_subdivision(e2)
    hand_built = Subdivision(2, 3, walked.maximal_cells)
    halved = dual_subdivision(Arrangement.from_rows([[x / 2 for x in row] for row in e2.rows()]))
    assert hand_built == walked == halved
    found = refining_triangulations(e2, dual_subdivision(Arrangement.from_rows(e2.rows())))
    assert found == {SPLIT_A, SPLIT_B}
    monkeypatch.setattr(troparr.secondary, "dual_subdivision", None)
    for base in (hand_built, halved):
        with pytest.raises(ValueError, match=FOREIGN):
            refining_triangulations(e2, base)


def test_refining_triangulations_generic_is_identity():
    arr = random_generic_arrangement(random.Random(3), 3, 3)
    base = dual_subdivision(arr)
    assert refining_triangulations(arr, base) == {base}


def test_refinements_match_coordinate_perturbations(e2):
    eps = safe_radius(e2)
    plus_x = dual_subdivision(move_apex(e2, 2, (eps, 0, 0)))
    plus_y = dual_subdivision(move_apex(e2, 2, (0, eps, 0)))
    assert {plus_x, plus_y} == {SPLIT_A, SPLIT_B}
    assert plus_x != plus_y


def test_refinements_match_the_loop_over_every_candidate(e2):
    # enumerating one candidate per distinct triangulated envelope finds
    # the same set as enumerating every candidate
    rng = random.Random(2718)
    doubly = Arrangement.from_rows([[0, 0, 0], [3, 1, 0], [1, 1, 0]])
    cases = [(e2, 0), (e2, 5), (doubly, 0), (doubly, 7)]
    cases += [(nongeneric_on_ray(rng, n)[0], 0) for n in (2, 3, 3, 4)]
    cases += [(nongeneric_on_apex(rng, n)[0], 0) for n in (2, 3, 4)]
    for arr, seed in cases:
        base = dual_subdivision(arr)
        found = refining_triangulations(arr, base, seed=seed)
        assert len(found) >= 2
        assert found == refinements_oracle(arr, base, seed=seed)
    integer = [random_integer_arrangement(rng, n, d) for n, d in [(2, 3), (3, 3), (4, 3), (2, 4)] * 3]
    for arr in integer:
        base = dual_subdivision(arr)
        assert refining_triangulations(arr, base) == refinements_oracle(arr, base)


def _slice_cases(e2) -> list[Arrangement]:
    """E2, the six-cycle wall and every flips slice kind at d = 3: apex
    on a ray, apex on an apex, integer draws with an incidence."""
    rng = random.Random(1618)
    cases = [e2, SIX_CYCLE]
    cases += [nongeneric_on_ray(rng, n)[0] for n in (3, 4, 5)]
    cases += [nongeneric_on_apex(rng, n)[0] for n in (3, 4, 5)]
    draws = (random_integer_arrangement(rng, n, 3) for n in [3, 4] * 100)
    cases += islice((arr for arr in draws if offending_apexes(arr)), 6)
    return cases


def _perturbed_cases(e2) -> list[Arrangement]:
    """Non-generic inputs of shapes (2,3) to (4,3), (3,4) and (2,4)."""
    rng = random.Random(3141)
    cases = [e2, SIX_CYCLE, Arrangement.from_rows([[0, 0, 0], [3, 1, 0], [1, 1, 0]])]
    cases += [nongeneric_on_ray(rng, n, d)[0] for n, d in [(2, 3), (3, 3), (4, 3), (3, 4)]]
    cases += [nongeneric_on_apex(rng, n, d)[0] for n, d in [(2, 3), (3, 3), (4, 3), (3, 4)]]
    cases += [integer_incident(rng, n, d) for n, d in [(3, 3), (4, 3), (3, 4), (2, 4)]]
    return cases


def test_cell_walks_match_the_envelope(e2):
    for arr in _slice_cases(e2):
        assert assert_cell_walks_match_the_envelope(arr) >= 2, arr.rows()


def test_refinements_match_the_oracle_on_every_suite(e2):
    # the certified walks find what enumerating every perturbation finds
    for arr in _slice_cases(e2) + _perturbed_cases(e2):
        base = dual_subdivision(arr)
        assert refining_triangulations(arr, base) == refinements_oracle(arr, base), arr.rows()


def test_every_tie_broken_step_moves_to_a_generic_arrangement(e2):
    # random steps, and steps lowered onto a wall of a coarse cell, are
    # generic once tie-broken; the wall step's raw move is not
    rng = random.Random(1729)
    for arr in _slice_cases(e2):
        n, d = arr.n, arr.d
        scaled = _scaled_rows(arr)
        base = dual_subdivision(arr)
        coarse = [g.edges for g in base.maximal_cells if len(g.edges) != n + d - 1]
        for _ in range(n * d):
            step = [[rng.randint(0, 1000) for _ in range(d)] for _ in range(n)]
            assert is_generic(_moved(scaled, tie_broken(step))), (arr.rows(), step)
            for cell in coarse:
                tree = min(pivot_walk_edges(n, d, step, cell), key=sorted)
                tied = _tied_step(n, d, cell, tree, step)
                assert is_generic(_moved(scaled, tie_broken(tied))), (arr.rows(), tied)
                assert not is_generic(_moved(scaled, tied)), (arr.rows(), tied)


def test_every_walk_lists_a_new_triangulation(monkeypatch, e2):
    # a step inside the cone of a listed triangulation is skipped, so each
    # walk the search makes returns a triangulation no earlier walk did,
    # and there are as many walks as triangulations returned
    walks = []
    dual = troparr.secondary.dual_subdivision

    def recorded(arr, budget=None):
        tri = dual(arr, budget)
        assert tri not in walks, arr.rows()
        walks.append(tri)
        return tri

    monkeypatch.setattr(troparr.secondary, "dual_subdivision", recorded)
    # both case lists start with E2 and SIX_CYCLE
    for arr in _slice_cases(e2) + _perturbed_cases(e2):
        base = dual(arr)
        for seed in (0, 1):
            walks.clear()
            found = refining_triangulations(arr, base, seed=seed)
            assert len(walks) == len(found), (arr.rows(), seed)


def test_step_entries_are_drawn_as_randint_draws_them():
    # 10 bits, drawn again above 1000: randint(0, 1000)'s own draw, so
    # each seed's sample stays what it was
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [_entry(ours.getrandbits) for _ in range(40)] == [theirs.randint(0, 1000) for _ in range(40)], seed


def test_the_lift_outlasts_the_worst_step(e2):
    # the largest step entries on one side of a matching pair move no
    # apex sum across the other; test_grid.py adds the (3,3) and (2,4) grids
    rng = random.Random(5051)
    arrs = _slice_cases(e2) + _perturbed_cases(e2)
    arrs += [random_arrangement(rng, n, d) for n, d in [(3, 3), (4, 3), (3, 4), (5, 3)]]
    assert sum(assert_the_lift_outlasts_the_worst_step(arr) for arr in arrs) > 0


def test_scaled_moves_walk_like_fraction_moves(e2):
    # each step's int move of the scaled apexes has the dual subdivision
    # of its Fraction move, and every cell its walk reads spans
    for arr in _perturbed_cases(e2):
        scaled = _scaled_rows(arr)
        assert all(isinstance(x, int) for row in scaled for x in row)
        for step, moved in _perturbations(arr, 2 * arr.n * arr.d, 0):
            walked = dual_subdivision_both_ways(_moved(scaled, step))
            assert walked == dual_subdivision_both_ways(moved), (arr.rows(), step)
            assert all(is_spanning_connected(g) for g in walked.maximal_cells), (arr.rows(), step)


def _inside(small, big) -> bool:
    return all(a <= b for a, b in zip(small.entries, big.entries))


def test_each_walked_step_is_its_moved_envelope(monkeypatch, e2):
    # refining_triangulations checks only that each walked cell is a tree
    # inside a coarse cell; the walk's certificate gives the rest: the
    # step's subdivision is the moved lower envelope, with C(n+d-2, n-1)
    # trees, it refines the base, and the step, the moved rows less the
    # lifted ones (the row constants cancel around every cycle), lies
    # strictly inside the cone of its pieces in every coarse cell
    rng = random.Random(5353)
    cases = [e2, Arrangement.from_rows([[3, -2, 0], [0, -4, 0], [-4, -5, 0], [-1, 1, 0]])]
    for n, d in [(3, 3), (4, 3), (3, 4)]:
        cases += [nongeneric_on_ray(rng, n, d)[0], nongeneric_on_apex(rng, n, d)[0]]
    dual, walked = troparr.secondary.dual_subdivision, []

    def recorded(arr, budget=None):
        walked.append((arr, dual(arr, budget)))
        return walked[-1][1]

    monkeypatch.setattr(troparr.secondary, "dual_subdivision", recorded)
    for arr in cases:
        n, d = arr.n, arr.d
        base = dual(arr)
        walked.clear()
        refining_triangulations(arr, base)
        assert walked, arr.rows()
        scaled = _scaled_rows(arr)
        coarse = [g.mask for g in base.maximal_cells if g.mask.bit_count() > n + d - 1]
        for moved, sub in walked:
            rows = moved._integer_form[1]
            assert sub == regular_subdivision(rows), (arr.rows(), rows)
            assert len(sub.maximal_cells) == comb(n + d - 2, n - 1), (arr.rows(), rows)
            assert refines(sub, base), (arr.rows(), rows)
            step = [x - y for row, lifted in zip(rows, scaled) for x, y in zip(row, lifted)]
            for cell in coarse:
                pieces = [g.mask for g in sub.maximal_cells if g.mask & ~cell == 0]
                assert _in_cone(_cone(n, d, cell, pieces), step), (arr.rows(), rows, cell)


def test_a_perturbation_only_breaks_ties(monkeypatch, e2):
    # on every moved arrangement A' that refining_triangulations
    # certifies, each type of A' lies entrywise inside a type of the
    # non-generic A, and each type of A contains a type of A'
    moved = []
    dual = troparr.secondary.dual_subdivision

    def recorded(arr, budget=None):
        moved.append(arr)
        return dual(arr, budget)

    monkeypatch.setattr(troparr.secondary, "dual_subdivision", recorded)
    for arr in _perturbed_cases(e2):
        moved.clear()
        refining_triangulations(arr, dual(arr))
        assert moved, arr.rows()
        types = enumerate_types(arr)
        for other in moved:
            broken = enumerate_types(other)
            assert all(any(_inside(t, T) for T in types) for t in broken), (arr.rows(), other.rows())
            assert all(any(_inside(t, T) for t in broken) for T in types), (arr.rows(), other.rows())


def test_refinements_across_a_six_cycle_wall():
    # a radius read off the 2x2 minors alone let joint samples cross the
    # 3x3 minor's wall
    base = dual_subdivision(SIX_CYCLE)
    found = refining_triangulations(SIX_CYCLE, base)
    assert len(found) >= 2
    assert all(refines(t, base) for t in found)
    assert found == refinements_oracle(SIX_CYCLE, base)


def test_safe_radius_is_below_every_matching_gap():
    # deltas in [0, r] move a k x k minor's matching sums by at most k*r,
    # so two matchings with different sums must be more than k*r apart
    rng = random.Random(8128)
    arrs = [SIX_CYCLE]
    arrs += [random_arrangement(rng, n, d) for n, d in [(3, 3), (4, 3), (3, 4), (5, 3)] * 3]
    arrs += [random_integer_arrangement(rng, n, d) for n, d in [(3, 3), (4, 3), (3, 4), (5, 3)]]
    for arr in arrs:
        r = safe_radius(arr)
        assert r > 0
        for k, gap in matching_gaps(arr.rows()):
            assert gap > k * r, (arr.rows(), k, gap)


def test_every_refinement_refines_the_coarse_subdivision(e2):
    base = dual_subdivision(e2)
    for t in refining_triangulations(e2, base):
        assert refines(t, base)
    assert not refines(SPLIT_A, SPLIT_B)


def test_refines_walks_only_the_cells_that_are_not_trees(monkeypatch):
    # the simplices of a triangulation are validated once, by Subdivision;
    # the all-zero 2x3 input's one cell is K_{2,3}, with two cycles: the
    # input's walk counts its volume, so a walked base walks no cell, and
    # the same cell built by hand walks its volume, once
    zero = Arrangement.from_rows([[0, 0, 0], [0, 0, 0]])
    refinements = refining_triangulations(zero, dual_subdivision(zero))
    assert len(refinements) == 6
    calls = []
    normalized_volume = troparr.duality.normalized_volume

    def counted(g):
        calls.append(g)
        return normalized_volume(g)

    monkeypatch.setattr(troparr.duality, "normalized_volume", counted)
    base = dual_subdivision(zero)
    whole = G(2, 3, *((i, j) for i in (1, 2) for j in (1, 2, 3)))
    hand = Subdivision(2, 3, frozenset({whole}))
    for t in refinements:
        t = Subdivision(t.n, t.d, t.maximal_cells)  # volumes not yet read
        assert refines(t, base)
        assert all(t.volumes[g] == volume_oracle(g) for g in t.maximal_cells)
    assert calls == [] and base.volumes == {whole: 3} and volume_oracle(whole) == 3
    assert all(refines(t, hand) for t in refinements)
    assert calls == [whole] and hand.volumes == {whole: 3}


def test_the_e2_pyramid_volume_is_read_off_its_one_cycle(monkeypatch, e2):
    # five edges on five nodes close one cycle, a square, so the pyramid
    # has volume 2: the input's walk maps two of its three trees to it
    def refused(g):
        raise AssertionError(f"walked the one-cycle cell {g.text()}")

    monkeypatch.setattr(troparr.duality, "normalized_volume", refused)
    volumes = dual_subdivision(e2).volumes
    assert volumes == {G(2, 3, *SIMPLEX): 1, G(2, 3, *PYRAMID): 2}


def test_each_step_picks_its_own_gkz_vertex(e2):
    # the triangulation a step u' moves to is listed, and its GKZ vector
    # is the one vertex of the listed face that minimizes <u', phi>
    rng = random.Random(3131)
    cases = [e2, Arrangement.from_rows([[0, 0, 0], [3, 1, 0], [1, 1, 0]])]
    cases += [nongeneric_on_ray(rng, n)[0] for n in (3, 4)]
    cases += [nongeneric_on_apex(rng, n)[0] for n in (3, 4)]
    cases += [integer_incident(rng, n, d) for n, d in [(3, 3), (4, 3), (3, 4), (2, 4)]]
    for arr in cases:
        listed = {t: gkz_vector(t).values for t in refining_triangulations(arr, dual_subdivision(arr))}
        for step, moved in _perturbations(arr, 2 * arr.n * arr.d, 0):
            flat = [u for us in step for u in us]
            t = dual_subdivision_both_ways(moved)
            assert t in listed, arr.rows()
            heights = {s: sum(u * x for u, x in zip(flat, phi)) for s, phi in listed.items()}
            assert all(heights[t] < h for s, h in heights.items() if s != t), arr.rows()


def test_gkz_unit_square():
    diag = tri(2, 2, ((1, 1), (2, 1), (2, 2)), ((1, 1), (1, 2), (2, 2)))
    anti = tri(2, 2, ((1, 2), (2, 1), (2, 2)), ((1, 1), (1, 2), (2, 1)))
    g = gkz_vector(diag)
    assert gkz_as_dict(g) == {(1, 1): 2, (1, 2): 1, (2, 1): 1, (2, 2): 2}
    h = gkz_vector(anti)
    assert gkz_as_dict(h) == {(1, 1): 1, (1, 2): 2, (2, 1): 2, (2, 2): 1}


def test_gkz_sums(e2):
    for t in (SPLIT_A, SPLIT_B):
        assert gkz_total(gkz_vector(t)) == 4 * 3  # (n+d-1) * volume
    with pytest.raises(ValueError):
        gkz_vector(dual_subdivision(e2))  # not a triangulation


def test_rank_matches_sympy():
    # int rows (GKZ differences), with dependent rows and all-zero pivot
    # columns mixed in
    rng = random.Random(4141)
    for _ in range(300):
        cols = rng.randint(1, 7)
        basis = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rng.randint(1, 4))]
        rows = []
        for _ in range(rng.randint(1, 6)):
            coeffs = [rng.randint(-2, 2) for _ in basis]
            rows.append([sum(k * b[c] for k, b in zip(coeffs, basis)) for c in range(cols)])
        assert rank(rows) == affine_rank_oracle([[0] * cols] + rows)
    assert rank([]) == 0


def test_rank_matches_sympy_on_wide_dependent_matrices():
    # 25 x 30 with entries in -1..1: independent rows, their negatives,
    # zero rows and sums that stay in range, shuffled, so pivots are
    # skipped and the fraction-free updates run deep
    rng = random.Random(2525)
    for _ in range(12):
        rows = [[rng.randint(-1, 1) for _ in range(30)] for _ in range(rng.randint(1, 20))]
        while len(rows) < 25:
            a, b = rng.choice(rows), rng.choice(rows)
            both = [x + y for x, y in zip(a, b)]
            if rng.random() < 0.5 and all(-1 <= x <= 1 for x in both):
                rows.append(both)
            else:
                rows.append(rng.choice(([-x for x in a], [0] * 30, list(a))))
        rng.shuffle(rows)
        assert rank(rows) == sympy.Matrix(rows).rank(), rows


def test_det_int_matches_sympy():
    # zero columns and zeros on the diagonal force row swaps and zero
    # determinants, so both the swap sign and the rank-deficient case are reached
    rng = random.Random(2424)
    for _ in range(3000):
        n = rng.randint(0, 6)
        matrix = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
        if n and rng.random() < 0.2:
            c = rng.randrange(n)
            for row in matrix:
                row[c] = 0
        assert det_int(matrix) == sympy.Matrix(n, n, [x for row in matrix for x in row]).det()
    with pytest.raises(ValueError):
        det_int([[1, 2]])


def test_secondary_face_check_e2(e2):
    verdict = secondary_face_check(e2)
    assert verdict.refinement_count == 2
    assert verdict.gkz_vectors[0] != verdict.gkz_vectors[1]
    assert verdict.face_dimension == 1 == face_dimension_oracle(verdict.subdivision)
    assert face_check_passes(verdict)


def test_secondary_face_check_of_a_triangulation_is_a_vertex():
    # a generic arrangement's subdivision is its own only refinement, a
    # vertex of the secondary polytope
    arr = random_generic_arrangement(random.Random(9), 2, 3)
    sub = dual_subdivision(arr)
    verdict = secondary_face_check(arr)
    assert (verdict.subdivision, verdict.refinements, verdict.face_dimension) == (sub, (sub,), 0)
    assert verdict.gkz_vectors == (gkz_vector(sub),)


def test_secondary_face_check_doubly_degenerate():
    # third apex at the intersection of a ray of each of the other fans:
    # its type there is ({1,2}, {2,3}, {1,2,3})
    arr = Arrangement.from_rows([[0, 0, 0], [3, 1, 0], [1, 1, 0]])
    from troparr import is_generic

    assert not is_generic(arr)
    T3 = apex_type(arr, 3)
    assert T3.entry(1) == {1, 2} and T3.entry(2) == {2, 3}
    sub = dual_subdivision(arr)
    verdict = secondary_face_check(arr)
    assert verdict.subdivision == sub and verdict.refinement_count >= 2
    assert verdict.face_dimension >= 1
    # two unresolved incidences leave a corank-2 cell (7 vertices in
    # dimension 4); observed: a pentagon of 5 triangulations, face dim 2
    assert verdict.face_dimension == 2 == face_dimension_oracle(sub)
    assert verdict.refinement_count == 5
    # 12 steps need not meet all five (seeds 4 and 7 find 4), but a
    # reseeded sample finds only pentagon vertices, on the same face
    reseeded = secondary_face_check(arr, seed=7)
    assert 2 <= reseeded.refinement_count and set(reseeded.refinements) <= set(verdict.refinements)
    assert reseeded.face_dimension == 2


def test_face_dimension_does_not_depend_on_the_sample():
    # an integer_incident bench draw: seeds 0..4 find 16, 18, 16, 16 and 19
    # of its refining triangulations, and 400 samples find 40
    arr = Arrangement.from_rows([[0, -3, 0], [0, -3, 0], [-3, -2, 0], [0, 1, 0]])
    sub = dual_subdivision(arr)
    verdicts = [secondary_face_check(arr, seed=seed) for seed in range(5)]
    assert len({v.refinement_count for v in verdicts}) > 1
    assert {v.face_dimension for v in verdicts} == {face_dimension_oracle(sub)} == {4}


def test_secondary_face_check_on_constructed_ray_degeneracies():
    rng = random.Random(15)
    for _ in range(3):
        n = rng.choice([2, 3])
        arr, victim, host, pair = nongeneric_on_ray(rng, n)
        verdict = secondary_face_check(arr)
        assert face_check_passes(verdict)
        assert all(refines(t, verdict.subdivision) for t in verdict.refinements)
