"""Exhaustive small grids: every apex matrix with entries in {-1, 0, 1}
and last column 0, degenerate ones included.

The (2,3) and (3,3) grids run by default, with the tied minor that
every non-generic input names checked by trying every permutation, the
planar read-off at (3,3) against genericity and both walks, the (3,3)
grid tie-broken into generic inputs against the read-off, the pivot
walk and the enumeration, and so does
the pivot walk's order of cells against the walk it replaced, on every
(3,3) and (2,4) input and on each of their cells that is not a tree,
and the order of each of those inputs' sorted cells against their
sorted edges.
``--grid`` adds the larger ones: (3,3) and (2,4) against the search
over prefixes and the Fraction oracle, with the walk over cells from
each cell against the pivot walk's cells, ``realizable`` against the
Fraction oracle, every entry the search generates imposed on its prefix
and the dual subdivision and the vertex-walk oracle against the
0-dimensional types, each of the oracle's closed-form
staircase over the last two hyperplanes against imposing every entry of
the last three (at (3,3) after a pending entry, at (2,4) bare), the same
walk and staircases on the transposed apex matrix, both sides against the
lower envelope and each other up to transposition, genericity,
its tied minor and the verdict at (2,4), the secondary-face check, its
refinements against enumerating every perturbation and its exact face
dimension on the (3,3) and (2,4) inputs whose apexes all look generic
although a minor ties, the walks over the coarse cells
against the lower envelope, and the cone test and cone rows against the
walks and the potential search, on the perturbations of every
non-generic input at (3,3) and (2,4), the union-find forest's spanning
test, dimension, tied minor, cone rows, fundamental cycles and
face-dimension rank against the flood fill, dict-forest search,
potential search and side scan they replaced on every cell of every
(3,3) and (2,4) input, each cell spanning, the integer lift of
every (3,3) and (2,4) input against each matching pair's worst step,
and dual subdivision against lower envelope, with genericity and its
tied minor, on the 6,561 inputs at (4,3), and the planar read-off
against genericity, the vertex walk and the lower envelope on the (4,3)
and 19,683 (3,4) inputs, none of them generic, and on each of them
tie-broken, which makes it generic, the read-off, the pivot walk and
the enumeration with its T(n, d) types.  It also compares the
bit-sliced elimination and comparability kernels with the pairwise
scans they replaced, and the two-block surrounding check with the
oracle that builds every ordered-partition refinement, on type
collections at (4,4), (5,4) and (3,6), up to 1,023 types.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from troparr.envelope import _planar_cells
from troparr import (
    Arrangement,
    arrangement_heights,
    check_comparability,
    check_correspondence,
    check_elimination,
    check_surrounding,
    dual_subdivision,
    enumerate_realizations,
    is_generic,
    is_triangulation,
    refining_triangulations,
    regular_subdivision,
    secondary_face_check,
)

from conftest import (
    assert_both_sides_match_the_envelope,
    assert_staircases_match_the_imposed_path,
    assert_walk_order_matches_the_oracle,
    assert_cell_questions_match_the_oracles,
    assert_cell_walks_match_the_envelope,
    assert_the_lift_outlasts_the_worst_step,
    assert_check_cells_match_the_oracle,
    assert_every_entry_is_feasible,
    assert_faces_match_the_search,
    assert_realizable_matches,
    dual_subdivision_both_ways,
    enumerate_types,
    face_check_passes,
    face_dimension_oracle,
    genericity_oracle,
    minor_ties,
    nongeneric_on_apex,
    offending_apexes,
    pairwise_comparability_oracle,
    pairwise_elimination_oracle,
    random_generic_arrangement,
    realizations_oracle,
    refinements_oracle,
    subdivision_of,
    surrounding_oracle,
    type_counts,
    walked_cells,
)


def grid(n: int, d: int):
    rows = [list(head) + [0] for head in product((-1, 0, 1), repeat=d - 1)]
    for choice in product(rows, repeat=n):
        yield Arrangement.from_rows(choice)


def generic_grid(n: int, d: int):
    """Each grid input with 3^((i-1)d+(j-1)) / 3^(nd) added to entry
    (i, j).  An alternating cycle sums the grid's integers, and the
    added part is a signed sum of distinct powers of 3 over 3^(nd): never
    0 and below 1/2 in size.  So a cycle the grid ties is broken and one
    it does not tie keeps its sign, and every input is generic."""
    unit = Fraction(1, 3 ** (n * d))
    for arr in grid(n, d):
        yield Arrangement.from_rows(
            [[x + unit * 3 ** (i * d + j) for j, x in enumerate(row)] for i, row in enumerate(arr.rows())]
        )


@pytest.mark.parametrize(
    "n, d",
    [(2, 3), pytest.param(3, 3, marks=pytest.mark.large_grid), pytest.param(2, 4, marks=pytest.mark.large_grid)],
)
def test_realizations_match_oracle_on_grid(n, d):
    # the faces of the walked cells equal the search's types and the
    # Fraction DFS's, each walk over cells finds the pivot walk's cells,
    # realizable agrees with the DFS, the dual subdivision and the vertex
    # walk give exactly the 0-dimensional types, and each staircase the
    # pairs found by imposing every entry of hyperplanes n-2 (at n = 3),
    # n-1 and n
    for arr in grid(n, d):
        expected = realizations_oracle(arr)
        dimensions = assert_faces_match_the_search(arr)
        assert dimensions == {T: r.dimension for T, r in expected.items()}, arr.rows()
        for T, result in expected.items():
            assert_realizable_matches(arr, T, result)
        assert_every_entry_is_feasible(arr)
        assert dual_subdivision_both_ways(arr) == subdivision_of(arr, dimensions), arr.rows()
        assert_staircases_match_the_imposed_path(arr)


@pytest.mark.parametrize(
    "n, d",
    [(2, 3), pytest.param(3, 3, marks=pytest.mark.large_grid), pytest.param(2, 4, marks=pytest.mark.large_grid)],
)
def test_both_sides_of_the_vertex_walk_on_grid(n, d):
    # the walks of the apex matrix and of its transpose give the same
    # cells up to transposition, the lower envelope's, and on both sides
    # each staircase the pairs found by imposing every entry
    for arr in grid(n, d):
        assert_both_sides_match_the_envelope(arr)


@pytest.mark.parametrize("n, d", [(3, 3), (2, 4)])
def test_pivot_walk_order_on_grid(n, d):
    # the pivot walk yields the oracle walk's cells in its order, over the
    # full support and over each cell that is not a tree as a volume walks it
    for arr in grid(n, d):
        assert_walk_order_matches_the_oracle(n, d, arr.rows())


@pytest.mark.parametrize("n, d", [(3, 3), (2, 4)])
def test_sorted_cells_follow_their_sorted_edges_on_grid(n, d):
    # the order of the cells' set bits is the order of their sorted edges
    for arr in grid(n, d):
        sub = dual_subdivision(arr)
        assert sub.sorted_cells() == tuple(sorted(sub.maximal_cells, key=lambda g: sorted(g.edges))), arr.rows()


@pytest.mark.parametrize(
    "n, d",
    [(3, 3), pytest.param(4, 3, marks=pytest.mark.large_grid), pytest.param(3, 4, marks=pytest.mark.large_grid)],
)
def test_planar_read_off_on_grid(n, d):
    # the read-off certifies exactly the generic inputs, with the vertex
    # walk's cells and the lower envelope's: 12 at (3,3), and none at
    # (4,3) and (3,4), where three values per entry are too few for a
    # generic input, so every one is refused and walked
    certified = 0
    for arr in grid(n, d):
        cells = _planar_cells(arr)
        assert (cells is not None) == bool(is_generic(arr)), arr.rows()
        if cells is not None:
            certified += 1
            assert cells == {g.mask for g in walked_cells(arr)}, arr.rows()
            assert cells == {g.mask for g in regular_subdivision(arr.rows()).maximal_cells}, arr.rows()
    assert certified == (12 if (n, d) == (3, 3) else 0)


@pytest.mark.parametrize(
    "n, d",
    [(3, 3), pytest.param(4, 3, marks=pytest.mark.large_grid), pytest.param(3, 4, marks=pytest.mark.large_grid)],
)
def test_generic_slice_of_grid(n, d):
    # the grids at (4,3) and (3,4) hold no generic input; tie-broken, each
    # is generic, and the read-off certifies it with the pivot walk's
    # cells and the enumeration's 0-dimensional types, of which there are
    # T(n, d) in all
    for arr in generic_grid(n, d):
        assert is_generic(arr), arr.rows()
        dimensions = enumerate_realizations(arr)
        assert len(dimensions) == type_counts(n, d)[n], arr.rows()
        cells = _planar_cells(arr)
        assert cells == {g.mask for g in regular_subdivision(arr.rows()).maximal_cells}, arr.rows()
        assert dual_subdivision(arr) == subdivision_of(arr, dimensions), arr.rows()


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), pytest.param(4, 3, marks=pytest.mark.large_grid)])
def test_dual_subdivision_matches_envelope_on_grid(n, d):
    # test_genericity_and_verdict_on_grid covers genericity on the other grids
    with_genericity = (n, d) == (4, 3)
    for arr in grid(n, d):
        dual = subdivision_of(arr, enumerate_realizations(arr))
        assert dual == regular_subdivision(arrangement_heights(arr)), arr.rows()
        if with_genericity:
            report = is_generic(arr)
            assert bool(report) == genericity_oracle(arr.rows()) == is_triangulation(dual), arr.rows()
            assert report.minor is None if report else minor_ties(arr.rows(), report.minor), arr.rows()


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), pytest.param(2, 4, marks=pytest.mark.large_grid)])
def test_genericity_and_verdict_on_grid(n, d):
    # generic <=> minors oracle <=> triangulation, generic => TOM, and
    # local refinement passes exactly on the generic inputs; a non-generic
    # input names a minor whose two matchings both reach its least sum
    for arr in grid(n, d):
        verdict = check_correspondence(arr)
        assert verdict.generic == genericity_oracle(arr.rows()) == verdict.triangulation, arr.rows()
        minor = verdict.genericity.minor
        assert minor is None if verdict.generic else minor_ties(arr.rows(), minor), arr.rows()
        assert verdict.consistent, arr.rows()
        if verdict.generic:
            assert verdict.axiom_report.is_tom, arr.rows()
        assert bool(verdict.axiom_report.local_refinement) == verdict.generic, arr.rows()


@pytest.mark.parametrize(
    "n, d",
    [(2, 3), pytest.param(3, 3, marks=pytest.mark.large_grid), pytest.param(2, 4, marks=pytest.mark.large_grid)],
)
def test_check_cells_match_the_oracle_subdivision_on_grid(n, d):
    # check reads its triangulation verdict and cell count off the
    # 0-dimensional types, with no subdivision built
    for arr in grid(n, d):
        assert_check_cells_match_the_oracle(arr, enumerate_realizations(arr))


@pytest.mark.large_grid
def test_secondary_face_on_tied_minors_with_generic_apexes():
    # every apex type at its bound n+d-1, yet some minor ties; seed 1
    # also draws steps that tie a cycle inside a coarse cell
    checked = 0
    for n, d in [(3, 3), (2, 4)]:
        for arr in grid(n, d):
            if is_generic(arr) or offending_apexes(arr):
                continue
            verdict = secondary_face_check(arr)
            assert face_check_passes(verdict), arr.rows()
            assert set(verdict.refinements) == refinements_oracle(arr, verdict.subdivision), arr.rows()
            found = refining_triangulations(arr, verdict.subdivision, seed=1)
            assert found == refinements_oracle(arr, verdict.subdivision, seed=1), arr.rows()
            assert verdict.face_dimension == face_dimension_oracle(verdict.subdivision), arr.rows()
            checked += 1
    assert checked == 6 + 186


@pytest.mark.large_grid
@pytest.mark.parametrize("n, d", [(4, 4), (5, 4), (3, 6)])
def test_pair_kernels_match_pairwise_scans_on_large_shapes(n, d):
    # full collections pass; one added type makes the pair kernels fail
    # far past the first tile.  The added type has singleton entries only,
    # so surrounding still passes; less one full-dimensional type it fails
    rng = random.Random(n * 10 + d)
    for arr in (random_generic_arrangement(rng, n, d), nongeneric_on_apex(rng, n, d)[0]):
        types = sorted(enumerate_types(arr), key=lambda t: t.key())
        extra = next(u for u in (t.with_entry(n, (1,)) for t in reversed(types)) if u not in types)
        drop = next(t for t in reversed(types) if all(len(e) == 1 for e in t.entries))
        verdicts = []
        for collection in (types, types + [extra], [t for t in types if t != drop]):
            assert check_elimination(collection) == pairwise_elimination_oracle(collection), arr.rows()
            assert check_comparability(collection, d) == pairwise_comparability_oracle(collection, d), arr.rows()
            surrounding = check_surrounding(collection, d)
            assert surrounding == surrounding_oracle(collection, d), arr.rows()
            verdicts.append(surrounding.passed)
        assert verdicts == [True, True, False], arr.rows()


@pytest.mark.large_grid
def test_cell_walks_on_tied_minors():
    # every non-generic input has a tied minor; on its perturbations the
    # walks over its coarse cells give the moved lower envelope
    checked = 0
    for n, d in [(3, 3), (2, 4)]:
        for arr in grid(n, d):
            if not genericity_oracle(arr.rows()):
                assert_cell_walks_match_the_envelope(arr)
                checked += 1
    assert checked == 717 + 657


@pytest.mark.large_grid
def test_cell_questions_match_the_replaced_traversals_on_grid():
    # on every cell of every input, and every cell less one edge: spanning
    # and dimension against the flood fill; cone rows against the
    # potential search, tied minors against the dict-forest search, and
    # the face-dimension rank against each cell's rows against itself
    coarse = 0
    for n, d in [(3, 3), (2, 4)]:
        for arr in grid(n, d):
            coarse += assert_cell_questions_match_the_oracles(arr)
    assert coarse == 1260 + 747


@pytest.mark.large_grid
def test_the_lift_outlasts_the_worst_step_on_grid():
    # every matching pair of every square minor whose sums differ keeps
    # its order under the worst step for it
    pairs = 0
    for n, d in [(3, 3), (2, 4)]:
        for arr in grid(n, d):
            pairs += assert_the_lift_outlasts_the_worst_step(arr)
    assert pairs == 15660
