import dataclasses
import random
import re
from fractions import Fraction
from functools import partial
from itertools import combinations, product
from math import comb, lcm

import pytest

from troparr import (
    Arrangement,
    CellGraph,
    ResourceLimitError,
    Subdivision,
    TypeVector,
    arrangement_heights,
    cell_dim,
    check_correspondence,
    dual_subdivision,
    enumerate_realizations,
    is_generic,
    is_spanning_tree,
    is_triangulation,
    normalized_volume,
    realizable,
    regular_subdivision,
)

import troparr.duality
import troparr.envelope
import troparr.geometry
from troparr.cli import main
from troparr.duality import is_spanning_connected
from troparr.envelope import _certified_cells, _cycle_masks, _forest, _planar_cells, _tied_minor

from conftest import (
    UNCERTIFIED,
    WALK_MUTANTS,
    arrangement_cell_dim,
    assert_both_sides_match_the_envelope,
    assert_cycles_match_the_oracle,
    assert_cell_questions_match_the_oracles,
    assert_check_cells_match_the_oracle,
    assert_staircases_match_the_imposed_path,
    assert_walk_order_matches_the_oracle,
    components_oracle,
    dual_subdivision_both_ways,
    envelope_oracle,
    graph_dim_oracle,
    grown_forest,
    integer_incident,
    mutant,
    nongeneric_on_apex,
    nongeneric_on_ray,
    offending_apexes,
    pivot_walk_oracle,
    random_arrangement,
    random_generic_arrangement,
    random_integer_arrangement,
    random_rational,
    serialize_arrangement,
    subdivision_of,
    tree_volume_oracle,
    type_counts,
    type_to_graph,
    vertex_walk,
    volume_oracle,
    walked_cells,
)


def T(*entries):
    return TypeVector.of(*entries)


def G(n, d, *edges):
    return CellGraph(n, d, frozenset(edges))


def test_type_to_graph_examples():
    g = type_to_graph(T({1, 2}, {1, 2, 3}), 2, 3)
    assert g.edges == {(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)}
    star = type_to_graph(T({2}, {2}, {2}), 3, 2)
    assert star.edges == {(1, 2), (2, 2), (3, 2)}
    tree = type_to_graph(T({1, 2, 3}, {3}), 2, 3)
    assert tree.edges == {(1, 1), (1, 2), (1, 3), (2, 3)}
    assert is_spanning_tree(tree)


def test_cell_dim_examples():
    assert cell_dim(G(2, 3, (1, 1))) == 0
    assert cell_dim(G(2, 3, (1, 1), (1, 2), (1, 3), (2, 3))) == 3
    assert cell_dim(G(2, 3, (1, 1), (1, 2), (2, 1), (2, 2), (2, 3))) == 3
    with pytest.raises(ValueError):
        cell_dim(G(2, 3))


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 3)])
def test_cell_dim_matches_rank_oracle_on_all_subgraphs(n, d):
    all_edges = [(i, j) for i in range(1, n + 1) for j in range(1, d + 1)]
    for size in range(1, len(all_edges) + 1):
        for chosen in combinations(all_edges, size):
            g = CellGraph(n, d, frozenset(chosen))
            assert cell_dim(g) == graph_dim_oracle(g)


def test_cell_dim_and_spanning_match_components_oracle_on_random_edge_sets():
    # edge sets that skip nodes, split the support or are empty; the
    # union-find is sized by n + d whatever columns the edges use
    rng = random.Random(89)
    for _ in range(400):
        n, d = rng.randint(1, 6), rng.randint(1, 6)
        g = CellGraph(n, d, frozenset(e for e in full_support(n, d) if rng.random() < rng.random()))
        comps = components_oracle(g)
        assert is_spanning_connected(g) == (comps == [(1 << (n + d)) - 1]), g.text()
        if g.edges:
            assert cell_dim(g) == sum(comps).bit_count() - len(comps) - 1, g.text()


def test_edgeless_and_node_missing_cells():
    for n, d in [(1, 1), (2, 3), (4, 2)]:
        empty = CellGraph(n, d, frozenset())
        assert not is_spanning_connected(empty)
        with pytest.raises(ValueError, match="^cell graph has no edges$"):
            cell_dim(empty)
    # coordinate 3 is missing, though the other nodes are joined
    missing = G(2, 3, (1, 1), (1, 2), (2, 1), (2, 2))
    with pytest.raises(ValueError, match=re.escape(f"maximal cell {missing.text()} must span and be connected")):
        Subdivision(2, 3, frozenset({missing}))


def test_cell_questions_match_the_replaced_traversals():
    # spanning, dimension, tied minors, cone rows and face-dimension rank
    # against the flood fill, the dict-forest search and the potential search
    rng = random.Random(97)
    cases = [Arrangement.from_rows(rows) for rows in ([[0, 0, 0], [1, 1, 0]], [[3, -2, 0], [0, -4, 0], [-4, -5, 0], [-1, 1, 0]])]
    shapes = [(2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (5, 3)]
    cases += [random_integer_arrangement(rng, n, d, span=1) for n, d in shapes * 5]
    cases += [random_integer_arrangement(rng, n, d) for n, d in [(3, 3), (4, 4), (3, 5), (6, 2)] * 3]
    cases += [nongeneric_on_ray(rng, n)[0] for n in (3, 4, 5)] + [nongeneric_on_apex(rng, n)[0] for n in (3, 4)]
    cases += [random_arrangement(rng, 3, 3) for _ in range(3)]
    assert sum(assert_cell_questions_match_the_oracles(arr) for arr in cases) > 50


def test_cycles_match_the_side_scan_on_random_trees():
    # the root-path masks give the cycles the side scan gave, on spanning
    # trees grown from shuffled edges of K_{n,d}
    rng = random.Random(271)
    for n, d in [(1, 1), (1, 4), (4, 1), (2, 2), (2, 3), (3, 3), (2, 4), (4, 3), (3, 5), (6, 2), (5, 5)] * 4:
        edges = [(i, j) for i in range(1, n + 1) for j in range(1, d + 1)]
        rng.shuffle(edges)
        assert_cycles_match_the_oracle(n, d, grown_forest(n, d, edges))


def test_arrangement_cell_dim(e1, e2):
    assert arrangement_cell_dim(e2, T({1, 2}, {1, 2, 3})) == 0
    assert arrangement_cell_dim(e2, T({1}, {1})) == 2
    assert arrangement_cell_dim(e1, T({2}, {1})) == 1
    with pytest.raises(ValueError):
        arrangement_cell_dim(e2, T({2}, {1, 2, 3}))


def test_dimension_complementarity(e1, e2):
    rng = random.Random(7)
    arrangements = [e1, e2] + [
        random_arrangement(rng, *rng.choice([(2, 3), (3, 2), (3, 3)])) for _ in range(6)
    ]
    for arr in arrangements:
        for Tv, dim in enumerate_realizations(arr).items():
            g = type_to_graph(Tv, arr.n, arr.d)
            assert dim + cell_dim(g) == arr.n + arr.d - 2


def test_dual_subdivision_e1(e1):
    sub = dual_subdivision(e1)
    assert sub.maximal_cells == {
        G(2, 2, (1, 1), (1, 2), (2, 1)),
        G(2, 2, (1, 2), (2, 1), (2, 2)),
    }
    assert is_triangulation(sub)


def test_dual_subdivision_e2(e2):
    sub = dual_subdivision(e2)
    simplex = G(2, 3, (1, 1), (1, 2), (1, 3), (2, 3))
    pyramid = G(2, 3, (1, 1), (1, 2), (2, 1), (2, 2), (2, 3))
    assert sub.maximal_cells == {simplex, pyramid}
    assert normalized_volume(simplex) == 1
    assert normalized_volume(pyramid) == 2
    assert not is_triangulation(sub)


def test_dual_subdivision_single_hyperplane():
    arr = Arrangement.from_rows([[0, 1, 2]])
    sub = dual_subdivision(arr)
    assert sub.maximal_cells == {G(1, 3, (1, 1), (1, 2), (1, 3))}
    assert is_triangulation(sub)


def _vertex_walk_draws(seed, shapes):
    # rational and integer draws at each shape, three each, and at n >= 2
    # the constructed degeneracies: apex on an apex, apex on a ray and an
    # integer draw with an apex on a fan face
    rng = random.Random(seed)
    draws = []
    for n, d, _ in product(*shapes, range(3)):
        draws += [random_arrangement(rng, n, d), random_integer_arrangement(rng, n, d)]
        if n >= 2:
            draws += [nongeneric_on_apex(rng, n, d)[0], nongeneric_on_ray(rng, n, d)[0]]
            draws.append(integer_incident(rng, n, d))
    return draws


def test_vertex_walk_gives_the_zero_dimensional_types():
    # the dual subdivision and the vertex-walk oracle against the
    # 0-dimensional types of the full enumeration at n = 1..5, d = 2..5;
    # test_grid.py adds the (3,3) and (2,4) grids under --grid
    for arr in _vertex_walk_draws(1717, (range(1, 6), range(2, 6))):
        assert dual_subdivision_both_ways(arr) == subdivision_of(arr, enumerate_realizations(arr)), arr.rows()


def test_dual_subdivision_matches_the_types_and_the_vertex_walk_on_envelope_shapes():
    # the CLI's cells on the shapes where the envelope benchmark compares
    # them with the pivot walk, now their own walk: rational (4,4) and
    # integer (4,3) and (3,4) draws against the enumeration's
    # 0-dimensional types and the vertex walk, and integer (6,5) and
    # (7,5) draws against the vertex walk
    rng = random.Random(3535)
    for _ in range(6):
        for arr in (
            random_arrangement(rng, 4, 4),
            random_integer_arrangement(rng, 4, 3),
            random_integer_arrangement(rng, 3, 4),
        ):
            assert dual_subdivision_both_ways(arr) == subdivision_of(arr, enumerate_realizations(arr)), arr.rows()
    for n, d in [(6, 5), (7, 5)] * 3:
        dual_subdivision_both_ways(random_integer_arrangement(rng, n, d))


def test_staircase_matches_the_imposed_path():
    # on every (n-3)-prefix and every entry for hyperplane n-2, the pairs
    # the staircase reads off its points equal those found by imposing
    # the entry, every entry for hyperplane n-1 and every entry for
    # hyperplane n; a mutant without the argmax test, one without the
    # prefix-bound test and one with δ_g < t for δ_g <= t each fail it.
    # test_grid.py adds the (3,3) and (2,4) grids
    found = empty = 0
    for arr in _vertex_walk_draws(1818, (range(2, 7), range(2, 6))):
        pairs, none = assert_staircases_match_the_imposed_path(arr)
        found, empty = found + pairs, empty + none
    assert found and empty


def test_dual_subdivision_commutes_with_transposition():
    # the lower envelope of the apex matrix is symmetric in rows and
    # columns, so the dual subdivision of the transposed matrix, and its
    # vertex walk, give the transposed cells
    for arr in _vertex_walk_draws(1919, (range(2, 7), range(2, 6))):
        flipped = Arrangement.from_rows(list(zip(*arr.rows())))
        cells = dual_subdivision_both_ways(flipped).maximal_cells
        back = {CellGraph(arr.n, arr.d, frozenset((i, j) for j, i in g.edges)) for g in cells}
        assert dual_subdivision_both_ways(arr).maximal_cells == back, arr.rows()


def test_type_counts_match_the_enumeration():
    # T(m, d) is the number of types of a generic m x d arrangement
    rng = random.Random(2222)
    for m, d in product(range(1, 6), range(2, 6)):
        arr = random_generic_arrangement(rng, m, d)
        assert len(enumerate_realizations(arr)) == type_counts(m, d)[m], (m, d)


def test_nongeneric_arrangements_have_fewer_types():
    # generic arrangements have exactly T(n, d) types; a non-generic one,
    # whose cells merge, strictly fewer
    rng = random.Random(2929)
    draws = [
        lambda n, d: random_integer_arrangement(rng, n, d),
        lambda n, d: integer_incident(rng, n, d),
        lambda n, d: nongeneric_on_ray(rng, n, d)[0],
        lambda n, d: nongeneric_on_apex(rng, n, d)[0],
        lambda n, d: random_arrangement(rng, n, d),
    ]
    seen = set()
    for n, d in [(2, 3), (3, 3), (4, 3), (3, 4), (2, 4), (2, 5), (5, 3), (4, 4)]:
        for draw in draws:
            for _ in range(5):
                arr = draw(n, d)
                generic = bool(is_generic(arr))
                count, full = len(enumerate_realizations(arr)), type_counts(n, d)[n]
                assert count == full if generic else count < full, arr.rows()
                seen.add(generic)
    assert seen == {True, False}


def test_trees_are_the_budget_boundary_on_every_input(monkeypatch):
    # the walk over the full support visits C(n+d-2, n-1) trees on every
    # input, generic or not, so a budget of that many trees is enough and
    # one fewer is refused before any tree is walked or any line read off
    rng = random.Random(2323)
    draws = []
    for n, d in product(range(1, 6), range(2, 6)):
        draws += [random_generic_arrangement(rng, n, d), random_integer_arrangement(rng, n, d)]
    walked, pivot_walk = [0], troparr.envelope._pivot_walk

    def counted(*args):
        for cell in pivot_walk(*args):
            walked[0] += 1
            yield cell

    monkeypatch.setattr(troparr.envelope, "_pivot_walk", counted)
    read_off = 0
    for arr in draws:
        trees = comb(arr.n + arr.d - 2, arr.n - 1)
        envelope = regular_subdivision(arr.rows()).maximal_cells
        walked[0] = 0
        sub = dual_subdivision_both_ways(arr, trees)
        assert walked[0] in (0, trees), arr.rows()  # 0 where the read-off answered
        assert sub.maximal_cells == envelope, arr.rows()
        read_off += walked[0] == 0
    assert 0 < read_off < len(draws)
    monkeypatch.setattr(troparr.envelope, "_pivot_walk", None)
    monkeypatch.setattr(troparr.envelope, "_planar_cells", None)
    for arr in draws:
        trees = comb(arr.n + arr.d - 2, arr.n - 1)
        with pytest.raises(ResourceLimitError, match=f"^pivot walk: {trees} trees exceed budget {trees - 1}$"):
            dual_subdivision(arr, trees - 1)


def test_negative_budget_is_a_value_error(e2):
    with pytest.raises(ValueError, match="^budget must be non-negative, got -1$"):
        dual_subdivision(e2, -1)
    with pytest.raises(ValueError, match="^budget must be non-negative, got -1$"):
        dual_subdivision(Arrangement.from_rows([[0, 0]]), -1)


def test_both_sides_of_the_walk_match_the_envelope():
    # on-ray, on-apex and integer-incident draws: the walks of both sides
    # agree up to transposition, with the lower envelope and with the
    # imposed path; test_grid.py adds the (3,3) and (2,4) grids
    rng = random.Random(2424)
    for n, d, _ in product(range(2, 7), range(3, 6), range(2)):
        for arr in (nongeneric_on_ray(rng, n, d)[0], nongeneric_on_apex(rng, n, d)[0], integer_incident(rng, n, d)):
            assert_both_sides_match_the_envelope(arr)


def _planar_draws(seed):
    # rational and integer draws at (3..8, 3) and (3, 3..8), four each,
    # and up to (5, 3) and (3, 5) the constructed degeneracies
    rng = random.Random(seed)
    draws = []
    for m, _ in product(range(3, 9), range(4)):
        for n, d in sorted({(m, 3), (3, m)}):
            draws += [random_arrangement(rng, n, d), random_integer_arrangement(rng, n, d)]
            if m <= 5:
                draws += [nongeneric_on_apex(rng, n, d)[0], nongeneric_on_ray(rng, n, d)[0]]
                draws.append(integer_incident(rng, n, d))
    return draws


def test_planar_read_off_matches_both_walks():
    # the read-off certifies exactly where is_generic says generic, and
    # there its cells are the vertex walk's and the lower envelope's;
    # test_grid.py adds the (3,3), (4,3) and (3,4) grids
    certified = refused = 0
    for arr in _planar_draws(3434):
        cells = _planar_cells(arr)
        assert (cells is not None) == bool(is_generic(arr)), arr.rows()
        if cells is None:
            refused += 1
            continue
        certified += 1
        assert cells == {g.mask for g in walked_cells(arr)}, arr.rows()
        assert cells == {g.mask for g in regular_subdivision(arr.rows()).maximal_cells}, arr.rows()
    assert certified > 40 and refused > 90, (certified, refused)


def _lines_and_vertices(arr):
    """The lines the read-off reads, the rows of an n x 3 apex matrix or
    the columns of a 3 x d one, and their arrangement's vertices, both
    in units of 1/D as ints.  The vertices are the witnesses of the
    0-dimensional types, a route to the apexes and crossings that shares
    nothing with the read-off."""
    plane = arr if arr.d == 3 else Arrangement.from_rows(list(zip(*arr.rows())))
    den = lcm(*(x.denominator for row in plane.rows() for x in row))
    lines = [[int(x * den) for x in row] for row in plane.rows()]
    vertices = [
        [int(x * den) for x in realizable(plane, T).witness]
        for T, dim in enumerate_realizations(plane).items()
        if dim == 0
    ]
    return lines, vertices


def test_planar_certificate_refuses_all_but_the_subdivision():
    # on the vertices found by another route the certificate returns the
    # walk's cells; dropping any one of them, moving one off its lines or
    # putting a copy of one in another's place makes it return None, never
    # a wrong subdivision
    rng = random.Random(3737)
    for n, d in [(3, 3), (4, 3), (5, 3), (6, 3), (3, 4), (3, 5), (3, 6)]:
        arr = random_generic_arrangement(rng, n, d)
        lines, vertices = _lines_and_vertices(arr)
        assert len(vertices) == comb(n + d - 2, n - 1)
        assert _certified_cells(n, d, lines, vertices) == {g.mask for g in walked_cells(arr)}, arr.rows()
        # every line break lies on an integer, so a point moved by a
        # quarter in its first coordinate loses that label's ties
        lines = [[4 * x for x in row] for row in lines]
        vertices = [[4 * x for x in point] for point in vertices]
        for k, point in enumerate(vertices):
            others = vertices[:k] + vertices[k + 1:]
            assert _certified_cells(n, d, lines, others) is None, (arr.rows(), k)
            moved = [point[0] + 1] + point[1:]
            assert _certified_cells(n, d, lines, others + [moved]) is None, (arr.rows(), k)
            assert _certified_cells(n, d, lines, others + [others[0]]) is None, (arr.rows(), k)


def test_planar_read_off_keeps_the_walks_budget(monkeypatch):
    # the read-off is charged the walk's C(n+d-2, n-1) trees: at that
    # budget it answers alone with the vertex walk's cells, and below it
    # the input is refused as the walk would refuse it, before any line is
    # read off.  A non-generic input it refuses is walked at that budget
    rng = random.Random(3838)
    for n, d in [(3, 3), (4, 3), (5, 3), (6, 3), (3, 4), (3, 5), (3, 6)]:
        arr = random_generic_arrangement(rng, n, d)
        degenerate = nongeneric_on_apex(rng, n, d)[0]
        trees = comb(n + d - 2, n - 1)
        walk = walked_cells(arr)
        assert dual_subdivision(degenerate, trees) == regular_subdivision(degenerate.rows()), degenerate.rows()
        monkeypatch.setattr(troparr.envelope, "_pivot_walk", None)  # the read-off alone answers
        assert dual_subdivision(arr, trees).maximal_cells == walk, (n, d)
        assert dual_subdivision(arr).maximal_cells == walk, (n, d)
        monkeypatch.setattr(troparr.envelope, "_planar_cells", None)
        with pytest.raises(ResourceLimitError, match=f"^pivot walk: {trees} trees exceed budget {trees - 1}$"):
            dual_subdivision(arr, trees - 1)
        monkeypatch.undo()


def test_pivot_walk_budget_counts_its_trees(e2):
    # E2 has n = 2: its walk has C(3, 1) = 3 trees, where the full
    # enumeration, which takes each of the 13 types' last entry, takes 20
    # feasibility steps
    assert dual_subdivision(e2, budget=3) == dual_subdivision(e2)
    with pytest.raises(ResourceLimitError, match="^pivot walk: 3 trees exceed budget 2$"):
        dual_subdivision(e2, budget=2)
    assert len(enumerate_realizations(e2, budget=20)) == 13
    with pytest.raises(ResourceLimitError, match="^type enumeration: 20 feasibility steps exceed budget 19$"):
        enumerate_realizations(e2, budget=19)
    # a single hyperplane's walk has one tree, its apex the one vertex, at any d
    for d in (2, 40):
        assert dual_subdivision(Arrangement.from_rows([[0] * d]), budget=1).maximal_cells == {
            CellGraph(1, d, frozenset((1, j) for j in range(1, d + 1)))
        }
    with pytest.raises(ResourceLimitError, match="^pivot walk: 1 trees exceed budget 0$"):
        dual_subdivision(Arrangement.from_rows([[0, 0]]), budget=0)
    # n = 3 at d = 3 is charged C(4, 2) = 6 trees, read off or walked
    for arr in (random_integer_arrangement(random.Random(8), 3, 3), random_generic_arrangement(random.Random(8), 3, 3)):
        assert dual_subdivision(arr, budget=6) == dual_subdivision(arr)
        with pytest.raises(ResourceLimitError, match="^pivot walk: 6 trees exceed budget 5$"):
            dual_subdivision(arr, budget=5)


def test_vertex_walk_imposes_nothing_past_hyperplane_n_minus_3(monkeypatch, e2):
    # the vertex-walk oracle makes one copy and one add_hyperplane per
    # entry generated on hyperplanes 1..n-3; hyperplane n-2's entries are
    # settled with the last two hyperplanes without either
    feasibility = troparr.geometry._Feasibility
    calls = {"copy": 0, "add_hyperplane": 0}
    generated = []

    def counted(name):
        method = getattr(feasibility, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(feasibility, name, wrapper)

    entries = feasibility.entries

    def counted_entries(state, i):
        out = entries(state, i)
        generated.extend([i] * len(out))
        return out

    counted("copy")
    counted("add_hyperplane")
    monkeypatch.setattr(feasibility, "entries", counted_entries)
    vertex_walk(e2)
    vertex_walk(random_integer_arrangement(random.Random(8), 3, 3))
    assert calls == {"copy": 0, "add_hyperplane": 0}
    arr = random_integer_arrangement(random.Random(8), 5, 3)
    generated.clear()
    vertex_walk(arr)
    imposable = sum(i <= arr.n - 3 for i in generated)
    assert imposable and calls == {"copy": imposable, "add_hyperplane": imposable}


def test_regular_subdivision_matches_dual(e1, e2):
    rng = random.Random(29)
    arrangements = [e1, e2] + [
        random_arrangement(rng, *rng.choice([(2, 2), (2, 3), (3, 3)])) for _ in range(8)
    ] + [
        random_integer_arrangement(rng, n, d)
        for n, d in [(2, 2), (2, 3), (3, 3), (4, 3), (3, 4), (5, 3), (4, 4)]
    ] + [random_arrangement(rng, 5, 3), random_arrangement(rng, 4, 4)]
    for arr in arrangements:
        assert regular_subdivision(arrangement_heights(arr)) == dual_subdivision_both_ways(arr)


def test_regular_subdivision_flat_lift():
    sub = regular_subdivision([[0, 0, 0], [0, 0, 0]])
    assert sub.maximal_cells == {
        G(2, 3, *[(i, j) for i in (1, 2) for j in (1, 2, 3)])
    }
    assert not is_triangulation(sub)


def full_support(n, d):
    return [(i, j) for i in range(1, n + 1) for j in range(1, d + 1)]


@pytest.mark.parametrize(
    "n,d", [(1, 1), (1, 4), (3, 1), (2, 3), (3, 3), (4, 3), (3, 4), (2, 5), (4, 4)]
)
def test_pivot_walk_matches_envelope_oracle(n, d):
    rng = random.Random(1000 * n + d)
    draws = [[[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]]
    if (n, d) != (4, 4):  # one draw there: the oracle scans 2^16 masks per call
        draws.append([[0] * d for _ in range(n)])  # the flat lift: one cell, the whole product
        for _ in range(3):
            draws.append([[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)])
            draws.append([[random_rational(rng) for _ in range(d)] for _ in range(n)])
    for rows in draws:
        sub = regular_subdivision(rows)
        assert sub.maximal_cells == envelope_oracle(n, d, rows, full_support(n, d))
        # its cells are built unvalidated: the validating constructor
        # accepts them and gives the same subdivision
        assert Subdivision(n, d, sub.maximal_cells) == sub
        assert all(1 <= i <= n and 1 <= j <= d for g in sub.maximal_cells for i, j in g.edges)
        if d > 1:  # a point of an arrangement needs two coordinates
            assert (is_generic(Arrangement.from_rows(rows)).minor is None) == is_triangulation(sub)
        for g in sub.maximal_cells:
            assert normalized_volume(g) == volume_oracle(g)
        assert sum(sub.volumes.values()) == comb(n + d - 2, n - 1)


@pytest.mark.parametrize("n,d", [(1, 4), (2, 3), (3, 3), (4, 3), (3, 4), (2, 5), (4, 4)])
def test_pivot_walk_visits_cells_in_the_oracle_order(n, d):
    # the order decides the first cell that is not a tree, so the tied
    # minor a check names; rational, integer and flat heights
    rng = random.Random(500 + 10 * n + d)
    assert_walk_order_matches_the_oracle(n, d, [[0] * d for _ in range(n)])
    for _ in range(4):
        assert_walk_order_matches_the_oracle(n, d, [[random_rational(rng) for _ in range(d)] for _ in range(n)])
        assert_walk_order_matches_the_oracle(n, d, [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)])


def test_pivot_walk_visits_single_cells_in_the_oracle_order():
    # random spanning connected supports under zero and rational heights
    rng = random.Random(71)
    checked = 0
    while checked < 60:
        n, d = rng.choice([(2, 3), (3, 2), (3, 3), (2, 4), (4, 3), (3, 4), (2, 5)])
        g = CellGraph(n, d, frozenset(e for e in full_support(n, d) if rng.random() < 0.7))
        if is_spanning_connected(g):
            assert_walk_order_matches_the_oracle(n, d, [[0] * d] * n, g.edges)
            rows = [[random_rational(rng) for _ in range(d)] for _ in range(n)]
            assert_walk_order_matches_the_oracle(n, d, rows, g.edges)
            checked += 1


def test_is_generic_names_the_oracle_walks_first_tied_minor():
    # the first cell of the oracle's order that is not a tree names the minor
    rng = random.Random(29)
    draws = []
    for n, d in [(2, 3), (3, 3), (4, 3), (3, 4), (5, 3), (2, 5)]:
        for _ in range(15):
            draws.append(random_integer_arrangement(rng, n, d))
            draws.append(integer_incident(rng, n, d))
        for _ in range(6):
            draws.append(nongeneric_on_apex(rng, n, d)[0])
            draws.append(nongeneric_on_ray(rng, n, d)[0])
    checked = 0
    for arr in draws:
        n, d, rows = arr.n, arr.d, arr.rows()
        first = next((c for c in pivot_walk_oracle(n, d, rows, full_support(n, d)) if len(c) != n + d - 1), None)
        minor = is_generic(arr).minor
        assert minor == (None if first is None else _tied_minor(n, d, CellGraph(n, d, first).mask)), rows
        checked += minor is not None
    assert checked >= 200, checked


def test_normalized_volume_matches_envelope_oracle_on_random_supports():
    rng = random.Random(67)
    checked = 0
    while checked < 60:
        n, d = rng.choice([(2, 3), (3, 2), (3, 3), (2, 4), (4, 3), (3, 4), (2, 5)])
        g = CellGraph(n, d, frozenset(e for e in full_support(n, d) if rng.random() < 0.7))
        if is_spanning_connected(g):
            assert normalized_volume(g) == volume_oracle(g)
            checked += 1


def test_pivot_walk_that_loses_simplices_raises(monkeypatch):
    # a walk that never finds an entering edge stops at its first simplex
    monkeypatch.setattr(troparr.envelope, "_sides", lambda n, d, tree, marks: dict.fromkeys(troparr.core._bits(tree), 0))
    with pytest.raises(RuntimeError, match="pivot walk visited 1 of 3 simplices of a 2x3"):
        regular_subdivision([[0, 1, 2], [2, 0, 1]])


@pytest.mark.parametrize("name", sorted(WALK_MUTANTS))
def test_a_walk_mutant_fails_its_certificate(monkeypatch, name):
    # every caller of the walk meets the certificate, before the mutant's
    # first wrong cell is yielded: regular_subdivision, dual_subdivision
    # off the planar shapes, genericity and the volume of a cell built by
    # hand, the 3x3 product of volume 6
    walk = mutant(troparr.envelope._pivot_walk, *WALK_MUTANTS[name])
    rng = random.Random(52)
    arrs = [random_generic_arrangement(rng, n, d) for n, d in [(2, 3), (3, 3), (4, 4), (2, 5), (5, 2)]]
    monkeypatch.setattr(troparr.envelope, "_pivot_walk", walk)
    calls = [lambda: normalized_volume(G(3, 3, *[(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]))]
    for arr in arrs:
        calls += [partial(regular_subdivision, arr.rows()), partial(is_generic, arr)]
        calls += [partial(dual_subdivision, arr)] if min(arr.n, arr.d) != 3 else []
    for call in calls:
        with pytest.raises(RuntimeError, match=f"^{UNCERTIFIED}$"):
            call()


def test_a_wrong_crossing_is_refused_and_walked(monkeypatch, tmp_path, capsys):
    # crossings that lower the least label by the gap to the largest one,
    # not the middle one, give type graphs that _certified_cells refuses
    # on every generic input, so dual_subdivision walks instead: the same
    # cells and the same subdivision --json bytes
    rng = random.Random(5252)
    arrs = [random_generic_arrangement(rng, n, 3) for n in range(2, 9)]
    arrs += [Arrangement.from_rows(list(zip(*arr.rows()))) for arr in arrs[1:]]
    paths = [tmp_path / f"planar{k}.json" for k in range(len(arrs))]
    for arr, path in zip(arrs, paths):
        path.write_text(serialize_arrangement(arr, "json"))

    def reports():
        for path in paths:
            assert main(["subdivision", "--json", "--input", str(path)]) == 0
            yield capsys.readouterr().out

    read_off = troparr.envelope._planar_cells
    cells, before = [read_off(arr) for arr in arrs], list(reports())
    wrong = mutant(read_off, "low, mid, _ = sorted(", "low, _, mid = sorted(")
    monkeypatch.setattr(troparr.envelope, "_planar_cells", wrong)
    for arr, read in zip(arrs, cells):
        assert read is not None and wrong(arr) is None, arr.rows()
        assert {g.mask for g in dual_subdivision(arr).maximal_cells} == read
    assert list(reports()) == before


def test_normalized_volume_examples():
    assert normalized_volume(G(2, 3, (1, 1), (1, 2), (1, 3), (2, 3))) == 1
    assert normalized_volume(G(2, 3, (1, 1), (1, 2), (2, 1), (2, 2), (2, 3))) == 2
    assert normalized_volume(G(2, 3, *[(i, j) for i in (1, 2) for j in (1, 2, 3)])) == 3
    assert normalized_volume(G(3, 3, *[(i, j) for i in (1, 2, 3) for j in (1, 2, 3)])) == 6
    with pytest.raises(ValueError):
        normalized_volume(G(2, 3, (1, 1), (2, 1)))  # not full-dimensional


def test_normalized_volume_counts_its_work(monkeypatch):
    # a flat 10 x 2 cell has volume 10, and each tree costs (n + d) |E| = 240
    flat = G(10, 2, *[(i, j) for i in range(1, 11) for j in (1, 2)])
    monkeypatch.setattr(troparr.duality, "MAX_VOLUME_WORK", 2400)
    assert normalized_volume(flat) == 10
    monkeypatch.setattr(troparr.duality, "MAX_VOLUME_WORK", 2399)
    message = f"normalized volume: 10 trees x 12 nodes x 20 edges = 2400 exceed the cap of 2399 on cell {flat.text()}"
    with pytest.raises(ResourceLimitError, match=f"^{re.escape(message)}$"):
        normalized_volume(flat)


def test_one_cycle_cells_have_half_their_cycle_length_as_volume():
    # a spanning tree plus one edge closes one cycle, of length 2k: the
    # cell is an iterated pyramid over one circuit, both of whose
    # triangulations have k simplices, so its volume is k; a cell built
    # by hand reads it from normalized_volume
    rng = random.Random(3030)
    halves = set()
    for _ in range(120):
        n, d = rng.randint(2, 6), rng.randint(2, 6)
        pairs = full_support(n, d)
        rng.shuffle(pairs)
        tree = grown_forest(n, d, pairs)
        g = CellGraph(n, d, tree | {rng.choice([e for e in pairs if e not in tree])})
        (plus, minus), = _cycle_masks(n, d, *_forest(n, d, g.mask))
        k = plus.bit_count()
        assert minus.bit_count() == k
        assert Subdivision(n, d, frozenset({g})).volumes == {g: k} == {g: volume_oracle(g)}, g.text()
        halves.add(k)
    assert halves >= {2, 3, 4, 5}


def test_walk_counts_are_the_volumes_of_their_cells(monkeypatch):
    # each tree the walk visits is a unit simplex of one cell, so its
    # count per cell is that cell's volume, kept when a cell is not a
    # tree; integer draws give coarse cells, rational ones triangulations
    def refused(g):
        raise AssertionError(f"walked the volume of {g.text()}")

    rng = random.Random(3033)
    walked = []
    for n, d in [(n, d) for n in range(1, 7) for d in range(2, 7) if n * d <= 30]:
        for rows in (
            [[rng.randint(-1, 1) for _ in range(d)] for _ in range(n)],
            [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)],
            [[random_rational(rng) for _ in range(d)] for _ in range(n)],
        ):
            sub = regular_subdivision(rows)
            assert ("volumes" in vars(sub)) == (not is_triangulation(sub)), rows
            walked.append((sub, "volumes" in vars(sub)))
    monkeypatch.setattr(troparr.duality, "normalized_volume", refused)
    for sub, kept in walked:
        volumes = sub.volumes
        assert all(volumes[g] == volume_oracle(g) for g in sub.maximal_cells), sub
        assert sum(volumes.values()) == comb(sub.n + sub.d - 2, sub.n - 1)
    assert sum(kept for _, kept in walked) >= 40


def test_sorted_cells_are_kept_outside_the_fields(e2):
    # read once and kept, while ==, hash and repr see the fields alone
    rng = random.Random(3031)
    subs = [dual_subdivision(e2), dual_subdivision(random_arrangement(rng, 3, 4))]
    subs += [Subdivision(s.n, s.d, frozenset(CellGraph(g.n, g.d, g.edges) for g in s.maximal_cells)) for s in subs]
    for sub in subs:
        first = sub.sorted_cells()
        assert first == tuple(sorted(sub.maximal_cells, key=lambda g: sorted(g.edges)))
        assert sub.sorted_cells() is first
        fresh = Subdivision(sub.n, sub.d, frozenset(CellGraph(g.n, g.d, g.edges) for g in sub.maximal_cells))
        assert sub == fresh and hash(sub) == hash(fresh)
        assert repr(sub) == f"Subdivision(n={sub.n}, d={sub.d}, maximal_cells={sub.maximal_cells!r})"
    assert [f.name for f in dataclasses.fields(Subdivision)] == ["n", "d", "maximal_cells"]


def test_sorted_cells_follow_their_sorted_edges():
    # the order of the cells' set bits is the order of their sorted edges,
    # on random draws of every shape up to 5 x 5 and on a generic 6 x 6
    rng = random.Random(3032)
    generic = dual_subdivision(Arrangement.from_rows([[3 ** (6 * i + j) for j in range(6)] for i in range(6)]))
    assert len(generic.maximal_cells) == 252
    subs = [generic]
    for n, d in product(range(1, 6), range(2, 6)):
        subs += [dual_subdivision(draw(rng, n, d)) for draw in (random_arrangement, random_integer_arrangement)]
    for sub in subs:
        assert sub.sorted_cells() == tuple(sorted(sub.maximal_cells, key=lambda g: sorted(g.edges))), sub


def test_tree_volumes_match_determinant_oracle():
    rng = random.Random(41)
    for _ in range(10):
        n, d = rng.choice([(2, 3), (3, 3), (3, 2), (2, 4), (4, 2)])
        arr = random_generic_arrangement(rng, n, d)
        for g in dual_subdivision_both_ways(arr).maximal_cells:
            assert is_spanning_tree(g)
            assert normalized_volume(g) == tree_volume_oracle(g) == 1


def test_volume_conservation():
    rng = random.Random(53)
    for _ in range(10):
        n, d = rng.choice([(2, 2), (2, 3), (3, 3), (2, 4)])
        arr = random_arrangement(rng, n, d)
        sub = dual_subdivision_both_ways(arr)
        total = sum(normalized_volume(g) for g in sub.maximal_cells)
        assert total == comb(n + d - 2, n - 1)


def test_is_triangulation_trivial_cell():
    square = Subdivision(2, 2, frozenset({G(2, 2, (1, 1), (1, 2), (2, 1), (2, 2))}))
    assert not is_triangulation(square)


def test_check_correspondence(e1, e2):
    v1 = check_correspondence(e1)
    assert v1.generic and v1.axiom_report.is_tom and v1.triangulation
    assert v1.consistent and v1.cell_count == 2 == v1.expected_simplices

    v2 = check_correspondence(e2)
    assert not v2.generic and not v2.triangulation
    assert not v2.axiom_report.local_refinement
    assert v2.consistent

    rng = random.Random(61)
    arr = random_generic_arrangement(rng, 3, 3)
    v3 = check_correspondence(arr)
    assert v3.generic and v3.triangulation and v3.cell_count == 6
    assert v3.consistent

    # d = 4: the victim and host apexes lie on each other's fans
    degenerate, victim, host, _ = nongeneric_on_ray(rng, 3, 4)
    v4 = check_correspondence(degenerate)
    assert offending_apexes(degenerate) == {host, victim}
    assert not v4.triangulation and v4.cell_count < v4.expected_simplices
    assert not v4.axiom_report.local_refinement and v4.consistent


def test_check_reads_triangulation_and_cells_off_the_vertex_types(monkeypatch):
    rng = random.Random(2323)
    draws = []
    for n, d in [(2, 3), (3, 3), (4, 3), (3, 4)]:
        draws += [random_generic_arrangement(rng, n, d), random_integer_arrangement(rng, n, d)]
        draws += [integer_incident(rng, n, d), nongeneric_on_ray(rng, n, d)[0], nongeneric_on_apex(rng, n, d)[0]]
    verdicts = [assert_check_cells_match_the_oracle(arr, enumerate_realizations(arr)) for arr in draws]
    assert True in verdicts and False in verdicts

    # on an arrangement's own types the two tests of a triangulation agree
    # (the cells' volumes sum to the count of trees), so two doctored
    # enumerations of a generic (3,3) draw tell them apart: one vertex
    # less leaves every cell a tree but too few, one more label in a
    # vertex keeps the count but leaves a cell that is not a tree
    arr = random_generic_arrangement(rng, 3, 3)
    dimensions = enumerate_realizations(arr)
    vertex, i = next((T, i) for T, dim in dimensions.items() if dim == 0 for i in (1, 2, 3) if len(T.entry(i)) < 3)
    tied = vertex.with_entry(i, {1, 2, 3})
    assert tied not in dimensions
    fewer = {T: dim for T, dim in dimensions.items() if T != vertex}
    wider = {tied if T == vertex else T: dim for T, dim in dimensions.items()}
    for doctored in (fewer, wider):
        monkeypatch.setattr(troparr.duality, "enumerate_realizations", lambda arr, budget=None: doctored)
        assert not assert_check_cells_match_the_oracle(arr, doctored)


def test_maximal_cells_are_the_inclusion_maximal_type_graphs(e1, e2):
    # 0-dimensional cells and inclusion-maximal graphs pick out the same
    # subdivision for arrangement-induced data
    rng = random.Random(83)
    arrangements = [e1, e2] + [
        random_arrangement(rng, *rng.choice([(2, 3), (3, 3), (2, 2)])) for _ in range(6)
    ]
    for arr in arrangements:
        dimensions = enumerate_realizations(arr)
        graphs = {type_to_graph(Tv, arr.n, arr.d): dim for Tv, dim in dimensions.items()}
        zero_cells = {g for g, dim in graphs.items() if dim == 0}
        maximal = {
            g for g in graphs
            if not any(g.edges < h.edges for h in graphs if h != g)
        }
        assert zero_cells == maximal == dual_subdivision_both_ways(arr).maximal_cells


def test_subdivision_validates_cells():
    with pytest.raises(ValueError):
        Subdivision(2, 2, frozenset({G(2, 2, (1, 1))}))  # not spanning
    with pytest.raises(ValueError, match=re.escape("maximal cell (1, 2) is not a 2 x 3 cell graph")):
        Subdivision(2, 3, {(1, 2)})  # an edge, not a cell
    square = G(2, 2, (1, 1), (1, 2), (2, 1), (2, 2))
    with pytest.raises(ValueError, match=re.escape(f"maximal cell {square!r} is not a 2 x 3 cell graph")):
        Subdivision(2, 3, {square})
    with pytest.raises(ValueError):
        Subdivision(2, 2, frozenset())
