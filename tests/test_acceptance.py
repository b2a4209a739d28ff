"""Acceptance suite: one test per criterion, each printing a PASS line
with the quantities it verified (run with ``pytest -s`` to see them).

Suite arrangements are generated from fixed seeds, so every run checks
the same instances and the reported numbers are reproducible.
"""

import json
import random
import xml.etree.ElementTree as ET
from math import comb

import pytest

from troparr import (
    Arrangement,
    CellGraph,
    TypeVector,
    arrangement_heights,
    cell_dim,
    check_local_refinement,
    check_surrounding,
    dual_subdivision,
    enumerate_realizations,
    gkz_vector,
    is_generic,
    is_spanning_tree,
    is_triangulation,
    is_tropical_oriented_matroid,
    normalized_volume,
    refines,
    refining_triangulations,
    regular_subdivision,
    secondary_face_check,
)
from troparr.cli import main, parse_arrangement_json, parse_arrangement_text
from troparr.duality import is_spanning_connected

from conftest import (
    affine_rank_oracle,
    apex_type,
    dual_subdivision_both_ways,
    enumerate_types,
    face_dimension_oracle,
    gkz_total,
    nongeneric_on_apex,
    nongeneric_on_ray,
    offending_positions,
    random_arrangement,
    random_generic_arrangement,
    random_integer_arrangement,
    refinements_oracle,
    sampled_types,
    serialize_arrangement,
    type_to_graph,
    type_total_size,
)

E1 = Arrangement.from_rows([[0, 0], [-1, 0]])
E2 = Arrangement.from_rows([[0, 0, 0], [1, 1, 0]])

SUITE2_SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3)]


@pytest.fixture(scope="module")
def suite2():
    rng = random.Random(20260809)
    return [random_generic_arrangement(rng, *SUITE2_SHAPES[i % 4]) for i in range(50)]


@pytest.fixture(scope="module")
def suite3():
    """25 constructed degeneracies: 20 apexes on a ray of another fan,
    5 apexes coinciding with another apex (d = 3, n in {2, 3})."""
    rng = random.Random(998877)
    records = []
    for i in range(20):
        n = 2 if i % 2 == 0 else 3
        arr, victim, host, pair = nongeneric_on_ray(rng, n)
        records.append((arr, victim, host, frozenset(pair), "ray"))
    for i in range(5):
        n = 2 if i % 2 == 0 else 3
        arr, victim, host = nongeneric_on_apex(rng, n)
        records.append((arr, victim, host, frozenset({1, 2, 3}), "apex"))
    return records


@pytest.fixture(scope="module")
def suite3_face_checks(suite3):
    return [secondary_face_check(arr) for arr, *_ in suite3]


def test_criterion_1_apex_total_bound():
    """Every apex type's total is at least n+d-1; flagged non-generic
    apexes exceed it strictly, generic ones meet it exactly."""
    rng = random.Random(11235)
    shapes = [(n, d) for n in (2, 3, 4) for d in (2, 3, 4)]
    checked = 0
    for i in range(200):
        n, d = shapes[i % len(shapes)]
        arr = random_arrangement(rng, n, d, max_den=100)
        for i in range(1, n + 1):
            total = type_total_size(apex_type(arr, i))
            assert total >= n + d - 1
            if offending_positions(arr, i):
                assert total > n + d - 1
            else:
                assert total == n + d - 1
            checked += 1
    print(f"\n[criterion 1] PASS — {checked} apexes over 200 arrangements, "
          "total >= n+d-1 with equality exactly for generic apexes")


def test_criterion_2_generic_arrangements_are_matroids(suite2):
    for arr in suite2:
        assert is_generic(arr)
        report = is_tropical_oriented_matroid(
            enumerate_types(arr), arr.n, arr.d
        )
        assert report.boundary and report.elimination
        assert report.comparability and report.surrounding
        assert report.is_tom
    print("\n[criterion 2] PASS — 50 generic arrangements (n,d <= 3), "
          "all four axiom checks pass, is_tom true for every one")


def test_criterion_3_constructed_degeneracies_fail_local_refinement(suite3):
    surrounding_verdicts = []
    for arr, victim, host, tied, kind in suite3:
        types = enumerate_types(arr)
        assert not check_local_refinement(types)
        T = apex_type(arr, victim)
        assert T.entry(host) == tied
        for k in sorted(tied):
            assert T.with_entry(host, (k,)) not in types
        surrounding_verdicts.append(bool(check_surrounding(types, arr.d)))
    passes = sum(surrounding_verdicts)
    print(f"\n[criterion 3] PASS — 25 constructed degeneracies all fail local "
          f"refinement at the placed apex and coordinate; informational: "
          f"ordered-partition surrounding passed on {passes}/25 (no assertion)")


def test_criterion_4_generic_subdivisions_are_triangulations(suite2):
    for arr in suite2:
        sub = dual_subdivision_both_ways(arr)
        expected = comb(arr.n + arr.d - 2, arr.n - 1)
        assert is_triangulation(sub)
        assert len(sub.maximal_cells) == expected
        assert all(is_spanning_tree(g) for g in sub.maximal_cells)
        if (arr.n, arr.d) == (3, 3):
            assert expected == 6
    print("\n[criterion 4] PASS — all 50 generic subdivisions are "
          "triangulations into binomial(n+d-2, n-1) spanning trees")


def test_criterion_5_degenerate_subdivisions_sit_between_triangulations(suite3, suite3_face_checks):
    simplex = CellGraph(2, 3, frozenset({(1, 1), (1, 2), (1, 3), (2, 3)}))
    pyramid = CellGraph(2, 3, frozenset({(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)}))
    sub = dual_subdivision(E2)
    assert sub.maximal_cells == {simplex, pyramid}
    assert normalized_volume(simplex) == 1 and normalized_volume(pyramid) == 2

    tris = refining_triangulations(E2, sub)
    assert len(tris) == 2
    for t in tris:
        assert is_triangulation(t) and refines(t, sub)
    g1, g2 = (gkz_vector(t) for t in tris)
    assert g1 != g2
    assert affine_rank_oracle([g1.values, g2.values]) == 1 == face_dimension_oracle(sub)

    for (arr, *_), verdict in zip(suite3, suite3_face_checks):
        assert verdict.refinement_count >= 2
        assert set(verdict.refinements) == refinements_oracle(arr, verdict.subdivision)
        assert verdict.face_dimension >= 1
        assert affine_rank_oracle([g.values for g in verdict.gkz_vectors]) == verdict.face_dimension
        assert face_dimension_oracle(verdict.subdivision) == verdict.face_dimension
    print("\n[criterion 5] PASS — E2 splits into exactly 2 refining "
          "triangulations with GKZ hull dimension 1; all 25 degeneracies "
          "report >= 2 refinements and face dimension >= 1")


def test_criterion_6_envelope_oracle_matches_dual_subdivision(suite2, suite3):
    rng = random.Random(60606)
    shapes = [(2, 3), (3, 3), (4, 3), (3, 4), (5, 3), (4, 4)]
    extra = [random_integer_arrangement(rng, *shapes[i % 6]) for i in range(12)]
    extra += [random_arrangement(rng, 5, 3), random_arrangement(rng, 4, 4)]
    arrangements = list(suite2) + [arr for arr, *_ in suite3] + extra
    for arr in arrangements:
        assert regular_subdivision(arrangement_heights(arr)) == dual_subdivision_both_ways(arr)
    print(f"\n[criterion 6] PASS — lower-envelope subdivision equals the "
          f"type-enumeration subdivision on all {len(arrangements)} suite arrangements "
          f"(12 integer-grid draws up to (5,3) and (4,4) among them)")


def test_criterion_7_sampling_oracle():
    rng = random.Random(424242)
    small = [
        E1,
        E2,
        random_generic_arrangement(rng, 2, 3),
        random_arrangement(rng, 3, 3),
        random_generic_arrangement(rng, 3, 3),
    ]
    for arr in small:
        types = enumerate_types(arr)
        seen = sampled_types(rng, arr, 10_000)
        assert seen <= types
        full = {t for t in types if all(len(e) == 1 for e in t.entries)}
        seen_full = {t for t in seen if all(len(e) == 1 for e in t.entries)}
        assert seen_full == full
    larger = [random_arrangement(rng, 4, 4), random_arrangement(rng, 2, 4)]
    for arr in larger:
        types = enumerate_types(arr)
        assert sampled_types(rng, arr, 10_000) <= types
    print("\n[criterion 7] PASS — 10,000-point sampling found every "
          "full-dimensional type and nothing outside the enumeration "
          "(extras checked up to n = d = 4)")


def test_criterion_8_structural_invariants(suite2, suite3, suite3_face_checks):
    arrangements = [E1, E2] + list(suite2) + [arr for arr, *_ in suite3]
    for arr in arrangements:
        target = arr.n + arr.d - 2
        for T, dim in enumerate_realizations(arr).items():
            g = type_to_graph(T, arr.n, arr.d)
            assert dim + cell_dim(g) == target
        sub = dual_subdivision_both_ways(arr)
        assert all(is_spanning_connected(g) for g in sub.maximal_cells)
        total = sum(normalized_volume(g) for g in sub.maximal_cells)
        assert total == comb(arr.n + arr.d - 2, arr.n - 1)

    triangulations = list(refining_triangulations(E2, dual_subdivision(E2)))
    for arr in suite2:
        triangulations.append(dual_subdivision(arr))
    for verdict in suite3_face_checks:
        triangulations.extend(verdict.refinements)
    for t in triangulations:
        expected = (t.n + t.d - 1) * comb(t.n + t.d - 2, t.n - 1)
        assert gkz_total(gkz_vector(t)) == expected
    print(f"\n[criterion 8] PASS — dimension complementarity on "
          f"{len(arrangements)} arrangements, volume sums on their "
          f"subdivisions, GKZ sums on {len(triangulations)} triangulations")


def test_criterion_9_cli_round_trips_and_rendering(tmp_path, capsys):
    # byte-identical reports with a fixed seed
    e2_path = tmp_path / "e2.json"
    e2_path.write_text(serialize_arrangement(E2, "json"))
    outs = []
    for _ in range(2):
        assert main(["subdivision", "--input", str(e2_path), "--flips", "--seed", "9"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]

    # parse/serialize round-trip on 100 random files (both formats)
    rng = random.Random(314159)
    for _ in range(100):
        n, d = rng.choice([(1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 2)])
        arr = random_arrangement(rng, n, d)
        assert parse_arrangement_json(serialize_arrangement(arr, "json")) == arr
        assert parse_arrangement_text(serialize_arrangement(arr, "text")) == arr

    # renders: generic file has 9 thin rays, degenerate file >= 3 bold
    def ray_stats(path):
        ns = "{http://www.w3.org/2000/svg}"
        root = ET.fromstring(path.read_text())
        lines = list(root.iter(ns + "line"))
        bold = [el for el in lines if "bold" in el.get("class", "")]
        circles = list(root.iter(ns + "circle"))
        return len(lines), len(bold), len(circles)

    generic = random_generic_arrangement(rng, 3, 3)
    gpath = tmp_path / "generic.json"
    gpath.write_text(serialize_arrangement(generic, "json"))
    gout = tmp_path / "generic.svg"
    assert main(["render", "--input", str(gpath), "--out", str(gout)]) == 0
    rays, bold, apexes = ray_stats(gout)
    assert (rays, bold, apexes) == (9, 0, 3)

    degen, *_ = nongeneric_on_ray(rng, 3)
    bpath = tmp_path / "degenerate.json"
    bpath.write_text(serialize_arrangement(degen, "json"))
    bout = tmp_path / "degenerate.svg"
    assert main(["render", "--input", str(bpath), "--out", str(bout)]) == 0
    rays, bold, apexes = ray_stats(bout)
    assert rays == 9 and apexes == 3 and bold >= 3
    capsys.readouterr()
    print("\n[criterion 9] PASS — byte-identical seeded reports, 100 file "
          "round-trips, well-formed SVGs with 9 rays and bold counts 0 / >= 3")
