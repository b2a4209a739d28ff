import hashlib
import itertools
import json
import re
import math
import random
import subprocess
import sys
import time
import types
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

import troparr.axioms
import troparr.cli
import troparr.core
import troparr.duality
import troparr.envelope
import troparr.geometry
import troparr.secondary
from troparr import Arrangement, CellGraph, Subdivision
from troparr.cli import _digest, main, parse_arrangement_json, parse_arrangement_text, render_svg

from conftest import (
    UNCERTIFIED,
    WALK_MUTANTS,
    _tied_step,
    mutant,
    nongeneric_on_ray,
    pivot_walk_edges,
    random_arrangement,
    random_generic_arrangement,
    random_integer_arrangement,
    render_svg_oracle,
    serialize_arrangement,
)

E2_DOC = {"n": 2, "d": 3, "apexes": [["0", "0", "0"], ["1", "1", "0"]]}

# every apex type has total n+d-1, yet the min-plus determinant of the
# minor on rows 1, 3, 4 is attained twice, so a cell of volume 3 remains
TIED_MINOR = "4 3\n3 -2 0\n0 -4 0\n-4 -5 0\n-1 1 0\n"


@pytest.fixture
def e2_file(tmp_path):
    path = tmp_path / "e2.json"
    path.write_text(json.dumps(E2_DOC))
    return str(path)


@pytest.fixture
def tied_minor_file(tmp_path):
    path = tmp_path / "tied_minor.txt"
    path.write_text(TIED_MINOR)
    return str(path)


@pytest.fixture
def e1_file(tmp_path):
    path = tmp_path / "e1.txt"
    path.write_text("2 2\n0 0\n-1 0\n")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_round_trip_both_formats():
    rng = random.Random(19)
    for _ in range(100):
        n, d = rng.choice([(1, 2), (2, 2), (2, 3), (3, 3), (4, 4), (2, 5)])
        arr = random_arrangement(rng, n, d)
        assert parse_arrangement_json(serialize_arrangement(arr, "json")) == arr
        assert parse_arrangement_text(serialize_arrangement(arr, "text")) == arr


def test_parse_rejects_bad_documents():
    for doc in [
        "[]",
        "{}",
        json.dumps({"n": 0, "d": 2, "apexes": []}),
        json.dumps({"n": 1, "d": 1, "apexes": [["0"]]}),
        json.dumps({"n": 2, "d": 2, "apexes": [["0", "0"]]}),
        json.dumps({"n": 1, "d": 2, "apexes": [["0", "1/0"]]}),
        json.dumps({"n": 1, "d": 2, "apexes": [["0", 0.5]]}),
        json.dumps({"n": True, "d": 3, "apexes": [["0", "0", "0"]]}),
    ]:
        with pytest.raises(ValueError):
            parse_arrangement_json(doc)
    for doc in ["", "2\n0 0\n", "1 2\n0\n", "1 2\n0 x\n"]:
        with pytest.raises(ValueError):
            parse_arrangement_text(doc)
    # the header's n and d are checked before any row is counted or read
    for doc in ["-1 3\n", "0 3\n", "0 2\n0 0\n", "2 1\n0 0 0\n0 0 0\n", "1 0\n"]:
        with pytest.raises(ValueError, match="^need n >= 1 and d >= 2$"):
            parse_arrangement_text(doc)


def test_cmd_type_of(capsys, e2_file):
    code, out = run(capsys, ["type-of", "--input", e2_file, "--point", "1,1,0"])
    assert code == 0
    assert "type: ({1,2},{1,2,3})" in out

    code, out = run(capsys, ["type-of", "--input", e2_file, "--point", "0,0,0"])
    assert code == 0
    assert "type: ({1,2,3},{3})" in out


def test_cmd_type_of_negative_point(capsys, e2_file):
    # a value starting with "-" is the point when it is a list of
    # rationals, and the report echoes the command as typed
    for point, expected in [("-138/16,-133/7,0", "({3},{3})"), ("-1,2,-1", "({2},{2})")]:
        argv = ["type-of", "--input", e2_file, "--point", point]
        code, out = run(capsys, argv)
        assert code == 0, point
        assert out.splitlines()[0] == "command: " + " ".join(argv)
        assert f"type: {expected}" in out
        assert run(capsys, ["type-of", "--input", e2_file, f"--point={point}"])[1].splitlines()[1:] == out.splitlines()[1:]
        code, out = run(capsys, argv + ["--json"])
        assert code == 0 and json.loads(out)["command"] == argv + ["--json"]
    # anything else after --point is still argparse's missing value
    for value in ["--json", "-1,x,0"]:
        assert main(["type-of", "--input", e2_file, "--point", value]) == 2
        assert "argument --point: expected one argument" in capsys.readouterr().err


def test_cmd_type_of_errors(capsys, e2_file):
    assert main(["type-of", "--input", e2_file, "--point", "1,x"]) == 2
    assert main(["type-of", "--input", e2_file, "--point", "1,2"]) == 3
    capsys.readouterr()


def test_cmd_check_e1(capsys, e1_file):
    code, out = run(capsys, ["check", "--input", e1_file, "--format", "text"])
    assert code == 0
    assert "generic: true\ntied_minor: none\n" in out
    assert "types: 5" in out
    assert "is_tom: true" in out
    assert "triangulation: true" in out
    assert "consistent: true" in out


def test_cmd_check_e2(capsys, e2_file):
    code, out = run(capsys, ["check", "--input", e2_file])
    assert code == 0
    assert "generic: false\ntied_minor: rows 1,2 columns 1,2 matchings (1,1)(2,2) (1,2)(2,1)\n" in out
    assert "local_refinement: fail" in out
    assert "triangulation: false" in out
    assert "consistent: true" in out


def test_cmd_check_tied_minor_with_generic_apexes(capsys, tied_minor_file):
    code, out = run(capsys, ["check", "--format", "text", "--input", tied_minor_file])
    assert code == 0
    assert "tied_minor: rows 1,3,4 columns 1,2,3 matchings (1,2)(3,1)(4,3) (1,3)(3,2)(4,1)\n" in out
    assert "generic: false" in out and "triangulation: false" in out
    assert "consistent: true" in out


def test_cmd_check_json_deterministic(capsys, e2_file):
    code1, out1 = run(capsys, ["check", "--input", e2_file, "--json"])
    code2, out2 = run(capsys, ["check", "--input", e2_file, "--json"])
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["status"] == "ok"
    assert doc["results"]["type_count"] == 13
    assert doc["results"]["axioms"]["local_refinement"] == "fail"
    assert doc["results"]["tied_minor"] == {"rows": [1, 2], "columns": [1, 2], "matchings": [[[1, 1], [2, 2]], [[1, 2], [2, 1]]]}


def test_cmd_check_json_tied_minor(capsys, e1_file, tied_minor_file):
    code, out = run(capsys, ["check", "--format", "text", "--input", e1_file, "--json"])
    assert code == 0 and json.loads(out)["results"]["tied_minor"] is None
    code, out = run(capsys, ["check", "--format", "text", "--input", tied_minor_file, "--json"])
    assert code == 0
    assert json.loads(out)["results"]["tied_minor"] == {
        "rows": [1, 3, 4],
        "columns": [1, 2, 3],
        "matchings": [[[1, 2], [3, 1], [4, 3]], [[1, 3], [3, 2], [4, 1]]],
    }


# the "integer 5x3" and "integer_incident 3x4" inputs of
# test_report_bytes.py: each has more than one tied minor, and check
# names the one of the first cell of the pivot walk that tries a tree's
# facets in ascending bit order of their edges
WALK_ORDER_MINORS = [
    (
        "5 3\n-2 0 -1\n1 -2 1\n-1 1 -2\n-2 -1 -1\n-2 -1 -1\n",
        "rows 1,4 columns 1,3 matchings (1,1)(4,3) (1,3)(4,1)",
        {"rows": [1, 4], "columns": [1, 3], "matchings": [[[1, 1], [4, 3]], [[1, 3], [4, 1]]]},
    ),
    (
        "3 4\n1 -1 0 -2\n-2 -2 0 -2\n-2 2 -2 -2\n",
        "rows 2,3 columns 1,4 matchings (2,1)(3,4) (2,4)(3,1)",
        {"rows": [2, 3], "columns": [1, 4], "matchings": [[[2, 1], [3, 4]], [[2, 4], [3, 1]]]},
    ),
]


@pytest.mark.parametrize("text, minor, doc", WALK_ORDER_MINORS, ids=["integer 5x3", "integer_incident 3x4"])
def test_cmd_check_names_the_minor_of_the_walk_in_bit_order(tmp_path, capsys, text, minor, doc):
    path = tmp_path / "tied.txt"
    path.write_text(text)
    code, out = run(capsys, ["check", "--format", "text", "--input", str(path)])
    assert code == 0
    assert f"generic: false\ntied_minor: {minor}\n" in out
    code, out = run(capsys, ["check", "--format", "text", "--input", str(path), "--json"])
    assert code == 0 and json.loads(out)["results"]["tied_minor"] == doc


def test_cmd_check_rejects_missing_or_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 0, "d": 3, "apexes": []}')
    assert main(["check", "--input", str(bad)]) == 2
    assert main(["check", "--input", str(tmp_path / "nope.json")]) == 7
    capsys.readouterr()


def test_cmd_subdivision(capsys, e2_file):
    code, out = run(capsys, ["subdivision", "--input", e2_file])
    assert code == 0
    assert "[(1,1),(1,2),(1,3),(2,3)] vol 1" in out
    assert "[(1,1),(1,2),(2,1),(2,2),(2,3)] vol 2" in out


def test_cmd_subdivision_flips(capsys, e2_file):
    code, out = run(capsys, ["subdivision", "--input", e2_file, "--flips"])
    assert code == 0
    assert out.count("triangulation") == 2
    assert "face_dimension: 1" in out

    code2, out2 = run(capsys, ["subdivision", "--input", e2_file, "--flips", "--seed", "0"])
    assert out2.replace(" --seed 0", "") == out  # same content modulo the echo


def test_cmd_subdivision_flips_tied_minor_with_generic_apexes(capsys, tied_minor_file):
    code, out = run(capsys, ["subdivision", "--flips", "--format", "text", "--input", tied_minor_file])
    assert code == 0
    assert "] vol 3" in out
    assert "already a triangulation" not in out
    assert "triangulation 2:" in out and "face_dimension: 1" in out


def test_flips_on_an_all_zero_2x5_input_keep_every_step(tmp_path, capsys):
    # one coarse cell, all of K_{2,5}: a step that ties one of its cycles
    # is tie-broken and walked, not thrown away, so seed 0 lists 20
    # triangulations where skipping the wall steps listed 19
    path = tmp_path / "zero25.txt"
    path.write_text("2 5\n0 0 0 0 0\n0 0 0 0 0\n")
    code, out = run(capsys, ["subdivision", "--flips", "--seed", "0", "--json", "--format", "text", "--input", str(path)])
    assert code == 0
    assert len(json.loads(out)["results"]["flips"]["triangulations"]) == 20


def test_cmd_subdivision_flips_across_a_six_cycle_wall(tmp_path, capsys):
    # the 3x3 minors on rows 1-3 and 2-4 have their two best matchings
    # 1/100000 apart; a radius read off the 2x2 minors let joint samples
    # cross that wall
    path = tmp_path / "six_cycle.json"
    path.write_text(json.dumps(
        {"n": 4, "d": 3, "apexes": [["0", "0", "0"], ["0", "-1", "-200001/100000"], ["0", "1", "-1"], ["0", "0", "0"]]}
    ))
    for seed in ("0", "1", "2", "3"):
        code, out = run(capsys, ["subdivision", "--flips", "--seed", seed, "--input", str(path)])
        assert code == 0
        assert "face_dimension: 2" in out


def test_cmd_subdivision_flips_on_generic(tmp_path, capsys):
    rng = random.Random(77)
    arr = random_generic_arrangement(rng, 2, 3)
    path = tmp_path / "gen.json"
    path.write_text(serialize_arrangement(arr, "json"))
    code, out = run(capsys, ["subdivision", "--input", str(path), "--flips"])
    assert code == 0
    assert "generic" in out and "flips" in out


def test_one_enumeration_of_the_input(monkeypatch, capsys, e2, e2_file):
    # one walk of the input's types per command: for check the full
    # enumeration, then the genericity walk over the lower envelope; for
    # subdivision only the pivot walk over the full support
    calls = []
    enumerate_realizations, pivot_walk = troparr.duality.enumerate_realizations, troparr.envelope._pivot_walk

    def enumerated(arr, *args, **kwargs):
        if arr == e2:
            calls.append("enumeration")
        return enumerate_realizations(arr, *args, **kwargs)

    def walked(n, d, weights, support):
        if tuple(map(tuple, weights)) == e2.rows() and support == (1 << n * d) - 1:
            calls.append("pivot walk")
        return pivot_walk(n, d, weights, support)

    monkeypatch.setattr(troparr.duality, "enumerate_realizations", enumerated)
    monkeypatch.setattr(troparr.envelope, "_pivot_walk", walked)
    for argv, walks in ((["subdivision", "--flips"], ["pivot walk"]), (["check"], ["enumeration", "pivot walk"])):
        calls.clear()
        assert main(argv + ["--input", e2_file]) == 0
        assert calls == walks, argv
    capsys.readouterr()


def test_one_integer_form_per_run(monkeypatch, capsys, tmp_path):
    # a non-generic rational (4,3) input, its first two rows equal: each
    # command scales the apex matrix to ints once, for every kernel it
    # runs, and no moved arrangement of --flips scales its int rows again
    path = tmp_path / "rational43.txt"
    path.write_text("4 3\n1/3 1/2 0\n1/3 1/2 0\n-2/7 1 0\n3/5 -1/4 0\n")
    rows = Arrangement.from_rows([["1/3", "1/2", 0], ["1/3", "1/2", 0], ["-2/7", 1, 0], ["3/5", "-1/4", 0]]).rows()
    scaled = []
    integer_rows = troparr.core._integer_rows

    def counted(weights):
        scaled.append(weights)
        return integer_rows(weights)

    monkeypatch.setattr(troparr.core, "_integer_rows", counted)
    monkeypatch.setattr(troparr.duality, "_integer_rows", counted)
    for argv in (["check"], ["subdivision"], ["subdivision", "--flips"]):
        scaled.clear()
        assert main(argv + ["--format", "text", "--input", str(path)]) == 0
        assert scaled == [rows], argv
    out = capsys.readouterr().out
    assert "generic: false" in out and "triangulation 2:" in out


def test_flat_cell_volume_comes_from_the_walk_and_its_cone_is_capped(monkeypatch, capsys, tmp_path):
    # one flat cell of volume 1,100: subdivision counts its 1,100 trees in
    # the walk that finds it, with no second walk; --flips walks the input
    # alone and refuses that cell's cone, 1,100 trees x 1,102 nodes x
    # 2,200 edges, before any step is walked
    path = tmp_path / "flat.txt"
    path.write_text("1100 2\n" + "0 0\n" * 1100)
    assert main(["subdivision", "--format", "text", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "cells:" and lines[3].endswith(",(1100,2)] vol 1100") and lines[4:] == ["status: ok"]
    steps = []
    dual = troparr.secondary.dual_subdivision
    monkeypatch.setattr(troparr.secondary, "dual_subdivision", lambda *args: steps.append(args) or dual(*args))
    assert main(["subdivision", "--flips", "--format", "text", "--input", str(path)]) == 5
    captured = capsys.readouterr()
    assert captured.out == "" and len(steps) == 1
    assert captured.err.startswith(
        "error: flip cone: 1100 trees x 1102 nodes x 2200 edges = 2666840000 "
        "exceed the cap of 20000000 on cell [(1,1),(1,2),(2,1),"
    )


def test_subdivision_and_flips_never_walk_a_volume(monkeypatch, capsys, e2_file, tmp_path):
    # every volume printed is the count of the trees the input's own walk
    # maps to its cell: e2's pyramid 2, the all-zero 3x3 input's one cell 6
    def refused(g):
        raise AssertionError(f"walked the volume of {g.text()}")

    monkeypatch.setattr(troparr.duality, "normalized_volume", refused)
    zero = tmp_path / "zero33.json"
    zero.write_text(json.dumps({"n": 3, "d": 3, "apexes": [[0, 0, 0]] * 3}))
    for path, volumes in [(e2_file, ["1", "2"]), (str(zero), ["6"])]:
        for flips in ([], ["--flips"]):
            code, out = run(capsys, ["subdivision", *flips, "--format", "json", "--input", path])
            assert code == 0 and ("flips:" in out) == bool(flips)
            assert sorted(line.rsplit(" ", 1)[1] for line in out.splitlines() if " vol " in line) == volumes


def test_flips_enumerate_once_per_distinct_subdivision(monkeypatch, capsys, tmp_path):
    # the input once, then one perturbation per distinct triangulation;
    # the all-zero 2x3 input has one coarse cell, K_{2,3} with two cycles,
    # whose volume, 3, the input's walk counts, and six refinements, so
    # of the 2nd = 12 steps only the first to land on each is walked: the
    # others fall inside a known refinement's cone.  No cell is walked on
    # its own, for its volume or while the refinements are sought: each
    # pivot walk in the search is a step's dual subdivision
    path = tmp_path / "zero23.txt"
    path.write_text("2 3\n0 0 0\n0 0 0\n")
    subdivisions, inside, walks = [], [], []
    dual = troparr.duality.dual_subdivision
    pivot_walk = troparr.envelope._pivot_walk
    refining = troparr.secondary.refining_triangulations

    def counted(arr, *args, **kwargs):
        subdivisions.append(arr)
        return dual(arr, *args, **kwargs)

    def recorded(*args):
        walks.append(bool(inside))
        return pivot_walk(*args)

    def flagged(*args, **kwargs):
        inside.append(True)
        try:
            return refining(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(troparr.cli, "dual_subdivision", counted)
    monkeypatch.setattr(troparr.secondary, "dual_subdivision", counted)
    monkeypatch.setattr(troparr.envelope, "_pivot_walk", recorded)
    monkeypatch.setattr(troparr.secondary, "refining_triangulations", flagged)
    assert main(["subdivision", "--flips", "--format", "text", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "triangulation 6:" in out and "triangulation 7:" not in out
    assert len(subdivisions) == 1 + 6
    # the input's walk alone outside the search: it also gives the volume
    assert walks.count(False) == 1 and walks.count(True) == 6


def test_flips_builds_one_meter_and_walks_its_input_once(monkeypatch, capsys, e2_file):
    # one library call on one meter: the input's walk and every step's
    # draw on the meter that secondary_face_check builds, and the input
    # is walked once, by it
    meters, walked = [], []
    build, dual = troparr.core.Meter.__init__, troparr.duality.dual_subdivision

    def built(meter, *args):
        meters.append(meter)
        build(meter, *args)

    def recorded(arr, budget=None):
        walked.append((arr, budget))
        return dual(arr, budget)

    monkeypatch.setattr(troparr.core.Meter, "__init__", built)
    monkeypatch.setattr(troparr.cli, "dual_subdivision", recorded)
    monkeypatch.setattr(troparr.secondary, "dual_subdivision", recorded)
    assert main(["subdivision", "--flips", "--input", e2_file]) == 0
    assert "face_dimension: 1" in capsys.readouterr().out
    e2 = Arrangement.from_rows(E2_DOC["apexes"])
    assert len(meters) == 1 and len(walked) == 3
    assert [arr for arr, _ in walked].count(e2) == 1 and walked[0][0] == e2
    assert all(budget is meters[0] for _, budget in walked)


def _e2_pyramid() -> frozenset:
    """The edges of E2's one coarse cell that is not a tree."""
    base = troparr.duality.dual_subdivision(Arrangement.from_rows(E2_DOC["apexes"]))
    return next(g.edges for g in base.maximal_cells if len(g.edges) > 2 + 3 - 1)


def _mutated_walks(monkeypatch, mutate) -> None:
    """Every moved arrangement's walk replaced by ``mutate`` of its cells
    and of E2's pyramid, as a validated subdivision; the first walk, the
    input's own, is left alone."""
    dual, pyramid, walked = troparr.secondary.dual_subdivision, _e2_pyramid(), []

    def mutated(arr, budget=None):
        sub = dual(arr, budget)
        walked.append(arr)
        if len(walked) == 1:
            return sub
        cells = mutate({g.edges for g in sub.maximal_cells}, pyramid)
        return Subdivision(sub.n, sub.d, frozenset(CellGraph(sub.n, sub.d, c) for c in cells))

    monkeypatch.setattr(troparr.secondary, "dual_subdivision", mutated)


def _assert_exit_4(capsys, e2_file, message: str) -> None:
    assert main(["subdivision", "--flips", "--input", e2_file]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: internal consistency violation: {message}\n"


def _trees(edges) -> list[frozenset]:
    """The spanning trees of K_{2,3} on ``edges``, in sorted order."""
    return [
        frozenset(t) for t in itertools.combinations(sorted(edges), 2 + 3 - 1)
        if troparr.duality.is_spanning_tree(CellGraph(2, 3, frozenset(t)))
    ]


def _mutated_step_walks(monkeypatch, old: str, new: str) -> None:
    """Every step's pivot walk replaced by the mutant of ``_pivot_walk``
    that reads ``new`` for ``old``; the first walk, the input's own, is
    left alone.  E2 is 2x3, so every step is walked and none read off."""
    dual, broken, walked = troparr.secondary.dual_subdivision, mutant(troparr.envelope._pivot_walk, old, new), []

    def mutated(arr, budget=None):
        walked.append(arr)
        if len(walked) == 2:
            monkeypatch.setattr(troparr.envelope, "_pivot_walk", broken)
        return dual(arr, budget)

    monkeypatch.setattr(troparr.secondary, "dual_subdivision", mutated)


def test_a_walk_that_loses_a_piece_exits_4(monkeypatch, capsys, e2_file):
    # a step's walk that pivots to the second-least entering slack
    # reaches a piece of the pyramid's other split, which the step's
    # heights do not support: the walk's own certificate refuses it
    _mutated_step_walks(monkeypatch, *WALK_MUTANTS["second-least pivot"])
    assert main(["subdivision", "--flips", "--input", e2_file]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"error: internal consistency violation: {UNCERTIFIED}\n", captured.err), captured.err


def test_a_refused_entry_exits_4(monkeypatch, capsys, e2_file):
    # every entry the pairwise tests pass is feasible, so an entry that
    # add_hyperplane refuses is a fault of the kernel, never a type skipped
    feasibility, imposed = troparr.geometry._Feasibility, []
    add = feasibility.add_hyperplane

    def refusing(state, i, mask):
        imposed.append((i, mask))
        return len(imposed) == 1 and add(state, i, mask)

    monkeypatch.setattr(feasibility, "add_hyperplane", refusing)
    for argv in (["check"], ["check", "--json"]):
        imposed.clear()
        assert main(argv + ["--input", e2_file]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and imposed == [(1, 0b10), (1, 0b110)]
        assert captured.err == (
            "error: internal consistency violation: "
            "type enumeration: hyperplane 1 refuses entry {1,2}, which its pairwise tests pass\n"
        )


def test_a_generic_route_short_of_a_type_exits_4(monkeypatch, capsys, e1_file):
    # a generic input's types are the faces of its trees that meet every
    # row, T(n, d) of them; a route that drops one fails that count
    tree_types = troparr.geometry._tree_types

    def dropping(n, d, trees):
        types = tree_types(n, d, trees)
        del types[min(types, key=lambda T: T.key())]
        return types

    monkeypatch.setattr(troparr.geometry, "_tree_types", dropping)
    for argv in (["check"], ["check", "--json"]):
        assert main(argv + ["--format", "text", "--input", e1_file]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: internal consistency violation: "
            "type enumeration: the 2 trees of a generic 2x2 triangulation give 4 types, not T(2,2) = 5\n"
        )


def test_a_triangulation_short_of_a_simplex_exits_4(monkeypatch, capsys, e2_file):
    # a step's walk that queues no third tree certifies the two it visits,
    # but falls one simplex short of the product's volume
    _mutated_step_walks(monkeypatch, "if pivot not in seen:", "if pivot not in seen and len(seen) < 2:")
    _assert_exit_4(capsys, e2_file, "pivot walk visited 2 of 3 simplices of a 2x3 triangulation")


def test_a_tree_inside_no_coarse_cell_exits_4(monkeypatch, capsys, e2_file):
    # a tree holding an edge of the simplex and one of the pyramid that
    # the simplex lacks lies in neither
    def crossing(cells, pyramid):
        simplex = next(c for c in cells if not c <= pyramid)
        tree = next(t for t in _trees(simplex | pyramid) if not t <= simplex and not t <= pyramid)
        return cells - {max((c for c in cells if c <= pyramid), key=sorted)} | {tree}

    _mutated_walks(monkeypatch, crossing)
    _assert_exit_4(capsys, e2_file, "flips step 1: tree [(1,1),(1,2),(1,3),(2,1)] lies in no coarse cell")


def test_a_cell_that_is_not_a_tree_exits_4(monkeypatch, capsys, e2_file):
    # the pyramid kept whole: a tie-broken step lies on no wall, so no
    # walk cell may be anything but a tree
    def unsplit(cells, pyramid):
        return {c for c in cells if not c <= pyramid} | {pyramid}

    _mutated_walks(monkeypatch, unsplit)
    _assert_exit_4(capsys, e2_file, "flips step 1: walked cell [(1,1),(1,2),(2,1),(2,2),(2,3)] is not a tree")


def test_a_step_on_a_wall_walks_to_trees(monkeypatch, capsys, e2_file):
    # the first step of seed 0 lowered onto a wall of E2's pyramid: the
    # tie-break moves it off the wall, so its walk holds trees only and
    # its triangulation is listed with the other split
    expected = run(capsys, ["subdivision", "--flips", "--json", "--input", e2_file])
    pyramid, rng = _e2_pyramid(), random.Random(0)
    step = [[rng.randint(0, 1000) for _ in range(3)] for _ in range(2)]
    tree = min(pivot_walk_edges(2, 3, step, pyramid), key=sorted)
    tied = _tied_step(2, 3, pyramid, tree, step)
    first = [u for us in tied for u in us]
    assert tied != step and all(0 <= u <= 1000 for u in first)

    class OnAWall(random.Random):
        def randint(self, a, b):
            return first.pop(0) if first else super().randint(a, b)

    walks = []
    dual = troparr.secondary.dual_subdivision

    def recorded(arr, budget=None):
        walks.append(dual(arr, budget))
        return walks[-1]

    monkeypatch.setattr(troparr.secondary, "random", types.SimpleNamespace(Random=OnAWall))
    monkeypatch.setattr(troparr.secondary, "dual_subdivision", recorded)
    assert run(capsys, ["subdivision", "--flips", "--json", "--input", e2_file]) == expected
    assert expected[0] == 0
    # walks[0] is the input's own walk, walks[1] the first step's
    assert all(len(g.edges) == 2 + 3 - 1 for g in walks[1].maximal_cells)
    listed = [t["cells"] for t in json.loads(expected[1])["results"]["flips"]["triangulations"]]
    assert len(listed) == 2
    assert [[list(e) for e in g.sorted_edges()] for g in walks[1].sorted_cells()] in listed


def test_cli_pipelines_never_build_a_witness(monkeypatch, capsys, e1_file, e2_file, tied_minor_file):
    # no report prints a witness, so the enumeration leaves every one unbuilt
    inputs = (["--input", e2_file], ["--format", "text", "--input", tied_minor_file])
    inputs += (["--format", "text", "--input", e1_file],)  # generic
    runs = [argv + source for argv in (["check"], ["subdivision"], ["subdivision", "--flips"]) for source in inputs]
    expected = [run(capsys, argv) for argv in runs]

    def refuse(state):
        raise AssertionError("a witness was built")

    monkeypatch.setattr(troparr.geometry._Feasibility, "witness", refuse)
    for argv, (code, out) in zip(runs, expected):
        assert code == 0, argv
        assert run(capsys, argv) == (0, out), argv


def test_envelope_disagreement_exits_4(monkeypatch, capsys, e2_file):
    # every refinement of E2 keeps its simplex [(1,1),(1,2),(1,3),(2,3)],
    # so a step's dual subdivision without that simplex matches none; the
    # input's own walk, the first, is left alone
    other = troparr.duality.regular_subdivision([[2, 1, 0], [0, 0, 0]])
    assert CellGraph(2, 3, frozenset({(1, 1), (1, 2), (1, 3), (2, 3)})) not in other.maximal_cells
    dual, walked = troparr.secondary.dual_subdivision, []

    def disagreeing(arr, budget=None):
        walked.append(arr)
        return other if len(walked) > 1 else dual(arr, budget)

    monkeypatch.setattr(troparr.secondary, "dual_subdivision", disagreeing)
    assert main(["subdivision", "--flips", "--input", e2_file]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: internal consistency violation: "
        "flips step 1: tree [(1,1),(1,2),(1,3),(2,1)] lies in no coarse cell\n"
    )


def test_budget_exit(capsys, e2_file, monkeypatch):
    assert main(["check", "--input", e2_file, "--budget", "3"]) == 5
    assert capsys.readouterr().err == "error: type enumeration: 4 feasibility steps exceed budget 3\n"
    # E2's 13 types take 13 x 6 two-block lookups, one more than the cap
    monkeypatch.setattr(troparr.axioms, "MAX_SURROUNDING_WORK", 77)
    assert main(["check", "--input", e2_file]) == 5
    assert capsys.readouterr().err == (
        "error: surrounding: 13 types x 6 two-block refinements of d=3 = 78 lookups exceed the cap of 77\n"
    )


def test_one_parser_serves_every_call(capsys, e2_file, tied_minor_file, monkeypatch):
    # a sequence of calls on the process's one parser reports exactly what
    # calls that each build a fresh parser report
    sequence = [
        ["check", "--input", e2_file, "--budget", "x"],
        ["check", "--input", e2_file, "--budget", "3"],
        ["check", "--input", e2_file],
        ["subdivision", "--format", "text", "--input", tied_minor_file, "--flips"],
        ["subdivision", "--format", "text", "--input", tied_minor_file],
        ["type-of", "--input", e2_file, "--point", "-1/2,3,0"],
        ["check", "--input", e2_file, "--seed", "3"],
        ["subdivision", "--input", e2_file, "--json"],
    ]

    def reports():
        out = []
        for argv in sequence:
            code = main(list(argv))
            out.append((code, *capsys.readouterr()))
        return out

    built = []
    build_parser = troparr.cli.build_parser
    monkeypatch.setattr(troparr.cli, "build_parser", lambda: built.append(1) or build_parser())
    troparr.cli._parser.cache_clear()
    reused = reports()
    assert len(built) == 1
    monkeypatch.setattr(troparr.cli, "_parser", build_parser)
    assert reports() == reused
    assert [code for code, _, _ in reused] == [2, 5, 0, 0, 0, 0, 2, 0]


def test_subdivision_budget_counts_the_pivot_walk_trees(capsys, e2_file, tmp_path):
    # E2 has n = 2, so its pivot walk has C(3, 1) = 3 trees, and its full
    # enumeration takes 20 feasibility steps: a budget of 3 is enough for
    # subdivision, not for check, which refuses it at once
    assert main(["subdivision", "--input", e2_file, "--budget", "3"]) == 0
    capsys.readouterr()
    assert main(["subdivision", "--input", e2_file, "--budget", "2"]) == 5
    assert capsys.readouterr().err == "error: pivot walk: 3 trees exceed budget 2\n"
    assert main(["check", "--input", e2_file, "--budget", "3"]) == 5
    assert capsys.readouterr().err == "error: type enumeration: 4 feasibility steps exceed budget 3\n"
    # n = 3 at d = 3 is charged C(4, 2) = 6 trees
    path = tmp_path / "three.txt"
    path.write_text("3 3\n0 1 2\n2 0 1\n1 2 0\n")
    assert main(["subdivision", "--format", "text", "--input", str(path), "--budget", "6"]) == 0
    capsys.readouterr()
    assert main(["subdivision", "--format", "text", "--input", str(path), "--budget", "5"]) == 5
    assert capsys.readouterr().err == "error: pivot walk: 6 trees exceed budget 5\n"
    # one --flips run shares one budget: the all-zero 2x3 input's walk and
    # the six steps it walks, one per triangulation listed, take 7 x 3
    # trees, and the step that would pass the budget is refused
    path = tmp_path / "zero23.txt"
    path.write_text("2 3\n0 0 0\n0 0 0\n")
    flips = ["subdivision", "--flips", "--format", "text", "--input", str(path)]
    code, out = run(capsys, flips + ["--budget", "21"])
    assert code == 0 and "triangulation 6:" in out
    assert main(flips + ["--budget", "20"]) == 5
    assert capsys.readouterr().err == "error: pivot walk: 21 trees exceed budget 20\n"
    # a single hyperplane's walk has one tree at any d
    path = tmp_path / "one.txt"
    path.write_text("1 18\n" + " ".join(str(j % 3) for j in range(18)) + "\n")
    code, out = run(capsys, ["subdivision", "--format", "text", "--input", str(path)])
    assert code == 0 and out.count(" vol 1") == 1
    assert main(["check", "--format", "text", "--input", str(path)]) == 5


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["check", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot parse {path}: ")


def test_a_thousand_hyperplanes_are_no_internal_error(tmp_path, capsys):
    # the type enumeration once recursed per hyperplane, so 1,100 rows
    # hit Python's recursion limit and exited 4
    path = tmp_path / "tall.txt"
    path.write_text("1100 2\n" + "0 0\n" * 1100)
    code, out = run(capsys, ["check", "--format", "text", "--input", str(path)])
    assert code == 0
    assert "types: 3" in out and "consistent: true" in out
    assert main(["check", "--format", "text", "--input", str(path), "--budget", "2000"]) == 5
    assert capsys.readouterr().err == "error: type enumeration: 2001 feasibility steps exceed budget 2000\n"


def test_negative_budget_is_a_parse_error(capsys, e2_file):
    for argv in (["check"], ["subdivision"], ["subdivision", "--flips"]):
        assert main(argv + ["--input", e2_file, "--budget", "-5"]) == 2
        err = capsys.readouterr().err
        assert "argument --budget: must be non-negative, got -5" in err and "feasibility" not in err
    assert main(["check", "--input", e2_file, "--budget", "0"]) == 5
    assert capsys.readouterr().err == "error: type enumeration: 1 feasibility steps exceed budget 0\n"


def test_the_header_takes_ascii_digits_only(tmp_path, capsys):
    # int() reads "٢" as 2 and "1_0" as 10; each is refused with exit 2
    # and the message of any other bad header, as a row's "١" is
    for text, message in (
        ("٢ 3\n0 0 0\n1 1 0\n", "invalid literal for int() with base 10: '٢'"),
        ("1_0 3\n0 0 0\n", "invalid literal for int() with base 10: '1_0'"),
        ("2 3\n١ 0 0\n1 1 0\n", "not a rational literal: '١'"),
        ("-1 3\n", "need n >= 1 and d >= 2"),
    ):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["check", "--format", "text", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: cannot parse {path}: {message}\n"


def test_the_budget_takes_ascii_digits_only(capsys, e2_file):
    # int() reads "١٠" as 10 and "1_0" as 10: --budget refuses them with
    # exit 2 and argparse's message for any other non-integer
    for value in ("١٠", "1_0", "x"):
        assert main(["subdivision", "--flips", "--input", e2_file, "--budget", value]) == 2
        assert f"error: argument --budget: invalid int value: {value!r}\n" in capsys.readouterr().err


def test_the_seed_takes_ascii_digits_only(capsys, e2_file):
    # int() reads "٣" as 3 and "1_0" as 10: --seed refuses them with exit 2
    # and argparse's message for any other non-integer; a negative seed runs
    for value in ("٣", "1_0", "x"):
        assert main(["subdivision", "--flips", "--input", e2_file, "--seed", value]) == 2
        assert f"error: argument --seed: invalid int value: {value!r}\n" in capsys.readouterr().err
    assert main(["subdivision", "--flips", "--input", e2_file, "--seed", "-3"]) == 0


def test_large_d_exits_5_before_enumerating(tmp_path, capsys, monkeypatch):
    # check on 2 x 30 takes 2(2^30-1) feasibility steps at least, and
    # subdivision on 30 x 30 has C(58, 29) trees to walk: both are
    # refused before any candidate entry is generated or any tree walked
    monkeypatch.setattr(troparr.geometry, "_cliques", None)
    monkeypatch.setattr(troparr.envelope, "_pivot_walk", None)
    monkeypatch.setattr(troparr.envelope, "_planar_cells", None)
    rows = [" ".join(str(j % k) for j in range(30)) for k in (3, 5, 7)]
    square = [" ".join(str((i * j) % 7) for j in range(30)) for i in range(30)]
    wide, tall, big = tmp_path / "wide.txt", tmp_path / "tall.txt", tmp_path / "big.txt"
    wide.write_text("2 30\n" + "\n".join(rows[:2]) + "\n")
    tall.write_text("3 30\n" + "\n".join(rows) + "\n")
    big.write_text("30 30\n" + "\n".join(square) + "\n")
    runs = [
        (["check", "--input", str(wide)], "type enumeration: 200001 feasibility steps"),
        (["subdivision", "--input", str(big)], f"pivot walk: {math.comb(58, 29)} trees"),
        (["subdivision", "--flips", "--input", str(big)], f"pivot walk: {math.comb(58, 29)} trees"),
    ]
    for argv, work in runs:
        assert main(argv + ["--format", "text"]) == 5
        assert capsys.readouterr().err == f"error: {work} exceed budget 200000\n"
    # subdivision on 2 x 30 walks C(30, 1) trees and on 3 x 30 reads
    # C(31, 2) cells off its lines; their volumes sum to those counts, the
    # normalized volumes of the products
    monkeypatch.undo()
    for path, n in ((wide, 2), (tall, 3)):
        code, out = run(capsys, ["subdivision", "--format", "text", "--input", str(path)])
        assert code == 0
        assert sum(int(v) for v in re.findall(r" vol (\d+)$", out, re.M)) == math.comb(28 + n, n - 1)


def test_check_on_six_labels(tmp_path, capsys):
    # the surrounding scan used to refuse every d > 5 outright
    arr = random_generic_arrangement(random.Random(3), 2, 6)
    path = tmp_path / "six.json"
    path.write_text(serialize_arrangement(arr, "json"))
    code, out = run(capsys, ["check", "--input", str(path)])
    assert code == 0
    assert "surrounding: pass" in out and "is_tom: true" in out and "triangulation: true" in out


def test_check_on_a_generic_five_by_four(tmp_path, capsys):
    # (2^4-1)^5 = 759375 candidate types used to exceed the default
    # budget; the enumeration takes 735 feasibility steps
    arr = random_generic_arrangement(random.Random(54), 5, 4)
    path = tmp_path / "five_by_four.json"
    path.write_text(serialize_arrangement(arr, "json"))
    code, out = run(capsys, ["check", "--input", str(path)])
    assert code == 0
    assert "is_tom: true" in out and "triangulation: true" in out and "cells: 35" in out


def test_surrounding_cap_refuses_before_the_other_checks(tmp_path, capsys, monkeypatch):
    # 769 types x 126 two-block refinements of d=7, one lookup over the
    # lowered cap: refused before elimination runs
    monkeypatch.setattr(troparr.axioms, "MAX_SURROUNDING_WORK", 96_893)
    calls = []
    check_elimination = troparr.axioms.check_elimination

    def counted(types):
        calls.append(len(types))
        return check_elimination(types)

    monkeypatch.setattr(troparr.axioms, "check_elimination", counted)
    arr = random_generic_arrangement(random.Random(3), 2, 7)
    path = tmp_path / "seven.json"
    path.write_text(serialize_arrangement(arr, "json"))
    assert main(["check", "--input", str(path)]) == 5
    assert capsys.readouterr().err == (
        "error: surrounding: 769 types x 126 two-block refinements of d=7 = 96894 lookups exceed the cap of 96893\n"
    )
    assert calls == []


def test_internal_inconsistency_exits_4(tmp_path, capsys, monkeypatch):
    # the flat arrangement's one cell is the whole product, so its volume
    # comes from a pivot walk over the full support, which checks its count
    monkeypatch.setattr(troparr.envelope, "_sides", lambda n, d, tree, marks: dict.fromkeys(troparr.core._bits(tree), 0))
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"n": 2, "d": 3, "apexes": [["0", "0", "0"], ["0", "0", "0"]]}))
    assert main(["subdivision", "--input", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: internal consistency violation: pivot walk visited 1 of 3 simplices of a 2x3 triangulation\n"
    )


@pytest.mark.parametrize("name", sorted(WALK_MUTANTS))
def test_a_walk_that_fails_its_certificate_exits_4(tmp_path, capsys, monkeypatch, name):
    # check reads a generic input's types off its walk, and subdivision
    # walks every shape with min(n, d) != 3: each stops at the first tree
    # the certificate refuses, names it and its edge at fault, and prints
    # nothing on stdout
    monkeypatch.setattr(troparr.envelope, "_pivot_walk", mutant(troparr.envelope._pivot_walk, *WALK_MUTANTS[name]))
    path = tmp_path / "generic.json"
    path.write_text(serialize_arrangement(random_generic_arrangement(random.Random(52), 4, 4), "json"))
    for command in ("check", "subdivision"):
        assert main([command, "--input", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"error: internal consistency violation: {UNCERTIFIED}\n", captured.err), captured.err


def _ray_elements(svg_text):
    root = ET.fromstring(svg_text)
    ns = "{http://www.w3.org/2000/svg}"
    lines = [el for el in root.iter(ns + "line")]
    circles = [el for el in root.iter(ns + "circle")]
    bold = [el for el in lines if "bold" in el.get("class", "")]
    return lines, circles, bold


def test_render_generic_and_nongeneric(tmp_path, capsys):
    rng = random.Random(101)
    generic = random_generic_arrangement(rng, 3, 3)
    gpath = tmp_path / "g.json"
    gpath.write_text(serialize_arrangement(generic, "json"))
    out = tmp_path / "g.svg"
    assert main(["render", "--input", str(gpath), "--out", str(out)]) == 0
    lines, circles, bold = _ray_elements(out.read_text())
    assert len(lines) == 9 and len(circles) == 3 and len(bold) == 0

    bad, victim, host, pair = nongeneric_on_ray(rng, 3)
    bpath = tmp_path / "b.json"
    bpath.write_text(serialize_arrangement(bad, "json"))
    bout = tmp_path / "b.svg"
    assert main(["render", "--input", str(bpath), "--out", str(bout)]) == 0
    lines, circles, bold = _ray_elements(bout.read_text())
    assert len(lines) == 9 and len(circles) == 3 and len(bold) >= 3
    capsys.readouterr()


def test_render_rejects_wrong_dimension(tmp_path, capsys, e1_file):
    assert main(["render", "--input", e1_file, "--format", "text", "--out", str(tmp_path / "x.svg")]) == 6
    capsys.readouterr()


def test_render_refuses_coordinates_beyond_float_range(tmp_path, capsys):
    # 10^400 overflows a float; 10^308 converts, but its rays would reach inf
    for big in ("1" + "0" * 400, "1" + "0" * 308):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 2, "d": 3, "apexes": [[big, "0", "0"], ["0", "0", "0"]]}))
        out = tmp_path / "big.svg"
        assert main(["render", "--input", str(path), "--out", str(out)]) == 6
        assert "hyperplane 1" in capsys.readouterr().err
        assert not out.exists()
        assert main(["check", "--input", str(path)]) == 0
        capsys.readouterr()
    # at the bound, on both sides, every number of the picture is finite
    limit = str(Fraction(sys.float_info.max) / 8)
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"n": 2, "d": 3, "apexes": [[limit, "-" + limit, "0"], ["-" + limit, limit, "0"]]}))
    out = tmp_path / "edge.svg"
    assert main(["render", "--input", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    root = ET.fromstring(out.read_text())
    numbers = [float(x) for x in root.get("viewBox").split()]
    numbers += [float(el.get(a)) for el in root for a in ("x1", "y1", "x2", "y2", "cx", "cy") if el.get(a)]
    assert len(numbers) == 4 + 4 * 6 + 2 * 2 and all(math.isfinite(x) for x in numbers)


def test_render_unwritable_path(capsys, e2_file, tmp_path):
    target = tmp_path / "missing_dir" / "x.svg"
    assert main(["render", "--input", e2_file, "--out", str(target)]) == 7
    capsys.readouterr()


def test_render_svg_is_well_formed(capsys, e2_file, tmp_path):
    arr = Arrangement.from_rows(E2_DOC["apexes"])
    svg = render_svg(arr, {2})
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    lines, circles, bold = _ray_elements(svg)
    assert len(lines) == 3 * arr.n and len(circles) == arr.n
    assert {(el.get("x1"), el.get("y1")) for el in bold} == {("1", "-1")}  # hyperplane 2's apex
    # apex 2 lies on a ray of hyperplane 1's fan, so render draws it bold
    out = tmp_path / "e2.svg"
    code, report = run(capsys, ["render", "--input", e2_file, "--out", str(out)])
    assert code == 0 and "bold: 3\n" in report
    assert out.read_text() == svg


def test_render_svg_writes_the_element_trees_bytes():
    # the text writer against ElementTree's serialisation of the same
    # elements: integer, rational and near-limit coordinates, n = 1..8
    rng = random.Random(50)
    limit = Fraction(sys.float_info.max) / 8
    zero = Arrangement.from_rows([[0, 0, 0]])
    assert 'y1="-0"' in render_svg(zero, set()) and render_svg(zero, {1}) == render_svg_oracle(zero, {1})
    for n in range(1, 9):
        for _ in range(30):
            arr = random_integer_arrangement(rng, n, 3)
            rational = random_arrangement(rng, n, 3)
            far = Arrangement.from_rows(
                [[limit * Fraction(rng.randint(-1000, 1000), 1000) for _ in range(2)] + [0] for _ in range(n)]
            )
            for a in (arr, rational, far):
                bold = {i for i in range(1, n + 1) if rng.random() < 0.5}
                assert render_svg(a, bold) == render_svg_oracle(a, bold), (a.rows(), bold)
    edge = Arrangement.from_rows([[limit, -limit, 0], [-limit, limit, 0]])
    assert render_svg(edge, {2}) == render_svg_oracle(edge, {2})


def test_digest_is_the_inputs_sha256():
    # padding and block edges of SHA-256's 64-byte blocks, a 1 MiB input
    # and bytes that are not UTF-8
    rng = random.Random(50)
    inputs = [rng.randbytes(size) for size in (0, 1, 55, 56, 63, 64, 65, 119, 120, 1 << 20)]
    inputs += [b"\xff\xfe\x80", "3 3\n1 2 3\n".encode("utf-16")]
    for raw in inputs:
        assert _digest(raw) == "sha256:" + hashlib.sha256(raw).hexdigest(), len(raw)


def test_digest_falls_back_to_hashlib_without_the_builtin_module():
    # an interpreter built without _sha2 and _sha256, as a None entry in
    # sys.modules makes their imports fail, takes hashlib's sha256
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
        f"sys.path.insert(0, {str(src)!r}); import hashlib, troparr.cli as cli; "
        "assert cli.sha256 is hashlib.sha256; print(cli._digest(b'abc'))"
    )
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout == "sha256:" + hashlib.sha256(b"abc").hexdigest() + "\n"


def test_seed_is_a_subdivision_option(capsys, e2_file, tmp_path):
    # only subdivision --flips samples perturbations
    for argv in (["check"], ["type-of", "--point", "1,1,0"], ["render", "--out", str(tmp_path / "x.svg")]):
        assert main(argv + ["--input", e2_file, "--seed", "1"]) == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_budget_is_an_option_where_types_are_enumerated(capsys, e2_file, tmp_path):
    # type-of and render enumerate no types
    for argv in (["type-of", "--point", "1,1,0"], ["render", "--out", str(tmp_path / "x.svg")]):
        assert main(argv + ["--input", e2_file, "--budget", "0"]) == 2
        assert "unrecognized arguments: --budget 0" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_reports_byte_identical_across_runs(capsys, e2_file):
    for argv in [
        ["type-of", "--input", e2_file, "--point", "1,1,0"],
        ["check", "--input", e2_file],
        ["subdivision", "--input", e2_file, "--flips", "--seed", "3"],
        ["check", "--input", e2_file, "--json"],
    ]:
        _, out1 = run(capsys, argv)
        _, out2 = run(capsys, argv)
        assert out1 == out2
