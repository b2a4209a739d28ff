import json
import random
import xml.etree.ElementTree as ET

import pytest

import troparr.axioms
import troparr.duality
import troparr.geometry
import troparr.secondary
from troparr import Arrangement
from troparr.cli import (
    main,
    parse_arrangement_json,
    parse_arrangement_text,
    render_svg,
    serialize_arrangement,
)

from conftest import nongeneric_on_ray, random_arrangement, random_generic_arrangement

E2_DOC = {"n": 2, "d": 3, "apexes": [["0", "0", "0"], ["1", "1", "0"]]}


@pytest.fixture
def e2_file(tmp_path):
    path = tmp_path / "e2.json"
    path.write_text(json.dumps(E2_DOC))
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


def test_cmd_type_of(capsys, e2_file):
    code, out = run(capsys, ["type-of", "--input", e2_file, "--point", "1,1,0"])
    assert code == 0
    assert "type: ({1,2},{1,2,3})" in out

    code, out = run(capsys, ["type-of", "--input", e2_file, "--point", "0,0,0"])
    assert code == 0
    assert "type: ({1,2,3},{3})" in out


def test_cmd_type_of_errors(capsys, e2_file):
    assert main(["type-of", "--input", e2_file, "--point", "1,x"]) == 2
    assert main(["type-of", "--input", e2_file, "--point", "1,2"]) == 3
    capsys.readouterr()


def test_cmd_check_e1(capsys, e1_file):
    code, out = run(capsys, ["check", "--input", e1_file, "--format", "text"])
    assert code == 0
    assert "generic: true" in out
    assert "types: 5" in out
    assert "is_tom: true" in out
    assert "triangulation: true" in out
    assert "consistent: true" in out


def test_cmd_check_e2(capsys, e2_file):
    code, out = run(capsys, ["check", "--input", e2_file])
    assert code == 0
    assert "generic: false" in out
    assert "apex 2: type ({1,2},{1,2,3}) total 5 bound 4 offending [1]" in out
    assert "local_refinement: fail" in out
    assert "triangulation: false" in out
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


def test_cmd_subdivision_flips_on_generic(tmp_path, capsys):
    rng = random.Random(77)
    arr = random_generic_arrangement(rng, 2, 3)
    path = tmp_path / "gen.json"
    path.write_text(serialize_arrangement(arr, "json"))
    code, out = run(capsys, ["subdivision", "--input", str(path), "--flips"])
    assert code == 0
    assert "generic" in out and "flips" in out


def test_one_enumeration_of_the_input(monkeypatch, capsys, e2, e2_file):
    calls = []
    original = troparr.duality.enumerate_realizations

    def counted(arr, *args, **kwargs):
        if arr == e2:
            calls.append(arr)
        return original(arr, *args, **kwargs)

    monkeypatch.setattr(troparr.duality, "enumerate_realizations", counted)
    for argv in (["subdivision", "--flips"], ["check"]):
        calls.clear()
        assert main(argv + ["--input", e2_file]) == 0
        assert len(calls) == 1, argv
    capsys.readouterr()


def test_flips_enumerate_once_per_distinct_subdivision(monkeypatch, capsys, e2_file):
    # the input once, then one perturbation per distinct lower envelope
    enumerations, envelopes = [], []
    enumerate_realizations = troparr.duality.enumerate_realizations
    regular_subdivision = troparr.secondary.regular_subdivision

    def counted(arr, *args, **kwargs):
        enumerations.append(arr)
        return enumerate_realizations(arr, *args, **kwargs)

    def recorded(weights):
        envelopes.append(regular_subdivision(weights))
        return envelopes[-1]

    monkeypatch.setattr(troparr.duality, "enumerate_realizations", counted)
    monkeypatch.setattr(troparr.secondary, "regular_subdivision", recorded)
    assert main(["subdivision", "--flips", "--input", e2_file]) == 0
    assert "triangulation 2:" in capsys.readouterr().out
    assert len(enumerations) == 1 + len(set(envelopes))
    assert len(set(envelopes)) < len(envelopes)


def test_envelope_disagreement_exits_4(monkeypatch, capsys, e2_file):
    # a perturbation whose lower envelope is the input's own coarse
    # subdivision cannot match its dual subdivision
    coarse = troparr.duality.dual_subdivision(Arrangement.from_rows(E2_DOC["apexes"]))
    monkeypatch.setattr(troparr.secondary, "regular_subdivision", lambda weights: coarse)
    assert main(["subdivision", "--flips", "--input", e2_file]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: internal consistency violation: "
        "perturbation's dual subdivision differs from its lower envelope\n"
    )


def test_budget_exit(capsys, e2_file, monkeypatch):
    assert main(["check", "--input", e2_file, "--budget", "3"]) == 5
    assert capsys.readouterr().err == "error: type enumeration: 4 feasibility steps exceed budget 3\n"
    monkeypatch.setattr(troparr.axioms, "MAX_SURROUNDING_WORK", 100)
    assert main(["check", "--input", e2_file]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: surrounding: ") and "x 13 ordered partitions of d=3" in err



def test_large_d_exits_5_before_enumerating(tmp_path, capsys, monkeypatch):
    # 2 x 30: 2(2^30-1) feasibility steps at least, refused before any
    # candidate entry is generated
    monkeypatch.setattr(troparr.geometry, "_cliques", None)
    path = tmp_path / "wide.txt"
    path.write_text("2 30\n" + " ".join(str(j % 3) for j in range(30)) + "\n" + " ".join(str(j % 5) for j in range(30)) + "\n")
    for argv in (["check"], ["subdivision"], ["subdivision", "--flips"]):
        assert main(argv + ["--format", "text", "--input", str(path)]) == 5
        assert capsys.readouterr().err == "error: type enumeration: 200001 feasibility steps exceed budget 200000\n"

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
    # 769 types x 47293 ordered partitions of d=7: refused before elimination runs
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
    assert capsys.readouterr().err.startswith("error: surrounding: 769 types x 47293 ordered partitions of d=7")
    assert calls == []


def test_internal_inconsistency_exits_4(tmp_path, capsys, monkeypatch):
    # the flat arrangement's one cell is the whole product, so its volume
    # comes from a pivot walk over the full support, which checks its count
    monkeypatch.setattr(troparr.duality, "_side", lambda tree, a, b: set())
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"n": 2, "d": 3, "apexes": [["0", "0", "0"], ["0", "0", "0"]]}))
    assert main(["subdivision", "--input", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: internal consistency violation: pivot walk visited 1 of 3 simplices of a 2x3 triangulation\n"
    )


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


def test_render_unwritable_path(capsys, e2_file, tmp_path):
    target = tmp_path / "missing_dir" / "x.svg"
    assert main(["render", "--input", e2_file, "--out", str(target)]) == 7
    capsys.readouterr()


def test_render_svg_is_well_formed(e2_file):
    arr = Arrangement.from_rows(E2_DOC["apexes"])
    svg = render_svg(arr)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    lines, circles, bold = _ray_elements(svg)
    assert len(lines) == 3 * arr.n and len(circles) == arr.n
    assert len(bold) == 3  # hyperplane 2 is the non-generic one


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
