"""The bytes of every CLI report on a fixed set of inputs, pinned.

Each arrangement below is written out literally (none is drawn at test
time), and ``check``, ``subdivision`` and ``subdivision --flips`` at
``--seed 0`` and ``--seed 3`` each run on it as text and as ``--json``.
Exit code, stdout (the input path replaced by a placeholder) and stderr
of every run feed one SHA-256, pinned as :data:`REPORT_DIGEST`.  A change
that is meant to leave reports alone leaves the digest alone.  A change
that alters a report on purpose computes the new digest, updates the
constant, and records the change of report in CHANGES.md.

The text and JSON forms of a report are built by separate code, so the
same inputs also check that the two say the same thing, and that a
report pays for its one form only: a ``--json`` run builds no text, and
no cell sorts its edges twice.
"""

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import troparr.core
import troparr.duality
from troparr import CellGraph, GKZVector
from troparr.cli import main

# every row in the projective chart of its arrangement, as the CLI reads
# it: the doubly degenerate pentagon, the six-cycle wall, all-zero
# arrangements, then draws of each bench slice kind pasted as they came
ARRANGEMENTS = {
    "e1": [["0", "0"], ["-1", "0"]],
    "e2": [["0", "0", "0"], ["1", "1", "0"]],
    "doubly": [["0", "0", "0"], ["3", "1", "0"], ["1", "1", "0"]],
    "six_cycle": [["0", "0", "0"], ["0", "-1", "-200001/100000"], ["0", "1", "-1"], ["0", "0", "0"]],
    "tied_minor": [["3", "-2", "0"], ["0", "-4", "0"], ["-4", "-5", "0"], ["-1", "1", "0"]],
    "zero 2x3": [["0"] * 3] * 2,
    "zero 3x2": [["0"] * 2] * 3,
    "zero 3x3": [["0"] * 3] * 3,
    "zero 2x4": [["0"] * 4] * 2,
    "integer 3x3": [["2", "-2", "0"], ["2", "2", "0"], ["-2", "2", "0"]],
    "integer 4x3": [["1", "1", "-2"], ["-2", "-2", "1"], ["-1", "0", "-2"], ["1", "0", "2"]],
    "integer 3x4": [["2", "1", "-1", "1"], ["-1", "-1", "1", "1"], ["2", "2", "-1", "2"]],
    "integer 2x5": [["1", "0", "0", "2", "-1"], ["1", "1", "2", "-1", "0"]],
    "integer 5x3": [["-2", "0", "-1"], ["1", "-2", "1"], ["-1", "1", "-2"], ["-2", "-1", "-1"], ["-2", "-1", "-1"]],
    "integer_incident 3x3": [["-1", "0", "-2"], ["2", "1", "-1"], ["1", "1", "1"]],
    "integer_incident 4x3": [["0", "2", "-1"], ["0", "-1", "0"], ["-2", "-2", "1"], ["1", "2", "-1"]],
    "integer_incident 3x4": [["1", "-1", "0", "-2"], ["-2", "-2", "0", "-2"], ["-2", "2", "-2", "-2"]],
    "integer_incident 2x4": [["0", "2", "2", "1"], ["-1", "-1", "0", "0"]],
    "on_ray 3x3": [["193/66", "-2", "45/23"], ["-13/24", "-26/9", "-85/94"], ["193/66", "-4/3", "181/69"]],
    "on_ray 4x3": [
        ["-47/25", "-116/95", "1"],
        ["-33/49", "-1", "99/41"],
        ["-83/69", "-13/43", "-293/98"],
        ["2786/925", "-116/95", "218/37"],
    ],
    "on_ray 5x3": [
        ["-99/35", "240/83", "51/35"],
        ["-7/3", "15/28", "38/13"],
        ["-44/21", "-5/6", "-56/71"],
        ["223/95", "51/19", "-5/8"],
        ["4/5", "240/83", "178/35"],
    ],
    "on_apex 3x3": [["-19/33", "17/6", "-67/27"], ["-1/2", "33/38", "-9/7"], ["-19/33", "17/6", "-67/27"]],
    "on_apex 4x3": [
        ["-100/53", "-71/28", "9/7"],
        ["-179/64", "-89/85", "-8/5"],
        ["-39/20", "106/45", "53/26"],
        ["-100/53", "-71/28", "9/7"],
    ],
    "on_apex 5x3": [
        ["4/35", "115/59", "-177/68"],
        ["5/19", "-29/16", "-89/54"],
        ["75/46", "5/2", "53/68"],
        ["-93/37", "-77/51", "-59/49"],
        ["4/35", "115/59", "-177/68"],
    ],
    "rational 2x3": [["-135/68", "-3/29", "-1"], ["-61/31", "-5/59", "40/99"]],
    "rational 3x3": [["5/12", "43/26", "5/3"], ["63/29", "4/5", "62/23"], ["-79/84", "-21/22", "3"]],
    "rational 4x3": [
        ["-13/82", "19/7", "158/71"],
        ["29/10", "-107/40", "-2/7"],
        ["-3/10", "-2", "-33/25"],
        ["-35/46", "-5/7", "113/41"],
    ],
    "rational 4x4": [
        ["-137/47", "-13/20", "-17/25", "-1"],
        ["-59/41", "13/11", "31/44", "83/51"],
        ["-64/39", "-197/85", "-119/95", "141/49"],
        ["11/10", "-27/11", "-1", "-49/27"],
    ],
}

COMMANDS = [
    ["check"],
    ["subdivision"],
    ["subdivision", "--flips", "--seed", "0"],
    ["subdivision", "--flips", "--seed", "3"],
]

REPORT_DIGEST = "b33f7ef022a5ab778ebd6b92c8b8122ebf5a75c653784f1e77d425b5520d7469"


def run(path: str, command: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI run on ``path``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command[0], "--input", path, *command[1:]])
    return code, out.getvalue(), err.getvalue()


def write(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"n": len(rows), "d": len(rows[0]), "apexes": rows}, f)


def report_digest(path: str) -> str:
    """One SHA-256 over every report, each arrangement written in turn
    to ``path``."""
    digest = hashlib.sha256()
    for name, rows in ARRANGEMENTS.items():
        write(path, rows)
        for command in COMMANDS:
            for fmt in ([], ["--json"]):
                code, stdout, stderr = run(path, command + fmt)
                stdout = stdout.replace(path, "<input>")
                digest.update(f"{name}\0{command + fmt}\0{code}\0{stdout}\0{stderr}\0".encode())
    return digest.hexdigest()


def test_reports_are_byte_identical_to_the_pinned_digest(tmp_path, monkeypatch):
    # a relative path prints the same in text and JSON on every platform
    monkeypatch.chdir(tmp_path)
    assert report_digest("arrangement.json") == REPORT_DIGEST


#: E2, the doubly degenerate pentagon and a pinned on_apex 5x3 draw
ONCE = ["e2", "doubly", "on_apex 5x3"]
FLIPS = ["subdivision", "--flips"]


def test_json_flips_build_no_text(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def refused(*args):
        raise AssertionError("a --json report built a text form")

    for name in ONCE:
        write("arrangement.json", ARRANGEMENTS[name])
        expected = run("arrangement.json", FLIPS + ["--json"])
        assert expected[0] == 0 and '"triangulations"' in expected[1], name
        with monkeypatch.context() as patched:
            patched.setattr(CellGraph, "text", refused)
            patched.setattr(GKZVector, "entry", refused)
            assert run("arrangement.json", FLIPS + ["--json"]) == expected, name


def test_no_cell_sorts_its_edges_twice(tmp_path, monkeypatch):
    # every sort of a subdivision's cells (in duality) is recorded by the
    # object sorted, and none is sorted twice; a cell's edges are read off
    # its mask in order, so core sorts no edge tuple at all
    monkeypatch.chdir(tmp_path)
    edge_sets, cell_sets = [], []

    def recorder(kind, into):
        def recorded(items, **kwargs):
            if isinstance(next(iter(items), None), kind):
                into.append(items)
            return sorted(items, **kwargs)

        return recorded

    monkeypatch.setattr(troparr.core, "sorted", recorder(tuple, edge_sets), raising=False)
    monkeypatch.setattr(troparr.duality, "sorted", recorder(CellGraph, cell_sets), raising=False)
    for name in ONCE:
        write("arrangement.json", ARRANGEMENTS[name])
        for fmt in ([], ["--json"]):
            edge_sets.clear()
            cell_sets.clear()
            assert run("arrangement.json", FLIPS + fmt)[0] == 0, name
            assert cell_sets and not edge_sets, name
            assert len({id(x) for x in cell_sets}) == len(cell_sets), (name, fmt)


def edge_list(text: str) -> list[list[int]]:
    """``[(1,1),(1,2)]`` as the JSON report writes it, ``[[1, 1], [1, 2]]``."""
    return [[int(i), int(j)] for i, j in re.findall(r"\((\d+),(\d+)\)", text)]


def parse_flips(lines: list[str], d: int) -> dict:
    """The JSON results that the body of a text ``subdivision --flips``
    report states."""
    results: dict = {"cells": []}
    triangulations: list = []
    for line in lines:
        if line == "cells:":
            continue
        if line == "flips: arrangement is generic; subdivision is already a triangulation":
            results["flips"] = None
        elif line == "flips:":
            results["flips"] = {"triangulations": triangulations}
        elif m := re.fullmatch(r"  (\[.*\]) vol (\d+)", line):
            results["cells"].append({"edges": edge_list(m[1]), "volume": int(m[2])})
        elif m := re.fullmatch(r"  triangulation (\d+):", line):
            assert int(m[1]) == len(triangulations) + 1, line
            triangulations.append({"cells": []})
        elif m := re.fullmatch(r"    (\[.*\])", line):
            triangulations[-1]["cells"].append(edge_list(m[1]))
        elif m := re.fullmatch(r"  gkz (\d+): (.*)", line):
            assert int(m[1]) == len(triangulations), line
            entries = re.findall(r"\((\d+),(\d+)\)=(\d+)", m[2])
            assert [(int(i), int(j)) for i, j, _ in entries] == [(k // d + 1, k % d + 1) for k in range(len(entries))]
            triangulations[-1]["gkz"] = [int(v) for _, _, v in entries]
        elif m := re.fullmatch(r"face_dimension: (\d+)", line):
            results["flips"]["face_dimension"] = int(m[1])
        else:
            raise AssertionError(f"unparsed line {line!r}")
    return results


AXIOMS = ("boundary", "elimination", "comparability", "surrounding", "local_refinement")


def parse_check(lines: list[str]) -> dict:
    """The JSON results that the body of a text ``check`` report states."""
    fields = dict(line.split(": ", 1) for line in lines)
    assert len(fields) == len(lines) == 15, lines
    flag = {"true": True, "false": False}.__getitem__
    minor = None
    if fields["tied_minor"] != "none":
        m = re.fullmatch(r"rows ([\d,]+) columns ([\d,]+) matchings (\S+) (\S+)", fields["tied_minor"])
        minor = {
            "rows": [int(x) for x in m[1].split(",")],
            "columns": [int(x) for x in m[2].split(",")],
            "matchings": [edge_list(m[3]), edge_list(m[4])],
        }
    return {
        "n": int(fields["n"]),
        "d": int(fields["d"]),
        "generic": flag(fields["generic"]),
        "tied_minor": minor,
        "type_count": int(fields["types"]),
        "axioms": {name: fields[name].split()[0] for name in AXIOMS},
        "is_tom": flag(fields["is_tom"]),
        "triangulation": flag(fields["triangulation"]),
        "cell_count": int(fields["cells"]),
        "expected_simplices": int(fields["expected_simplices"]),
        "consistent": flag(fields["consistent"]),
    }


def both_forms(path: str, command: list[str]) -> tuple[list[str], dict] | None:
    """The text report's body lines and the ``--json`` report's results
    of one command, after checking that both runs exit alike and print
    the same status; None for an error exit, which prints its message
    only."""
    code, text, err = run(path, command)
    json_code, out, json_err = run(path, command + ["--json"])
    assert (json_code, json_err) == (code, err), command
    if not text:
        assert not out, command
        return None
    report = json.loads(out)
    lines = text.splitlines()
    assert lines[-1] == f"status: {report['status']}", command
    return lines[2:-1], report["results"]


def test_text_and_json_reports_agree(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, rows in ARRANGEMENTS.items():
        write("arrangement.json", rows)
        lines, results = both_forms("arrangement.json", ["check"])
        assert parse_check(lines) == results, name
        forms = both_forms("arrangement.json", FLIPS)
        if forms is not None:
            lines, results = forms
            assert parse_flips(lines, len(rows[0])) == results, name
