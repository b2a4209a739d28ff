"""The bytes of every CLI report on a fixed set of inputs, pinned.

Each arrangement below is written out literally (none is drawn at test
time), and ``check``, ``subdivision`` and ``subdivision --flips`` at
``--seed 0`` and ``--seed 3`` each run on it as text and as ``--json``.
Exit code, stdout (the input path replaced by a placeholder) and stderr
of every run feed one SHA-256, pinned as :data:`REPORT_DIGEST`.  A change
that is meant to leave reports alone leaves the digest alone.  A change
that alters a report on purpose computes the new digest, updates the
constant, and records the change of report in CHANGES.md.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

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

REPORT_DIGEST = "4438247e6479153d39153b4fc20f8221ad3b8cba83d48e1bbe8213ee7598e68e"


def report_digest(path: str) -> str:
    """One SHA-256 over every report, each arrangement written in turn
    to ``path``."""
    digest = hashlib.sha256()
    for name, rows in ARRANGEMENTS.items():
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"n": len(rows), "d": len(rows[0]), "apexes": rows}, f)
        for command in COMMANDS:
            for fmt in ([], ["--json"]):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main([command[0], "--input", path, *command[1:], *fmt])
                stdout = out.getvalue().replace(path, "<input>")
                digest.update(f"{name}\0{command + fmt}\0{code}\0{stdout}\0{err.getvalue()}\0".encode())
    return digest.hexdigest()


def test_reports_are_byte_identical_to_the_pinned_digest(tmp_path, monkeypatch):
    # a relative path prints the same in text and JSON on every platform
    monkeypatch.chdir(tmp_path)
    assert report_digest("arrangement.json") == REPORT_DIGEST
