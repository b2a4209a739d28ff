"""Command-line front end: arrangement files in, deterministic reports
and SVG pictures out.

Exit codes: 0 ok, 2 parse error, 3 dimension mismatch, 4 internal
consistency violation (always an implementation bug, never bad data),
5 budget exceeded, 6 unsupported render input, 7 I/O failure.

The input's digest comes from the interpreter's own SHA-256 module and
the SVG is written as text, so a run maps neither OpenSSL nor an XML
parser.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        # an interpreter built without its own SHA-256 module
        from hashlib import sha256

from .core import Arrangement, ResourceLimitError, parse_rational
from .duality import check_correspondence, dual_subdivision
from .geometry import type_of_point
from .secondary import secondary_face_check

OK, PARSE, DIMENSION, INCONSISTENT, BUDGET, RENDER, IO = 0, 2, 3, 4, 5, 6, 7


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _ascii_int(text: str) -> int:
    """int() of ASCII digits only: int() alone reads "٢" as 2 and "1_0" as 10."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def parse_arrangement_text(data: str) -> Arrangement:
    """Plain matrix form: first line "n d", then n rows of d rationals."""
    lines = [ln for ln in data.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty arrangement file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("first line must be 'n d'")
    n, d = (_ascii_int(x) for x in header)
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows after the header, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != d:
            raise ValueError(f"row {ln!r} does not have {d} entries")
        rows.append([parse_rational(p) for p in parts])
    return Arrangement.from_rows(rows)


def parse_arrangement_json(data: str) -> Arrangement:
    """JSON document with keys n, d and apexes (rationals as strings)."""
    doc = json.loads(data)
    if not isinstance(doc, dict):
        raise ValueError("arrangement file must be a JSON object")
    try:
        n, d, apexes = doc["n"], doc["d"], doc["apexes"]
    except KeyError as missing:
        raise ValueError(f"missing key {missing}")
    if any(not isinstance(x, int) or isinstance(x, bool) for x in (n, d)):
        raise ValueError("n and d must be integers")
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    if not isinstance(apexes, list) or len(apexes) != n:
        raise ValueError("apexes must list n rows")
    rows = []
    for row in apexes:
        if not isinstance(row, list) or len(row) != d:
            raise ValueError("every apex row must list d entries")
        coords = []
        for x in row:
            if isinstance(x, str):
                coords.append(parse_rational(x))
            elif isinstance(x, int) and not isinstance(x, bool):
                coords.append(Fraction(x))
            else:
                raise ValueError(f"coordinates must be strings or integers, got {x!r}")
        rows.append(coords)
    return Arrangement.from_rows(rows)


def load_arrangement(path: str, fmt: str) -> tuple[Arrangement, bytes]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliError(IO, f"cannot read {path}: {exc}")
    try:
        text = raw.decode("utf-8")
        if fmt == "text":
            arr = parse_arrangement_text(text)
        else:
            arr = parse_arrangement_json(text)
    except (ValueError, TypeError, RecursionError) as exc:
        # json.loads recurses once per nesting level
        raise CliError(PARSE, f"cannot parse {path}: {exc}")
    return arr, raw


def _digest(raw: bytes) -> str:
    return "sha256:" + sha256(raw).hexdigest()


def _axiom_line(name: str, result) -> str:
    if result.passed:
        return f"{name}: pass"
    detail = result.counterexample
    if name == "boundary":
        return f"{name}: fail missing {list(detail)}"
    if name == "elimination":
        A, B, j = detail
        return f"{name}: fail A={A.text()} B={B.text()} j={j}"
    if name == "comparability":
        A, B = detail
        return f"{name}: fail A={A.text()} B={B.text()}"
    if name == "surrounding":
        T, P = detail
        return f"{name}: fail T={T.text()} P={P.text()}"
    T, i, k = detail
    return f"{name}: fail T={T.text()} i={i} k={k}"


def _cmd_type_of(arr: Arrangement, args) -> tuple[int, list[str] | dict]:
    parts = args.point.split(",")
    try:
        coords = [parse_rational(p) for p in parts]
    except ValueError as exc:
        raise CliError(PARSE, f"bad point: {exc}")
    if len(coords) != arr.d:
        raise CliError(DIMENSION, f"point has {len(coords)} coordinates, need {arr.d}")
    text = type_of_point(arr, coords).text()
    return OK, {"type": text} if args.json else [f"type: {text}"]


_AXIOMS = ("boundary", "elimination", "comparability", "surrounding", "local_refinement")


def _cmd_check(arr: Arrangement, args) -> tuple[int, list[str] | dict]:
    verdict = check_correspondence(arr, args.budget)
    code = OK if verdict.consistent else INCONSISTENT
    minor = verdict.genericity.minor
    ax = verdict.axiom_report
    if args.json:
        return code, {
            "n": arr.n,
            "d": arr.d,
            "generic": verdict.generic,
            "tied_minor": None if minor is None else minor._asdict(),
            "type_count": verdict.type_count,
            "axioms": {name: "pass" if getattr(ax, name).passed else "fail" for name in _AXIOMS},
            "is_tom": ax.is_tom,
            "triangulation": verdict.triangulation,
            "cell_count": verdict.cell_count,
            "expected_simplices": verdict.expected_simplices,
            "consistent": verdict.consistent,
        }
    lines = [f"n: {arr.n}", f"d: {arr.d}", f"generic: {str(verdict.generic).lower()}"]
    if minor is None:
        lines.append("tied_minor: none")
    else:
        matchings = " ".join("".join(f"({i},{j})" for i, j in m) for m in minor.matchings)
        lines.append(
            f"tied_minor: rows {','.join(map(str, minor.rows))} "
            f"columns {','.join(map(str, minor.columns))} matchings {matchings}"
        )
    lines.append(f"types: {verdict.type_count}")
    lines.extend(_axiom_line(name, getattr(ax, name)) for name in _AXIOMS)
    lines.append(f"is_tom: {str(ax.is_tom).lower()}")
    lines.append(f"triangulation: {str(verdict.triangulation).lower()}")
    lines.append(f"cells: {verdict.cell_count}")
    lines.append(f"expected_simplices: {verdict.expected_simplices}")
    lines.append(f"consistent: {str(verdict.consistent).lower()}")
    return code, lines


def _edge_lists(g) -> list[list[int]]:
    return [list(e) for e in g.sorted_edges()]


def _cmd_subdivision(arr: Arrangement, args) -> tuple[int, list[str] | dict]:
    verdict = secondary_face_check(arr, seed=args.seed, budget=args.budget) if args.flips else None
    sub = verdict.subdivision if args.flips else dual_subdivision(arr, args.budget)
    if args.json:
        results: dict = {"cells": [{"edges": _edge_lists(g), "volume": sub.volumes[g]} for g in sub.sorted_cells()]}
        if args.flips:
            results["flips"] = None if verdict.face_dimension == 0 else {
                "triangulations": [
                    {"cells": [_edge_lists(g) for g in t.sorted_cells()], "gkz": list(gkz.values)}
                    for t, gkz in zip(verdict.refinements, verdict.gkz_vectors)
                ],
                "face_dimension": verdict.face_dimension,
            }
        return OK, results
    lines = ["cells:"]
    lines.extend(f"  {g.text()} vol {sub.volumes[g]}" for g in sub.sorted_cells())
    if args.flips:
        if verdict.face_dimension == 0:
            lines.append("flips: arrangement is generic; subdivision is already a triangulation")
        else:
            lines.append("flips:")
            for idx, (t, gkz) in enumerate(zip(verdict.refinements, verdict.gkz_vectors), 1):
                lines.append(f"  triangulation {idx}:")
                lines.extend(f"    {g.text()}" for g in t.sorted_cells())
                entries = " ".join(f"({k // arr.d + 1},{k % arr.d + 1})={v}" for k, v in enumerate(gkz.values))
                lines.append(f"  gkz {idx}: {entries}")
            lines.append(f"face_dimension: {verdict.face_dimension}")
    return OK, lines


def render_svg(arr: Arrangement, bold: set[int]) -> str:
    """SVG picture of a d=3 arrangement: per hyperplane, three rays from
    the planar apex (v_i1 - v_i3, v_i2 - v_i3) in directions (1,1),
    (0,-1), (-1,0); the hyperplanes whose indices (1-based) are in
    ``bold`` are drawn bold."""
    xs = [float(p[0] - p[2]) for p in arr.apexes]
    ys = [float(p[1] - p[2]) for p in arr.apexes]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    margin = 0.2 * span
    ray_len = 3.0 * span
    lo_x, hi_x = min(xs) - margin, max(xs) + margin
    lo_y, hi_y = min(ys) - margin, max(ys) + margin
    # y axis points down in SVG; mirror so larger coordinates draw upward
    view = " ".join(f"{v:.6g}" for v in (lo_x, -hi_y, hi_x - lo_x, hi_y - lo_y))
    thin = f"{span / 150:.6g}"
    thick = f"{span / 50:.6g}"
    radius = f"{span / 40:.6g}"
    # every value written is a :.6g number or a fixed word: nothing to escape
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view}" width="640" height="640">']
    directions = ((1.0, 1.0), (0.0, -1.0), (-1.0, 0.0))
    for i, (ax, ay) in enumerate(zip(xs, ys), 1):
        cls, width = ("ray bold", thick) if i in bold else ("ray", thin)
        parts.extend(
            f'<line class="{cls}" x1="{ax:.6g}" y1="{-ay:.6g}" x2="{ax + ray_len * dx:.6g}" '
            f'y2="{-(ay + ray_len * dy):.6g}" stroke="#000000" stroke-width="{width}" />'
            for dx, dy in directions
        )
    parts.extend(
        f'<circle class="apex" cx="{ax:.6g}" cy="{-ay:.6g}" r="{radius}" fill="#000000" />' for ax, ay in zip(xs, ys)
    )
    parts.append("</svg>\n")
    return "".join(parts)


def _cmd_render(arr: Arrangement, args) -> tuple[int, list[str] | dict]:
    if arr.d != 3:
        raise CliError(RENDER, f"rendering needs d=3, got d={arr.d}")
    # rays run 3 spans from their apex, so no number the picture writes
    # exceeds 7 times the largest planar coordinate: 1/8 of the float
    # range keeps them all finite
    limit = Fraction(sys.float_info.max) / 8
    for i, p in enumerate(arr.apexes, 1):
        if max(abs(p[0] - p[2]), abs(p[1] - p[2])) > limit:
            raise CliError(
                RENDER, f"cannot render hyperplane {i}: a planar apex coordinate exceeds {float(limit):.6g}"
            )
    # hyperplane i is bold when its apex lies on a proper face of another
    # hyperplane's fan: another entry of the apex's type has two labels
    bold = {
        i
        for i in range(1, arr.n + 1)
        if any(mask & mask - 1 for k, mask in enumerate(type_of_point(arr, arr.apex(i)).masks, 1) if k != i)
    }
    svg = render_svg(arr, bold)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise CliError(IO, f"cannot write {args.out}: {exc}")
    if args.json:
        return OK, {"svg": args.out, "rays": 3 * arr.n, "bold": 3 * len(bold)}
    return OK, [f"svg: {args.out}", f"rays: {3 * arr.n}", f"bold: {3 * len(bold)}"]


def _int_option(text: str) -> int:
    """An integer option in ASCII digits (:func:`_ascii_int`); other text
    keeps argparse's "invalid int value" message."""
    try:
        return _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _budget(text: str) -> int:
    """A non-negative ``--budget`` (:func:`_int_option`)."""
    budget = _int_option(text)
    if budget < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {budget}")
    return budget


def _is_rational_list(text: str) -> bool:
    try:
        for part in text.split(","):
            parse_rational(part)
    except ValueError:
        return False
    return True


def _joined_points(argv: list[str]) -> list[str]:
    """``type-of`` arguments with each ``--point`` whose value starts with
    "-" and is a comma-separated list of rationals joined into one
    ``--point=<value>`` argument; argparse would read the value as an
    option and report it missing."""
    if argv[:1] != ["type-of"]:
        return argv
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--point" and arg.startswith("-") and _is_rational_list(arg):
            out[-1] = f"--point={arg}"
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="troparr",
        description="Exact combinatorics of max-plus hyperplane arrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--input", required=True, help="arrangement file")
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--json", action="store_true", help="emit a JSON report")

    def budget(sp, text="cap on the types the type enumeration builds"):
        sp.add_argument("--budget", type=_budget, default=None, help=text)

    sp = sub.add_parser("type-of", help="type of a point")
    common(sp)
    sp.add_argument("--point", required=True, help="comma-separated rational coordinates")

    sp = sub.add_parser("check", help="genericity, axioms and correspondence")
    common(sp)
    budget(sp)

    sp = sub.add_parser("subdivision", help="dual subdivision (and flips)")
    common(sp)
    budget(sp, "cap on the pivot walk's trees, C(n+d-2, n-1) per walk, shared by every walk of one --flips run")
    sp.add_argument("--seed", type=_int_option, default=0, help="seed for the perturbations --flips samples")
    sp.add_argument("--flips", action="store_true", help="refining triangulations and GKZ data")

    sp = sub.add_parser("render", help="SVG picture (d=3 only)")
    common(sp)
    sp.add_argument("--out", required=True, help="output SVG path")

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves no state in it, so
    :func:`main` builds it on its first call only."""
    return build_parser()


#: Each handler returns its exit code and only the form :func:`main`
#: prints: the JSON results under ``--json``, the text lines otherwise.
_HANDLERS = {
    "type-of": _cmd_type_of,
    "check": _cmd_check,
    "subdivision": _cmd_subdivision,
    "render": _cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(_joined_points(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        arr, raw = load_arrangement(args.input, args.format)
        code, body = _HANDLERS[args.command](arr, args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET
    except RuntimeError as exc:
        print(f"error: internal consistency violation: {exc}", file=sys.stderr)
        return INCONSISTENT
    command = [args.command] + argv[1:]
    status = "ok" if code == OK else f"exit {code}"
    try:
        if args.json:
            report = {"command": command, "input": _digest(raw), "results": body, "status": status}
            print(json.dumps(report, sort_keys=True))
        else:
            print(f"command: {' '.join(command)}")
            print(f"input: {_digest(raw)}")
            for line in body:
                print(line)
            print(f"status: {status}")
        sys.stdout.flush()
    except OSError as exc:
        _discard_stdout()
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return IO
    return code


def _discard_stdout() -> None:
    """Point the file descriptor under a stdout that failed at the null
    device, so the interpreter's flush at exit writes what is left there
    instead of failing a second time with a traceback."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no descriptor, so nothing is flushed to one at exit
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def entrypoint() -> None:
    sys.exit(main())
