"""Correctness gate for one benchmark operation.

Each check reads the CLI's JSON report and tests invariants that do not
rely on the code under test: simplex counts C(n+d-2, n-1), cell volumes
summing to that count, refinement by containment and volume, and GKZ
entries recounted from the listed simplices.  A gate returns
``(status, detail)``: ``OK``; ``ERROR`` when the program itself reported
a failure (non-zero exit); ``WRONG`` when it exited 0 with an answer
that breaks an invariant.
"""

from __future__ import annotations

from math import comb

OK, ERROR, WRONG = "ok", "error", "wrong"


def simplices(n: int, d: int) -> int:
    """Maximal simplices of any triangulation of the product of simplices
    Delta_{n-1} x Delta_{d-1}, each of normalized volume 1."""
    return comb(n + d - 2, n - 1)


def _edges(cell) -> frozenset[tuple[int, int]]:
    return frozenset((i, j) for i, j in cell)


def is_spanning_tree(n: int, d: int, edges: frozenset[tuple[int, int]]) -> bool:
    """n+d-1 edges joining all left nodes 1..n and right nodes 1..d."""
    if len(edges) != n + d - 1:
        return False
    parent = {("L", i): ("L", i) for i in range(1, n + 1)}
    parent.update({("R", j): ("R", j) for j in range(1, d + 1)})

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in edges:
        a, b = find(("L", i)), find(("R", j))
        if a == b:
            return False
        parent[a] = b
    return True


def check(n: int, d: int, code: int, report) -> tuple[str, str]:
    """CLI ``check``: exit 0, ``consistent``, and a triangulation has
    exactly C(n+d-2, n-1) cells."""
    if code != 0:
        return ERROR, f"exit {code}"
    res = report["results"]
    if not res["consistent"]:
        return WRONG, "exit 0 with consistent: false"
    if res["expected_simplices"] != simplices(n, d):
        return WRONG, f"expected_simplices {res['expected_simplices']} != {simplices(n, d)}"
    if res["triangulation"] and res["cell_count"] != simplices(n, d):
        return WRONG, f"triangulation with {res['cell_count']} cells"
    return OK, ""


def _coarse_cells(n: int, d: int, report) -> tuple[list, str]:
    cells = [(_edges(c["edges"]), c["volume"]) for c in report["results"]["cells"]]
    total = sum(vol for _, vol in cells)
    if any(vol < 1 for _, vol in cells) or total != simplices(n, d):
        return cells, f"cell volumes sum to {total}, not {simplices(n, d)}"
    return cells, ""


def envelope(n: int, d: int, code: int, report, regular_cells) -> tuple[str, str]:
    """CLI ``subdivision`` against the library's lower-envelope
    subdivision: the same cells, with volumes summing to C(n+d-2, n-1)."""
    if code != 0:
        return ERROR, f"exit {code}"
    cells, problem = _coarse_cells(n, d, report)
    if {edges for edges, _ in cells} != set(regular_cells):
        return WRONG, "dual subdivision differs from the regular subdivision"
    if problem:
        return WRONG, problem
    return OK, ""


def flips(n: int, d: int, code: int, report) -> tuple[str, str]:
    """CLI ``subdivision --flips`` on an arrangement with an apex on a
    proper fan face: a passing verdict whose triangulations each refine
    the coarse subdivision and carry recounted GKZ vectors."""
    if code != 0:
        return ERROR, f"exit {code}"
    coarse, problem = _coarse_cells(n, d, report)
    if problem:
        return WRONG, problem
    flip = report["results"]["flips"]
    big = max(vol for _, vol in coarse)
    if flip is None:
        return WRONG, f"reported generic, already a triangulation, next to a cell of volume {big}"
    tris = flip["triangulations"]
    if big == 1 or len(tris) < 2 or flip["face_dimension"] < 1:
        return WRONG, (
            f"verdict fails: largest cell volume {big}, {len(tris)} refinements, "
            f"face dimension {flip['face_dimension']}"
        )
    gkz_total = (n + d - 1) * simplices(n, d)
    for idx, t in enumerate(tris, 1):
        cells = [_edges(c) for c in t["cells"]]
        if len(cells) != simplices(n, d) or not all(is_spanning_tree(n, d, c) for c in cells):
            return WRONG, f"triangulation {idx} is not {simplices(n, d)} spanning trees"
        inside = [0] * len(coarse)
        for cell in cells:
            host = next((k for k, (edges, _) in enumerate(coarse) if cell <= edges), None)
            if host is None:
                return WRONG, f"triangulation {idx} has a simplex outside every coarse cell"
            inside[host] += 1
        if inside != [vol for _, vol in coarse]:
            return WRONG, f"triangulation {idx} does not refine the coarse cells by volume"
        recount = [
            sum((i, j) in c for c in cells) for i in range(1, n + 1) for j in range(1, d + 1)
        ]
        if t["gkz"] != recount or sum(t["gkz"]) != gkz_total:
            return WRONG, f"gkz {idx} is not the recounted vector with total {gkz_total}"
    return OK, ""
