"""Shared fixtures: the two worked example arrangements, random
arrangement generators, and independent oracles (sampling; exact rank,
determinant and secondary-face dimension via sympy; genericity, tied
minors and matching gaps by square minors; apex types and the fan faces
apexes lie on; direct scans, the validated comparability graph and the
replaced pairwise kernels for the axiom checks with the packed
Warshall closure they share; a direct scan for the lower envelope and
the pivot walk as it was, which pins the walk's order of cells; the
dual subdivision as a validated subdivision of the enumeration's
0-dimensional types; the feasibility DFS on Fraction coordinates; the
safe radius and flips by enumerating the types of every perturbation
within it; the per-cell walks against the lower envelope of the moved
apexes, with the cone test against the walks; the integer lift against
each matching pair's worst step; the replaced cell traversals, a flood
fill for components, a dict-forest search for tied minors, a potential
search for cones and a side scan for fundamental cycles, against the
union-find forest and its root-path masks; the Fraction moves of the
perturbations against the scaled int moves; every generated entry of
the type enumeration imposed; the vertex walk, which reads the
0-dimensional types off the type enumeration's walk, for the dual
subdivision, with its closed-form last two hyperplanes against imposing
every entry of the last three; the SVG picture as ``xml.etree.ElementTree``
writes it, for the CLI's text writer) used to cross-check the main code paths, the set of all types as
a helper over ``enumerate_realizations``, library functions recompiled
with one line broken, for the certificates to catch, and the ``--grid``
option that adds the larger exhaustive grids."""

from __future__ import annotations

import __future__
import inspect
import json
import random
import textwrap
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial, reduce
from itertools import combinations, permutations
from math import comb, lcm
from operator import and_, or_
from typing import Iterable, Iterator, Sequence

import pytest
import sympy

from troparr import (
    Arrangement,
    CellGraph,
    CheckResult,
    OrderedPartition,
    ProjectivePoint,
    RealizationResult,
    Subdivision,
    TiedMinor,
    TypeVector,
    cell_dim,
    check_correspondence,
    dual_subdivision,
    enumerate_ordered_partitions,
    enumerate_realizations,
    is_triangulation,
    realizable,
    refines,
    regular_subdivision,
    type_of_point,
)
from troparr.core import _bits, _integer_rows
from troparr.envelope import _cycle_masks, _forest, _pivot_walk, _sides, _tied_minor
from troparr.geometry import _Feasibility
from troparr.duality import is_spanning_connected
from troparr.linalg import rank
from troparr.secondary import _cone, _in_cone, _moved, _scaled_rows


def mutant(func, old: str, new: str):
    """``func`` recompiled from its source with the text ``old``, which
    must occur in it exactly once, replaced by ``new``, and bound to its
    own module's globals: a deliberately broken copy, which a test puts
    in its place with ``monkeypatch``."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, old
    flags = __future__.annotations.compiler_flag
    code = compile(source.replace(old, new), inspect.getsourcefile(func), "exec", flags=flags, dont_inherit=True)
    namespace: dict = {}
    exec(code, func.__globals__, namespace)
    return namespace[func.__name__]


#: Mutants of ``envelope._pivot_walk`` that its certificate must catch:
#: a pivot that raises the side to the second-least entering slack where
#: two edges or more enter it, which leaves the least one below 0; a
#: start vertex whose every coordinate potential is one unit above, or
#: below, the tightest feasible one, which leaves a tree edge below or
#: above 0; and a pivot that raises the side right but puts the next
#: edge in the tree, which leaves an edge off the tree at 0.
LEAST = "k = (entering & -entering).bit_length() - 1"
START = "p[b], bit = min((p[x] + h, bit) for x, h, bit in near[b] if x in p)"
PIVOT = "pivot = key ^ 1 << e | edge_bit[k]"
WALK_MUTANTS = {
    "second-least pivot": (
        LEAST, "k = sorted(_bits(entering), key=slack.__getitem__)[entering & entering - 1 != 0]; entering = 0"
    ),
    "start one above": (START, START + "; p[b] += 1"),
    "start one below": (START, START + "; p[b] -= 1"),
    "pivot to the next edge": (PIVOT, "pivot = key ^ 1 << e | edge_bit[(k + 1) % m]"),
}

#: What the certificate raises on a tree that fails it.
UNCERTIFIED = r"pivot walk: edge \(\d+,\d+\) (of|off) tree \[(\(\d+,\d+\),?)+\] has slack -?\d+"


def pytest_addoption(parser):
    parser.addoption(
        "--grid",
        action="store_true",
        default=False,
        help="also run the larger exhaustive grids (tests marked large_grid)",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "large_grid: an exhaustive grid run only under --grid")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--grid", default=False):
        return
    skip = pytest.mark.skip(reason="larger grid; run with --grid")
    for item in items:
        if "large_grid" in item.keywords:
            item.add_marker(skip)


def serialize_arrangement(arr: Arrangement, fmt: str = "json") -> str:
    """An arrangement file in the CLI's JSON or plain text form."""
    if fmt == "json":
        doc = {
            "n": arr.n,
            "d": arr.d,
            "apexes": [[str(x) for x in row] for row in arr.rows()],
        }
        return json.dumps(doc, sort_keys=True) + "\n"
    if fmt == "text":
        lines = [f"{arr.n} {arr.d}"]
        lines += [" ".join(str(x) for x in row) for row in arr.rows()]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def enumerate_types(arr: Arrangement, budget: int | None = None) -> frozenset[TypeVector]:
    """The set of all realizable types of the arrangement."""
    return frozenset(enumerate_realizations(arr, budget))


def type_total_size(T: TypeVector) -> int:
    """Total number of labels summed over the entries."""
    return sum(len(e) for e in T.entries)


def gkz_as_dict(g) -> dict[tuple[int, int], int]:
    """A GKZ vector as {(i, j): entry}."""
    return {(i, j): g.entry(i, j) for i in range(1, g.n + 1) for j in range(1, g.d + 1)}


def gkz_total(g) -> int:
    return sum(g.values)


def face_check_passes(verdict) -> bool:
    """A secondary-face verdict with two refinements at least and a face
    of positive dimension."""
    return verdict.refinement_count >= 2 and verdict.face_dimension >= 1


@pytest.fixture
def e1() -> Arrangement:
    # two hyperplanes on a projective line; both apexes generic
    return Arrangement.from_rows([[0, 0], [-1, 0]])


@pytest.fixture
def e2() -> Arrangement:
    # second apex sits on the {1,2}-ray of the first hyperplane's fan
    return Arrangement.from_rows([[0, 0, 0], [1, 1, 0]])


def random_rational(rng: random.Random, max_den: int = 100, span: int = 3) -> Fraction:
    q = rng.randint(1, max_den)
    p = rng.randint(-span * q, span * q)
    return Fraction(p, q)


def random_arrangement(rng: random.Random, n: int, d: int, max_den: int = 100) -> Arrangement:
    return Arrangement.from_rows(
        [[random_rational(rng, max_den) for _ in range(d)] for _ in range(n)]
    )


def random_integer_arrangement(rng: random.Random, n: int, d: int, span: int = 2) -> Arrangement:
    """Small-integer grid draw, entries in [-span, span]; often degenerate."""
    return Arrangement.from_rows([[rng.randint(-span, span) for _ in range(d)] for _ in range(n)])


def genericity_oracle(rows) -> bool:
    """Every square minor of the apex matrix has a min-plus tropical
    determinant attained by exactly one permutation (no pivot walk)."""
    n, d = len(rows), len(rows[0])
    for size in range(2, min(n, d) + 1):
        perms = list(permutations(range(size)))
        for rsel in combinations(range(n), size):
            for csel in combinations(range(d), size):
                sums = sorted(sum(rows[rsel[a]][csel[p[a]]] for a in range(size)) for p in perms)
                if sums[0] == sums[1]:
                    return False
    return True


def minor_ties(rows, minor) -> bool:
    """Whether ``minor`` names two distinct perfect matchings of its rows
    and columns (1-based) that both reach the minor's smallest
    permutation sum, found by trying every permutation."""
    I, J, matchings = minor
    if len(I) != len(J) or len(set(matchings)) != 2:
        return False
    for m in matchings:
        if sorted(i for i, _ in m) != list(I) or sorted(j for _, j in m) != list(J):
            return False
    least = min(sum(rows[i - 1][j - 1] for i, j in zip(I, p)) for p in permutations(J))
    return all(sum(rows[i - 1][j - 1] for i, j in m) == least for m in matchings)


def random_generic_arrangement(rng: random.Random, n: int, d: int) -> Arrangement:
    while True:
        arr = random_arrangement(rng, n, d)
        if genericity_oracle(arr.rows()):
            return arr


def apex_type(arr: Arrangement, i: int) -> TypeVector:
    """Type of hyperplane i's own apex; its i-th entry is all of {1..d}."""
    return type_of_point(arr, arr.apex(i))


def offending_positions(arr: Arrangement, i: int) -> tuple[int, ...]:
    """The hyperplanes other than i whose entry in apex i's type has two or
    more labels: apex i lies on a proper face of each one's fan, which
    ties a 2x2 minor.  The type's total exceeds n + d - 1 by the extra
    labels."""
    return tuple(k for k, entry in enumerate(apex_type(arr, i).entries, 1) if k != i and len(entry) >= 2)


def offending_apexes(arr: Arrangement) -> set[int]:
    """The apexes that lie on a proper face of another hyperplane's fan."""
    return {i for i in range(1, arr.n + 1) if offending_positions(arr, i)}


def nongeneric_on_ray(rng: random.Random, n: int, d: int = 3, tries: int = 1000):
    """Arrangement whose last apex lies strictly on the {j,k}-face of
    hyperplane 1's fan (a ray when d = 3), all other incidences generic.

    For d >= 4 the host apex then lies on the victim's face of the other
    d-2 labels as well, so that mutual incidence is the one other
    non-generic apex allowed.  Returns (arrangement, victim_index, host_index,
    tied_label_pair).
    """
    host = 1
    expected_bad = {n} if d == 3 else {host, n}
    for _ in range(tries):
        base = [
            [random_rational(rng) for _ in range(d)] for _ in range(n - 1)
        ]
        j, k = sorted(rng.sample(range(1, d + 1), 2))
        t = Fraction(rng.randint(1, 200), rng.randint(1, 50))
        victim = list(base[host - 1])
        victim[j - 1] += t
        victim[k - 1] += t
        arr = Arrangement.from_rows(base + [victim])
        if offending_apexes(arr) != expected_bad:
            continue
        T = apex_type(arr, n)
        if T.entry(host) != frozenset((j, k)):
            continue
        if any(len(T.entry(i)) != 1 for i in range(1, n) if i != host):
            continue
        return arr, n, host, (j, k)
    raise RuntimeError(f"no on-ray arrangement found for n={n}, d={d} in {tries} tries")


def nongeneric_on_apex(rng: random.Random, n: int, d: int = 3):
    """Arrangement whose last apex coincides with hyperplane 1's apex (a
    0-dimensional fan face).  Returns (arrangement, victim, host)."""
    host = 1
    while True:
        base = [[random_rational(rng) for _ in range(d)] for _ in range(n - 1)]
        arr = Arrangement.from_rows(base + [list(base[host - 1])])
        T = apex_type(arr, n)
        if T.entry(host) != frozenset(range(1, d + 1)):
            continue
        if any(len(T.entry(i)) != 1 for i in range(2, n)):
            continue
        return arr, n, host


def integer_incident(rng: random.Random, n: int, d: int, span: int = 2) -> Arrangement:
    """Small-integer draw, entries in [-span, span], with some apex on a
    proper face of another hyperplane's fan."""
    while True:
        arr = random_integer_arrangement(rng, n, d, span)
        if offending_apexes(arr):
            return arr


def sample_point(rng: random.Random, arr: Arrangement, den: int = 997) -> ProjectivePoint:
    coords = []
    los = [min(p.coords[j] for p in arr.apexes) for j in range(arr.d)]
    his = [max(p.coords[j] for p in arr.apexes) for j in range(arr.d)]
    for j in range(arr.d):
        lo, hi = los[j] - 2, his[j] + 2
        num = rng.randint(int(lo * den), int(hi * den))
        coords.append(Fraction(num, den))
    return ProjectivePoint(tuple(coords))


def sampled_types(rng: random.Random, arr: Arrangement, count: int) -> set[TypeVector]:
    """One-sided oracle: the set of types actually observed at random
    rational points."""
    return {type_of_point(arr, sample_point(rng, arr)) for _ in range(count)}


def chart_vertex(i: int, j: int, n: int, d: int) -> tuple[int, ...]:
    left = tuple(1 if i == t else 0 for t in range(1, n))
    right = tuple(1 if j == t else 0 for t in range(1, d))
    return left + right


def affine_rank_oracle(points) -> int:
    """Affine rank (dimension of the affine hull) via sympy."""
    pts = [tuple(p) for p in points]
    if len(pts) <= 1:
        return 0
    rows = [[sympy.Rational(x) - sympy.Rational(b) for x, b in zip(p, pts[0])] for p in pts[1:]]
    return sympy.Matrix(rows).rank()


def face_dimension_oracle(sub) -> int:
    """Dimension of the secondary-polytope face of the regular subdivision
    ``sub``: nd - dim L_S, L_S the heights affine on every cell.  L_S is
    the orthogonal complement of the cells' alternating-cycle vectors,
    the kernel of each cell graph's oriented incidence matrix, so the
    face dimension is the rank of those vectors (sympy)."""
    n, d = sub.n, sub.d
    cycles = []
    for cell in sub.maximal_cells:
        edges = sorted(cell.edges)
        incidence = sympy.zeros(n + d, len(edges))
        for c, (i, j) in enumerate(edges):
            incidence[i - 1, c] = 1
            incidence[n + j - 1, c] = -1
        for z in incidence.nullspace():
            vec = [0] * (n * d)
            for c, (i, j) in enumerate(edges):
                vec[(i - 1) * d + (j - 1)] = z[c]
            cycles.append(vec)
    return sympy.Matrix(cycles).rank() if cycles else 0


def move_apex(arr: Arrangement, i: int, delta) -> Arrangement:
    """The arrangement with apex i (1-based) translated by ``delta``."""
    rows = [list(r) for r in arr.rows()]
    rows[i - 1] = [x + Fraction(y) for x, y in zip(rows[i - 1], delta)]
    return Arrangement.from_rows(rows)


def matching_gaps(rows):
    """(k, gap) for every square minor of ``rows``: k its size, gap the
    smallest nonzero difference between two of its matchings' sums."""
    n, d = len(rows), len(rows[0])
    for k in range(2, min(n, d) + 1):
        for I in combinations(range(n), k):
            for J in combinations(range(d), k):
                sums = sorted({sum(rows[i][j] for i, j in zip(I, p)) for p in permutations(J)})
                if len(sums) > 1:
                    yield k, min(b - a for a, b in zip(sums, sums[1:]))


def edge_mask(d: int, edges) -> int:
    """The library's edge mask of an edge set: bit (i-1)·d + (j-1) for
    each edge (i, j)."""
    return sum(1 << (i - 1) * d + j - 1 for i, j in set(edges))


def mask_edges(d: int, mask: int) -> frozenset[tuple[int, int]]:
    """The edge set of one of the library's edge masks."""
    return frozenset((k // d + 1, k % d + 1) for k in range(mask.bit_length()) if mask >> k & 1)


def pivot_walk_edges(n: int, d: int, weights, support) -> list[frozenset[tuple[int, int]]]:
    """``envelope._pivot_walk`` over the int heights ``weights`` and the
    edge set ``support``, its cells as edge sets, in its order."""
    return [mask_edges(d, cell) for cell in _pivot_walk(n, d, weights, edge_mask(d, support))]


def cone_of_edges(n: int, d: int, cell, trees) -> tuple:
    """``secondary._cone`` of the edge sets ``cell`` and ``trees``."""
    return _cone(n, d, edge_mask(d, cell), [edge_mask(d, tree) for tree in trees])


def grown_forest(n: int, d: int, edges) -> frozenset[tuple[int, int]]:
    """The spanning forest that ``edges`` grow in their given order: each
    edge kept when it joins two components, tracked as one label per
    node, as the library's ``_forest`` grows one in ascending order."""
    component = {("L", i): ("L", i) for i in range(1, n + 1)} | {("R", j): ("R", j) for j in range(1, d + 1)}
    forest = set()
    for i, j in edges:
        a, b = component[("L", i)], component[("R", j)]
        if a != b:
            forest.add((i, j))
            component = {v: a if c == b else c for v, c in component.items()}
    return frozenset(forest)


def type_to_graph(T: TypeVector, n: int, d: int) -> CellGraph:
    """Cell graph of a type: edge (i, j) for every label j in entry i."""
    return CellGraph(n, d, frozenset((i, j) for i, entry in enumerate(T.entries, 1) for j in entry))


def subdivision_of(arr: Arrangement, dimensions: dict[TypeVector, int]) -> Subdivision:
    """The dual subdivision from an enumeration: one validated maximal
    cell per 0-dimensional type, the graph of its labels."""
    cells = frozenset(type_to_graph(T, arr.n, arr.d) for T, dim in dimensions.items() if dim == 0)
    return Subdivision(arr.n, arr.d, cells)


def assert_check_cells_match_the_oracle(arr: Arrangement, dimensions: dict[TypeVector, int]) -> bool:
    """``check``'s triangulation verdict and cell count against
    :func:`subdivision_of` ``dimensions``, the enumeration ``check``
    reads; returns the verdict."""
    verdict = check_correspondence(arr)
    sub = subdivision_of(arr, dimensions)
    assert (verdict.triangulation, verdict.cell_count) == (is_triangulation(sub), len(sub.maximal_cells)), arr.rows()
    return verdict.triangulation


def graph_dim_oracle(g: CellGraph) -> int:
    """Cell dimension straight from the product vertices' affine rank."""
    return affine_rank_oracle([chart_vertex(i, j, g.n, g.d) for i, j in g.sorted_edges()])


def tree_volume_oracle(g: CellGraph) -> int:
    """Simplex volume via a sympy determinant."""
    pts = [chart_vertex(i, j, g.n, g.d) for i, j in g.sorted_edges()]
    rows = [[x - b for x, b in zip(p, pts[0])] for p in pts[1:]]
    return abs(sympy.Matrix(rows).det())


def envelope_oracle(n: int, d: int, weights, support) -> frozenset[CellGraph]:
    """Maximal cells of the lower envelope over a support edge set, by
    trying every edge subset (2^|support| masks).

    A spanning connected subgraph h is a cell exactly when potentials
    u_i, z_j with z_j - u_i = w_ij on h extend consistently over h and
    satisfy z_j - u_i < w_ij strictly on the rest of the support.
    """
    weights = [[Fraction(x) for x in row] for row in weights]
    edges = sorted(support)
    m = len(edges)
    # bitmask of nodes covered by each edge: left nodes 0..n-1, right n..n+d-1
    node_bits = [(1 << (i - 1)) | (1 << (n + j - 1)) for i, j in edges]
    full = (1 << (n + d)) - 1
    cells = []
    for mask in range(1, 1 << m):
        covered = 0
        sub = mask
        while sub:
            low = sub & -sub
            covered |= node_bits[low.bit_length() - 1]
            sub &= sub - 1
        if covered != full:
            continue
        chosen = [edges[b] for b in range(m) if mask >> b & 1]
        # potentials via traversal; u_i at ('L',i), z_j at ('R',j)
        adj: dict = {}
        for i, j in chosen:
            adj.setdefault(("L", i), []).append((("R", j), weights[i - 1][j - 1]))
            adj.setdefault(("R", j), []).append((("L", i), weights[i - 1][j - 1]))
        pot: dict = {("L", 1): Fraction(0)}
        stack = [("L", 1)]
        ok = True
        while stack and ok:
            node = stack.pop()
            for other, w in adj[node]:
                # z_j = u_i + w_ij along either traversal direction
                value = pot[node] + w if node[0] == "L" else pot[node] - w
                if other in pot:
                    if pot[other] != value:
                        ok = False
                        break
                else:
                    pot[other] = value
                    stack.append(other)
        if not ok or len(pot) != n + d:
            continue
        if all(
            pot[("R", j)] - pot[("L", i)] < weights[i - 1][j - 1]
            for b, (i, j) in enumerate(edges)
            if not mask >> b & 1
        ):
            cells.append(CellGraph(n, d, frozenset(chosen)))
    return frozenset(cells)


def pivot_walk_oracle(
    n: int, d: int, weights: Sequence[Sequence[Fraction]], support: Iterable[tuple[int, int]]
) -> Iterator[frozenset[tuple[int, int]]]:
    """The pivot walk as it was before its integer heights, bit-scanned
    entering edges, skipped facet back and sides swapped per pivot: its
    cells in its order pin the order of ``envelope._pivot_walk``, which
    decides the first tied minor a check names.

    Coarse cell of every simplex of a fine regular triangulation of the
    lower envelope over a spanning connected support edge set, yielded
    one simplex at a time, so a caller may stop at any cell.

    Nodes are left i -> i-1 and right j -> n+j-1.  The integer heights
    H_ij = D w_ij 3^(nd) + 3^((i-1)d+(j-1)), D the lcm of the
    denominators, are generic: an alternating cycle sum of distinct
    powers of 3 never vanishes.  So every vertex of the polyhedron
    {z_j - u_i <= H_ij on the support} is tight on a spanning tree, a
    simplex of the triangulation, and since those powers sum to less
    than 3^(nd)/2 the simplex lies in the w-cell of its edges with H-slack
    below 3^(nd)/2 (the edges tight under w).  Each pivot drops a tree
    edge and raises the side holding its left end until the first
    support edge into that side turns tight; the walk visits every tree
    once in O((n+d) nd) each.  Over the full support, a walk run to its
    end checks that it visited all C(n+d-2, n-1) simplices.
    """
    scale = 3 ** (n * d)
    den = lcm(*(w.denominator for row in weights for w in row))
    edges = [
        (i - 1, n + j - 1, int(weights[i - 1][j - 1] * den) * scale + 3 ** ((i - 1) * d + j - 1))
        for i, j in sorted(support)
    ]
    # start vertex: attach one node at a time at its tightest feasible
    # potential, so each attachment makes exactly one edge tight
    p = {0: 0}
    while len(p) < n + d:
        a, b, _ = next(e for e in edges if (e[0] in p) != (e[1] in p))
        if a in p:
            p[b] = min(p[x] + h for x, y, h in edges if y == b and x in p)
        else:
            p[a] = max(p[y] - h for x, y, h in edges if x == a and y in p)
    tree = frozenset((a, b) for a, b, h in edges if h == p[b] - p[a])
    queue, seen = [(tree, [p[v] for v in range(n + d)])], {tree}
    # node v's mark: bit v, bit w + k for each edge k ending at v on the
    # right and bit w + m + k for each edge k starting at v on the left,
    # so a side's union tells its nodes and the edges entering it
    w, m = n + d, len(edges)
    marks = [1 << v for v in range(w)]
    for k, (a, b, _) in enumerate(edges):
        marks[b] |= 1 << (w + k)
        marks[a] |= 1 << (w + m + k)
    for tree, p in queue:
        slack = [h - p[b] + p[a] for a, b, h in edges]
        yield frozenset((a + 1, b - n + 1) for (a, b, _), s in zip(edges, slack) if 2 * s < scale)
        # the sides keyed by edge bit; the facets in sorted order of node
        # pairs, the ascending bit order of their edges
        sides = _sides(n, d, sum(1 << a * d + b - n for a, b in tree), marks)
        for a, b in sorted(tree):
            side = sides[a * d + b - n]
            # edges whose right end is on the side and whose left end is not
            entering = side >> w & ~(side >> (w + m)) & ((1 << m) - 1)
            if not entering:
                continue  # a boundary facet
            # the least (slack, edge), edge indices in sorted edge order
            t, k = min((slack[k], k) for k in range(m) if entering >> k & 1)
            pivot = tree - {(a, b)} | {edges[k][:2]}
            if pivot not in seen:
                seen.add(pivot)
                queue.append((pivot, [z + t if side >> v & 1 else z for v, z in enumerate(p)]))
    expected = comb(n + d - 2, n - 1)
    if len(edges) == n * d and len(queue) != expected:
        raise RuntimeError(
            f"pivot walk visited {len(queue)} of {expected} simplices of a {n}x{d} triangulation"
        )


def assert_walk_order_matches_the_oracle(n: int, d: int, rows, support=None) -> None:
    """The walk yields the oracle's cells in the oracle's order, over
    ``support`` (the full one when None) and, with zero heights, over the
    edges of each of its cells that is not a tree, as a volume walks it."""
    if support is None:
        support = [(i, j) for i in range(1, n + 1) for j in range(1, d + 1)]
    cells = list(pivot_walk_oracle(n, d, rows, support))
    assert pivot_walk_edges(n, d, _integer_rows(rows)[1], support) == cells, (rows, sorted(support))
    zero = [[0] * d] * n
    for cell in set(cells):
        if len(cell) != n + d - 1:
            assert pivot_walk_edges(n, d, zero, cell) == list(pivot_walk_oracle(n, d, zero, cell)), sorted(cell)


def volume_oracle(g: CellGraph) -> int:
    """Normalized volume as the number of pieces of the cell's envelope
    under the lexicographic lift 3^((i-1)d + (j-1)) (every piece a unit
    simplex)."""
    lex = [[3 ** ((i - 1) * g.d + (j - 1)) for j in range(1, g.d + 1)] for i in range(1, g.n + 1)]
    pieces = envelope_oracle(g.n, g.d, lex, g.edges)
    assert all(len(piece.edges) == g.n + g.d - 1 for piece in pieces)
    return len(pieces)


def components_oracle(g: CellGraph) -> list[int]:
    """Connected components of the support (nodes of degree >= 1), each a
    node mask: bit i - 1 for hyperplane node i, bit n + j - 1 for
    coordinate node j.  Each hyperplane node starts as the mask of its
    star; a flood fill grows one component at a time by every star that
    meets it, which only a shared coordinate can, until none does."""
    n = g.n
    star: dict[int, int] = {}
    for i, j in g.edges:
        star[i] = star.get(i, 1 << (i - 1)) | 1 << (n + j - 1)
    rest, comps = list(star.values()), []
    while rest:
        comp, grew = rest.pop(), True
        while grew:
            grew, left = False, []
            for m in rest:
                if m & comp:
                    comp |= m
                    grew = True
                else:
                    left.append(m)
            rest = left
        comps.append(comp)
    return comps


def tied_minor_oracle(cell: CellGraph) -> TiedMinor:
    """The minor spanned by the first cycle of a cell that is not a tree:
    the cell's edges join a dict forest over ("L", i) / ("R", j) nodes in
    sorted order, and a depth-first search of that forest finds the path
    that the first edge joining two of its nodes closes."""
    forest: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for i, j in cell.sorted_edges():
        a, b = ("L", i), ("R", j)
        prev, stack = {a: a}, [a]
        while stack and b not in prev:
            x = stack.pop()
            for y in forest.get(x, ()):
                if y not in prev:
                    prev[y] = x
                    stack.append(y)
        if b in prev:
            path = [b]
            while path[-1] != a:
                path.append(prev[path[-1]])
            # the path runs from column j to row i; the edge (i, j) closes it
            cycle = [(x[1], y[1]) if x[0] == "L" else (y[1], x[1]) for x, y in zip(path, path[1:] + [b])]
            return TiedMinor(
                tuple(sorted({r for r, _ in cycle})),
                tuple(sorted({c for _, c in cycle})),
                tuple(sorted((tuple(sorted(cycle[0::2])), tuple(sorted(cycle[1::2]))))),
            )
        forest.setdefault(a, []).append(b)
        forest.setdefault(b, []).append(a)
    raise ValueError(f"cell {cell.text()} has no cycle")


def cone_oracle(d: int, cell, trees) -> tuple:
    """The open cone of the steps under which the spanning ``trees`` are
    the regular subdivision of ``cell``, by potentials: each tree's
    potentials, solved by a depth-first search from hyperplane 1 as dicts
    of signed flat step indices (one copied dict per node), give each
    cell edge's slack, and each nonzero slack is one (plus, minus) row.
    Handed a connected graph with cycles as its one tree, the potentials
    follow a search tree of it, so the rows are fundamental cycles of
    the graph."""
    cone = set()
    for tree in trees:
        adj: dict[tuple[str, int], list] = {}
        for i, j in tree:
            flat = (i - 1) * d + j - 1
            adj.setdefault(("L", i), []).append((("R", j), flat, 1))
            adj.setdefault(("R", j), []).append((("L", i), flat, -1))
        potential: dict[tuple[str, int], dict[int, int]] = {("L", 1): {}}
        stack = [("L", 1)]
        while stack:
            node = stack.pop()
            for other, flat, sign in adj[node]:
                if other not in potential:
                    potential[other] = {**potential[node], flat: sign}
                    stack.append(other)
        for i, j in cell:
            slack = {(i - 1) * d + j - 1: 1}
            for k, c in potential[("R", j)].items():
                slack[k] = slack.get(k, 0) - c
            for k, c in potential[("L", i)].items():
                slack[k] = slack.get(k, 0) + c
            if any(slack.values()):
                cone.add((
                    tuple(sorted(k for k, c in slack.items() if c > 0)),
                    tuple(sorted(k for k, c in slack.items() if c < 0)),
                ))
    return tuple(sorted(cone))


def cycles_oracle(n: int, d: int, tree, edges) -> list[tuple[list, list]]:
    """The fundamental cycles by the scan ``envelope._cycle_masks`` replaced:
    one bit per node, :func:`~troparr.envelope._sides` gives each tree
    edge's side that holds its hyperplane end, and a tree edge is on the
    cycle of (i, j) exactly when that side holds one end of (i, j): in
    ``minus`` when it holds i, in ``plus`` when it holds j.  The edge set
    ``tree`` goes in as its mask, and each side comes out keyed by its
    edge (i, j)."""
    marks = [1 << v for v in range(n + d)]
    sides = {(f // d + 1, f % d + 1): side for f, side in _sides(n, d, edge_mask(d, tree), marks).items()}
    cycles = []
    for i, j in edges:
        if (i, j) in sides:
            continue
        left, right = 1 << i - 1, 1 << n + j - 1
        plus, minus = [(i, j)], []
        for e, side in sides.items():
            if side & left and not side & right:
                minus.append(e)
            elif side & right and not side & left:
                plus.append(e)
        cycles.append((plus, minus))
    return cycles


def assert_cycles_match_the_oracle(n: int, d: int, tree) -> None:
    """``_cycle_masks`` of every edge of K_{n,d} against the spanning
    edge set ``tree`` equals :func:`cycles_oracle`'s, each cycle's halves
    sorted."""
    edges = [(i, j) for i in range(1, n + 1) for j in range(1, d + 1)]
    got = [
        (sorted(mask_edges(d, plus)), sorted(mask_edges(d, minus)))
        for plus, minus in _cycle_masks(n, d, edge_mask(d, tree), edge_mask(d, edges))
    ]
    assert got == [(sorted(plus), sorted(minus)) for plus, minus in cycles_oracle(n, d, tree, edges)], sorted(tree)
    assert len(got) == n * d - len(tree), sorted(tree)


def _cone_rank(n: int, d: int, rows) -> int:
    return rank([[1 if k in plus else -1 if k in minus else 0 for k in range(n * d)] for plus, minus in rows])


def assert_cell_questions_match_the_oracles(arr: Arrangement) -> int:
    """On every maximal cell of ``arr``'s dual subdivision, and on every
    edge set left by dropping one of its edges: ``cell_dim`` and
    ``is_spanning_connected`` from the union-find forest agree with
    :func:`components_oracle`, and each maximal cell spans and is
    connected.  On each cell, the forest's fundamental cycles are
    :func:`cone_oracle`'s rows for that tree, ``_cycle_masks`` against that
    tree is :func:`cycles_oracle` over every edge, and on each cell
    that is not a tree ``_tied_minor`` is :func:`tied_minor_oracle`'s.
    The face dimension, the rank of the rows of every cell against its
    forest, equals the rank of the rows of every cell against itself.
    Returns the number of cells that are not trees."""
    n, d = arr.n, arr.d
    full = (1 << (n + d)) - 1
    cells = dual_subdivision(arr).maximal_cells
    rows, oracle_rows, coarse = [], [], 0
    for g in cells:
        for edges in [g.edges] + [g.edges - {e} for e in g.edges]:
            h = CellGraph(n, d, edges)
            comps = components_oracle(h)
            assert is_spanning_connected(h) == (comps == [full]), (arr.rows(), h.text())
            if edges:
                assert cell_dim(h) == sum(comps).bit_count() - len(comps) - 1, (arr.rows(), h.text())
        assert is_spanning_connected(g), (arr.rows(), g.text())
        tree = mask_edges(d, _forest(n, d, g.mask)[0])
        assert_cycles_match_the_oracle(n, d, tree)
        cone = cone_of_edges(n, d, g.edges, [tree])
        assert cone == cone_oracle(d, g.edges, [tree]), (arr.rows(), g.text())
        rows += cone
        oracle_rows += cone_oracle(d, g.edges, [g.edges])
        if len(g.edges) != n + d - 1:
            coarse += 1
            assert _tied_minor(n, d, g.mask) == tied_minor_oracle(g), (arr.rows(), g.text())
    assert _cone_rank(n, d, rows) == _cone_rank(n, d, oracle_rows), arr.rows()
    return coarse


class _FractionTieGroups:
    """Union-find over coordinate labels with Fraction offsets to the root."""

    def __init__(self, d: int):
        self.parent = list(range(d + 1))
        self.shift = [Fraction(0)] * (d + 1)

    def copy(self) -> "_FractionTieGroups":
        g = _FractionTieGroups.__new__(_FractionTieGroups)
        g.parent = self.parent[:]
        g.shift = self.shift[:]
        return g

    def find(self, v: int) -> tuple[int, Fraction]:
        path = []
        while self.parent[v] != v:
            path.append(v)
            v = self.parent[v]
        root = v
        acc = Fraction(0)
        for node in reversed(path):
            acc += self.shift[node]
            self.parent[node] = root
            self.shift[node] = acc
        return root, (self.shift[path[0]] if path else Fraction(0))

    def union(self, j: int, k: int, delta: Fraction) -> bool:
        rj, oj = self.find(j)
        rk, ok = self.find(k)
        if rj == rk:
            return oj - ok == delta
        self.parent[rj] = rk
        self.shift[rj] = delta - oj + ok
        return True


class _FractionFeasibility:
    """The feasibility DFS state on the arrangement's own Fraction
    coordinates: tie groups plus a closed dict of strict lower bounds
    x_a - x_b > c between group roots."""

    def __init__(self, arr: Arrangement):
        self.arr = arr
        self.groups = _FractionTieGroups(arr.d)
        self.lower: dict[tuple[int, int], Fraction] = {}

    def copy(self) -> "_FractionFeasibility":
        st = _FractionFeasibility.__new__(_FractionFeasibility)
        st.arr = self.arr
        st.groups = self.groups.copy()
        st.lower = dict(self.lower)
        return st

    def add_hyperplane(self, i: int, labels) -> bool:
        row = self.arr.apex(i).coords
        members = sorted(labels)
        for j in members[1:]:
            if not self.groups.union(j, members[0], row[j - 1] - row[members[0] - 1]):
                return False
        lower: dict[tuple[int, int], Fraction] = {}

        def put(a: int, b: int, c: Fraction) -> bool:
            if a == b:
                return c < 0
            if (a, b) not in lower or c > lower[(a, b)]:
                lower[(a, b)] = c
            return True

        for (a, b), c in self.lower.items():
            ra, oa = self.groups.find(a)
            rb, ob = self.groups.find(b)
            if not put(ra, rb, c - oa + ob):
                return False
        outside = [k for k in range(1, self.arr.d + 1) if k not in set(members)]
        for j in members:
            rj, oj = self.groups.find(j)
            for k in outside:
                rk, ok = self.groups.find(k)
                if not put(rj, rk, row[j - 1] - row[k - 1] - oj + ok):
                    return False
        nodes = sorted({a for a, _ in lower} | {b for _, b in lower})
        for mid in nodes:
            for a in nodes:
                for b in nodes:
                    if mid in (a, b) or (a, mid) not in lower or (mid, b) not in lower:
                        continue
                    c = lower[(a, mid)] + lower[(mid, b)]
                    if a == b:
                        if c >= 0:
                            return False
                    elif (a, b) not in lower or c > lower[(a, b)]:
                        lower[(a, b)] = c
        self.lower = lower
        return True

    def roots(self) -> list[int]:
        return sorted({self.groups.find(v)[0] for v in range(1, self.arr.d + 1)})

    def witness(self) -> ProjectivePoint:
        values: dict[int, Fraction] = {}
        for r in self.roots():
            lo = hi = None
            for a, val in values.items():
                c = self.lower.get((r, a))
                if c is not None and (lo is None or val + c > lo):
                    lo = val + c
                c = self.lower.get((a, r))
                if c is not None and (hi is None or val - c < hi):
                    hi = val - c
            if lo is None and hi is None:
                values[r] = Fraction(0)
            elif hi is None:
                values[r] = lo + 1
            elif lo is None:
                values[r] = hi - 1
            else:
                values[r] = (lo + hi) / 2
        coords = []
        for j in range(1, self.arr.d + 1):
            root, off = self.groups.find(j)
            coords.append(values[root] + off)
        return ProjectivePoint(tuple(coords)).normalized()


def realizations_oracle(arr: Arrangement) -> dict[TypeVector, RealizationResult]:
    """Every realizable type with witness and dimension, by the feasibility
    DFS on Fraction coordinates (no scaling, no budget)."""
    labels = range(1, arr.d + 1)
    subsets = [frozenset(c) for size in labels for c in combinations(labels, size)]
    out: dict[TypeVector, RealizationResult] = {}

    def walk(i: int, state: _FractionFeasibility, prefix: tuple) -> None:
        if i > arr.n:
            out[TypeVector(prefix)] = RealizationResult(True, state.witness(), len(state.roots()) - 1)
            return
        for entry in subsets:
            child = state.copy()
            if child.add_hyperplane(i, entry):
                walk(i + 1, child, prefix + (entry,))

    walk(1, _FractionFeasibility(arr), ())
    return out


def assert_every_entry_is_feasible(arr: Arrangement) -> None:
    """On every prefix state the enumeration reaches, ``add_hyperplane``
    accepts each entry (a label mask) that ``entries(i)`` yields, so the
    last hyperplane's entries are types without a closure."""
    stack = [(1, _Feasibility(arr))]
    while stack:
        i, state = stack.pop()
        for entry in state.entries(i):
            child = state.copy()
            assert child.add_hyperplane(i, entry), (arr.rows(), i, _bits(entry))
            if i < arr.n:
                stack.append((i + 1, child))


def transposed_arrangement(arr: Arrangement) -> Arrangement:
    """The arrangement whose apexes are the columns of ``arr``'s apex
    matrix.  Its lower envelope is ``arr``'s with every edge (i, j) read
    as (j, i), as swapping the factors of the product keeps each height,
    so its dual subdivision is the transpose."""
    return Arrangement.from_rows([list(column) for column in zip(*arr.rows())])


def _least(row: tuple[int, ...], root: list[int], offset: list[int]) -> tuple[list, list[int]]:
    """Each group root's least v_j - offset_j over its labels j, row v,
    and the mask of the labels reaching it; None and 0 off the roots."""
    least: list[int | None] = [None] * len(root)
    mask = [0] * len(root)
    for j in range(1, len(root)):
        r, c = root[j], row[j - 1] - offset[j]
        m = least[r]
        if m is None or c < m:
            least[r], mask[r] = c, 1 << j
        elif c == m:
            mask[r] |= 1 << j
    return least, mask


class Staircases:
    """The staircases of the vertex walk over hyperplanes i and i + 1 on
    one prefix state, set up once for every entry of hyperplane i - 1
    they settle.

    A vertex's labels tie every coordinate into one group.  Once the
    prefix and an entry e for hyperplane i - 1 are imposed, let c_hg be
    the least v_hj - offset_j over group g's labels for h = i, i + 1,
    reached at the mask M_hg; with y_g the value of g's root, the
    largest x_j - v_hj over g is y_g - c_hg, reached exactly at M_hg.
    Entry i meets the groups A where y_g - c_ig is largest, entry i + 1
    the groups B where y_g - c_(i+1)g is, and they join every group iff A
    and B cover the groups and share one.  So every vertex lies at one of
    the points y_g = min(c_ig, t + c_(i+1)g), one per distinct t among
    the δ_g = c_ig - c_(i+1)g, where A = {δ_g <= t} and B = {δ_g >= t}:
    the staircase triangulations of Δ_1 × Δ_(k-1), k the number of groups
    (De Loera, Rambau and Santos, "Triangulations", §6.2).  The point is a
    vertex iff hyperplane i - 1's argmax there is exactly e and it meets
    every closed strict bound of the prefix, a point test with no
    closure.

    The set-up reads each group g through z_g = y_g - c_(i-1)g, its
    largest x_j - v_(i-1)j (c_(i-1)g = 0 and M_(i-1)g empty when i = 1),
    and keeps a_g = c_ig - c_(i-1)g and b_g = c_(i+1)g - c_(i-1)g with
    their masks, the mask M_(i-1)g, and each closed strict bound of the
    prefix between two roots as a bound on z.
    """

    __slots__ = ("groups", "a", "b", "first", "second", "top", "bounds", "high")

    def __init__(self, state: _Feasibility, i: int):
        root, offset, lower, w = state.root, state.offset, state.lower, state.d + 1
        self.groups = groups = state.roots()
        self.a, self.first = _least(state.rows[i - 1], root, offset)
        self.b, self.second = _least(state.rows[i], root, offset)
        a, b = self.a, self.b
        if i > 1:
            prev, self.top = _least(state.rows[i - 2], root, offset)
            for g in groups:
                a[g] -= prev[g]
                b[g] -= prev[g]
            # z_p - z_q > c for each closed bound y_p - y_q > c between roots
            self.bounds = [
                (p, q, lower[p * w + q] - prev[p] + prev[q])
                for p in groups
                for q in groups
                if lower[p * w + q] is not None
            ]
        else:
            self.top, self.bounds = [0] * w, []
        # above every z_g, as z_g <= a_g
        self.high = max(a[g] for g in groups) + 1

    def pairs(self, pending: int = 0) -> list[tuple[int, int]]:
        """The pairs of entries for hyperplanes i and i + 1, as label masks,
        that close a 0-dimensional type after ``pending``, an entry for
        hyperplane i - 1 that passed :meth:`_Feasibility.entries` (0 when
        i = 1).

        Pending's labels are the M_(i-1)g of the groups it meets, which tie
        into one group E at a common z: E's a and b are the least of theirs,
        at the union of their masks.  One point is tried per distinct t
        among the δ_g = a_g - b_g of E and the other groups: z_g = min(a_g,
        t + b_g), shared by every group of E.  It is accepted iff every
        other group's z is below E's, so that hyperplane i - 1's argmax is
        pending, and it meets every prefix bound; the bounds inside E hold,
        as pending is feasible.
        """
        a, b, top, firsts, seconds = self.a, self.b, self.top, self.first, self.second
        tied, rest = [], []
        for g in self.groups:
            if top[g] & pending:
                tied.append(g)
            else:
                rest.append(g)
        # (δ_g, M_ig, M_(i+1)g) of every group but E's, then E's
        parts = [(a[g] - b[g], firsts[g], seconds[g]) for g in rest]
        if tied:
            g = tied[0]
            ae, be, first, second = a[g], b[g], firsts[g], seconds[g]
            for g in tied[1:]:
                if a[g] < ae:
                    ae, first = a[g], firsts[g]
                elif a[g] == ae:
                    first |= firsts[g]
                if b[g] < be:
                    be, second = b[g], seconds[g]
                elif b[g] == be:
                    second |= seconds[g]
            parts.append((ae - be, first, second))
        ze, bounds = self.high, self.bounds
        z = [0] * len(a)
        out = []
        for t in {part[0] for part in parts}:
            if tied:
                c = t + be
                ze = c if c < ae else ae
                for g in tied:
                    z[g] = ze
            for g in rest:
                c = t + b[g]
                if c > a[g]:
                    c = a[g]
                if c >= ze:
                    break  # E does not beat g on hyperplane i - 1
                z[g] = c
            else:
                for p, q, c in bounds:
                    if z[p] - z[q] <= c:
                        break
                else:
                    first = second = 0
                    for dg, m, m2 in parts:
                        if dg <= t:
                            first |= m
                        if dg >= t:
                            second |= m2
                    out.append((first, second))
        return out


def vertex_walk(arr: Arrangement) -> list[tuple[int, ...]]:
    """The 0-dimensional types, the arrangement's vertices, each as its
    entries' label masks, by the vertex walk: a prefix loop of its own
    over hyperplanes 1..n-3, asserting every entry it imposes, where one
    :class:`Staircases` set-up per prefix settles every entry the
    pairwise tests pass for hyperplane n-2 with hyperplanes n-1 and n,
    with no copy and no closure.  For n = 2 the staircase runs on the
    empty prefix; for n = 1 the one vertex is the apex, where every label
    ties.  It shares the feasibility kernel with the enumeration and
    nothing with the enumeration's loop, the pivot walk or the planar
    read-off."""
    start, n, d = _Feasibility(arr), arr.n, arr.d
    if n <= 2:
        return [((1 << (d + 1)) - 2,)] if n == 1 else Staircases(start, 1).pairs()
    out: list[tuple[int, ...]] = []
    stack = [(start, ())]
    while stack:
        state, prefix = stack.pop()
        i = len(prefix) + 1
        if i == n - 2:
            stairs = Staircases(state, n - 1)
            out.extend(prefix + (entry,) + pair for entry in state.entries(i) for pair in stairs.pairs(entry))
            continue
        for entry in state.entries(i):
            child = state.copy()
            assert child.add_hyperplane(i, entry), (arr.rows(), i, _bits(entry))
            stack.append((child, prefix + (entry,)))
    return out


def type_counts(m: int, d: int) -> list[int]:
    """T(0, d), ..., T(m, d): T(k, d) is the number of types of a generic
    arrangement of k hyperplanes with d coordinates.  T(0, d) = T(k, 1) =
    1 and T(k, d) = T(k - 1, d) + 2 T(k, d - 1), computed one d at a
    time."""
    counts = [1] * (m + 1)
    for _ in range(d - 1):
        for k in range(1, m + 1):
            counts[k] = counts[k - 1] + 2 * counts[k]
    return counts


def imposed_staircase(state: _Feasibility, i: int, pending: int = 0) -> set[tuple[int, int]]:
    """The pairs of entries for hyperplanes i and i + 1 that close a
    0-dimensional type after ``pending`` for hyperplane i - 1 (none when
    0), the imposed way: ``pending`` imposed on a copy of the prefix's
    state, then each entry ``entries(i)`` yields imposed on a copy of
    that, then each entry ``entries(i + 1)`` yields imposed, kept iff the
    closed state has dimension 0."""
    child = state.copy()
    if pending:
        assert child.add_hyperplane(i - 1, pending)
    out = set()
    for first in child.entries(i):
        middle = child.copy()
        assert middle.add_hyperplane(i, first)
        for second in middle.entries(i + 1):
            closed = middle.copy()
            assert closed.add_hyperplane(i + 1, second)
            if closed.dimension() == 0:
                out.add((first, second))
    return out


def assert_staircases_match_the_imposed_path(arr: Arrangement, transpose: bool = False) -> tuple[int, int]:
    """On every (n-3)-prefix state the vertex walk reaches, one
    :class:`Staircases` set-up, and for every entry e ``entries(n - 2)``
    yields there, its ``pairs(e)`` lists each pair of
    :func:`imposed_staircase` once and nothing else; for n = 2
    ``pairs()`` on the empty prefix does.  With ``transpose`` the walk is
    that of :func:`transposed_arrangement`.  Returns the pairs found and
    the staircases that found none."""
    start = _Feasibility(transposed_arrangement(arr) if transpose else arr)
    n, counts = len(start.rows), [0, 0]

    def compare(state: _Feasibility, stairs: Staircases, i: int, pending: int = 0) -> None:
        pairs = stairs.pairs(pending)
        assert len(set(pairs)) == len(pairs), (arr.rows(), transpose, i, _bits(pending))
        assert set(pairs) == imposed_staircase(state, i, pending), (arr.rows(), transpose, i, _bits(pending))
        counts[0] += len(pairs)
        counts[1] += not pairs

    if n == 2:
        compare(start, Staircases(start, 1), 1)
    stack = [(1, start)] if n >= 3 else []
    while stack:
        i, state = stack.pop()
        if i == n - 2:
            stairs = Staircases(state, n - 1)
        for entry in state.entries(i):
            if i == n - 2:
                compare(state, stairs, n - 1, entry)
            else:
                child = state.copy()
                assert child.add_hyperplane(i, entry)
                stack.append((i + 1, child))
    return counts[0], counts[1]


def transposed(sub) -> frozenset[CellGraph]:
    """The maximal cells of ``sub`` with every edge (i, j) read as (j, i)."""
    return frozenset(CellGraph(sub.d, sub.n, frozenset((j, i) for i, j in g.edges)) for g in sub.maximal_cells)


def walked_cells(arr: Arrangement, transpose: bool = False) -> frozenset[CellGraph]:
    """The cells of the :func:`vertex_walk` of ``arr``, or with
    ``transpose`` of :func:`transposed_arrangement`, each read back as a
    cell of ``arr``'s own n x d subdivision."""
    cells = set()
    for masks in vertex_walk(transposed_arrangement(arr) if transpose else arr):
        edges = {(i, j) for i, mask in enumerate(masks, 1) for j in _bits(mask)}
        cells.add(CellGraph(arr.n, arr.d, frozenset((j, i) for i, j in edges) if transpose else frozenset(edges)))
    return frozenset(cells)


def dual_subdivision_both_ways(arr: Arrangement, budget: int | None = None) -> Subdivision:
    """:func:`dual_subdivision` of ``arr``, asserted to have the cells of
    the vertex walk, so a test that reads the dual subdivision checks the
    pivot walk, or the planar read-off where it answers, against a walk
    that shares no code with either."""
    sub = dual_subdivision(arr, budget)
    assert sub.maximal_cells == walked_cells(arr), arr.rows()
    return sub


def assert_both_sides_match_the_envelope(arr: Arrangement) -> None:
    """The vertex walks of the apex matrix and of its transpose give the
    same cells up to transposition, both the lower envelope's, and so does
    :func:`dual_subdivision` of the arrangement and of its transpose; on
    both sides every staircase matches the imposed path."""
    envelope = regular_subdivision(arr.rows()).maximal_cells
    assert dual_subdivision(arr).maximal_cells == envelope, arr.rows()
    assert transposed(dual_subdivision(transposed_arrangement(arr))) == envelope, arr.rows()
    for transpose in (False, True):
        assert walked_cells(arr, transpose) == envelope, (arr.rows(), transpose)
        assert_staircases_match_the_imposed_path(arr, transpose)


def tie_broken(step) -> list[list[int]]:
    """``step`` u with the lexicographic tie-break of a ``--flips`` step:
    u'_ij = 3^(nd)·u_ij + 3^((i-1)d+(j-1))."""
    n, d = len(step), len(step[0])
    return [[3 ** (n * d) * u + 3 ** (i * d + j) for j, u in enumerate(us)] for i, us in enumerate(step)]


def safe_radius(arr: Arrangement) -> Fraction:
    """A perturbation radius that crosses no wall of the secondary fan.

    The walls lie on the alternating cycles of K_{n,d}, the circuits of
    Δ_{n-1} × Δ_{d-1} (De Loera–Rambau–Santos, ch. 6.2): a cycle through
    a k×k minor sets one matching's sum against another's.  Every apex
    coordinate is a multiple of 1/D, D the lcm of their denominators, so
    a nonzero cycle sum is at least 1/D.  Deltas in [0, r] move each
    matching sum by between 0 and k·r, so a cycle sum by at most
    k·r ≤ min(n, d)·r, which is 1/(2D) for r = 1/(2·min(n, d)·D): every
    nonzero cycle sum keeps its sign.  The library moves by the same
    radius in ints, through ``secondary._scaled_rows``.
    """
    D = lcm(*(x.denominator for row in arr.rows() for x in row))
    return Fraction(1, 2 * min(arr.n, arr.d) * D)


def _perturbations(arr: Arrangement, samples: int, seed: int) -> list[tuple[list, Arrangement]]:
    """``samples`` joint random perturbations of all apexes drawn under
    ``seed``, each with its step: u in 0..1000 is drawn row by row, and
    every coordinate moves by ``safe_radius`` · u'/(1001·3^(nd)), u' its
    :func:`tie_broken` entry, in Fraction arithmetic."""
    unit = safe_radius(arr) / (1001 * 3 ** (arr.n * arr.d))
    rng = random.Random(seed)
    rows = arr.rows()
    out = []
    for _ in range(samples):
        step = tie_broken([[rng.randint(0, 1000) for _ in row] for row in rows])
        moved = [[x + unit * u for x, u in zip(row, us)] for row, us in zip(rows, step)]
        out.append((step, Arrangement.from_rows(moved)))
    return out


def assert_the_lift_outlasts_the_worst_step(arr: Arrangement) -> int:
    """On every square minor of ``arr`` and every pair of its perfect
    matchings whose apex sums differ, the worst step for the pair, the
    largest entry a step can take, 1001·3^(nd) - 1, on the entries that
    only the smaller matching uses and 0 everywhere else, leaves that
    matching the smaller on the arrangement :func:`_moved` gives from
    :func:`_scaled_rows`.  Returns the number of pairs checked."""
    n, d = arr.n, arr.d
    rows, scaled = arr.rows(), _scaled_rows(arr)
    top = 1001 * 3 ** (n * d) - 1
    checked = 0
    for k in range(2, min(n, d) + 1):
        for I in combinations(range(n), k):
            for J in combinations(range(d), k):
                matchings = [tuple(zip(I, p)) for p in permutations(J)]
                for pair in combinations(matchings, 2):
                    sums = [sum(rows[i][j] for i, j in m) for m in pair]
                    if sums[0] == sums[1]:
                        continue
                    small, large = pair if sums[0] < sums[1] else pair[::-1]
                    step = [[0] * d for _ in range(n)]
                    for i, j in set(small) - set(large):
                        step[i][j] = top
                    moved = _moved(scaled, step).rows()
                    assert sum(moved[i][j] for i, j in small) < sum(moved[i][j] for i, j in large), (rows, small, large)
                    checked += 1
    return checked


def refinements_oracle(arr: Arrangement, base, samples: int | None = None, seed: int = 0) -> frozenset:
    """Refining triangulations by enumerating the types of every safe
    perturbation, repeated subdivisions included; every perturbation's
    dual subdivision must be a triangulation refining ``base``."""
    if samples is None:
        samples = 2 * arr.n * arr.d
    if is_triangulation(base):
        return frozenset({base})
    found = set()
    for _, cand in _perturbations(arr, samples, seed):
        t = dual_subdivision_both_ways(cand)
        assert is_triangulation(t), cand.rows()
        assert refines(t, base)
        found.add(t)
    return frozenset(found)


def _refined_cells(base, step) -> frozenset[CellGraph]:
    """Maximal cells of the lower envelope of ``base``'s heights moved by
    a small enough positive multiple of ``step``: every cell of ``base``
    that is a tree, and the pieces of every other one's regular
    subdivision under ``step``, walked over that cell's own edges."""
    n, d = base.n, base.d
    cells = {g for g in base.maximal_cells if len(g.edges) == n + d - 1}
    for g in base.maximal_cells - cells:
        cells.update(CellGraph(n, d, piece) for piece in pivot_walk_edges(n, d, step, g.edges))
    return frozenset(cells)


def _tied_step(n: int, d: int, cell, tree, step) -> list[list[int]]:
    """``step`` lowered at the first edge of ``cell`` outside ``tree`` by
    that edge's slack under the tree's potentials: the tree and that edge
    then span one piece, so the step lies on a wall of the cell."""
    i, j = min(cell - tree)
    (plus, minus), = cone_of_edges(n, d, tree | {(i, j)}, [tree])
    flat = [u for us in step for u in us]
    slack = sum(flat[k] for k in plus) - sum(flat[k] for k in minus)
    tied = [list(us) for us in step]
    tied[i - 1][j - 1] -= slack
    return tied


def assert_cell_walks_match_the_envelope(arr: Arrangement) -> int:
    """On each safe perturbation of ``arr``, the per-cell walks over its
    coarse cells give the lower envelope of the moved apexes, a
    triangulation; a zero step gives the coarse cells themselves.

    Every step's walk of each coarse cell gives trees only.  Each
    refinement's cone rows are :func:`cone_oracle`'s, and each step also
    checks the cone test of every refinement of a coarse cell found so
    far: it accepts the one the cell's walk gives and rejects every
    other.  The zero step and a step lowered onto a wall of the walk's
    first tree match none.  Returns the number of triangulations
    found."""
    n, d = arr.n, arr.d
    base = regular_subdivision(arr.rows())
    zero = [[0] * d] * n
    assert _refined_cells(base, zero) == base.maximal_cells, arr.rows()
    coarse = [g.edges for g in base.maximal_cells if len(g.edges) != n + d - 1]
    known = {cell: {} for cell in coarse}
    found = set()
    for step, cand in _perturbations(arr, 2 * n * d, 0):
        envelope = regular_subdivision(cand.rows())
        assert _refined_cells(base, step) == envelope.maximal_cells, (arr.rows(), step)
        assert is_triangulation(envelope), (arr.rows(), step)
        found.add(envelope)
        for cell in coarse:
            pieces = frozenset(pivot_walk_edges(n, d, step, cell))
            assert all(len(p) == n + d - 1 for p in pieces), (arr.rows(), step, sorted(cell))
            cone = cone_of_edges(n, d, cell, pieces)
            assert cone == cone_oracle(d, cell, pieces), (arr.rows(), step, sorted(cell))
            known[cell].setdefault(pieces, cone)
            tied = _tied_step(n, d, cell, min(pieces, key=sorted), step)
            assert any(len(p) != n + d - 1 for p in pivot_walk_edges(n, d, tied, cell)), (arr.rows(), step)
            for u, walked in [(step, pieces), (tied, None), (zero, None)]:
                flat = [x for us in u for x in us]
                for refinement, cone in known[cell].items():
                    assert _in_cone(cone, flat) == (refinement == walked), (arr.rows(), u, sorted(cell))
    return len(found)


def _sorted_types(types) -> list[TypeVector]:
    ordered = sorted(types, key=lambda t: t.key())
    if ordered and any(t.n != ordered[0].n for t in ordered):
        raise ValueError("collection mixes types of different lengths")
    return ordered


def elimination_oracle(types) -> CheckResult:
    """Elimination by the direct scan: for every pair, every collection
    member is tested against every position (O(T^3 n))."""
    ordered = _sorted_types(types)
    if not ordered:
        return CheckResult(True)
    n = ordered[0].n
    pool = [t.entries for t in ordered]
    for ia, A in enumerate(ordered):
        for B in ordered[ia:]:
            a, b = A.entries, B.entries
            union = tuple(x | y for x, y in zip(a, b))
            needed = set(range(n))
            for c in pool:
                if all(ck in (ak, bk, uk) for ck, ak, bk, uk in zip(c, a, b, union)):
                    needed -= {j for j in tuple(needed) if c[j] == union[j]}
                    if not needed:
                        break
            if needed:
                return CheckResult(False, (A, B, min(needed) + 1))
    return CheckResult(True)


@dataclass(frozen=True)
class ComparabilityGraph:
    """Semidirected graph on coordinate labels built from a pair of types.

    A directed edge j -> k records the strict relation "j beats k" forced
    at some hyperplane; an undirected edge records equality.  Any
    coordinate contributing a directed orientation overrides undirected
    contributions for that pair.
    """

    d: int
    undirected_edges: frozenset[frozenset[int]]
    directed_edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        labels = {x for edge in self.directed_edges for x in edge}.union(*self.undirected_edges)
        if not labels <= set(range(1, self.d + 1)):
            raise ValueError("edges must join labels in 1..d")
        for j, k in self.directed_edges:
            if j == k:
                raise ValueError("no self-loops")
        for pair in self.undirected_edges:
            if len(pair) != 2:
                raise ValueError("undirected edges join two distinct labels")
            j, k = sorted(pair)
            if (j, k) in self.directed_edges or (k, j) in self.directed_edges:
                raise ValueError("a pair may appear in only one edge set")


def comparability_graph(A: TypeVector, B: TypeVector, d: int | None = None) -> ComparabilityGraph:
    """Edges j ~ k for j in A_i, k in B_i (j != k): undirected when both
    labels lie in A_i n B_i, otherwise directed j -> k; a directed
    contribution from any coordinate overrides undirected ones."""
    if A.n != B.n:
        raise ValueError("types must have the same number of entries")
    if d is None:
        d = max(A.max_label(), B.max_label())
    undirected: set[frozenset[int]] = set()
    directed: set[tuple[int, int]] = set()
    for ai, bi in zip(A.entries, B.entries):
        both = ai & bi
        for j in ai:
            for k in bi:
                if j == k:
                    continue
                if j in both and k in both:
                    undirected.add(frozenset((j, k)))
                else:
                    directed.add((j, k))
    undirected -= {frozenset((j, k)) for j, k in directed}
    return ComparabilityGraph(d, frozenset(undirected), frozenset(directed))


def packed(g: ComparabilityGraph) -> int:
    """The graph as three d x d bit matrices (bit (j-1)*d + k-1 is j -> k),
    packed into one int: directed edges, their reversals, undirected edges."""
    edges = [(j, k, 0) for j, k in g.directed_edges] + [(k, j, 1) for j, k in g.directed_edges]
    edges += [(j, k, 2) for e in g.undirected_edges for j, k in permutations(e)]
    return sum(1 << field * g.d * g.d + (j - 1) * g.d + k - 1 for j, k, field in edges)


def packed_acyclic(edges: int, d: int) -> bool:
    """Whether a graph in :func:`packed`'s packing (the packing of
    ``axioms._pair_packer``) has no cycle through a directed edge
    (undirected edges walked either way), in O(d) operations on d^2-bit
    ints.  Warshall's closure ORs row m into every row reaching m with
    one multiplication; an edge j -> k is on a cycle when k reaches j."""
    directed, reversed_, undirected = (edges >> i * d * d & (1 << d * d) - 1 for i in range(3))
    reach = directed | (undirected & ~(directed | reversed_))
    column = sum(1 << a * d for a in range(d))
    for m in range(d):
        reach |= (reach >> m & column) * (reach >> m * d & (1 << d) - 1)
    return not reach & reversed_


def is_acyclic(g: ComparabilityGraph) -> bool:
    """No cycle that traverses at least one directed edge forward
    (undirected edges may be walked either way), by the packed closure
    :func:`packed_acyclic`."""
    return packed_acyclic(packed(g), g.d)


def acyclic_oracle(g: ComparabilityGraph) -> bool:
    """Acyclicity by a dict-of-dicts transitive closure."""
    nodes = range(1, g.d + 1)
    reach = {a: {b: False for b in nodes} for a in nodes}
    for j, k in g.directed_edges:
        reach[j][k] = True
    for pair in g.undirected_edges:
        j, k = tuple(pair)
        reach[j][k] = True
        reach[k][j] = True
    for mid in nodes:
        for a in nodes:
            if reach[a][mid]:
                row_a, row_m = reach[a], reach[mid]
                for b in nodes:
                    if row_m[b]:
                        row_a[b] = True
    return not any(reach[k][j] for j, k in g.directed_edges)


def comparability_oracle(types, d: int | None = None) -> CheckResult:
    """Comparability from a validated graph and the dict closure per pair."""
    ordered = _sorted_types(types)
    for ia, A in enumerate(ordered):
        for B in ordered[ia:]:
            if not acyclic_oracle(comparability_graph(A, B, d)):
                return CheckResult(False, (A, B))
    return CheckResult(True)


def pairwise_elimination_oracle(types) -> CheckResult:
    """Elimination one pair at a time: bit t of ``masks[k][E]`` marks the
    t-th sorted type whose k-th entry is E, and a pair ANDs its n masks of
    A_k, B_k and A_k u B_k (O(T^2 n) operations on T-bit ints)."""
    ordered = _sorted_types(types)
    masks: list[dict] = [{} for _ in ordered[0].entries] if ordered else []
    for bit, t in enumerate(ordered):
        for m, entry in zip(masks, t.entries):
            m[entry] = m.get(entry, 0) | 1 << bit
    # per position and entry pair (a, b): (masks of a, b or a u b; mask of a u b)
    cells = [{(a, b): (m[a] | m[b] | m.get(a | b, 0), m.get(a | b, 0)) for a in m for b in m}
             for m in masks]
    for ia, A in enumerate(ordered):
        for B in ordered[ia:]:
            pair = [c[ab] for c, ab in zip(cells, zip(A.entries, B.entries))]
            match = reduce(and_, (either for either, _ in pair))
            for j, (_, union) in enumerate(pair, 1):
                if not match & union:
                    return CheckResult(False, (A, B, j))
    return CheckResult(True)


def pairwise_comparability_oracle(types, d: int | None = None) -> CheckResult:
    """Comparability one pair at a time: a pair ORs its n packed entry
    graphs and :func:`packed_acyclic` closes each distinct graph once."""
    ordered = _sorted_types(types)
    if d is None:
        d = max((t.max_label() for t in ordered), default=1)
    entries = {e for t in ordered for e in t.entries}
    graphs = {(a, b): packed(comparability_graph(TypeVector((a,)), TypeVector((b,)), d))
              for a in entries for b in entries}
    acyclic = cache(partial(packed_acyclic, d=d))
    for ia, A in enumerate(ordered):
        for B in ordered[ia:]:
            if not acyclic(reduce(or_, [graphs[ab] for ab in zip(A.entries, B.entries)])):
                return CheckResult(False, (A, B))
    return CheckResult(True)


def _cut(entry: frozenset[int], P: OrderedPartition) -> frozenset[int]:
    """An entry cut to its intersection with the first block of P it meets."""
    for block in P.blocks:
        hit = entry & block
        if hit:
            return hit
    raise ValueError("partition does not cover the type's labels")


def refine(T: TypeVector, P: OrderedPartition) -> TypeVector:
    """Refinement of a type by an ordered partition: each entry is cut to
    its intersection with the first block it meets.

    This is the type reached by an infinitesimal move in a direction that
    is constant on blocks and strictly larger on earlier blocks.
    """
    return TypeVector(tuple(_cut(A, P) for A in T.entries))


def arrangement_cell_dim(arr: Arrangement, T: TypeVector) -> int:
    """Affine dimension (inside projective space) of a type's realization
    set; raises if the type is not a cell of the arrangement."""
    result = realizable(arr, T)
    if not result.realizable:
        raise ValueError(f"type {T.text()} is not a cell of the arrangement")
    return result.dimension


#: Every ordered partition of {1, ..., d}, enumerated once per d.
_ordered_partitions = cache(enumerate_ordered_partitions)


def surrounding_oracle(types, d: int) -> CheckResult:
    """Surrounding by building every refinement of every type by every
    ordered partition, as :func:`refine` does; each distinct entry is cut
    by each partition once."""
    ordered = _sorted_types(types)
    present = {T.entries for T in ordered}
    partitions = _ordered_partitions(d)
    cuts: dict[frozenset[int], list[frozenset[int]]] = {}
    for T in ordered:
        for e in T.entries:
            if e not in cuts:
                cuts[e] = [_cut(e, P) for P in partitions]
        for P, refined in zip(partitions, zip(*map(cuts.__getitem__, T.entries))):
            if refined not in present:
                return CheckResult(False, (T, P))
    return CheckResult(True)


def render_svg_oracle(arr: Arrangement, bold: set[int]) -> str:
    """The CLI's SVG picture built as an ElementTree and serialised by
    ``ET.tostring``: the same elements, attributes and order as
    :func:`troparr.cli.render_svg`, which writes them as text."""
    pts = [(p[0] - p[2], p[1] - p[2]) for p in arr.apexes]
    xs = [float(x) for x, _ in pts]
    ys = [float(y) for _, y in pts]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    margin = 0.2 * span
    ray_len = 3.0 * span
    lo_x, hi_x = min(xs) - margin, max(xs) + margin
    lo_y, hi_y = min(ys) - margin, max(ys) + margin
    view = (lo_x, -hi_y, hi_x - lo_x, hi_y - lo_y)
    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "version": "1.1",
            "viewBox": " ".join(f"{v:.6g}" for v in view),
            "width": "640",
            "height": "640",
        },
    )
    thin = f"{span / 150:.6g}"
    thick = f"{span / 50:.6g}"
    directions = ((1.0, 1.0), (0.0, -1.0), (-1.0, 0.0))
    for i, (ax, ay) in enumerate(pts, 1):
        thick_rays = i in bold
        for dx, dy in directions:
            x2 = float(ax) + ray_len * dx
            y2 = float(ay) + ray_len * dy
            ET.SubElement(
                svg,
                "line",
                {
                    "class": "ray bold" if thick_rays else "ray",
                    "x1": f"{float(ax):.6g}",
                    "y1": f"{-float(ay):.6g}",
                    "x2": f"{x2:.6g}",
                    "y2": f"{-y2:.6g}",
                    "stroke": "#000000",
                    "stroke-width": thick if thick_rays else thin,
                },
            )
    for ax, ay in pts:
        ET.SubElement(
            svg,
            "circle",
            {
                "class": "apex",
                "cx": f"{float(ax):.6g}",
                "cy": f"{-float(ay):.6g}",
                "r": f"{span / 40:.6g}",
                "fill": "#000000",
            },
        )
    return ET.tostring(svg, encoding="unicode") + "\n"
