"""Shared fixtures: the two worked example arrangements, random
arrangement generators, and independent oracles (sampling, exact rank
and determinant via sympy, direct scans for the axiom checks and the
lower envelope, the feasibility DFS on Fraction coordinates, flips
without the envelope dedupe) used to cross-check the main code paths,
and the ``--grid`` option that adds the larger exhaustive grids."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy

from troparr import (
    Arrangement,
    CellGraph,
    CheckResult,
    ComparabilityGraph,
    ProjectivePoint,
    RealizationResult,
    TypeVector,
    apex_type,
    comparability_graph,
    dual_subdivision,
    enumerate_ordered_partitions,
    is_generic,
    is_triangulation,
    refine,
    refines,
    type_of_point,
)
from troparr.secondary import _perturbations


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


def random_generic_arrangement(rng: random.Random, n: int, d: int) -> Arrangement:
    while True:
        arr = random_arrangement(rng, n, d)
        if is_generic(arr):
            return arr


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
        report = is_generic(arr)
        if {st.index for st in report.apexes if not st.generic} != expected_bad:
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


def volume_oracle(g: CellGraph) -> int:
    """Normalized volume as the number of pieces of the cell's envelope
    under the lexicographic lift 3^((i-1)d + (j-1)) (every piece a unit
    simplex)."""
    lex = [[3 ** ((i - 1) * g.d + (j - 1)) for j in range(1, g.d + 1)] for i in range(1, g.n + 1)]
    pieces = envelope_oracle(g.n, g.d, lex, g.edges)
    assert all(len(piece.edges) == g.n + g.d - 1 for piece in pieces)
    return len(pieces)


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


def refinements_oracle(arr: Arrangement, base, samples: int | None = None, seed: int = 0) -> frozenset:
    """Refining triangulations by enumerating the types of every
    apex-generic safe perturbation, repeated subdivisions included."""
    if samples is None:
        samples = 2 * arr.n * arr.d
    if is_triangulation(base):
        return frozenset({base})
    found = set()
    for cand in _perturbations(arr, samples, seed):
        if is_generic(cand):
            t = dual_subdivision(cand)
            if is_triangulation(t):
                assert refines(t, base)
                found.add(t)
    return frozenset(found)


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


def surrounding_oracle(types, d: int) -> CheckResult:
    """Surrounding by building every refinement with ``geometry.refine``."""
    ordered = _sorted_types(types)
    present = set(ordered)
    partitions = enumerate_ordered_partitions(d)
    for T in ordered:
        for P in partitions:
            if refine(T, P) not in present:
                return CheckResult(False, (T, P))
    return CheckResult(True)
