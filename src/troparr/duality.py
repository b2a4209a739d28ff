"""Dual subdivisions of the product of simplices.

A type becomes a bipartite cell graph (edge (i,j) for each label j in
entry i); the 0-dimensional cells of an arrangement, its vertices, give
the maximal cells of its dual subdivision.  That subdivision is the
lower-envelope regular subdivision induced by lifting product vertex
(i,j) to the apex coordinate v_ij, so :func:`dual_subdivision` walks
the envelope (below) instead of enumerating every type.  Every edge set
here, a cell, a tree, a forest or one side of a cycle, is one int mask
with bit (i-1)·d + (j-1) for edge (i, j), the encoding of
:class:`~troparr.core.CellGraph`: its set bits, lowest first, are its
edges in sorted order, and its size is its bit count.  Every question
about one cell is answered by a spanning forest of its edges, grown by
a union-find, and by the fundamental cycles of that forest: whether it
spans and its dimension come from the forest's size, and its cycles
from one rooted pass.
When min(n, d) = 3 the vertices are read off before any walk: the
arrangement is one of tropical lines in the plane, and its vertices are
the apexes and the points where two lines cross, each found in closed
form on ints (:func:`_planar_cells`).  Their type graphs are accepted
only as C(n+d-2, n-1) distinct spanning trees, which no non-generic
input has (:func:`_certified_cells`), and every input refused is walked.
The read-off is charged what the walk is, so exit codes and messages do
not depend on which route answered.  :func:`regular_subdivision`,
genericity and volumes never use it.
:func:`check_correspondence` needs every type for the axioms, so it
keeps the full enumeration and counts the cells from its 0-dimensional
types, each a tree exactly when it holds n + d - 1 labels, with no cell
graph built.  The enumeration walks the envelope first and reads a
generic input's types off its trees, and genericity reads the same walk
(:attr:`~troparr.core.Arrangement._walk_head`), so what the check
cross-checks on a generic input is the axioms and the enumeration's
count of T(n, d) types.

The lower envelope is computed by a pivot walk: lexicographically
perturbed integer heights, built once per walk from the heights'
integer form (:func:`~troparr.core._integer_rows`), give a regular
triangulation refining it, whose simplices are spanning trees of
K_{n,d}; the walk moves from tree to tree across shared facets, tried
in ascending bit order, and maps each tree to the coarse cell that
holds it.
Each tree edge's side, the nodes on it and the support edges entering
it, is a bitmask: one rooted pass gives the start tree's, and a pivot
changes only the sides of the edges on the cycle the entering edge
closes.  The least entering edge comes from the set bits of the
entering mask alone, and the facet back to the tree a pivot came from
is never tried.  Every triangulation of the product of simplices has
C(n+d-2, n-1) trees, whatever the heights, and each costs n·d integer
slacks and, per tree edge, a scan of the edges entering its side,
instead of a scan of all 2^(n·d) edge subsets; that count is the unit
:func:`dual_subdivision`'s budget charges before a walk starts.
:func:`regular_subdivision` and :func:`dual_subdivision` build their
cells unvalidated, from their masks, in one place
(:meth:`Subdivision._trusted`): each holds the tree it was read at, so
it spans and is connected.  Each tree is a unit simplex, so the number
of trees the walk maps to a cell is its normalized volume (:attr:`Subdivision.volumes`),
with no second walk; run over the edges of one cell with zero heights,
the walk triangulates that cell alone, as :func:`normalized_volume` does
for a cell built by hand.  The walk yields its cells lazily, so the
genericity test stops at the first cell that is not a spanning tree.
The first of that cell's sorted edges that closes a cycle in the forest
grown by the edges before it names a square minor: the edge's
fundamental cycle alternates between two perfect matchings of the
minor, both tight, so its min-plus determinant is attained twice.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb
from typing import Iterable, Iterator, Sequence

from .core import Arrangement, CellGraph, Meter, ResourceLimitError, _bits, _integer_rows, to_fraction
from .geometry import GenericityReport, TiedMinor, enumerate_realizations, is_generic
from .axioms import AxiomReport, is_tropical_oriented_matroid

#: Cap on the work of one normalized volume, trees x (n + d) x |E|: the
#: walk pays a slack per edge for each tree and, per tree edge, a scan of
#: the edges entering its side.  The same product caps the cone of one
#: coarse cell in :func:`~troparr.secondary.refining_triangulations`.
MAX_VOLUME_WORK = 20_000_000


def _forest(n: int, d: int, mask: int) -> tuple[int, int]:
    """The spanning forest that the edges of ``mask`` grow in ascending
    bit order, which is their sorted order (:class:`CellGraph`), and the
    bit of the first edge whose ends that forest already joins (0 when no
    edge closes a cycle), both as masks.  Nodes are hyperplane i -> i-1
    and coordinate j -> n+j-1, joined by a union-find over a list of all
    n+d nodes."""
    root = list(range(n + d))
    forest = closing = 0
    for k in _bits(mask):
        a, b = k // d, n + k % d
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a == b:
            closing = closing or 1 << k
        else:
            root[a] = b
            forest |= 1 << k
    return forest, closing


def cell_dim(g: CellGraph) -> int:
    """Affine dimension of the cell spanned by the graph's product
    vertices: (#covered nodes) - (#support components) - 1, which is
    the size of a spanning forest of the support, less one."""
    if not g.mask:
        raise ValueError("cell graph has no edges")
    return _forest(g.n, g.d, g.mask)[0].bit_count() - 1


def is_spanning_connected(g: CellGraph) -> bool:
    return _forest(g.n, g.d, g.mask)[0].bit_count() == g.n + g.d - 1


def is_spanning_tree(g: CellGraph) -> bool:
    return is_spanning_connected(g) and g.mask.bit_count() == g.n + g.d - 1


@dataclass(frozen=True)
class Subdivision:
    """A polyhedral subdivision of the product of simplices, recorded by
    its maximal cells' graphs.  The constructor checks that each cell
    spans and is connected, not that the cells have disjoint interiors,
    which every reader expects; walked subdivisions have them by
    construction, and a run-time check belongs to ROADMAP item 7,
    certificates at run time."""

    n: int
    d: int
    maximal_cells: frozenset[CellGraph]

    def __post_init__(self) -> None:
        cells = frozenset(self.maximal_cells)
        if not cells:
            raise ValueError("a subdivision needs at least one maximal cell")
        for g in cells:
            if not isinstance(g, CellGraph) or (g.n, g.d) != (self.n, self.d):
                raise ValueError(f"maximal cell {g!r} is not a {self.n} x {self.d} cell graph")
            if not is_spanning_connected(g):
                raise ValueError(f"maximal cell {g.text()} must span and be connected")
        object.__setattr__(self, "maximal_cells", cells)

    @classmethod
    def _trusted(cls, n: int, d: int, masks: Iterable[int]) -> "Subdivision":
        """A subdivision from the distinct masks of nonempty n x d cells
        known to be one, as the walks and the planar read-off find them,
        unvalidated: the one place their masks become cells."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "n", n)
        object.__setattr__(sub, "d", d)
        object.__setattr__(sub, "maximal_cells", frozenset(CellGraph._trusted(n, d, m) for m in masks))
        return sub

    @cached_property
    def _sorted_cells(self) -> tuple[CellGraph, ...]:
        return tuple(sorted(self.maximal_cells, key=lambda g: _bits(g.mask)))

    def sorted_cells(self) -> tuple[CellGraph, ...]:
        """The maximal cells in the order of their sorted edges, which is
        the order of their set bits, lowest first; sorted on first use
        and kept outside the dataclass fields."""
        return self._sorted_cells

    @cached_property
    def volumes(self) -> dict[CellGraph, int]:
        """Normalized volume of each maximal cell.

        A walked subdivision with a cell that is not a tree has them from
        its walk (:func:`_subdivision`): the trees the walk maps to each
        cell.  They are the simplices of the triangulation that the
        perturbed heights of :func:`_pivot_walk` induce, which refines the
        subdivision and so restricts to a triangulation of each cell, and
        the walk visits each once.  Every simplex is unimodular (a
        bipartite incidence matrix is totally unimodular), so a cell's
        trees number its volume (De Loera-Rambau-Santos, ch. 2 and 6.2).
        Any other subdivision reads them on first use: 1 for a tree and
        :func:`normalized_volume` for any other cell."""
        tree = self.n + self.d - 1
        return {g: 1 if g.mask.bit_count() == tree else normalized_volume(g) for g in self.maximal_cells}


#: The labels of each label mask over labels 1..3 (:class:`~troparr.core.TypeVector`),
#: and the mask itself where it holds two labels or more, else 0.  Bit 0,
#: no label, is dropped: the read-off never sets it.
_THREE = [_bits(mask & 0b1110) for mask in range(16)]
_JOINS = [mask if len(labels) > 1 else 0 for mask, labels in enumerate(_THREE)]


@cache
def _line_edges(lines: int, flip: bool) -> tuple[tuple[int, ...], ...]:
    """For each of ``lines`` lines q, the edge mask (:class:`CellGraph`)
    of the edges (q, j) of an n x 3 matrix, or (j, q) of a 3 x ``lines``
    one with ``flip``, of its labels j under every mask of labels 1..3,
    built once per shape: 16 ints a line, kept for each shape met."""
    return tuple(
        tuple(sum(1 << ((j - 1) * lines + q - 1 if flip else (q - 1) * 3 + j - 1) for j in labels) for labels in _THREE)
        for q in range(1, lines + 1)
    )


def _planar_cells(arr: Arrangement) -> set[int] | None:
    """The edge masks of the maximal cells of a generic arrangement with
    min(n, d) = 3, read off its apexes and the crossings of its lines, or
    None when :func:`_certified_cells` refuses them, as it does on every
    non-generic input.

    An n x 3 apex matrix is n tropical lines in the plane; a 3 x d one is
    read on its transpose, d lines whose apexes are its columns.  Adding
    a constant to a line's apex moves no type, so the columns need no
    normalizing, and the whole read-off runs on the arrangement's
    integer form (:func:`~troparr.core._integer_rows`).

    A point x lies on the line with apex u when max_j (x_j - u_j) is
    reached at least twice.  Two lines u and w, with a = u - w, cross at
    one point when a's three entries differ: with l the least of them
    and k the middle one, x = w with x_l lowered by a_k - a_l.  There
    line w's maximum ties the other two labels and line u's ties l and
    k, each with the third label strictly below.  When two entries of a
    are equal the lines are not generic, and None is returned."""
    rows = arr._integer_form[1]
    flip = arr.d != 3
    lines = list(zip(*rows)) if flip else rows
    points = list(lines)
    for p, u in enumerate(lines):
        for w in lines[p + 1:]:
            a = (u[0] - w[0], u[1] - w[1], u[2] - w[2])
            if a[0] == a[1] or a[1] == a[2] or a[0] == a[2]:
                return None
            low, mid, _ = sorted(range(3), key=a.__getitem__)
            x = list(w)
            x[low] += a[low] - a[mid]
            points.append(x)
    return _certified_cells(arr.n, arr.d, lines, points)


def _certified_cells(
    n: int, d: int, lines: Sequence[Sequence[int]], points: Iterable[Sequence[int]]
) -> set[int] | None:
    """The graphs, as edge masks, of the types of ``points`` under ``lines``
    (apexes of 3 ints each, the n rows of an n x 3 matrix or the d
    columns of a 3 x d one, each line's edge (j, i) then read as (i, j)),
    when they certify that they are all the maximal cells of the dual
    subdivision, else None.

    The certificate.  Each point's type is computed exactly, and its
    graph must be a spanning tree: n + d - 1 edges that join all n + d
    nodes.  Every line node meets its labels, so the graph is connected
    exactly when the three label nodes are, through the lines tying two
    labels or more; any two sets of two or more of three labels share
    one, so those lines join one group, which must hold all three
    labels.  A type whose graph spans and is connected ties every
    coordinate into one group, so the point is a vertex of the
    arrangement, and its graph a maximal cell of the dual subdivision; a
    tree is a unit simplex, of normalized volume 1.  Cells have disjoint
    interiors and their volumes add up to C(n+d-2, n-1), so when there
    are that many distinct trees they are all the cells.  This is the
    count :func:`~troparr.secondary.refining_triangulations` certifies a
    walk by.  A non-generic input has a cell that is not a tree, so its
    points are never accepted, whichever points they are."""
    flip = d != 3
    size = n + d - 1
    cells = set()
    for x0, x1, x2 in points:
        cell = joined = 0
        for (v0, v1, v2), table in zip(lines, _line_edges(len(lines), flip)):
            t0, t1, t2 = x0 - v0, x1 - v1, x2 - v2
            top = max(t0, t1, t2)
            mask = (t0 == top) << 1 | (t1 == top) << 2 | (t2 == top) << 3
            joined |= _JOINS[mask]
            cell |= table[mask]
        if cell.bit_count() != size or joined != 0b1110:
            return None
        cells.add(cell)
    return cells if len(cells) == comb(n + d - 2, n - 1) else None


def dual_subdivision(arr: Arrangement, budget: int | Meter | None = None) -> Subdivision:
    """The arrangement's dual subdivision of the product of simplices:
    the lower envelope of its apex matrix, walked by :func:`_pivot_walk`
    over the full support, whose C(n+d-2, n-1) trees are charged to the
    :class:`~troparr.core.Meter` of ``budget`` before it starts.  When
    min(n, d) = 3 the cells are first read off by :func:`_planar_cells`,
    charged the same, and every input it refuses is walked."""
    n, d = arr.n, arr.d
    Meter.of(budget).charge("pivot walk", comb(n + d - 2, n - 1), "trees")
    if min(n, d) == 3 and (cells := _planar_cells(arr)) is not None:
        return Subdivision._trusted(n, d, cells)
    return _subdivision(n, d, _full_walk(n, d, arr._integer_form[1]))


def _coerce_weights(weights) -> tuple[tuple[Fraction, ...], ...]:
    rows = tuple(tuple(to_fraction(x) for x in row) for row in weights)
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("weights must be a rectangular matrix")
    if len(rows[0]) < 1:
        raise ValueError("weights need at least one column")
    return rows


def _sides(n: int, d: int, tree: int, marks: list[int]) -> dict[int, int]:
    """For each edge f of the spanning tree with edge mask ``tree``, keyed
    by f's bit, the union of the disjoint bitmasks ``marks[v]`` over the
    nodes v on the side holding its left end a = f // d once f is dropped.
    One pass rooted at node 0 gives each subtree's union: a's side is a's
    subtree when f's right end b = n + f % d is a's parent, else all but
    b's subtree."""
    adj: list[list[int]] = [[] for _ in range(n + d)]
    ends = [(f, f // d, n + f % d) for f in _bits(tree)]
    for _, a, b in ends:
        adj[a].append(b)
        adj[b].append(a)
    parent, order = [-1] * (n + d), [0]
    parent[0] = 0
    for v in order:
        for u in adj[v]:
            if parent[u] < 0:
                parent[u] = v
                order.append(u)
    below = marks[:]
    for v in reversed(order[1:]):
        below[parent[v]] |= below[v]
    full = below[0]
    return {f: below[a] if parent[a] == b else full ^ below[b] for f, a, b in ends}


def _swapped_sides(n: int, d: int, sides: dict[int, int], out: int, into: int, side: int, full: int) -> dict[int, int]:
    """:func:`_sides` of the tree that swaps the edge of bit ``out`` for
    that of bit ``into``, from the tree's own ``sides``: ``side`` is out's
    side, which holds into's right end n + into % d and not its left end
    into // d, and ``full`` the union of all marks.

    A tree edge f whose side holds neither or both of into's ends is off
    into's cycle and keeps its side.  On the cycle, dropping out and f
    leaves three parts, and into joins the two that hold its ends, so
    f's side gains or loses the part across out from f: the rest of the
    tree when f's left end f // d lies in ``side``, else ``side``.  Into's
    own side holds its left end: the rest."""
    rest = full ^ side
    split = (1 << into // d, 1 << n + into % d)
    ends = split[0] | split[1]
    swapped = {into: rest}
    for f, x in sides.items():
        if f != out:
            swapped[f] = x ^ (rest if side >> f // d & 1 else side) if x & ends in split else x
    return swapped


def _cycle_masks(n: int, d: int, tree: int, edges: int) -> list[tuple[int, int]]:
    """The fundamental cycle that each edge (i, j) of the mask ``edges``
    off the spanning ``tree``, a mask too, closes in it, in ascending bit
    order, as two edge masks (:class:`CellGraph`): ``plus`` holds (i, j)
    and the tree edges on the cycle's plus side, ``minus`` those on its
    minus side.

    One pass rooted at hyperplane 1 gives each node the mask of the tree
    edges on its path to the root, so the cycle's tree edges are the XOR
    of the masks of (i, j)'s ends.  Walked from hyperplane i to
    coordinate j and back along (i, j), the cycle alternates: the plus
    side holds (i, j) and the tree edges walked from their coordinate
    end, the minus side those walked from their hyperplane end, two
    perfect matchings of the rows and columns the cycle meets.  A tree
    edge on i's path is walked from its child end, one on j's path from
    its parent end."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n + d)]
    for k in _bits(tree):
        a, b = k // d, n + k % d
        adj[a].append((b, k))
        adj[b].append((a, k))
    # path[v]: the tree edges from v up to the root; low: those whose
    # child is their hyperplane end
    path, low, stack = [-1] * (n + d), 0, [0]
    path[0] = 0
    while stack:
        v = stack.pop()
        for u, k in adj[v]:
            if path[u] < 0:
                path[u] = path[v] | 1 << k
                low |= (u < n) << k
                stack.append(u)
    cycles = []
    for k in _bits(edges & ~tree):
        up, down = path[k // d], path[n + k % d]
        minus = up & ~down & low | down & ~up & ~low
        cycles.append(((up ^ down) & ~minus | 1 << k, minus))
    return cycles


def _pivot_walk(n: int, d: int, weights: Sequence[Sequence[int]], support: int) -> Iterator[int]:
    """Coarse cell of every simplex of a fine regular triangulation of the
    lower envelope over a spanning connected support, yielded one simplex
    at a time, so a caller may stop at any cell.  The support and each
    cell are edge masks, bit (i-1)·d + (j-1) for edge (i, j)
    (:class:`CellGraph`).

    The heights w must be ints (:func:`~troparr.core._integer_rows`); a
    Fraction gives wrong cells, with no error.  Nodes are left i -> i-1
    and right j -> n+j-1.  The integer heights H_ij = w_ij 3^(nd) +
    3^((i-1)d+(j-1)) are generic: an alternating cycle sum of distinct
    powers of 3 never vanishes.  So every vertex of the polyhedron
    {z_j - u_i <= H_ij on the support} is tight on a spanning tree, a
    simplex of the triangulation, and since those powers sum to less
    than 3^(nd)/2 the simplex lies in the w-cell of its edges with H-slack
    below 3^(nd)/2, that is at most 3^(nd) // 2 as 3^(nd) is odd (the
    edges tight under w).

    Each pivot drops a tree edge and raises the side holding its left
    end until the first support edge into that side turns tight: the
    least (slack, edge) over the set bits of the entering edges, so ties
    go to the lowest edge.  A tree is its edge mask.  The facet through
    the edge that entered a tree is skipped: a facet lies in exactly two
    simplices, so that pivot leads back to the tree the walk came from.
    The start tree's sides come from one rooted pass (:func:`_sides`),
    every other tree's from its predecessor's (:func:`_swapped_sides`).
    Per tree the walk pays one integer slack per support edge, O(n+d) to
    swap the sides, and per tree edge a scan of the edges entering its
    side.  It visits every tree once, breadth first, trying a tree's
    facets in ascending bit order of the edges they drop, so the order
    of the trees, and with it the first tied minor a check names,
    follows from the heights and the support alone.
    Over the full support, a walk run to its end checks that it visited
    all C(n+d-2, n-1) simplices.
    """
    scale = 3 ** (n * d)
    half = scale // 2
    flat = _bits(support)
    w, m = n + d, len(flat)
    # node v's mark: bit v, bit w + k for each edge k ending at v on the
    # right and bit w + m + k for each edge k starting at v on the left,
    # so a side's union tells its nodes and the edges entering it
    marks = [1 << v for v in range(w)]
    edges, edge_bit, near = [], [], [[] for _ in range(w)]
    for k, f in enumerate(flat):
        a, b, h = f // d, n + f % d, weights[f // d][f % d] * scale + 3 ** f
        edges.append((a, b, h))
        edge_bit.append(1 << f)
        marks[b] |= 1 << (w + k)
        marks[a] |= 1 << (w + m + k)
        near[a].append((b, -h))
        near[b].append((a, h))
    # start vertex: attach one node at a time, across the first edge with
    # one end attached, at its tightest feasible potential, so each
    # attachment makes exactly one edge tight
    p = {0: 0}
    while len(p) < w:
        for a, b, _ in edges:
            if (a in p) != (b in p):
                break
        if a in p:
            p[b] = min(p[x] + h for x, h in near[b] if x in p)
        else:
            p[a] = max(p[y] + h for y, h in near[a] if y in p)
    # each queued tree: its edge mask (the start's: the edges made tight),
    # the potentials, the entered edge's bit (-1 at the start), its sides
    key = sum(x for x, (a, b, h) in zip(edge_bit, edges) if h == p[b] - p[a])
    queue = deque([(key, [p[v] for v in range(w)], -1, None)])
    seen, visited, low_m, full = {key}, 0, (1 << m) - 1, sum(marks)
    while queue:
        key, p, entered, sides = queue.popleft()
        visited += 1
        slack = [h - p[b] + p[a] for a, b, h in edges]
        yield sum(x for x, s in zip(edge_bit, slack) if s <= half)
        if sides is None:
            sides = _sides(n, d, key, marks)
        for e in sorted(sides):  # the tree's edge bits, lowest first
            if e == entered:
                continue  # the facet back to the tree this one came from
            side = sides[e]
            # edges whose right end is on the side and whose left end is not
            entering = side >> w & ~(side >> (w + m)) & low_m
            if not entering:
                continue  # a boundary facet
            # the least (slack, edge) over the set bits, lowest bit first
            k = (entering & -entering).bit_length() - 1
            t = slack[k]
            entering &= entering - 1
            while entering:
                j = (entering & -entering).bit_length() - 1
                if slack[j] < t:
                    t, k = slack[j], j
                entering &= entering - 1
            pivot = key ^ 1 << e | edge_bit[k]
            if pivot not in seen:
                seen.add(pivot)
                queue.append((
                    pivot,
                    [z + t if side >> v & 1 else z for v, z in enumerate(p)],
                    flat[k],
                    _swapped_sides(n, d, sides, e, flat[k], side, full),
                ))
    expected = comb(n + d - 2, n - 1)
    if len(edges) == n * d and visited != expected:
        raise RuntimeError(f"pivot walk visited {visited} of {expected} simplices of a {n}x{d} triangulation")


def _full_walk(n: int, d: int, rows: Sequence[Sequence[int]]) -> Iterator[int]:
    """The pivot walk over the full support of the n x d int heights ``rows``."""
    return _pivot_walk(n, d, rows, (1 << n * d) - 1)


def _subdivision(n: int, d: int, cells: Iterable[int]) -> Subdivision:
    """The subdivision of the distinct cells a walk over the full support
    yields, unvalidated: each holds the tree it was read at, whose edges
    all have slack 0, so it spans and is connected, and its edges are
    support edges, in range.  Each cell's tree count, its volume, is kept
    when there are fewer cells than trees; a triangulation's are all 1."""
    counts = Counter(cells)
    sub = Subdivision._trusted(n, d, counts)
    if len(counts) < comb(n + d - 2, n - 1):
        object.__setattr__(sub, "volumes", {g: counts[g.mask] for g in sub.maximal_cells})
    return sub


def regular_subdivision(weights) -> Subdivision:
    """Regular subdivision of the product of simplices induced by lifting
    vertex (i, j) to height w_ij (lower envelope).

    With the apex matrix of an arrangement as heights this is the
    arrangement's dual subdivision, which :func:`dual_subdivision` walks
    the same way wherever its planar read-off does not answer.  The two
    are checked against each other, and against the 0-dimensional types
    of the type enumeration, by the tests.
    """
    rows = _coerce_weights(weights)
    n, d = len(rows), len(rows[0])
    return _subdivision(n, d, _full_walk(n, d, _integer_rows(rows)[1]))


def _tied_minor(n: int, d: int, mask: int) -> TiedMinor:
    """The minor spanned by the first cycle of the n x d cell of edge mask
    ``mask`` (:class:`~troparr.core.CellGraph`) that is not a tree.

    The cell's edges grow a forest in sorted order; the first edge whose
    ends the forest already joins closes a cycle with the forest path
    between them.  The forest goes on to span the cell and keeps that
    path, so the cycle is that edge's fundamental cycle in it, and its
    two alternating halves are perfect matchings of the rows and
    columns it meets.  The cell's potentials have z_j - u_i <= w_ij,
    with equality on its edges, so every matching of the minor sums to
    at least sum z - sum u, and both of these reach it.
    """
    (plus, minus), = _cycle_masks(n, d, *_forest(n, d, mask))
    plus, minus = (tuple([(k // d + 1, k % d + 1) for k in _bits(half)]) for half in (plus, minus))
    return TiedMinor(tuple(i for i, _ in plus), tuple(sorted(j for _, j in plus)), tuple(sorted((plus, minus))))


def arrangement_heights(arr: Arrangement) -> tuple[tuple[Fraction, ...], ...]:
    """Lifting heights matching an arrangement (its apex rows)."""
    return arr.rows()


def normalized_volume(g: CellGraph) -> int:
    """Normalized lattice volume of a full-dimensional cell.

    Every simplex of the product of simplices is unimodular (a bipartite
    incidence matrix is totally unimodular), so a cell's volume is the
    number of pieces of any of its triangulations.  The cell's own
    vertices are lifted by a lexicographic height (powers of 3), whose
    alternating sums never vanish, so the induced regular subdivision is
    such a triangulation; the pivot walk counts its simplices.  A
    spanning tree is its own only simplex, so its walk visits one tree
    and returns 1.  A walked :class:`Subdivision` counts its volumes in
    its own walk, so only the cells of one built by hand that are not
    trees reach this walk.  It counts its work as it goes, and past
    ``MAX_VOLUME_WORK`` raises :class:`ResourceLimitError`.
    """
    if cell_dim(g) != g.n + g.d - 2:
        raise ValueError("normalized volume needs a full-dimensional cell")
    size = g.mask.bit_count()
    per_tree = (g.n + g.d) * size
    trees = 0
    for _ in _pivot_walk(g.n, g.d, [[0] * g.d] * g.n, g.mask):
        trees += 1
        if trees * per_tree > MAX_VOLUME_WORK:
            raise ResourceLimitError(
                f"normalized volume: {trees} trees x {g.n + g.d} nodes x {size} edges = "
                f"{trees * per_tree} exceed the cap of {MAX_VOLUME_WORK} on cell {g.text()}"
            )
    return trees


def is_triangulation(sub: Subdivision) -> bool:
    """Every maximal cell a spanning tree (a unit simplex), and as many of
    them as the full normalized volume of the product of simplices.  A
    :class:`Subdivision` has already checked that each cell spans and is
    connected, so a cell is a tree exactly when it has n + d - 1 edges;
    the count proves nothing unless the cells have disjoint interiors."""
    if any(g.mask.bit_count() != sub.n + sub.d - 1 for g in sub.maximal_cells):
        return False
    return len(sub.maximal_cells) == comb(sub.n + sub.d - 2, sub.n - 1)


@dataclass(frozen=True)
class CorrespondenceVerdict:
    """Joint verdict on an arrangement: genericity, the axiom report of
    its types, and whether its dual subdivision is a triangulation.
    Whether they satisfy the two implications, :attr:`consistent`, is
    derived from them, not stored."""

    genericity: GenericityReport
    axiom_report: AxiomReport
    triangulation: bool
    type_count: int
    cell_count: int
    expected_simplices: int

    @property
    def generic(self) -> bool:
        return bool(self.genericity)

    @property
    def consistent(self) -> bool:
        """Generic => (tropical oriented matroid and triangulation), and
        non-generic => not a triangulation."""
        if self.generic:
            return self.axiom_report.is_tom and self.triangulation
        return not self.triangulation


def check_correspondence(arr: Arrangement, budget: int | None = None) -> CorrespondenceVerdict:
    """Genericity, axiom checks and triangulation status, plus whether
    generic => (matroid and triangulation) and non-generic => not a
    triangulation hold for this arrangement.

    The budgeted enumeration runs first, and with it the walk over the
    lower envelope, up to its first cell that is not a tree; the
    genericity verdict reads that walk, kept on ``arr``, and walks
    nothing again.  On a generic input the types are read off the walk's
    trees, so the triangulation status agrees with genericity by
    construction.  What the check still cross-checks there is the axioms
    on those types, and the enumeration's certificate that they number
    T(n, d), which it raises on.  On any other input the types come from
    the feasibility search, independent of the walk, so the two
    implications set independent computations against each other.

    The maximal cells are the graphs of the 0-dimensional types, one
    per type.  A vertex's labels tie every coordinate into one group, so
    its graph spans and is connected, and it is a tree exactly when its
    entries hold n + d - 1 labels in all: the test of
    :func:`is_triangulation`, read off the types with no graph built.
    """
    dimensions = enumerate_realizations(arr, budget)
    genericity = is_generic(arr)
    report = is_tropical_oriented_matroid(dimensions, arr.n, arr.d)
    vertices = [T for T, dim in dimensions.items() if dim == 0]
    expected = comb(arr.n + arr.d - 2, arr.n - 1)
    tree = arr.n + arr.d - 1
    triangulation = len(vertices) == expected and all(sum(m.bit_count() for m in T.masks) == tree for T in vertices)
    return CorrespondenceVerdict(
        genericity=genericity,
        axiom_report=report,
        triangulation=triangulation,
        type_count=len(dimensions),
        cell_count=len(vertices),
        expected_simplices=expected,
    )
