"""The lower envelope of an apex matrix: the pivot walk over its trees,
the passes that read one tree or one cell, and the planar read-off.

Lifting product vertex (i, j) of Δ_{n-1} × Δ_{d-1} to height w_ij and
taking the lower envelope gives a regular subdivision; with the apex
matrix as heights it is the arrangement's dual subdivision
(:mod:`troparr.duality`), a triangulation exactly when the arrangement
is generic (:func:`~troparr.geometry.is_generic`).  Every edge set here,
a cell, a tree, a forest or one side of a cycle, is one int mask with
bit (i-1)·d + (j-1) for edge (i, j), the encoding of
:class:`~troparr.core.CellGraph`: its set bits, lowest first, are its
edges in sorted order, and its size is its bit count.  Nodes are
hyperplane i -> i-1 and coordinate j -> n+j-1.  Every question about
one cell is answered by a spanning forest of its edges, grown by a
union-find (:func:`_forest`): whether it spans and its dimension come
from the forest's size.  Every question about one spanning tree, its
sides, its fundamental cycles and the potentials solved along it, is
answered by one pass rooted at hyperplane 1 (:func:`_rooted`).

The lower envelope is computed by a pivot walk: lexicographically
perturbed integer heights, built once per walk from the heights'
integer form (:func:`~troparr.core._integer_rows`), give a regular
triangulation refining it, whose simplices are spanning trees of
K_{n,d}; the walk moves from tree to tree across shared facets, tried
in ascending bit order, and maps each tree to the coarse cell that
holds it.  Each tree is certified from the slacks the walk computes for
it anyway: they are all >= 0 and 0 exactly on the tree, so it is a
simplex of the triangulation, and a walk over the full support counts
C(n+d-2, n-1) of them, so it is the whole triangulation
(:func:`_pivot_walk`).  Every walk in the library, whoever calls it, is
certified so; a tree that fails raises RuntimeError, exit 4.
Each tree edge's side, the nodes on it and the support edges entering
it, is a bitmask: one rooted pass gives the start tree's, and a pivot
changes only the sides of the edges on the cycle the entering edge
closes.  The least entering edge comes from the set bits of the
entering mask alone, and the facet back to the tree a pivot came from
is never tried.  Every triangulation of the product of simplices has
C(n+d-2, n-1) trees, whatever the heights, and each costs n·d integer
slacks and, per tree edge, a scan of the edges entering its side,
instead of a scan of all 2^(n·d) edge subsets; that count is the unit
:func:`~troparr.duality.dual_subdivision`'s budget charges before a walk
starts.  Each tree is a unit simplex, so the number of trees the walk
maps to a cell is its normalized volume; run over the edges of one cell
with zero heights, the walk triangulates that cell alone, as
:func:`~troparr.duality.normalized_volume` does for a cell built by
hand.  The walk yields its cells lazily, so the genericity test stops at
the first cell that is not a spanning tree.  The first of that cell's
sorted edges that closes a cycle in the forest grown by the edges
before it names a square minor (:func:`_tied_minor`): the edge's
fundamental cycle alternates between two perfect matchings of the
minor, both tight, so its min-plus determinant is attained twice.

When min(n, d) = 3 the vertices can be read off with no walk: the
arrangement is one of tropical lines in the plane, and its vertices are
the apexes and the points where two lines cross, each found in closed
form on ints (:func:`_planar_cells`).  Their type graphs are accepted
only as C(n+d-2, n-1) distinct spanning trees, which no non-generic
input has (:func:`_certified_cells`), and every input refused is walked.
:func:`~troparr.duality.dual_subdivision` charges the read-off what the
walk is, so exit codes and messages do not depend on which route
answered; :func:`~troparr.duality.regular_subdivision`, genericity and
volumes never use it.
"""

from __future__ import annotations

from collections import deque
from functools import cache
from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import Arrangement, CellGraph, _bits


class TiedMinor(NamedTuple):
    """A square minor of the apex matrix, rows by columns (1-based,
    ascending), and two distinct perfect matchings of it, each a sorted
    tuple of (row, column) pairs, whose sums both reach the minor's
    min-plus determinant."""

    rows: tuple[int, ...]
    columns: tuple[int, ...]
    matchings: tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]


def _forest(n: int, d: int, mask: int) -> tuple[int, int]:
    """The spanning forest that the edges of ``mask`` grow in ascending
    bit order, which is their sorted order (:class:`~troparr.core.CellGraph`),
    and the bit of the first edge whose ends that forest already joins (0
    when no edge closes a cycle), both as masks, joined by a union-find
    over a list of all n+d nodes."""
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


def _rooted(n: int, d: int, tree: int) -> tuple[list[int], list[int], list[int]]:
    """One pass over the spanning tree of edge mask ``tree`` rooted at
    hyperplane 1, node 0: the nodes in breadth-first order, and two flat
    lists over the n + d nodes, each node's parent and the bit of the
    tree edge to it.  The root is its own parent, with edge -1, so every
    node after the first in the order comes after its parent."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n + d)]
    for k in _bits(tree):
        a, b = k // d, n + k % d
        adj[a].append((b, k))
        adj[b].append((a, k))
    parent, edge, order = [-1] * (n + d), [-1] * (n + d), [0]
    parent[0] = 0
    for v in order:
        for u, k in adj[v]:
            if parent[u] < 0:
                parent[u] = v
                edge[u] = k
                order.append(u)
    return order, parent, edge


def _sides(n: int, d: int, tree: int, marks: list[int]) -> dict[int, int]:
    """For each edge f of the spanning tree with edge mask ``tree``, keyed
    by f's bit, the union of the disjoint bitmasks ``marks[v]`` over the
    nodes v on the side holding its left end f // d once f is dropped.
    One rooted pass (:func:`_rooted`) gives each subtree's union: f joins
    a node to its parent, and the left end's side is that node's subtree
    when the node is the left end, else all but it."""
    order, parent, edge = _rooted(n, d, tree)
    below = marks[:]
    for v in reversed(order[1:]):
        below[parent[v]] |= below[v]
    full = below[0]
    return {edge[v]: below[v] if v < n else full ^ below[v] for v in order[1:]}


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
    order, as two edge masks (:class:`~troparr.core.CellGraph`): ``plus``
    holds (i, j) and the tree edges on the cycle's plus side, ``minus``
    those on its minus side.

    One rooted pass (:func:`_rooted`) gives each node the mask of the
    tree edges on its path to the root, so the cycle's tree edges are the
    XOR of the masks of (i, j)'s ends.  Walked from hyperplane i to
    coordinate j and back along (i, j), the cycle alternates: the plus
    side holds (i, j) and the tree edges walked from their coordinate
    end, the minus side those walked from their hyperplane end, two
    perfect matchings of the rows and columns the cycle meets.  A tree
    edge on i's path is walked from its child end, one on j's path from
    its parent end."""
    order, parent, edge = _rooted(n, d, tree)
    # path[v]: the tree edges from v up to the root; low: those whose
    # child is their hyperplane end
    path, low = [0] * (n + d), 0
    for v in order[1:]:
        bit = 1 << edge[v]
        path[v] = path[parent[v]] | bit
        if v < n:
            low |= bit
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
    (:class:`~troparr.core.CellGraph`).

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

    The certificate.  Before a tree's cell is yielded, its own slacks
    H_ij - p_j + p_i must all be >= 0, and those at 0 must be exactly the
    tree's n + d - 1 edges, else RuntimeError names the first edge at
    fault and the tree.  Cheaply: the least slack is >= 0 and n + d - 1
    slacks are 0; every tight edge lies in the cell, so when the cell is
    the tree, the tight edges are the tree's (a tree always has n + d - 1
    edges: the start's n + d - 1 attachments, then one swapped per
    pivot), and only a tree inside a coarse cell pays a pass for its
    tight mask.  A certified tree is a spanning tree, since a cycle of
    tight edges would have an alternating H-sum of 0, and the affine
    function z_j - u_i of its potentials lies below the lifted support
    and touches it exactly at the tree's vertices, which span: the tree
    is a lower facet, a simplex of the regular triangulation under H.
    The walk yields each tree once, and the simplices of a triangulation
    of the full product are unit simplices that fill its normalized
    volume C(n+d-2, n-1); so over the full support a walk run to its end
    checks that it visited that many trees, and then it visited every
    simplex of the triangulation and no other.  Each tree edge is tight,
    so an edge's H-slack is the alternating H-sum around the cycle it
    closes in the tree: 3^(nd) times the w-sum plus a tie part below
    3^(nd)/2 in size, and at most 3^(nd) // 2 exactly when the w-sum is 0,
    so the cell yielded is the w-cell that holds the tree.
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
        near[a].append((b, -h, 1 << f))
        near[b].append((a, h, 1 << f))
    # start vertex: attach one node at a time, across the first edge with
    # one end attached, at its tightest feasible potential, so each
    # attachment makes exactly one edge tight, which joins the start tree
    p, key = {0: 0}, 0
    while len(p) < w:
        for a, b, _ in edges:
            if (a in p) != (b in p):
                break
        if a in p:
            p[b], bit = min((p[x] + h, bit) for x, h, bit in near[b] if x in p)
        else:
            p[a], bit = max((p[y] + h, bit) for y, h, bit in near[a] if y in p)
        key |= bit
    # each queued tree: its edge mask, the potentials, the entered edge's
    # bit (-1 at the start), its sides
    queue = deque([(key, [p[v] for v in range(w)], -1, None)])
    seen, visited, low_m, full, size = {key}, 0, (1 << m) - 1, sum(marks), n + d - 1
    while queue:
        key, p, entered, sides = queue.popleft()
        visited += 1
        slack = [h - p[b] + p[a] for a, b, h in edges]
        cell = sum(x for x, s in zip(edge_bit, slack) if s <= half)
        # the certificate: every slack >= 0, and 0 exactly on the tree's
        # edges; the tight edges lie in the cell, so when the cell is the
        # tree, n + d - 1 of them are the tree's with no pass to find them
        tight = cell if cell == key else sum(x for x, s in zip(edge_bit, slack) if not s)
        if min(slack) < 0 or slack.count(0) != size or tight != key:
            raise RuntimeError(f"pivot walk: {_uncertified(n, d, flat, key, slack)}")
        yield cell
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


def _uncertified(n: int, d: int, flat: Sequence[int], tree: int, slack: Sequence[int]) -> str:
    """What is wrong with a tree that fails :func:`_pivot_walk`'s
    certificate: the first support edge, of bit ``flat[k]`` and slack
    ``slack[k]``, that is on the ``tree`` and not tight, or off it and
    not above it, and the tree."""
    k = next(k for k, s in enumerate(slack) if s < 0 or (s == 0) != (tree >> flat[k] & 1))
    on = "of" if tree >> flat[k] & 1 else "off"
    text = CellGraph._trusted(n, d, tree).text()
    return f"edge ({flat[k] // d + 1},{flat[k] % d + 1}) {on} tree {text} has slack {slack[k]}"


def _full_walk(n: int, d: int, rows: Sequence[Sequence[int]]) -> Iterator[int]:
    """The pivot walk over the full support of the n x d int heights ``rows``."""
    return _pivot_walk(n, d, rows, (1 << n * d) - 1)


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


#: The labels of each label mask over labels 1..3 (:class:`~troparr.core.TypeVector`),
#: and the mask itself where it holds two labels or more, else 0.  Bit 0,
#: no label, is dropped: the read-off never sets it.
_THREE = [_bits(mask & 0b1110) for mask in range(16)]
_JOINS = [mask if len(labels) > 1 else 0 for mask, labels in enumerate(_THREE)]


@cache
def _line_edges(lines: int, flip: bool) -> tuple[tuple[int, ...], ...]:
    """For each of ``lines`` lines q, the edge mask (:class:`~troparr.core.CellGraph`)
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
    count that completes the certificate of a pivot walk
    (:func:`_pivot_walk`).  A non-generic input has a cell that is not a
    tree, so its points are never accepted, whichever points they are."""
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
