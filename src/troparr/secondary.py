"""Refinements of a degenerate arrangement's subdivision and the
vertex-volume (GKZ) vectors spanning secondary-polytope faces.

A non-generic arrangement, one whose subdivision is not a triangulation,
sits on a wall between generic ones.  A small enough move of its apexes
crosses no wall, so every generic arrangement it lands on has a
triangulation refining the coarse subdivision.  For heights w and a step
u, the lower envelope of w + εu at such a small ε is the union, over the
coarse cells, of each cell's own regular subdivision under u (De
Loera-Rambau-Santos, ch. 2 and 6.2).  The moves are made in ints: the
apex matrix is lifted once by an integer, each step is added to the
lifted rows, and :func:`_scaled_rows` proves that no step crosses a
wall.  A new step's envelope is the dual subdivision of the moved
arrangement, handed over as ints: read off its apexes and crossings when
min(n, d) = 3, else off one pivot walk (both called a walk below).
:func:`secondary_face_check` walks the arrangement's own subdivision
once, on the one meter of its run, and hands it to
:func:`refining_triangulations`, which takes it by its provenance: every
subdivision troparr returns was certified by the code that built it, so
a base that :func:`~troparr.duality.dual_subdivision` returned for the
same arrangement needs no second proof, and any other base is refused.

One certificate per step.  The walk certifies itself: it is the lower
envelope of the moved heights, it has C(n+d-2, n-1) cells, and each
cell is exactly the edges tight at its potentials, every other edge's
slack positive (the pivot walk tree by tree and by its count, the
read-off by its count of distinct spanning trees).  What is left to
check is what this module computes itself, the integer lift: every
walk cell is a tree, and every tree lies in a coarse cell, its host.
Those two checks and the walk's certificate prove the rest:

- The walk refines the base.  Its C(n+d-2, n-1) cells are trees, unit
  simplices with disjoint interiors, so they fill the product's volume.
  A coarse cell holds at most its volume in them, the coarse volumes
  add up to the same count, and every tree has a host, so every coarse
  cell is filled exactly by the trees inside it.
- The step lies in its own cone.  Take a tree t inside a coarse cell G
  and an edge e of G off t.  The walk's cell is t, so e is not tight:
  its moved slack, the alternating sum of the moved rows around the
  cycle e closes in t, is positive.  That cycle lies inside G, and the
  lifted base heights K·D·w sum to 0 around every cycle inside a cell
  of their own subdivision; the constants :func:`_moved` takes off each
  row cancel, as the cycle meets each row it visits once on each side.
  So the step's own alternating sum around that cycle is the positive
  slack: the step lies strictly inside the :func:`_cone` of the walk's
  trees in G, which are G's regular subdivision under the step.

A cell's regular subdivision under u is a triangulation whose trees
form a set P exactly when u lies in the open cone of P: one strict
inequality per cycle that a cell edge closes in one of P's trees
(:func:`_cone`).  The cones of a triangulation's groups together are
its cone, kept with it, so a later step that lies in the cone of a
triangulation already listed is skipped with no walk.

No step lies on a wall.  A step is u'_ij = 3^(nd)·u_ij +
3^((i-1)d+(j-1)), with u_ij drawn from 0..1000.  Around an alternating
cycle u' sums to 3^(nd) times u's sum plus a ±1 sum of distinct powers
of 3, which never vanishes and is at most (3^(nd) - 1)/2 in size.  So a
cycle that u ties is broken, and one that u does not tie keeps its
sign.  The lift keeps the sign of every cycle the apexes do not tie, so
every moved arrangement is generic, and a walk cell that is not a tree
is a fault.  Every triangulation listed is regular, whatever (n, d): it
is the regular subdivision under the step that found it, and that step
lies strictly inside its cone.  The dimension of the secondary-polytope
face the wall corresponds to is exact: the rank of the coarse cells'
alternating-cycle vectors, which no sample enters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .core import Arrangement, Meter, ResourceLimitError, _bits
from .linalg import rank
from .envelope import _cycle_masks, _forest
from .duality import MAX_VOLUME_WORK, Subdivision, dual_subdivision, is_triangulation

@dataclass(frozen=True)
class GKZVector:
    """Per-vertex volume totals of a triangulation: entry (i, j) is the
    summed normalized volume of the maximal simplices containing the
    product vertex (i, j).  Stored row-major."""

    n: int
    d: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.n * self.d:
            raise ValueError("need one entry per product vertex")
        if any(v < 0 for v in self.values):
            raise ValueError("entries must be nonnegative")

    def entry(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n and 1 <= j <= self.d):
            raise IndexError(f"vertex ({i},{j}) outside 1..{self.n} x 1..{self.d}")
        return self.values[(i - 1) * self.d + (j - 1)]


def gkz_vector(t: Subdivision) -> GKZVector:
    """GKZ vector of a triangulation (rejects non-triangulations); every
    simplex is unimodular, so each adds 1 at each of its vertices.  Its
    cells must have disjoint interiors (unchecked: :class:`Subdivision`)."""
    if not is_triangulation(t):
        raise ValueError("GKZ vectors are defined here only for triangulations")
    values = [0] * (t.n * t.d)
    for cell in t.maximal_cells:
        for k in _bits(cell.mask):
            values[k] += 1
    return GKZVector(t.n, t.d, tuple(values))


def refines(fine: Subdivision, coarse: Subdivision) -> bool:
    """Every fine cell's edges inside some coarse cell, with volumes
    adding up cell by cell.  No library code calls it:
    :func:`refining_triangulations` gets the same verdict from each
    walk's certificate and its cells' hosts.  Cells must have disjoint
    interiors (unchecked)."""
    if (fine.n, fine.d) != (coarse.n, coarse.d):
        return False
    filled = {g: 0 for g in coarse.maximal_cells}
    hosts = coarse.sorted_cells()
    for cell in fine.maximal_cells:
        host = next((g for g in hosts if cell.mask & ~g.mask == 0), None)
        if host is None:
            return False
        filled[host] += fine.volumes[cell]
    return filled == coarse.volumes


def _cone(n: int, d: int, cell: int, trees) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The open cone of the steps under which the spanning ``trees`` are
    the regular subdivision of ``cell``, all edge masks
    (:class:`~troparr.core.CellGraph`), as strict inequalities
    (plus, minus): the step's entries at the flat indices
    (i-1)·d + (j-1) in ``plus`` sum to more than those in ``minus``.

    The potentials a_i, b_j solved along a tree's edges from a step u
    (b_j - a_i = u_ij on the tree) leave each other edge (i, j) of the
    cell a slack u_ij - b_j + a_i, the alternating sum of u around the
    fundamental cycle the edge closes in the tree: :func:`_cycle_masks`
    reads it off one rooted pass, with (i, j) on its plus side, as two
    edge masks, whose set bits, lowest first, are each side's flat
    indices in ascending order.  When every such slack is positive for
    every tree, each tree is a strict lower facet of the cell lifted by
    u, and the trees already fill the cell, so they are its regular
    subdivision under u (De Loera-Rambau-Santos, ch. 2 and 5).  A cycle
    shared by two trees is one inequality, and a tree's own edges, whose
    slack is identically 0, give none.
    """
    rows = {cycle for tree in trees for cycle in _cycle_masks(n, d, tree, cell)}
    return tuple(sorted((tuple(_bits(plus)), tuple(_bits(minus))) for plus, minus in rows))


def _in_cone(cone, flat_step: Sequence[int]) -> bool:
    """Whether a step, flattened row by row, meets every inequality of
    a :func:`_cone` strictly."""
    at = flat_step.__getitem__
    return all(sum(map(at, plus)) > sum(map(at, minus)) for plus, minus in cone)


def _scaled_rows(arr: Arrangement) -> list[list[int]]:
    """The apex matrix w lifted by K·D, all ints: K = 2·min(n, d)·1001·3^(nd)
    times w's integer form D·w (:func:`~troparr.core._integer_rows`).

    :func:`_moved` adds a step u' to these rows, and no step crosses a
    wall of the secondary fan.  The walls lie on the alternating cycles
    of K_{n,d}, the circuits of Δ_{n-1} × Δ_{d-1} (De Loera-Rambau-Santos,
    ch. 6.2): a cycle through a k×k minor sets one matching's sum against
    another's.  D·w is integral, so a nonzero cycle sum of it is at
    least 1 in size, and K times that sum at least K.  Every entry of u'
    lies in [0, 1001·3^(nd)), and the cycle sums k of them with each
    sign, k <= min(n, d), so its step part is below min(n, d)·1001·3^(nd),
    which is K/2, in size: no cycle that w does not tie changes sign.
    Scaling by the positive K·D keeps every type, as scaling by D does,
    so the arrangement w + u'/(K·D) and the lifted moved one have the
    same dual subdivision."""
    K = 2 * min(arr.n, arr.d) * 1001 * 3 ** (arr.n * arr.d)
    return [[K * x for x in row] for row in arr._integer_form[1]]


def _moved(scaled: Sequence[Sequence[int]], step: Sequence[Sequence[int]]) -> Arrangement:
    """The arrangement of the :func:`_scaled_rows` moved by a step, each
    row less its last entry, so its rows are already normalized and are
    kept as the ints they are, with no Fraction built."""
    rows = []
    for row, us in zip(scaled, step):
        moved = [x + u for x, u in zip(row, us)]
        last = moved[-1]
        rows.append(tuple(x - last for x in moved))
    return Arrangement._trusted_ints(rows)


def _entry(bits: Callable[[int], int]) -> int:
    """A step entry u in 0..1000 from ``bits``, a ``getrandbits``: 10 bits,
    drawn again while they read above 1000.  ``randint(0, 1000)`` draws
    the same way in CPython 3.10 to 3.13, so each seed keeps its sample,
    and written out the sample no longer rests on how ``randint`` is
    implemented."""
    u = bits(10)
    while u > 1000:
        u = bits(10)
    return u


def refining_triangulations(
    arr: Arrangement, base: Subdivision, *, seed: int = 0, budget: int | Meter | None = None
) -> frozenset[Subdivision]:
    """Distinct triangulations reachable by small integer steps.

    2·n·d integer steps u', each u'_ij = 3^(nd)·u_ij +
    3^((i-1)d+(j-1)) with u_ij drawn from 0..1000 under ``seed`` by
    :func:`_entry`, are
    added to the apex matrix lifted by :func:`_scaled_rows`; the
    tie-break term puts no step on a wall; another ``seed`` draws
    another sample.  Each step is drawn as one flat row-major list, in
    the order (i, j) of the rows, so entry (i-1)·d + (j-1) carries the
    tie-break power of the same index; 3^(nd) and those n·d powers are
    computed once per search, and a step is cut into its n rows only
    when it is walked.  ``base`` must be a subdivision that
    :func:`~troparr.duality.dual_subdivision` returned for an arrangement
    equal to ``arr``, which certified it as it built it; any other is
    refused with a ValueError before any step.  Every triangulation
    found refines it, so a triangulation ``base`` is its own only
    refinement.

    Each listed triangulation keeps one cone: the :func:`_cone` rows of
    its pieces in every coarse cell, each (cell, pieces) computed once.
    A step strictly inside the cone of a listed triangulation is skipped.
    Every other step walks the moved arrangement once, through
    :func:`_moved` on ints and one
    :func:`~troparr.duality.dual_subdivision`, which certifies the walk
    as it builds it.  What is left is the integer lift's part: every
    cell must be a tree and lie in a coarse cell, its host, and then the
    walk refines ``base`` and the step lies in the walk's cone, as the
    module docstring proves.  A cell that fails is a fault and raises
    :class:`RuntimeError`, which opens with ``flips step <k>``, the
    1-based step drawn, and names the cell at fault.

    The skip is the one a cone per coarse cell gave.  A step strictly
    inside the cone of pieces P of a coarse cell makes P that cell's
    regular subdivision under the step.  That subdivision is unique, so
    the open cones of two refinements of one cell are disjoint, and each
    cell has at most one known P holding the step.  Their union is a
    listed triangulation T exactly when the step lies in T's whole cone.
    So a walked step lies in no listed cone, and its certified walk lists
    a new triangulation: no step is thrown away, no cell is walked on its
    own, and each walk's dual subdivision is the triangulation returned.

    Each step's dual subdivision is charged to the
    :class:`~troparr.core.Meter` of ``budget``, a meter passed in or a new
    one; the walk that gave ``base`` is its caller's.

    The cones are capped before the first step: a coarse cell of volume
    v holds v trees in each refinement, each closing fewer than |E|
    cycles of at most n + d edges, so a cell with two or more cycles and
    v·(n+d)·|E| past ``MAX_VOLUME_WORK`` raises ResourceLimitError.
    """
    n, d = arr.n, arr.d
    meter = Meter.of(budget)
    if (base.n, base.d) != (n, d):
        raise ValueError(f"the subdivision is {base.n}x{base.d}, the arrangement {n}x{d}")
    if vars(base).get("_walked") != arr._integer_form:
        raise ValueError("the subdivision was not returned by dual_subdivision for this arrangement")
    if is_triangulation(base):
        return frozenset({base})
    tree_size = n + d - 1
    trees = frozenset(g.mask for g in base.maximal_cells if g.mask.bit_count() == tree_size)
    coarse = [g for g in base.sorted_cells() if g.mask.bit_count() != tree_size]
    for g in coarse:
        size, volume = g.mask.bit_count(), base.volumes[g]
        if size > n + d and volume * (n + d) * size > MAX_VOLUME_WORK:
            raise ResourceLimitError(
                f"flip cone: {volume} trees x {n + d} nodes x {size} edges = {volume * (n + d) * size} "
                f"exceed the cap of {MAX_VOLUME_WORK} on cell {g.text()}"
            )
    rng = random.Random(seed)
    scaled = _scaled_rows(arr)
    scale, ties = 3 ** (n * d), [3 ** k for k in range(n * d)]
    cones: dict[tuple, tuple] = {}  # (coarse cell, its pieces) -> their _cone rows
    listed: dict[Subdivision, tuple] = {}  # triangulation -> its cone
    bits = rng.getrandbits
    for k in range(1, 2 * n * d + 1):
        flat = [scale * _entry(bits) + tie for tie in ties]
        if any(_in_cone(cone, flat) for cone in listed.values()):
            continue
        step = [flat[i * d:(i + 1) * d] for i in range(n)]
        tri = dual_subdivision(_moved(scaled, step), meter)
        groups: dict[int, set[int]] = {}  # coarse cell -> the walk's trees in it
        for g in tri.sorted_cells():
            if g.mask in trees:
                continue
            if g.mask.bit_count() != tree_size:
                raise RuntimeError(f"flips step {k}: walked cell {g.text()} is not a tree")
            host = next((cell.mask for cell in coarse if g.mask & ~cell.mask == 0), None)
            if host is None:
                raise RuntimeError(f"flips step {k}: tree {g.text()} lies in no coarse cell")
            groups.setdefault(host, set()).add(g.mask)
        cone = ()
        for cell in coarse:
            key = cell.mask, frozenset(groups.get(cell.mask, ()))
            if key not in cones:
                cones[key] = _cone(n, d, *key)
            cone += cones[key]
        listed[tri] = cone
    return frozenset(listed)


@dataclass(frozen=True)
class SecondaryFaceVerdict:
    """Outcome of the secondary-face check: the arrangement's subdivision,
    its refining triangulations and the dimension of its face of the
    secondary polytope, 0 for a triangulation, which is its own only
    refinement.  The GKZ vectors and their count are derived from the
    refinements, the vectors on first use."""

    subdivision: Subdivision
    refinements: tuple[Subdivision, ...]
    face_dimension: int

    @property
    def refinement_count(self) -> int:
        return len(self.refinements)

    @cached_property
    def gkz_vectors(self) -> tuple[GKZVector, ...]:
        return tuple(gkz_vector(t) for t in self.refinements)


def secondary_face_check(arr: Arrangement, *, seed: int = 0, budget: int | None = None) -> SecondaryFaceVerdict:
    """Walk the arrangement's dual subdivision and read off its face of
    the secondary polytope.  One :class:`~troparr.core.Meter` of
    ``budget`` is charged for that walk, then for every step that
    :func:`refining_triangulations` walks.

    A triangulation, a generic arrangement's, is a vertex of the
    secondary polytope: :func:`refining_triangulations` returns it as its
    own only refinement, and it has no cycle, so the rank below is 0 and
    one path serves every input.  Any other subdivision should have two
    refining triangulations at least and a face of positive dimension.
    That dimension is nd - dim L, L the heights affine on every cell of
    the subdivision.  L is the orthogonal complement of the cells'
    alternating-cycle vectors, so the dimension is their rank, computed
    from the subdivision alone: the fundamental cycles of a spanning tree
    of each cell span that cell's cycles, and :func:`_cycle_masks` of the
    cell against the forest its edges grow writes them as ±1 vectors.  A
    tree has no cycle, so only the other cells are read."""
    meter = Meter(budget)
    sub = dual_subdivision(arr, meter)
    n, d = arr.n, arr.d
    tris = sorted(
        refining_triangulations(arr, sub, seed=seed, budget=meter),
        key=lambda t: [_bits(g.mask) for g in t.sorted_cells()],
    )
    cycles = [
        [(plus >> k & 1) - (minus >> k & 1) for k in range(n * d)]
        for g in sub.maximal_cells
        if g.mask.bit_count() > n + d - 1
        for plus, minus in _cycle_masks(n, d, _forest(n, d, g.mask)[0], g.mask)
    ]
    return SecondaryFaceVerdict(sub, tuple(tris), rank(cycles))
