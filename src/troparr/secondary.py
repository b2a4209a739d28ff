"""Refinements of a degenerate arrangement's subdivision and the
vertex-volume (GKZ) vectors spanning secondary-polytope faces.

A non-generic arrangement, one whose subdivision is not a triangulation,
sits on a wall between generic ones.  Moving its apexes by less than the
safe radius, which is read off their denominators, crosses no wall, so
every generic arrangement it lands on has a triangulation refining the
coarse subdivision.  That triangulation needs no walk over the moved
envelope: for heights w and a step u, the lower envelope of w + εu at
such a small ε is the union, over the coarse cells, of each cell's own
regular subdivision under u (De Loera-Rambau-Santos, ch. 2 and 6.2).
So a pivot walk over the edges of each cell that is not a tree refines
it, and the move is generic exactly when every piece is a tree.  Once a
cell's refinement is known, the open cone of the steps that give it is
known too: one strict inequality per cycle that a cell edge closes in
one of its trees.  A later step inside that cone gives the same
refinement without a walk.  A new triangulation is the moved
arrangement's own dual subdivision, read off its vertex walk.  Its
cells must be the trees of the coarse subdivision and the pieces its
cells' walks gave, and a count then shows that it refines the coarse
subdivision: each piece lies in the cell it was walked on, a cell holds
at most its volume in unit simplices with disjoint interiors, and the
volumes add up to the C(n+d-2, n-1) simplices of a triangulation, so
every cell is filled exactly.  Every triangulation listed is regular,
whatever (n, d): it is the regular subdivision under the step that
found it, and that step lies strictly inside each of its cells' cones.
The dimension of the secondary-polytope face the wall corresponds to is
exact: the rank of the coarse cells' alternating-cycle vectors, which no
sample enters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .core import Arrangement
from .duality import Subdivision, _cycles, _forest, _pivot_walk, dual_subdivision, is_triangulation
from .linalg import rank

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
    simplex is unimodular, so each adds 1 at each of its vertices."""
    if not is_triangulation(t):
        raise ValueError("GKZ vectors are defined here only for triangulations")
    values = [0] * (t.n * t.d)
    for cell in t.maximal_cells:
        for i, j in cell.edges:
            values[(i - 1) * t.d + (j - 1)] += 1
    return GKZVector(t.n, t.d, tuple(values))


def refines(fine: Subdivision, coarse: Subdivision) -> bool:
    """Every fine cell's edges inside some coarse cell, with volumes
    adding up cell by cell.  No library code calls it:
    :func:`refining_triangulations` gets the same verdict from its
    cells and one count."""
    if (fine.n, fine.d) != (coarse.n, coarse.d):
        return False
    filled = {g: 0 for g in coarse.maximal_cells}
    hosts = coarse.sorted_cells()
    for cell in fine.maximal_cells:
        host = next((g for g in hosts if cell.edges <= g.edges), None)
        if host is None:
            return False
        filled[host] += fine.volumes[cell]
    return filled == coarse.volumes


def safe_radius(arr: Arrangement) -> Fraction:
    """A perturbation radius that crosses no wall of the secondary fan.

    The walls lie on the alternating cycles of K_{n,d}, the circuits of
    Δ_{n-1} × Δ_{d-1} (De Loera–Rambau–Santos, ch. 6.2): a cycle through
    a k×k minor sets one matching's sum against another's.  Every apex
    coordinate is a multiple of 1/D, D the lcm of their denominators, so
    a nonzero cycle sum is at least 1/D.  Deltas in [0, r] move each
    matching sum by between 0 and k·r, so a cycle sum by at most
    k·r ≤ min(n, d)·r, which is 1/(2D) for r = 1/(2·min(n, d)·D): every
    nonzero cycle sum keeps its sign.
    """
    D = lcm(*(x.denominator for row in arr.rows() for x in row))
    return Fraction(1, 2 * min(arr.n, arr.d) * D)


def _cone(
    n: int, d: int, cell: frozenset[tuple[int, int]], trees
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The open cone of the steps under which the spanning ``trees`` are
    the regular subdivision of ``cell``, as strict inequalities
    (plus, minus): the step's entries at the flat indices
    (i-1)·d + (j-1) in ``plus`` sum to more than those in ``minus``.

    The potentials a_i, b_j solved along a tree's edges from a step u
    (b_j - a_i = u_ij on the tree) leave each other edge (i, j) of the
    cell a slack u_ij - b_j + a_i, the alternating sum of u around the
    fundamental cycle the edge closes in the tree: :func:`_cycles` reads
    it off one rooted pass, with (i, j) on its plus side.  When every
    such slack is positive for every tree, each tree is a strict lower
    facet of the cell lifted by u, and the trees already fill the cell,
    so they are its regular subdivision under u (De Loera-Rambau-Santos,
    ch. 2 and 5).  A cycle shared by two trees is one inequality, and a
    tree's own edges, whose slack is identically 0, give none.
    """

    def flat(edges):
        return tuple(sorted((i - 1) * d + j - 1 for i, j in edges))

    return tuple(sorted({(flat(plus), flat(minus)) for tree in trees for plus, minus in _cycles(n, tree, cell)}))


def _in_cone(cone, flat_step: Sequence[int]) -> bool:
    """Whether a step, flattened row by row, meets every inequality of
    a :func:`_cone` strictly."""
    return all(
        sum(flat_step[k] for k in plus) > sum(flat_step[k] for k in minus) for plus, minus in cone
    )


def refining_triangulations(
    arr: Arrangement,
    base: Subdivision,
    samples: int | None = None,
    seed: int = 0,
    budget: int | None = None,
) -> frozenset[Subdivision]:
    """Distinct triangulations reachable by safe perturbations.

    ``samples`` integer steps u, each coordinate drawn from 0..1000 under
    ``seed``, move all apexes jointly by :func:`safe_radius` · u/1000;
    steps that leave a piece other than a tree are skipped.  Every
    triangulation found refines ``base``, the arrangement's own
    subdivision, so a triangulation ``base`` is its own only refinement.

    A step's triangulation is read off ``base``, with no type enumeration
    and no walk over the whole envelope: it keeps every cell that is a
    tree and refines every other cell C by C's own regular subdivision
    under u.  Each such C keeps the refinements found so far, each with
    its :func:`_cone`; a step inside one reuses it, and only a step that
    matches none is walked over C's edges, by the pivot walk.  A walk
    that leaves a piece other than a tree is not kept.  So each cell is
    walked about once per distinct refinement, not once per step.

    The edge sets of the step's cells, the trees of ``base`` and the
    matched pieces, key the triangulation, and a step with a known key
    is skipped before any cell is built.  A new one gets the moved
    arrangement, whose vertices are walked: that walk's dual subdivision
    is the triangulation returned, its cells' edge sets must be the key,
    and it must pass :func:`~troparr.duality.is_triangulation`, whose
    count of C(n+d-2, n-1) cells, given the key, is :func:`refines`
    ``base``.  So every check runs once per distinct triangulation, and
    each triangulation is built once.
    """
    n, d = arr.n, arr.d
    if samples is None:
        samples = 2 * n * d
    if samples < 2 * n * d:
        raise ValueError(f"samples must be at least 2*n*d = {2 * n * d}")
    if is_triangulation(base):
        return frozenset({base})
    radius = safe_radius(arr)
    rng = random.Random(seed)
    rows = arr.rows()
    trees = frozenset(g.edges for g in base.maximal_cells if len(g.edges) == n + d - 1)
    coarse = [g.edges for g in base.maximal_cells if len(g.edges) != n + d - 1]
    # per coarse cell: (cone, pieces) of each refinement its walks gave
    known: list[list[tuple[tuple, frozenset[frozenset[tuple[int, int]]]]]] = [[] for _ in coarse]
    found: dict[frozenset[frozenset[tuple[int, int]]], Subdivision] = {}
    for _ in range(samples):
        step = [[rng.randint(0, 1000) for _ in row] for row in rows]
        flat = [u for us in step for u in us]
        cells = trees
        for cell, refinements in zip(coarse, known):
            pieces = next((p for cone, p in refinements if _in_cone(cone, flat)), None)
            if pieces is None:
                pieces = frozenset(_pivot_walk(n, d, step, cell))
                if any(len(piece) != n + d - 1 for piece in pieces):
                    break
                refinements.append((_cone(n, d, cell, pieces), pieces))
            cells |= pieces
        else:
            if cells in found:
                continue
            moved = Arrangement.from_rows(
                [[x + radius * Fraction(u, 1000) for x, u in zip(row, us)] for row, us in zip(rows, step)]
            )
            tri = dual_subdivision(moved, budget)
            if {g.edges for g in tri.maximal_cells} != cells:
                raise RuntimeError("perturbation's dual subdivision differs from its lower envelope")
            if not is_triangulation(tri):
                raise RuntimeError("perturbation crossed a wall; triangulation does not refine")
            found[cells] = tri
    return frozenset(found.values())


@dataclass(frozen=True)
class SecondaryFaceVerdict:
    """Outcome of the positive-dimensional-face check on a non-generic
    arrangement."""

    subdivision: Subdivision
    refinements: tuple[Subdivision, ...]
    gkz_vectors: tuple[GKZVector, ...]
    face_dimension: int

    @property
    def refinement_count(self) -> int:
        return len(self.refinements)


def secondary_face_check(
    arr: Arrangement,
    sub: Subdivision,
    samples: int | None = None,
    seed: int = 0,
    budget: int | None = None,
) -> SecondaryFaceVerdict:
    """For a non-generic arrangement with subdivision ``sub`` (not a
    triangulation): at least two refining triangulations must exist, and
    the secondary-polytope face of ``sub`` must have positive dimension.

    That face's dimension is nd - dim L, L the heights affine on every
    cell of ``sub``.  L is the orthogonal complement of the cells'
    alternating-cycle vectors, so the dimension is their rank, computed
    from ``sub`` alone: the fundamental cycles of a spanning tree of each
    cell span that cell's cycles, and :func:`_cone` of the cell against
    the forest its sorted edges grow writes them (none for a tree)."""
    if is_triangulation(sub):
        raise ValueError("secondary_face_check requires a non-generic arrangement")
    n, d = arr.n, arr.d
    tris = sorted(
        refining_triangulations(arr, sub, samples, seed, budget),
        key=lambda t: tuple(g.sorted_edges() for g in t.sorted_cells()),
    )
    cycles = [
        [1 if k in plus else -1 if k in minus else 0 for k in range(n * d)]
        for g in sub.maximal_cells
        for plus, minus in _cone(n, d, g.edges, [_forest(n, d, g.sorted_edges())[0]])
    ]
    return SecondaryFaceVerdict(
        subdivision=sub,
        refinements=tuple(tris),
        gkz_vectors=tuple(gkz_vector(t) for t in tris),
        face_dimension=rank(cycles),
    )
