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
it, and the move is generic exactly when every piece is a tree.  The
affine span of the GKZ vectors measures the dimension of the
secondary-polytope face the wall corresponds to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .core import Arrangement, CellGraph
from .duality import Subdivision, _pivot_walk, dual_subdivision, is_triangulation
from .linalg import rank

#: Parameter pairs (n, d) for which every triangulation of the product
#: of simplices is regular, so secondary-polytope conclusions are
#: unconditional.  Beyond these the checks still run but are
#: informational only.
FULLY_REGULAR_PARAMS = frozenset({(3, 3), (4, 3), (5, 3), (3, 4), (3, 5)})


def all_triangulations_regular(n: int, d: int) -> bool:
    return min(n, d) <= 2 or (n, d) in FULLY_REGULAR_PARAMS


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

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {
            (i, j): self.entry(i, j)
            for i in range(1, self.n + 1)
            for j in range(1, self.d + 1)
        }

    def total(self) -> int:
        return sum(self.values)


def gkz_vector(t: Subdivision) -> GKZVector:
    """GKZ vector of a triangulation (rejects non-triangulations); every
    simplex is unimodular, so each adds 1 at each of its vertices."""
    if not is_triangulation(t):
        raise ValueError("GKZ vectors are defined here only for triangulations")
    return _gkz(t)


def _gkz(t: Subdivision) -> GKZVector:
    """:func:`gkz_vector` of a subdivision already known to be a triangulation."""
    values = [0] * (t.n * t.d)
    for cell in t.maximal_cells:
        for i, j in cell.edges:
            values[(i - 1) * t.d + (j - 1)] += 1
    return GKZVector(t.n, t.d, tuple(values))


def refines(fine: Subdivision, coarse: Subdivision) -> bool:
    """Every fine cell's edges inside some coarse cell, with volumes
    adding up cell by cell."""
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


def _refined_cells(base: Subdivision, step: Sequence[Sequence[int]]) -> frozenset[CellGraph]:
    """Maximal cells of the lower envelope of ``base``'s heights moved by
    a small enough positive multiple of ``step``: every cell of ``base``
    that is a tree, and the pieces of every other one's regular
    subdivision under ``step``, walked over that cell's own edges."""
    n, d = base.n, base.d
    cells = {g for g in base.maximal_cells if len(g.edges) == n + d - 1}
    for g in base.maximal_cells - cells:
        cells.update(CellGraph(n, d, piece) for piece in _pivot_walk(n, d, step, g.edges))
    return frozenset(cells)


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

    A step's triangulation is read off ``base`` by :func:`_refined_cells`,
    with no type enumeration and no walk over the whole envelope.  Many
    steps land on a triangulation already found and are skipped.  A new
    one gets the moved arrangement, whose types are enumerated: its dual
    subdivision must equal the triangulation and the triangulation must
    refine ``base``.  So every check runs once per distinct triangulation.
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
    found: dict[frozenset[CellGraph], Subdivision] = {}
    for _ in range(samples):
        step = [[rng.randint(0, 1000) for _ in row] for row in rows]
        cells = _refined_cells(base, step)
        if cells in found or any(len(g.edges) != n + d - 1 for g in cells):
            continue
        tri = found[cells] = Subdivision(n, d, cells)
        moved = Arrangement.from_rows(
            [[x + radius * Fraction(u, 1000) for x, u in zip(row, us)] for row, us in zip(rows, step)]
        )
        if dual_subdivision(moved, budget) != tri:
            raise RuntimeError("perturbation's dual subdivision differs from its lower envelope")
        if not refines(tri, base):
            raise RuntimeError("perturbation crossed a wall; triangulation does not refine")
    return frozenset(found.values())


@dataclass(frozen=True)
class SecondaryFaceVerdict:
    """Outcome of the positive-dimensional-face check on a non-generic
    arrangement."""

    subdivision: Subdivision
    refinements: tuple[Subdivision, ...]
    gkz_vectors: tuple[GKZVector, ...]
    face_dimension: int
    conclusive: bool

    @property
    def refinement_count(self) -> int:
        return len(self.refinements)

    @property
    def passes(self) -> bool:
        return self.refinement_count >= 2 and self.face_dimension >= 1


def _affine_dimension(vectors) -> int:
    vecs = [v.values for v in vectors]
    if len(vecs) <= 1:
        return 0
    base = vecs[0]
    return rank([[x - b for x, b in zip(v, base)] for v in vecs[1:]])


def secondary_face_check(
    arr: Arrangement,
    sub: Subdivision,
    samples: int | None = None,
    seed: int = 0,
    budget: int | None = None,
) -> SecondaryFaceVerdict:
    """For a non-generic arrangement with subdivision ``sub`` (not a
    triangulation): at least two refining triangulations must exist, and
    the affine hull of their GKZ vectors must have positive dimension."""
    if is_triangulation(sub):
        raise ValueError("secondary_face_check requires a non-generic arrangement")
    tris = sorted(
        refining_triangulations(arr, sub, samples, seed, budget),
        key=lambda t: tuple(g.sorted_edges() for g in t.sorted_cells()),
    )
    gkz = tuple(_gkz(t) for t in tris)
    return SecondaryFaceVerdict(
        subdivision=sub,
        refinements=tuple(tris),
        gkz_vectors=gkz,
        face_dimension=_affine_dimension(gkz),
        conclusive=all_triangulations_regular(arr.n, arr.d),
    )
