"""Dual subdivisions of the product of simplices.

A type becomes a bipartite cell graph (edge (i,j) for each label j in
entry i); the 0-dimensional cells of an arrangement, its vertices, give
the maximal cells of its dual subdivision.  That subdivision is the
lower-envelope regular subdivision induced by lifting product vertex
(i,j) to the apex coordinate v_ij, so :func:`dual_subdivision` walks
the envelope instead of enumerating every type: the pivot walk, the
passes over one tree or cell and, when min(n, d) = 3, the planar
read-off tried before any walk are :mod:`troparr.envelope`'s, which has
their proofs.  Every edge set here is one int mask with bit
(i-1)·d + (j-1) for edge (i, j), the encoding of
:class:`~troparr.core.CellGraph`; whether a cell spans and its dimension
come from the size of the spanning forest its edges grow.
:func:`regular_subdivision` and :func:`dual_subdivision` build their
cells unvalidated, from their masks, in one place
(:meth:`Subdivision._trusted`): each holds the tree it was read at, so
it spans and is connected.  Each tree is a unit simplex, so the number
of trees the walk maps to a cell is its normalized volume (:attr:`Subdivision.volumes`),
with no second walk; :func:`normalized_volume` walks a cell built by
hand on its own.
:func:`check_correspondence` needs every type for the axioms, so it
keeps the full enumeration and counts the cells from its 0-dimensional
types, each a tree exactly when it holds n + d - 1 labels, with no cell
graph built.  The enumeration reads every input's types off walked
cells, a generic input's off the pivot walk's trees and any other's off
the walk over cells, and genericity reads the same pivot walk, kept on
the arrangement (:func:`~troparr.geometry._walk_head`), so what the
check cross-checks is the axioms, the enumeration's count of T(n, d)
types on a generic input, and the walks' certificates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Iterable

from .core import Arrangement, CellGraph, Meter, ResourceLimitError, _bits, _integer_rows, to_fraction
from . import envelope  # read at each call, so a name rebound in envelope is the one called
from .geometry import GenericityReport, enumerate_realizations, is_generic
from .axioms import AxiomReport, is_tropical_oriented_matroid

#: Cap on the work of one normalized volume, trees x (n + d) x |E|: the
#: walk pays a slack per edge for each tree and, per tree edge, a scan of
#: the edges entering its side.  The same product caps the cone of one
#: coarse cell in :func:`~troparr.secondary.refining_triangulations`.
MAX_VOLUME_WORK = 20_000_000


def cell_dim(g: CellGraph) -> int:
    """Affine dimension of the cell spanned by the graph's product
    vertices: (#covered nodes) - (#support components) - 1, which is
    the size of a spanning forest of the support, less one."""
    if not g.mask:
        raise ValueError("cell graph has no edges")
    return envelope._forest(g.n, g.d, g.mask)[0].bit_count() - 1


def is_spanning_connected(g: CellGraph) -> bool:
    return envelope._forest(g.n, g.d, g.mask)[0].bit_count() == g.n + g.d - 1


def is_spanning_tree(g: CellGraph) -> bool:
    return is_spanning_connected(g) and g.mask.bit_count() == g.n + g.d - 1


@dataclass(frozen=True)
class Subdivision:
    """A polyhedral subdivision of the product of simplices, recorded by
    its maximal cells' graphs.  The constructor checks that each cell
    spans and is connected, not that the cells have disjoint interiors,
    which every reader expects; walked subdivisions have them by
    construction, and a run-time check belongs to ROADMAP item 7,
    certificates at run time.  One that :func:`dual_subdivision` returns
    also keeps, outside the fields, the integer form of the heights it
    was walked or read off, which
    :func:`~troparr.secondary.refining_triangulations` reads."""

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
        perturbed heights of :func:`~troparr.envelope._pivot_walk` induce,
        which refines the subdivision and so restricts to a triangulation
        of each cell, and the walk visits each once.  Every simplex is unimodular (a
        bipartite incidence matrix is totally unimodular), so a cell's
        trees number its volume (De Loera-Rambau-Santos, ch. 2 and 6.2).
        Any other subdivision reads them on first use: 1 for a tree and
        :func:`normalized_volume` for any other cell."""
        tree = self.n + self.d - 1
        return {g: 1 if g.mask.bit_count() == tree else normalized_volume(g) for g in self.maximal_cells}


def dual_subdivision(arr: Arrangement, budget: int | Meter | None = None) -> Subdivision:
    """The arrangement's dual subdivision of the product of simplices:
    the lower envelope of its apex matrix, walked by
    :func:`~troparr.envelope._pivot_walk` over the full support, whose
    C(n+d-2, n-1) trees are charged to the :class:`~troparr.core.Meter` of
    ``budget`` before it starts.  When min(n, d) = 3 the cells are first
    read off by :func:`~troparr.envelope._planar_cells`, charged the same,
    and every input it refuses is walked.  Both routes certify what they
    return, the walk tree by tree and the read-off by its count.  The
    returned subdivision keeps, outside its fields as :attr:`Subdivision.volumes`
    is, the integer form of the heights it was walked or read off
    (:func:`~troparr.core._integer_rows`), by which
    :func:`~troparr.secondary.refining_triangulations` knows it for the
    arrangement's own."""
    n, d = arr.n, arr.d
    Meter.of(budget).charge("pivot walk", comb(n + d - 2, n - 1), "trees")
    if min(n, d) == 3 and (cells := envelope._planar_cells(arr)) is not None:
        sub = Subdivision._trusted(n, d, cells)
    else:
        sub = _subdivision(n, d, envelope._full_walk(n, d, arr._integer_form[1]))
    object.__setattr__(sub, "_walked", arr._integer_form)
    return sub


def _coerce_weights(weights) -> tuple[tuple[Fraction, ...], ...]:
    rows = tuple(tuple(to_fraction(x) for x in row) for row in weights)
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("weights must be a rectangular matrix")
    if len(rows[0]) < 1:
        raise ValueError("weights need at least one column")
    return rows


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
    return _subdivision(n, d, envelope._full_walk(n, d, _integer_rows(rows)[1]))


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
    for _ in envelope._pivot_walk(g.n, g.d, [[0] * g.d] * g.n, g.mask):
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
    nothing again.  Every type is a face of a walked cell: on a generic
    input the walk's trees, on any other the cells of the walk over
    cells, started at its first cell that is not a tree.  So the
    triangulation status agrees with genericity by construction on every
    input; the tests set the types against the feasibility search over
    prefixes, an independent oracle.  What the check still cross-checks
    is the axioms
    on those types, and on a generic input the enumeration's certificate
    that they number T(n, d), which it raises on.

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
