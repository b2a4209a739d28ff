"""Axiom checks for collections of types: boundary, elimination,
comparability, surrounding, plus the single-coordinate local-refinement
probe, aggregated into a verdict with first-counterexample diagnostics.

Surrounding and local refinement are deliberately distinct predicates.
Surrounding quantifies over ordered-partition refinements (a single
infinitesimal move, which may cut several entries at once); local
refinement replaces one non-singleton entry by one of its labels while
freezing everything else.  Only the former enters the final verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from math import comb
from operator import and_, or_
from typing import Callable, Collection

from .core import ResourceLimitError, TypeVector, enumerate_ordered_partitions

#: Cap on the surrounding check's work, |types| x Fubini(d) refinement
#: lookups.
MAX_SURROUNDING_WORK = 5_000_000

#: Partner rows per tile of the bit-sliced pair scans: a strip holds one
#: field per partner, so the strips of a tile take O(sum_k e_k BLOCK w)
#: bits for e_k distinct entries at position k and fields of w bits.
BLOCK = 128


@dataclass(frozen=True)
class CheckResult:
    """Pass/fail plus the first counterexample in canonical order (types
    sorted lexicographically); the payload shape is check-specific."""

    passed: bool
    counterexample: object = None

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class AxiomReport:
    boundary: CheckResult
    elimination: CheckResult
    comparability: CheckResult
    surrounding: CheckResult
    local_refinement: CheckResult
    is_tom: bool


def _sorted_types(types: Collection[TypeVector], d: int | None = None) -> list[TypeVector]:
    ordered = sorted(types, key=lambda t: t.key())
    if ordered and any(t.n != ordered[0].n for t in ordered):
        raise ValueError("collection mixes types of different lengths")
    if d is not None and any(t.max_label() > d for t in ordered):
        raise ValueError(f"collection has labels beyond d={d}")
    return ordered


def check_boundary(types: Collection[TypeVector], n: int, d: int) -> CheckResult:
    """Every constant type (j, ..., j) must be present."""
    present = set(types)
    missing = tuple(
        j for j in range(1, d + 1)
        if TypeVector(tuple(frozenset((j,)) for _ in range(n))) not in present
    )
    return CheckResult(not missing, missing or None)


def _first_pair(
    ordered: list[TypeVector],
    size: int,
    fields: Callable[[int, frozenset[int], frozenset[int]], tuple[int, ...]],
    tester: Callable[[int], Callable[[list], int]],
) -> tuple[int, int] | None:
    """The first pair (ia, ib), ia <= ib, that fails in canonical order.

    Partners go in tiles of at most ``BLOCK`` rows, each row one field of
    ``size`` bytes.  In a tile the strips of entry a at position k hold
    the components of ``fields(k, a, B_k)`` in field b, one int per
    component, for the tile's b-th row B; strips are joined from
    ``to_bytes`` chunks.  ``tester(rep)``, with rep 1 in every field,
    gives the tile's test: it maps the strips of A's entries to an int
    that is nonzero in exactly the fields of the partners failing against
    A.  Later tiles only scan the types before the best pair found so far.
    """
    width = 8 * size
    best = None
    for start in range(0, len(ordered), BLOCK):
        tile = ordered[start:start + BLOCK]
        heads = ordered[:min(start + len(tile), best[0] if best else len(ordered))]
        failing = tester(int.from_bytes(b"\1".ljust(size, b"\0") * len(tile), "little"))
        strips = []
        for k, column in enumerate(zip(*(B.entries for B in tile))):
            chunks = {}
            for a in {A.entries[k] for A in heads}:
                row = {b: [x.to_bytes(size, "little") for x in fields(k, a, b)] for b in set(column)}
                chunks[a] = [int.from_bytes(b"".join(part), "little") for part in zip(*map(row.get, column))]
            strips.append(chunks)
        for ia, A in enumerate(heads):
            fails = failing([s[a] for s, a in zip(strips, A.entries)]) & -1 << max(ia - start, 0) * width
            if fails:
                best = ia, start + ((fails & -fails).bit_length() - 1) // width
                break
    return best


def check_elimination(types: Collection[TypeVector]) -> CheckResult:
    """For each pair (A, B) and position j, some C in the collection must
    take the union at j and one of A_k, B_k, A_k u B_k everywhere.

    Bit-sliced kernel: bit t of ``masks[k][E]`` marks the t-th sorted type
    whose k-th entry is E.  A partner B gets one field of T + 1 bits: the
    "either" strip of A_k holds the T-bit mask of the C with C_k in
    {A_k, B_k, A_k u B_k}, the "union" strip the mask of the C with
    C_k = A_k u B_k.  The AND of A's n either strips matches every
    partner at once, and j fails for B when B's field of that AND with
    the union strip at j is zero: adding 2^T - 1 to every field leaves
    its guard bit T clear exactly then.  That is O(T^2 n / BLOCK)
    operations on ints of BLOCK (T + 1) bits; :func:`_first_pair` tiles
    the partners and finds the first failing (A, B), and j is the first
    failing position of that pair.
    """
    ordered = _sorted_types(types)
    if not ordered:
        return CheckResult(True)
    masks: list[dict] = [{} for _ in ordered[0].entries]
    for bit, t in enumerate(ordered):
        for m, entry in zip(masks, t.entries):
            m[entry] = m.get(entry, 0) | 1 << bit
    count = len(ordered)
    size = count // 8 + 1  # T mask bits and a guard bit

    def fields(k: int, a: frozenset[int], b: frozenset[int]) -> tuple[int, int]:
        m = masks[k]
        union = m.get(a | b, 0)
        return m[a] | m[b] | union, union

    def tester(rep: int):
        ones, guard = rep * ((1 << count) - 1), rep << count

        def failing(strips: list) -> int:
            match = reduce(and_, [either for either, _ in strips])
            return guard & ~reduce(and_, [(match & union) + ones for _, union in strips])
        return failing

    pair = _first_pair(ordered, size, fields, tester)
    if pair is None:
        return CheckResult(True)
    A, B = (ordered[i] for i in pair)
    found = [fields(k, a, b) for k, (a, b) in enumerate(zip(A.entries, B.entries))]
    match = reduce(and_, [either for either, _ in found])
    return CheckResult(False, (A, B, next(j for j, (_, union) in enumerate(found, 1) if not match & union)))


def _packed_pair(a: frozenset[int], b: frozenset[int], d: int) -> int:
    """The comparability graph of the one-entry types (a) and (b), packed
    as three d x d bit matrices in one int (bit (j-1)*d + k-1 is j -> k):
    directed edges, their reversals, undirected edges.  A directed j -> k
    means j beats k, an undirected edge that they tie.  With C = a n b
    the directed edges are (a - C) x b and C x (b - C), the undirected
    ones C x C off the diagonal.  The bits of R x K are
    mask(R, d) * mask(K): ``mask(R, step)`` sets bit (j-1)*step for each
    j in R, and mask(K) < 2^d, so no carry crosses a row."""

    def mask(labels, step=1):
        return sum(1 << (j - 1) * step for j in labels)

    c = a & b
    a_only, b_only = a - c, b - c
    directed = mask(a_only, d) * mask(b) | mask(c, d) * mask(b_only)
    reversed_ = mask(b, d) * mask(a_only) | mask(b_only, d) * mask(c)
    undirected = mask(c, d) * mask(c) & ~mask(c, d + 1)
    return directed | reversed_ << d * d | undirected << 2 * d * d


def _acyclic(edges: int, d: int) -> bool:
    """Whether a graph in :func:`_packed_pair`'s packing has no cycle
    through a directed edge (undirected edges walked either way), in O(d) operations on
    d^2-bit ints.  Warshall's closure ORs row m into every row reaching m
    with one multiplication; an edge j -> k is on a cycle when k reaches j."""
    directed, reversed_, undirected = (edges >> i * d * d & (1 << d * d) - 1 for i in range(3))
    reach = directed | (undirected & ~(directed | reversed_))
    column = sum(1 << a * d for a in range(d))
    for m in range(d):
        reach |= (reach >> m & column) * (reach >> m * d & (1 << d) - 1)
    return not reach & reversed_


def check_comparability(types: Collection[TypeVector], d: int | None = None) -> CheckResult:
    """Every pair's comparability graph must be acyclic.

    Bit-sliced kernel: a pair's graph is the union over positions of its
    entries' graphs, each packed once by :func:`_packed_pair`.  A partner B
    gets one field of 3d^2 bits, and the strip of A_k holds the packed
    graph of (A_k, B_k) there, so the OR of A's n strips holds every
    pair's graph.  :func:`_acyclic` then runs on all fields at once: each
    of its d Warshall steps multiplies only by small constants (a column
    spread along its row, a row copied to every row), so no carry leaves
    a field, and B fails when its field of ``reach & reversed`` is
    nonzero.  That is O(T^2 (n + d) / BLOCK) operations on ints of
    BLOCK 3d^2 bits; :func:`_first_pair` tiles the partners and finds the
    first failing (A, B).
    """
    ordered = _sorted_types(types, d)
    if not ordered:
        return CheckResult(True)
    d = max(t.max_label() for t in ordered) if d is None else d
    dd = d * d
    column, row = sum(1 << a * d for a in range(d)), (1 << d) - 1

    @cache  # one graph per distinct entry pair, at any position
    def packed(a: frozenset[int], b: frozenset[int]) -> tuple[int]:
        return (_packed_pair(a, b, d),)

    def tester(rep: int):
        low, columns, rows, guard = rep * ((1 << dd) - 1), rep * column, rep * row, rep << dd

        def failing(strips: list) -> int:
            graph = reduce(or_, [g for g, in strips])
            directed, reversed_, undirected = graph & low, graph >> dd & low, graph >> 2 * dd & low
            reach = directed | undirected & ~(directed | reversed_)
            for m in range(d):
                reach |= (reach >> m & columns) * row & (reach >> m * d & rows) * column
            return (reach & reversed_) + low & guard
        return failing

    pair = _first_pair(ordered, (3 * dd + 7) // 8, lambda _, a, b: packed(a, b), tester)
    return CheckResult(True) if pair is None else CheckResult(False, tuple(ordered[i] for i in pair))


@cache
def _fubini(d: int) -> int:
    """Fubini(d) = sum over k of k! S(d, k), the ordered partitions of d
    labels into k blocks."""
    return sum((-1) ** (k - j) * comb(k, j) * j**d for k in range(d + 1) for j in range(k + 1))


def _surrounding_cap(count: int, d: int) -> None:
    """Raise ResourceLimitError when the surrounding check's count x
    Fubini(d) refinement lookups exceed ``MAX_SURROUNDING_WORK``."""
    work = count * _fubini(d)
    if work > MAX_SURROUNDING_WORK:
        raise ResourceLimitError(
            f"surrounding: {count} types x {_fubini(d)} ordered partitions of d={d} "
            f"= {work} refinements exceed the cap of {MAX_SURROUNDING_WORK}"
        )


def check_surrounding(types: Collection[TypeVector], d: int | None = None) -> CheckResult:
    """Every ordered-partition refinement of every type must be present.

    Kernel: each distinct entry is cut once by every ordered partition
    (its part in the first block it meets), so a type's refinements are the zip
    of its entries' columns, all looked up by one ``set.issuperset``.
    The |types| x Fubini(d) lookups are capped at ``MAX_SURROUNDING_WORK``.
    """
    ordered = _sorted_types(types, d)
    if not ordered:
        return CheckResult(True)
    d = max(t.max_label() for t in ordered) if d is None else d
    _surrounding_cap(len(ordered), d)
    partitions = enumerate_ordered_partitions(d)
    entries = {e for t in ordered for e in t.entries}
    cuts = {e: [e & next(b for b in P.blocks if e & b) for P in partitions] for e in entries}
    present = {t.entries for t in ordered}
    for T in ordered:
        refined = list(zip(*(cuts[e] for e in T.entries)))
        if not present.issuperset(refined):
            return CheckResult(False, (T, next(P for P, r in zip(partitions, refined) if r not in present)))
    return CheckResult(True)


def check_local_refinement(types: Collection[TypeVector]) -> CheckResult:
    """For every type, every non-singleton entry, and every label in it,
    the vector with just that entry collapsed to the single label must be
    present."""
    ordered = _sorted_types(types)
    present = set(ordered)
    for T in ordered:
        for i, entry in enumerate(T.entries, 1):
            if len(entry) < 2:
                continue
            for k in sorted(entry):
                if T.with_entry(i, (k,)) not in present:
                    return CheckResult(False, (T, i, k))
    return CheckResult(True)


def is_tropical_oriented_matroid(
    types: Collection[TypeVector], n: int, d: int
) -> AxiomReport:
    """Run all checks; the verdict is the conjunction of boundary,
    elimination, comparability and surrounding (local refinement is
    reported alongside but does not enter it).  The surrounding work cap
    is tested before any check runs, so a refused input costs nothing."""
    _surrounding_cap(len(types), d)
    boundary = check_boundary(types, n, d)
    elimination = check_elimination(types)
    comparability = check_comparability(types, d)
    surrounding = check_surrounding(types, d)
    local = check_local_refinement(types)
    is_tom = bool(boundary and elimination and comparability and surrounding)
    return AxiomReport(boundary, elimination, comparability, surrounding, local, is_tom)
