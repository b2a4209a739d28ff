"""Axiom checks for collections of types: boundary, elimination,
comparability, surrounding, plus the single-coordinate local-refinement
probe, aggregated into a verdict with first-counterexample diagnostics.

Every check reads one canonical table of its collection (:class:`_Table`):
the types sorted once in ``key()`` order, each as the row of its label
masks, in the one label encoding of :class:`~troparr.core.TypeVector`.
Building it is the one test that a collection fits (n, d), and a check
handed a table trusts it.

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
from operator import and_, itemgetter, or_
from typing import Callable, Collection

from .core import OrderedPartition, ResourceLimitError, TypeVector, _bits, _partition_masks

#: Cap on the surrounding check's work in refinement lookups: |types| x
#: (2^d - 2) two-block refinements, plus Fubini(d) ordered partitions for
#: each type the scan that names a failure reads.
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

    @property
    def is_tom(self) -> bool:
        """The verdict, derived rather than stored: the conjunction of
        boundary, elimination, comparability and surrounding.  Local
        refinement is reported alongside but does not enter it."""
        return bool(self.boundary and self.elimination and self.comparability and self.surrounding)


class _Table:
    """A collection in canonical order, built once and read by every
    check: the types sorted as by ``key()`` (each distinct label mask
    ranked once by its labels, each type keyed by its masks' ranks), each
    type's row its ``masks`` (:class:`~troparr.core.TypeVector`), and
    the set of those rows.  Building it is the one fit test: mixed
    lengths, given n a length other than n, and given d a label beyond d
    are a ValueError.  A check handed a table reads it as it is."""

    __slots__ = ("types", "rows", "present", "top")

    def __init__(self, types: Collection[TypeVector], n: int | None = None, d: int | None = None):
        types = list(types)
        lengths = {len(t.masks) for t in types}
        if len(lengths) > 1:
            raise ValueError("collection mixes types of different lengths")
        if n is not None and lengths - {n}:
            raise ValueError(f"collection has types of length {lengths.pop()}, not n={n}")
        # ranks order the masks as ``key()`` orders their label tuples
        masks = sorted({m for t in types for m in t.masks}, key=_bits)
        self.top = max(masks, default=1).bit_length() - 1  # the largest label
        if d is not None and self.top > d:
            raise ValueError(f"collection has labels beyond d={d}")
        rank = {m: r for r, m in enumerate(masks)}
        keys = [tuple(map(rank.__getitem__, t.masks)) for t in types]
        order = sorted(range(len(types)), key=keys.__getitem__)
        self.types = [types[i] for i in order]
        self.rows = [t.masks for t in self.types]
        self.present = set(self.rows)

    def __len__(self) -> int:
        return len(self.types)


def check_boundary(types: Collection[TypeVector], n: int, d: int) -> CheckResult:
    """Every constant type (j, ..., j) must be present."""
    present = (types if isinstance(types, _Table) else _Table(types, n, d)).present
    missing = tuple(j for j in range(1, d + 1) if (1 << j,) * n not in present)
    return CheckResult(not missing, missing or None)


def _first_pair(
    ordered: list[tuple[int, ...]],
    size: int,
    strips: Callable[[int, tuple[int, ...]], Callable[[int], tuple[int, ...]]],
    tester: Callable[[int], Callable[[list, int | None], int]],
) -> tuple[int, int] | None:
    """The first pair (ia, ib), ia <= ib, of a table's rows that fails.

    Partners go in tiles of at most ``BLOCK`` rows, in reverse order: the
    tile's last row is field 0, its first the highest field, each row one
    field of ``size`` bytes.  ``strips(k, column)``, given a tile's entries
    at position k in that order, returns the builder of an entry's strips
    there: for entry a, one int per component, whose field b holds that
    component for a and the row of field b.  ``tester(rep)``, with rep 1
    in every field, gives the tile's test: given the strips of A's entries
    and a low mask (or None), it maps them to an int that is nonzero in
    exactly the fields under the mask of the partners failing against A.

    A head inside the tile reads only the partners from itself on, the
    low fields, so its test ANDs the strips with the mask over them and
    every later big-int operation runs on that upper triangle only.  A
    head before the tile reads every partner: a mask would keep every
    field and only add operations, so it takes none.  The first failing
    partner is the highest set field.  Later tiles only scan the types
    before the best pair found so far.
    """
    width = 8 * size
    best = None
    for start in range(0, len(ordered), BLOCK):
        tile = ordered[start:start + BLOCK][::-1]
        end = start + len(tile)
        heads = ordered[:min(end, best[0] if best else len(ordered))]
        failing = tester(int.from_bytes(b"\1".ljust(size, b"\0") * len(tile), "little"))
        built = []
        for k, column in enumerate(zip(*tile)):
            strip = strips(k, column)
            built.append({a: strip(a) for a in {A[k] for A in heads}})
        for ia, A in enumerate(heads):
            low = (1 << (end - ia) * width) - 1 if ia >= start else None
            fails = failing([s[a] for s, a in zip(built, A)], low)
            if fails:
                best = ia, end - 1 - (fails.bit_length() - 1) // width
                break
    return best


def _picker(column: tuple[int, ...]) -> Callable[[dict], tuple]:
    """The values of a dict at the column's entries, in column order, as
    one ``itemgetter`` call (which returns a bare value for one entry)."""
    return itemgetter(*column) if len(column) > 1 else lambda m: (m[column[0]],)


def _joined(chunks: dict[int, bytes], pick: Callable[[dict], tuple]) -> int:
    """The strip whose field b is ``chunks[column[b]]``, for the column
    ``pick`` reads (:func:`_picker`)."""
    return int.from_bytes(b"".join(pick(chunks)), "little")


def check_elimination(types: Collection[TypeVector]) -> CheckResult:
    """For each pair (A, B) and position j, some C in the collection must
    take the union at j and one of A_k, B_k, A_k u B_k everywhere.

    Bit-sliced kernel: bit t of ``masks[k][E]`` marks the t-th sorted type
    whose k-th entry has label mask E.  A partner B gets one field of
    T + 1 bits: the "either" strip of A_k holds the T-bit mask of the C
    with C_k in {A_k, B_k, A_k u B_k}, the "union" strip the mask of the
    C with C_k = A_k u B_k.  The AND of A's n either strips matches every
    partner at once, and j fails for B when B's field of that AND with
    the union strip at j is zero: adding 2^T - 1 to every field leaves
    its guard bit T clear exactly then.  That is O(T^2 n / BLOCK)
    operations on ints of BLOCK (T + 1) bits; :func:`_first_pair` tiles
    the partners and finds the first failing (A, B), and j is the first
    failing position of that pair.  A tile holds its partners in reverse
    order, so a head inside the tile ANDs its either strips with the low
    mask over the partners from itself on, and the rest of its test runs
    on that upper triangle only; a head before the tile reads every
    partner and takes no mask, which would keep every field and only add
    work.

    Each mask is encoded once as a field of bytes.  In a tile, the union
    strip of a at k joins the chunks of a | b over the column, read from
    one dict over its distinct entries b; the either strip ORs it with
    a's chunk repeated across the tile and with the column's own chunks,
    joined once per position.
    """
    table = types if isinstance(types, _Table) else _Table(types)
    rows = table.rows
    if not rows:
        return CheckResult(True)
    masks: list[dict[int, int]] = [{} for _ in rows[0]]
    for bit, row in enumerate(rows):
        for m, entry in zip(masks, row):
            m[entry] = m.get(entry, 0) | 1 << bit
    count = len(rows)
    size = count // 8 + 1  # T mask bits and a guard bit
    empty = bytes(size)
    encoded = [{e: mask.to_bytes(size, "little") for e, mask in m.items()} for m in masks]

    def strips(k: int, column: tuple[int, ...]):
        chunks, partners, pick = encoded[k], set(column), _picker(column)
        own = _joined(chunks, pick)

        def strip(a: int) -> tuple[int, int]:
            union = _joined({b: chunks.get(a | b, empty) for b in partners}, pick)
            return int.from_bytes(chunks[a] * len(column), "little") | own | union, union
        return strip

    def tester(rep: int):
        ones, guard = rep * ((1 << count) - 1), rep << count

        def failing(strips: list, low: int | None) -> int:
            eithers = [either for either, _ in strips]
            if low is None:
                o, g, match = ones, guard, reduce(and_, eithers)
            else:
                o, g, match = ones & low, guard & low, reduce(and_, eithers, low)
            return g & ~reduce(and_, [(match & union) + o for _, union in strips])
        return failing

    pair = _first_pair(rows, size, strips, tester)
    if pair is None:
        return CheckResult(True)
    ia, ib = pair
    found = [(m[a] | m[b] | m.get(a | b, 0), m.get(a | b, 0)) for m, a, b in zip(masks, rows[ia], rows[ib])]
    match = reduce(and_, [either for either, _ in found])
    j = next(j for j, (_, union) in enumerate(found, 1) if not match & union)
    return CheckResult(False, (table.types[ia], table.types[ib], j))


def _pair_packer(d: int) -> Callable[[int, int], int]:
    """Packs the comparability graph of the one-entry types (a) and (b),
    for entries given as label masks, as three d x d bit matrices in one
    int (bit (j-1)*d + k-1 is j -> k): directed edges, their reversals,
    undirected edges.  A directed j -> k means j beats k, an undirected
    edge that they tie.  With C = a n b the directed edges are (a - C) x b
    and C x (b - C), the undirected ones C x C off the diagonal.  The bits
    of R x K are spread(R) * (K >> 1): spread(R) sets bit (j-1)*d for
    each j in R, and K >> 1 < 2^d, so no carry crosses a row.  Spreading
    commutes with n and -, so each distinct entry is spread once, and a
    pair takes no per-label work."""
    diagonal = sum(1 << j * (d + 1) for j in range(d))

    @cache
    def spread(m: int) -> int:
        return sum(1 << (j - 1) * d for j in _bits(m))

    def packed(a: int, b: int) -> int:
        sa, sb = spread(a), spread(b)
        a, b = a >> 1, b >> 1  # bit j-1 for label j: the column index
        c, sc = a & b, sa & sb
        directed = (sa ^ sc) * b | sc * (b ^ c)
        reversed_ = sb * (a ^ c) | (sb ^ sc) * c
        undirected = sc * c & ~diagonal
        return directed | reversed_ << d * d | undirected << 2 * d * d

    return packed


@cache
def _pair_fields(d: int) -> dict[int, dict[int, bytes]]:
    """The process's table of packed pair graphs at d: ``[a][b]`` is
    ``_pair_packer(d)(a, b)`` as bytes.  :func:`check_comparability` adds
    the pairs of entries a call meets, and they are kept for the life of
    the process, so a later call packs only pairs not met before."""
    return {}


def check_comparability(types: Collection[TypeVector], d: int | None = None) -> CheckResult:
    """Every pair's comparability graph must be acyclic.

    Bit-sliced kernel: a pair's graph is the union over positions of its
    entries' graphs, each packed once by :func:`_pair_packer`.  A partner B
    gets one field of 3d^2 bits, and the strip of A_k holds the packed
    graph of (A_k, B_k) there, so the OR of A's n strips holds every
    pair's graph.  A Warshall closure then runs on all fields at once:
    it ORs row m into every row reaching m, and an edge j -> k lies on a
    cycle when k reaches j.  Each of its d steps multiplies only by
    small constants (a column spread along its row, a row copied to
    every row), so no carry leaves a field, and B fails when its field
    of ``reach & reversed`` is nonzero.  That is O(T^2 (n + d) / BLOCK)
    operations on ints of BLOCK 3d^2 bits; :func:`_first_pair` tiles the
    partners and finds the first failing (A, B).  A tile holds its
    partners in reverse order, so a head inside the tile ANDs its strips
    with the low mask over the partners from itself on, and the closure
    runs on that upper triangle only; a head before the tile reads every
    partner and takes no mask, which would keep every field and only add
    work.

    A packed graph depends on neither the position nor the collection,
    so each pair (a, b) of distinct entries is packed and encoded once
    per process, as a field of bytes, in the table :func:`_pair_fields`
    keeps for d: a call packs only the pairs of its entries that no
    earlier call met, never all (2^d - 1)^2 masks.  The strip of a over
    a tile's column joins a's fields.
    """
    table = types if isinstance(types, _Table) else _Table(types, d=d)
    if not table.rows:
        return CheckResult(True)
    d = table.top if d is None else d
    dd = d * d
    column, row = sum(1 << a * d for a in range(d)), (1 << d) - 1
    packed = _pair_packer(d)

    def tester(rep: int):
        ones, columns, rows, guard = rep * ((1 << dd) - 1), rep * column, rep * row, rep << dd

        def failing(strips: list, low: int | None) -> int:
            if low is None:
                o, graph = ones, reduce(or_, [g for g, in strips])
            else:
                o, graph = ones & low, reduce(or_, [g & low for g, in strips])
            directed, reversed_, undirected = graph & o, graph >> dd & o, graph >> 2 * dd & o
            reach = directed | undirected & ~(directed | reversed_)
            for m in range(d):
                reach |= (reach >> m & columns) * row & (reach >> m * d & rows) * column
            return (reach & reversed_) + o & guard
        return failing

    size = (3 * dd + 7) // 8
    entries = {e for row in table.rows for e in row}
    chunks = _pair_fields(d)
    for a in entries:
        fields = chunks.setdefault(a, {})
        for b in entries - fields.keys():
            fields[b] = packed(a, b).to_bytes(size, "little")

    def strips(_: int, column: tuple[int, ...]):
        pick = _picker(column)
        return lambda a: (_joined(chunks[a], pick),)

    pair = _first_pair(table.rows, size, strips, tester)
    return CheckResult(True) if pair is None else CheckResult(False, tuple(table.types[i] for i in pair))


@cache
def _fubini(d: int) -> int:
    """Fubini(d) = sum over k of k! S(d, k), the ordered partitions of d
    labels into k blocks."""
    return sum((-1) ** (k - j) * comb(k, j) * j**d for k in range(d + 1) for j in range(k + 1))


def check_surrounding(types: Collection[TypeVector], d: int | None = None) -> CheckResult:
    """Every ordered-partition refinement of every type must be present.

    Refining by an ordered partition (P1, ..., Pk) cuts each entry to its
    part in the first block it meets.  That is the same as refining by
    the two-block partitions (P1, rest), then (P1 u P2, rest), and so on
    up to (P1 u ... u P(k-1), rest): an entry that first meets Pi keeps
    all of itself until step i, which cuts it to its part in
    P1 u ... u Pi, that is in Pi, and from then on it lies inside every
    prefix and is never cut again.  So a collection closed under the
    2^d - 2 two-block refinements (P, rest) is closed under all Fubini(d)
    ordered partitions, since each step starts from a type already
    present; the converse holds because every (P, rest) is an ordered
    partition.

    Kernel: the cut of an entry e by (P, rest) is ``e & P or e``, so each
    distinct entry is cut once by every P, a type's two-block refinements
    are the zip of its entries' columns, and one ``set.issuperset`` looks
    them all up.  The |types| x (2^d - 2) lookups are refused past
    ``MAX_SURROUNDING_WORK``.  Only a failure runs the scan over every
    ordered partition (:func:`_first_surrounding_failure`), which names
    the first (T, P) in canonical order.
    """
    table = types if isinstance(types, _Table) else _Table(types, d=d)
    if not table.rows:
        return CheckResult(True)
    d = table.top if d is None else d
    work = len(table) * (2**d - 2)
    if work > MAX_SURROUNDING_WORK:
        raise ResourceLimitError(
            f"surrounding: {len(table)} types x {2**d - 2} two-block refinements of d={d} "
            f"= {work} lookups exceed the cap of {MAX_SURROUNDING_WORK}"
        )
    parts = range(2, (2 << d) - 2, 2)
    cuts = {e: [e & P or e for P in parts] for e in {e for row in table.rows for e in row}}
    for checked, row in enumerate(table.rows, 1):
        if not table.present.issuperset(zip(*map(cuts.__getitem__, row))):
            return _first_surrounding_failure(table, d, checked)
    return CheckResult(True)


def _first_surrounding_failure(table: _Table, d: int, checked: int) -> CheckResult:
    """The first type T, with the first ordered partition P, whose
    refinement by P is missing, once the two-block stage has found a
    missing refinement of the ``checked``-th type; T is at or before that
    type.  Each type scanned adds Fubini(d) lookups to the two-block
    stage's, and the scan stops with ResourceLimitError past
    ``MAX_SURROUNDING_WORK``.  The partitions are read as block masks;
    only the one named becomes an :class:`OrderedPartition`."""
    two_block, fubini = checked * (2**d - 2), _fubini(d)
    blocks = None  # generated once the first type's scan fits the cap
    cuts: dict[int, list[int]] = {}
    for scanned, (T, row) in enumerate(zip(table.types[:checked], table.rows), 1):
        work = two_block + scanned * fubini
        if work > MAX_SURROUNDING_WORK:
            raise ResourceLimitError(
                f"surrounding: naming a failure: {checked} types x {2**d - 2} two-block refinements "
                f"+ {scanned} types x {fubini} ordered partitions of d={d} = {work} lookups "
                f"exceed the cap of {MAX_SURROUNDING_WORK}"
            )
        if blocks is None:
            blocks = _partition_masks(d)
        for e in row:
            if e not in cuts:
                cuts[e] = [e & next(filter(e.__and__, bs)) for bs in blocks]
        refined = list(zip(*map(cuts.__getitem__, row)))
        if not table.present.issuperset(refined):
            bs = next(bs for bs, r in zip(blocks, refined) if r not in table.present)
            P = OrderedPartition(tuple(frozenset(_bits(b)) for b in bs))
            return CheckResult(False, (T, P))
    raise RuntimeError("surrounding: a two-block refinement is missing but no ordered-partition refinement is")


def check_local_refinement(types: Collection[TypeVector]) -> CheckResult:
    """For every type, every non-singleton entry, and every label in it,
    the vector with just that entry collapsed to the single label must be
    present."""
    table = types if isinstance(types, _Table) else _Table(types)
    for T, row in zip(table.types, table.rows):
        for i, entry in enumerate(row):
            if not entry & entry - 1:  # a single label
                continue
            head, tail = row[:i], row[i + 1:]
            for k in _bits(entry):
                if head + (1 << k,) + tail not in table.present:
                    return CheckResult(False, (T, i + 1, k))
    return CheckResult(True)


def is_tropical_oriented_matroid(types: Collection[TypeVector], n: int, d: int) -> AxiomReport:
    """Run all checks; the report's :attr:`~AxiomReport.is_tom` is the
    verdict.  The collection's table is built once, with this n and d, and
    handed to every check, surrounding first, so a collection that does
    not fit, or one past surrounding's work cap, costs the table build
    and no check."""
    table = _Table(types, n, d)
    surrounding = check_surrounding(table, d)
    return AxiomReport(check_boundary(table, n, d), check_elimination(table), check_comparability(table, d),
                       surrounding, check_local_refinement(table))
