"""Exhaustive enumeration of idempotent cocycles and ideals on small
groups, the weakly descending chains of those ideals, and the fingerprint
of each cocycle.

The enumeration runs the depth-first core shared with the realization
search (``cocycles._depth_first``).  It fills the table over non-identity
pairs cell by cell, checking each cocycle triple the moment its last cell
is assigned, which prunes the raw 2^((n-1)^2) space to the tiny set of
valid tables.  Over 0/1 values a triple a b = c d also implies a b <= c,
a b <= d, c d <= a and c d <= b; each of these that is decided before the
triple's last cell is checked at the step that decides it, so a dead
prefix is cut early (forward checking).  Each enumeration of a group of
order 7 or more compiles every step's implications and the triples it
closes, once with the step's cell set to 0 and once to 1, into one
function that returns the values the cell may take (``_compiled_choices``),
so each prefix the search reaches makes one call for both values.
``_products_agree`` is the same check written as two loops: the reference
the compiled choices are tested against, and the check of the smaller
groups, whose search is too short to repay the compile and tries each
value through it (``cocycles._filtered``).  Position 0 of the search is a
constant 1 that stands for every cell normalization pins, so each check
reads the cell values directly.  The search is drawn in blocks
of at most 1,024 tables, and every block is still validated, in one
bit-sliced pass (``cocycles._tables_valid``); a refused block goes table
by table through validate_cocycle, which names the first table that
fails, and the tables before that one are still yielded.  So the census is one stream from the search to the written line,
and no step holds more than one block.

``_fingerprints`` fingerprints the cocycles of one group a block at a
time, for ``census_records`` and for the ``census`` command, in one
bit-sliced pass (``_block_records``) over the block's tables laid side by
side, as the block check lays them.  For every
lane at once it computes H and G*, the radical powers with each power's
closedness and the nilpotency bound, N_1 by the filtration and again by a
route built the other way, the layers' cover of G* and the annihilators;
then it reads each lane's sets as bytes and checks each distinct reading
once: H as a subgroup, through the group's double-coset memo, and the
annihilators as a union of its double cosets.  A block that fails any check
is refused, and goes cocycle by cocycle through ``_census_record``, the
reference and the only reporter.  That reads the same invariants as masks
from one ``algebra._CocycleMasks`` view: the base of every AlgebraContext,
built bare, without the context's links and caches, through the layer
masks that ``nk_partition`` views and the annihilator classes that
``classify_annihilators`` views, so a refused cocycle raises their errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import compress, groupby, islice, product
from operator import attrgetter, or_
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import (
    AlgebraContext,
    DescendingChain,
    MonomialIdeal,
    _CocycleMasks,
    _annihilator_classes,
    _classes_met,
    _ideal_from_mask,
    _layer_masks,
    _layers_of,
    _members_of,
    _principal_masks,
)
from .cocycles import (
    BinaryTable,
    Cocycle,
    CocycleViolation,
    _BLOCK_TABLES,
    _closing_schedule,
    _depth_first,
    _filtered,
    _pack_rows,
    _side_by_side,
    _table_stride,
    _tables_valid,
    _unpack_rows,
    inertial_group,
    validate_cocycle,
)
from .errors import InternalInvariantError, ValidationError
from .groups import Group, Subgroup, _double_coset_masks

__all__ = [
    "CensusConfig",
    "CensusStream",
    "enumerate_cocycles",
    "enumerate_ideals",
    "descending_multichains",
    "CensusRecord",
    "census_records",
]


@dataclass(frozen=True)
class CensusConfig:
    group: Group
    inertial: Optional[Subgroup] = None
    max_candidates: int = 1_000_000
    max_chains_per_cocycle: int = 10_000

    def __post_init__(self) -> None:
        if self.max_candidates < 1 or self.max_chains_per_cocycle < 1:
            raise ValidationError("census limits must be positive")
        if self.inertial is not None and self.inertial.group != self.group:
            raise ValidationError("inertial filter belongs to a different group")


@dataclass(frozen=True)
class CensusStream:
    """The cocycles of a census, in search order, and whether the search
    stopped at the first table past ``max_candidates``.  Only
    ``enumerate_cocycles`` holds them all; the ``census`` command streams."""

    cocycles: Tuple[Cocycle, ...]
    truncated: bool


def _triple_constraints(group: Group) -> List[Tuple[int, int, int, int]]:
    """The cocycle identity f(s,t) f(st,r) = f(t,r) f(s,tr) over non-identity
    s, t, r as the four cell positions it reads.

    Cell (s, t) of the non-identity block sits at position (s-1)(n-1) + t,
    row-major; position 0 stands for every cell that normalization pins to 1.
    A triple whose two products read the same two cells always holds and is
    dropped, as is one that equals an earlier triple up to the order of the
    factors or of the two sides; both read the same positions, so every
    search step keeps its verdict.
    """
    n = group.order
    m = n - 1

    def pos(s: int, t: int) -> int:
        return (s - 1) * m + t if s and t else 0

    constraints = []
    seen = set()
    for s, t, r in product(range(1, n), repeat=3):
        c = (pos(s, t), pos(group.mul(s, t), r), pos(t, r), pos(s, group.mul(t, r)))
        left, right = tuple(sorted(c[:2])), tuple(sorted(c[2:]))
        key = (min(left, right), max(left, right))
        if left != right and key not in seen:
            seen.add(key)
            constraints.append(c)
    return constraints


def _implications(
    identities: Sequence[Tuple[int, int, int, int]]
) -> List[Tuple[int, int, int]]:
    """The implications (x, y, z), read vals[x] vals[y] <= vals[z], that the
    identities decide early.

    Over 0/1 values a b = c d holds exactly when a b <= c, a b <= d,
    c d <= a and c d <= b.  Of these, an identity yields (x, y, z) only when
    max(x, y, z) < max(a, b, c, d): a search step then cuts the prefix
    before the identity itself closes.  Tautologies (z is x or y, or z is the
    pinned position 0) and repeats are dropped.
    """
    return list(dict.fromkeys(
        (min(x, y), max(x, y), z)
        for a, b, c, d in identities
        for x, y, z in ((a, b, c), (a, b, d), (c, d, a), (c, d, b))
        if z not in (0, x, y) and max(x, y, z) < max(a, b, c, d)
    ))


Step = Tuple[Sequence[Tuple[int, int, int]], Sequence[Tuple[int, int, int, int]]]


def _products_agree(step: Step, vals: List[int]) -> bool:
    """One search step's checks, in one loop each: vals[x] vals[y] <= vals[z]
    for every implication (x, y, z) of the step, then vals[c1] vals[c2] =
    vals[c3] vals[c4] for every identity (c1, c2, c3, c4) it closes."""
    implications, identities = step
    for x, y, z in implications:
        if vals[x] and vals[y] and not vals[z]:
            return False
    for c1, c2, c3, c4 in identities:
        if vals[c1] * vals[c2] != vals[c3] * vals[c4]:
            return False
    return True


def _census_steps(group: Group) -> List[Step]:
    """Each search step's (implications, identities): the implications of
    ``_implications`` that it decides and the identities of
    ``_triple_constraints`` that it closes."""
    size = (group.order - 1) ** 2 + 1
    identities = _triple_constraints(group)
    return list(zip(
        _closing_schedule(size, _implications(identities)),
        _closing_schedule(size, identities),
    ))


def _folded(step: Step, i: int, b: int) -> str:
    """The checks of step with vals[i] set to b, as one expression of v.

    Each product in a check reads two distinct positions, so with vals[i]
    set it is either 0 or its other read, and no check becomes one that
    can never hold.  With P the product vals[x] vals[y], an implication
    P <= vals[z] becomes not (P and not v[z]), or not (P) when vals[z] is
    0; an identity L = R becomes (L) == (R), or not (L) when R is 0.  A
    check that always holds (P is 0, vals[z] is 1, or both sides are 0) is
    dropped, as is a repeat; the rest are joined by and in their order, or
    True for none.  Only v[i] is folded, so the expression agrees with
    ``_products_agree`` whatever v[0] holds.
    """

    def product(x: int, y: int) -> Optional[str]:
        # None for a product of 0
        if i in (x, y):
            return "v[%d]" % (y if x == i else x) if b else None
        return "v[%d] and v[%d]" % (x, y)

    implications, identities = step
    terms = []
    for x, y, z in implications:
        left = product(x, y)
        if left is None or z == i and b:
            continue
        terms.append("not (%s)" % left if z == i else "not (%s and not v[%d])" % (left, z))
    for c1, c2, c3, c4 in identities:
        left, right = product(c1, c2), product(c3, c4)
        if left and right:
            terms.append("(%s) == (%s)" % (left, right))
        elif left or right:
            terms.append("not (%s)" % (left or right))
    return " and ".join(dict.fromkeys(terms)) or "True"


def _compiled_choices(steps: Sequence[Step]) -> List[Callable[[List[int]], Tuple[int, ...]]]:
    """Each step i as one function of vals that returns the values v of 0
    and 1 for which ``_products_agree(step, vals)`` holds with vals[i] = v,
    when vals holds only 0 and 1: both values of a cell decided in one call.

    Step i is one expression O[ok0 + 2 * ok1], okb being ``_folded(step, i,
    b)``; over 0/1, a and b is a b.  The source is built from the steps'
    integer positions alone and compiled with no builtins, one eval per
    step, which keeps the compiler's peak memory to one step's.
    """
    env: Dict[str, object] = {"__builtins__": {}, "O": ((), (0,), (1,), (0, 1))}
    return [
        eval("lambda v: O[(%s) + 2 * (%s)]" % (_folded(step, i, 0), _folded(step, i, 1)), env)
        for i, step in enumerate(steps)
    ]


# Compiling costs 20-24 us a check of the step on a 2-vCPU Xeon with CPython
# 3.11 (5 ms for the 216 checks of C6, 10 ms for the 404 of C7).  At order 6
# that is more than the compiled choices save (C6 and D3 search in 1.4 ms,
# against 3.3-3.6 ms through _filtered); at order 7 they save 28 ms.
_COMPILED_FROM_ORDER = 7


@lru_cache(maxsize=16)
def _cell_weights(n: int) -> Tuple[int, ...]:
    """The packed weight of each search position of order n; position 0
    stands for the identity row and column."""
    pinned = (1 << n) - 1 | sum(1 << s * n for s in range(1, n))
    return (pinned,) + tuple(1 << s * n + t for s in range(1, n) for t in range(1, n))


def _validated(group: Group, packed: int) -> Cocycle:
    """One table of a block that ``_tables_valid`` refused, through
    validate_cocycle, the reference, which reports a table that fails."""
    result = validate_cocycle(BinaryTable.from_packed(group, packed))
    if isinstance(result, CocycleViolation):
        raise ValidationError(f"enumerated table failed validation: {result}")
    return result


def _census(cfg: CensusConfig) -> Iterator[Optional[Cocycle]]:
    """Each cocycle of the census in search order, then None if the search
    stopped at the first table past max_candidates.

    Each search step checks the implications of ``_implications`` that it
    decides, then the identities of ``_triple_constraints`` that it closes;
    the implications only cut dead prefixes sooner, so the tables and their
    order are those of the identities alone.  From order
    _COMPILED_FROM_ORDER the steps are compiled once per enumeration by
    ``_compiled_choices``; below it ``_products_agree`` checks each value
    tried, through ``_filtered``.  The
    search is drawn in blocks of at most _BLOCK_TABLES tables, each packed
    as the sum of its cells' weights, and each block is validated at once
    by ``_tables_valid``.  A refused block goes table by table through
    ``_validated``: the tables before the first that fails are still
    yielded, and that one raises; a refused block whose every table passes
    raises InternalInvariantError after them.  A table is counted before the
    inertial filter, which keeps only the tables with that exact inertial
    subgroup, and becomes a Cocycle only as it is yielded, so no step holds
    more than one block.
    """
    group = cfg.group
    n = group.order
    size = (n - 1) ** 2 + 1
    steps = _census_steps(group)
    if n < _COMPILED_FROM_ORDER:
        choices = _filtered([(1,)] + [(0, 1)] * (size - 1), steps, _products_agree)
    else:
        # position 0, the cells normalization pins to 1, closes no check
        choices = [lambda vals: (1,)] + _compiled_choices(steps)[1:]
    search = _depth_first(choices)
    weights = _cell_weights(n)
    limit = cfg.max_candidates
    for start in range(0, limit + 1, _BLOCK_TABLES):
        wanted = min(_BLOCK_TABLES, limit + 1 - start)
        block = [sum(compress(weights, cells)) for cells in islice(search, wanted)]
        truncated = start + len(block) > limit
        if truncated:
            block.pop()
        passed = not block or _tables_valid(group, block)
        for packed in block:
            if passed:
                cocycle = Cocycle(group=group, masks=_unpack_rows(packed, n))
            else:
                cocycle = _validated(group, packed)
            if cfg.inertial is None or inertial_group(cocycle).members == cfg.inertial.members:
                yield cocycle
        if not passed:
            raise InternalInvariantError(
                f"the block check refused {len(block)} tables that each pass validate_cocycle"
            )
        if truncated:
            yield None
        if len(block) < wanted:
            return


def enumerate_cocycles(cfg: CensusConfig) -> CensusStream:
    """Every idempotent cocycle of the group, in flattened-bits order, with
    the truncation flag; see ``_census``, which validates each block of
    tables as the search finds it, so the peak memory is about that of the
    cocycles returned."""
    cocycles = tuple(_census(cfg))
    if cocycles and cocycles[-1] is None:
        return CensusStream(cocycles=cocycles[:-1], truncated=True)
    return CensusStream(cocycles=cocycles, truncated=False)


def enumerate_ideals(ctx: AlgebraContext) -> List[MonomialIdeal]:
    """All monomial ideals, sorted by size then members.

    Every ideal is the union of the principal ideals of its members, so
    closing the zero ideal under union with each principal ideal reaches
    them all: one route, linear in the number of ideals for each element
    of G*.
    """
    g = len(ctx.gstar)
    if g > 20:
        raise ValidationError(f"size-error: |G*| = {g} exceeds the ideal enumeration cap")
    masks = {0}
    for principal in _principal_masks(ctx).values():
        masks |= {mask | principal for mask in masks}
    ideals = [_ideal_from_mask(ctx, mask) for mask in masks]
    ideals.sort(key=lambda i: (len(i), i.sorted_members))
    return ideals


_MAX_CHAIN_LEN = 4  # the longest chains listed by default, and by the sweep


def _chain_count(ideals: Sequence[MonomialIdeal], max_len: int = _MAX_CHAIN_LEN) -> int:
    """How many keys ``_chain_keys`` lists with no cap, without listing them:
    the chains one longer ending at an ideal step down from the chains
    ending at each ideal that contains it."""
    ending, total = [1] * len(ideals), 0  # a lone ideal is no chain yet
    for _ in range(max_len - 1):
        ending = [sum(c for c, big in zip(ending, ideals) if small <= big) for small in ideals]
        total += sum(ending)
    return total


def _below(ideals: Sequence[MonomialIdeal]) -> List[List[int]]:
    """For each ideal, the indices of the ideals inside it, ascending: the
    step of every chain walk, so ``_chain_keys`` and the sweep's walks list
    the chains in one order."""
    return [[j for j, small in enumerate(ideals) if small <= big] for big in ideals]


def _chain_keys(
    ideals: Sequence[MonomialIdeal], max_len: int = _MAX_CHAIN_LEN, cap: int = 10_000
) -> Tuple[List[Tuple[int, ...]], bool]:
    """Mask tuples of the weakly descending ideal sequences of length
    2..max_len, at most cap of them, and whether more exist.  Shorter keys
    come first, each length in the lexicographic order of the ideal indices,
    and a key of length k + 1 is its length-k parent plus one mask."""
    if cap < 1:
        raise ValidationError("census limits must be positive")
    below = _below(ideals)
    keys: List[Tuple[int, ...]] = []
    # (key, index of its last ideal); a lone mask is no chain yet
    level = [((ideal.mask,), i) for i, ideal in enumerate(ideals)]
    for _ in range(2, max_len + 1):
        nxt = []
        for parent, i in level:
            for j in below[i]:
                if len(keys) >= cap:
                    return keys, True
                key = parent + (ideals[j].mask,)
                keys.append(key)
                nxt.append((key, j))
        level = nxt
    return keys, False


def descending_multichains(
    ideals: Sequence[MonomialIdeal], max_len: int = _MAX_CHAIN_LEN, cap: int = 10_000
) -> Tuple[List[DescendingChain], bool]:
    """Weakly descending ideal sequences of length 2..max_len, capped: the
    keys and flag of ``_chain_keys``, each key built into a chain by the
    DescendingChain constructor, which checks every link."""
    keys, truncated = _chain_keys(ideals, max_len, cap)
    by_mask = {ideal.mask: ideal for ideal in ideals}
    chains = [DescendingChain(ideals=tuple([by_mask[m] for m in key])) for key in keys]
    return chains, truncated


@dataclass(frozen=True)
class CensusRecord:
    """Fingerprint of one census cocycle: the largest k with J^k nonzero,
    the layer sizes |N_k|, and the number of annihilator double-coset
    classes (trivial and non-trivial together)."""

    order: int
    bits: str
    inertial: Tuple[int, ...]
    max_power: int
    nk_sizes: Tuple[int, ...]
    annihilator_classes: int


def _census_record(c: Cocycle) -> CensusRecord:
    """The fingerprint of one cocycle: the reference ``_block_records`` is
    tested against, and the one reporter, of each cocycle of a refused block.

    Every invariant is read as masks from one ``_CocycleMasks`` view, which
    builds no AlgebraContext: the all-ones cocycle is the one whose view
    has no G*, the largest radical power is read off the N_k layer masks of
    ``_layer_masks``, one layer per nonzero power, and the classes are
    counted by ``_annihilator_classes``.  bits is the packed table in bit
    order, formatted once; the cocycle does not keep its packed view.
    """
    n = c.group.order
    packed = _pack_rows(c.masks, n)
    view = _CocycleMasks(c, packed)
    layers: List[int] = []
    classes = 0
    if view.gstar:  # else the all-ones cocycle: the algebra is simple
        layers = _layer_masks(view)
        _, classes = _annihilator_classes(view)
    return CensusRecord(
        order=n,
        bits=format(packed, f"0{n * n}b")[::-1],
        inertial=_members_of(view._hmask),
        max_power=len(layers),
        nk_sizes=tuple([layer.bit_count() for layer in layers]),
        annihilator_classes=classes,
    )


class _Layout(NamedTuple):
    """The patterns ``_block_records`` reads for one group and one number of
    lanes, each laid over every lane.  Lane i holds a table at bits i*width ..
    i*width + width - 1, cell (s, t) at bit s*n + t, as in ``_tables_valid``.
    A set of elements is held in the row form, as row 0 (bit s of each lane),
    or in the column form, as column 0 (bit s*n).  A fold ORs every row of
    each lane into row 0, or every column into column 0, halving the rows or
    columns left at each (shift, mask) step; a move sends each cell (s, t) to
    the cell of its product, by one (shift, mask) step per distance."""

    width: int
    full: int  # one row: times a column-form set, the rows of its elements
    column: int  # column 0: times a row-form set, the columns of its elements
    row0: int
    column0: int
    diagonal: int
    cells: int
    inverses: int  # the cells (s, s^-1)
    row_folds: Tuple[Tuple[int, int], ...]
    column_folds: Tuple[Tuple[int, int], ...]
    right_moves: Tuple[Tuple[int, int], ...]  # cell (s, t) to (s, st)
    left_moves: Tuple[Tuple[int, int], ...]  # cell (s, t) to (st, t)
    products: int  # J^k reaches 0 within this many products, or repeats a power


@lru_cache(maxsize=4)
def _block_layout(table: Tuple[Tuple[int, ...], ...], lanes: int) -> _Layout:
    """The layout of a group's blocks, keyed by its multiplication table, so
    the cache holds no Group and none of its memos."""
    n = len(table)
    width = _table_stride(n)
    every = ((1 << lanes * width) - 1) // ((1 << width) - 1)  # bit 0 of each lane
    full = (1 << n) - 1
    column = ((1 << n * n) - 1) // full

    def folds(step: int, low: Callable[[int], int]) -> Tuple[Tuple[int, int], ...]:
        out, left = [], n
        while left > 1:
            half = left // 2
            left -= half
            out.append((left * step, every * low(half)))
        return tuple(out)

    def moves(target: Callable[[int, int, int], int]) -> Tuple[Tuple[int, int], ...]:
        by_shift: Dict[int, int] = {}
        for s, row in enumerate(table):
            for t, st in enumerate(row):
                shift = target(s, t, st) - (s * n + t)
                by_shift[shift] = by_shift.get(shift, 0) | 1 << s * n + t
        return tuple([(shift, every * mask) for shift, mask in by_shift.items()])

    return _Layout(
        width=width,
        full=full,
        column=column,
        row0=every * full,
        column0=every * column,
        diagonal=every * sum(1 << s * n + s for s in range(n)),
        cells=every * ((1 << n * n) - 1),
        inverses=every * sum(1 << s * n + row.index(0) for s, row in enumerate(table)),
        row_folds=folds(n, lambda half: (1 << half * n) - 1),
        column_folds=folds(1, lambda half: column * ((1 << half) - 1)),
        right_moves=moves(lambda s, t, st: s * n + st),
        left_moves=moves(lambda s, t, st: st * n + t),
        products=n,
    )


def _fold(v: int, folds: Tuple[Tuple[int, int], ...], keep: int) -> int:
    """v with its rows, or its columns, ORed into the first by the folds,
    masked to keep."""
    for shift, low in folds:
        v |= v >> shift & low
    return v & keep


def _moved(v: int, moves: Tuple[Tuple[int, int], ...]) -> int:
    """The cells of v, each sent where the moves send it."""
    out = 0
    for shift, mask in moves:
        part = v & mask
        out |= part << shift if shift >= 0 else part >> -shift
    return out


def _to_row(lay: _Layout, v: int) -> int:
    """A column-form set in the row form."""
    return _fold(v * lay.full & lay.diagonal, lay.row_folds, lay.row0)


def _closed(lay: _Layout, right: int, left: int, rows: int, columns: int) -> bool:
    """Whether every lane's set P, spread over its rows and over its columns,
    is closed under basis multiplication: on the right moves no s in P has
    f(s, t) = 1 with st outside P, and on the left moves no t in P does."""
    return not (right & rows & (lay.cells ^ columns) or left & columns & (lay.cells ^ rows))


def _factorable(lay: _Layout, cells: int) -> int:
    """The st with f(s, t) = 1 and s, t in G*, in the row form, from the cells
    (s, t) of G* x G* with f = 1: moved to (st, t) and folded over columns,
    where the radical powers move to (s, st) and fold over rows."""
    return _to_row(lay, _fold(_moved(cells, lay.left_moves), lay.column_folds, lay.column0))


def _lane_fields(group: Group, key: Tuple[int, ...], span: int) -> Optional[tuple]:
    """The record fields from inertial on, for the lanes whose H,
    annihilators and layers N_k read as the bytes of key, span bytes each;
    or None if H is no subgroup or the annihilators split a double coset."""
    if span > 1:
        key = tuple([
            int.from_bytes(bytes(key[i:i + span]), "little") for i in range(0, len(key), span)
        ])
    hmask, ann, *layers = key
    try:
        cosets = _double_coset_masks(group, hmask)
    except ValidationError:
        return None
    classes = _classes_met(cosets, ann)
    if classes is None:
        return None
    while layers and not layers[-1]:  # the layers past the lane's last power
        layers.pop()
    return _members_of(hmask), len(layers), tuple([m.bit_count() for m in layers]), classes


def _block_records(group: Group, cocycles: Sequence[Cocycle]) -> Optional[List[CensusRecord]]:
    """The ``_census_record`` of each cocycle of group, at most _BLOCK_TABLES
    of them, computed for all at once on one integer that lays their tables
    side by side (bit-slicing, as ``cocycles._tables_valid``); or None, and
    the block is refused, if any check fails.

    H and G* come from the cells (s, s^-1).  The radical powers J^{k+1} are
    the products of J^k and G*, each checked to be closed, until every lane
    reaches 0.  A closed J^k holds J^{k+1}, so every power lies in G*, and a
    lane still nonzero after ``products`` steps repeats a power, which
    ``_census_record`` reports as not nilpotent.  The layers N_k must cover
    G*, and N_1 must be G* minus ``_factorable``, the products built the
    other way.  Then each lane's H, annihilators and layers are read as
    bytes, and each distinct reading is checked once by ``_lane_fields``: H
    through ``_double_coset_masks``, and the annihilators as a union of its
    double cosets.  A refused block goes cocycle by cocycle through
    ``_census_record``, which reports.
    """
    if not cocycles:
        return []
    n = group.order
    lay = _block_layout(group.table, len(cocycles))
    x = _side_by_side([_pack_rows(c.masks, n) for c in cocycles], lay.width)
    h_col = _fold(x & lay.inverses, lay.column_folds, lay.column0)
    h_row = _to_row(lay, h_col)
    g_row = lay.row0 ^ h_row
    g_rows, g_columns = (lay.column0 ^ h_col) * lay.full, g_row * lay.column
    right, left = _moved(x, lay.right_moves), _moved(x, lay.left_moves)
    step = _moved(x & g_columns, lay.right_moves)  # f(s, t) at (s, st), for t in G*
    powers = []
    power, rows, columns = g_row, g_rows, g_columns
    for _ in range(lay.products):
        if not _closed(lay, right, left, rows, columns):
            return None
        powers.append(power)
        power = _fold(step & rows, lay.row_folds, lay.row0)
        if not power:
            break
        columns = power * lay.column
        rows = _fold(columns & lay.diagonal, lay.column_folds, lay.column0) * lay.full
    else:
        return None
    layers = _layers_of(powers)
    if reduce(or_, layers) != g_row:
        return None
    cells = x & g_rows & g_columns
    if layers[0] != g_row & ~_factorable(lay, cells):
        return None
    # the annihilators are G* less each s and t of G* with f(s, t) = 1
    factors = _fold(cells, lay.row_folds, lay.row0)
    factors |= _to_row(lay, _fold(cells, lay.column_folds, lay.column0))
    stride = lay.width // 8
    span = (n + 7) // 8
    size = len(cocycles) * stride
    reads = [
        plane.to_bytes(size, "little")[j::stride]
        for plane in [h_row, g_row & ~factors] + layers
        for j in range(span)
    ]
    text = format(x, f"0{len(cocycles) * lay.width}b")[::-1]
    nn = n * n
    fields: Dict[Tuple[int, ...], tuple] = {}
    records = []
    for start, key in zip(range(0, len(text), lay.width), zip(*reads)):
        tail = fields.get(key)
        if tail is None:
            tail = fields[key] = _lane_fields(group, key, span)
            if tail is None:
                return None
        records.append(CensusRecord(n, text[start:start + nn], *tail))
    return records


def _blocks(items: Iterable, size: int) -> Iterator[list]:
    """The items in lists of size, the last one shorter.  If drawing an item
    raises, the items drawn before it come out as one last list first."""
    block: list = []
    try:
        for item in items:
            block.append(item)
            if len(block) == size:
                yield block
                block = []
    except Exception:
        if block:
            yield block
        raise
    if block:
        yield block


def _fingerprints(
    group: Group, cocycles: Iterable[Optional[Cocycle]], size: int
) -> Iterator[Optional[Iterable[CensusRecord]]]:
    """The records of the cocycles of group, one iterable per block of at
    most size: the list of ``_block_records``, or, if the block is refused,
    ``_census_record`` of each cocycle as it is read.  A None, which
    ``_census`` yields last when the search stopped early, comes out last as
    None.  If drawing a cocycle raises, the records of those drawn before it
    come out first."""
    for block in _blocks(cocycles, size):
        stopped = block[-1] is None
        if stopped:
            block.pop()
        yield _block_records(group, block) or map(_census_record, block)
        if stopped:
            yield None


def census_records(stream: CensusStream) -> List[CensusRecord]:
    """Fingerprint every cocycle of a census for the text output, each run
    of one group through ``_fingerprints`` in blocks of _BLOCK_TABLES.  The
    ``census`` command writes the same records a block of ``cli._LINE_BLOCK``
    at a time, each line as it is made."""
    records: List[CensusRecord] = []
    for group, run in groupby(stream.cocycles, attrgetter("group")):
        for block in _fingerprints(group, run, _BLOCK_TABLES):
            records += block
    return records
