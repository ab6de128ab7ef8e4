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
closes into one expression (``_compiled_steps``), and each step makes one
call of it.  ``_products_agree`` is the same check written as two loops:
the reference the compiled steps are tested against, and the check of
the smaller groups, whose search is too short to repay the compile.
Position 0 of the
search is a constant 1 that stands for every cell normalization pins, so
each check reads the cell values directly.  The search is drawn in blocks
of at most 1,024 tables, and every block is still validated, in one
bit-sliced pass (``cocycles._tables_valid``); a refused block goes table
by table through validate_cocycle, which names the first table that
fails, and the tables before that one are still yielded.  So the census is one stream from the search to the written line,
and no step holds more than one block.

``census_records`` fingerprints each cocycle by the radical filtration,
the N_k layers and the annihilator classes, all read as masks from one
``algebra._CocycleMasks`` view: the base of every AlgebraContext, built
bare, without the context's links and caches.  It reads the layer masks
that ``nk_partition`` views, which build the radical powers once and
compare the filtration's N_1 with the direct N_1 mask, and the annihilator
mask with the number of double cosets it meets, which
``classify_annihilators`` views.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, islice, product
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .algebra import (
    AlgebraContext,
    DescendingChain,
    MonomialIdeal,
    _CocycleMasks,
    _annihilator_classes,
    _ideal_from_mask,
    _layer_masks,
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
    _pack_rows,
    _tables_valid,
    _unpack_rows,
    inertial_group,
    validate_cocycle,
)
from .errors import InternalInvariantError, ValidationError
from .groups import Group, Subgroup

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


def _compiled_steps(steps: Sequence[Step]) -> Tuple[Callable[[List[int]], bool], ...]:
    """Each step as one function of vals that returns what
    ``_products_agree(step, vals)`` returns when vals holds only 0 and 1.

    A step is one expression: not (v[x] and v[y] and not v[z]) for each
    implication, then (v[c1] and v[c2]) == (v[c3] and v[c4]) for each
    identity, joined by and in that order, or True for a step with no
    checks; over 0/1, a and b is a b.  The source is built from the steps'
    integer positions alone and compiled with no builtins, one eval per
    step, which keeps the compiler's peak memory to one step's.
    """
    env: Dict[str, object] = {"__builtins__": {}}

    def compiled(implications, identities) -> Callable[[List[int]], bool]:
        terms = ["not (v[%d] and v[%d] and not v[%d])" % imp for imp in implications]
        terms += ["(v[%d] and v[%d]) == (v[%d] and v[%d])" % c for c in identities]
        return eval("lambda v: " + (" and ".join(terms) or "True"), env)

    return tuple([compiled(*step) for step in steps])


# Compiling costs about 25 us a term on a 2-vCPU Xeon with CPython 3.11 (5 ms
# for the 193 terms of D3): below order 7 it costs more than the compiled
# steps save, and at order 7 it about breaks even.
_COMPILED_FROM_ORDER = 7


def _holds(step: Callable[[List[int]], bool], vals: List[int]) -> bool:
    """The predicate ``_census`` hands the search core: one compiled step's
    verdict on vals (``operator.call`` is not in Python 3.10)."""
    return step(vals)


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
    ``_compiled_steps``; below it ``_products_agree`` checks them.  The
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
    domains = [(1,)] + [(0, 1)] * (size - 1)
    steps: Sequence = _census_steps(group)
    holds = _products_agree
    if n >= _COMPILED_FROM_ORDER:
        steps, holds = _compiled_steps(steps), _holds
    search = _depth_first(domains, steps, holds)
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
    """The fingerprint of one cocycle.

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


def census_records(stream: CensusStream) -> List[CensusRecord]:
    """Fingerprint every cocycle of a census for the text output, one
    ``_census_record`` each; the ``census`` command calls that per cocycle
    and writes each line as it is made."""
    return [_census_record(c) for c in stream.cocycles]
