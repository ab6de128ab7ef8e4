"""Exhaustive enumeration of idempotent cocycles and ideals on small groups,
and the property sweep that grinds every identity of the package against
that ground truth.

The enumeration runs the depth-first core shared with the realization
search (``cocycles._depth_first``).  It fills the table over non-identity
pairs cell by cell, checking each cocycle triple the moment its last cell
is assigned, which prunes the raw 2^((n-1)^2) space to the tiny set of
valid tables.  Over 0/1 values a triple a b = c d also implies a b <= c,
a b <= d, c d <= a and c d <= b; each of these that is decided before the
triple's last cell is checked at the step that decides it, so a dead
prefix is cut early (forward checking).  Each step makes one call of
``_products_agree``, which checks that step's implications and then the
triples it closes.  Position 0 of the search is a constant 1 that stands
for every cell normalization pins, so each check reads the cell values
directly.  Every enumerated table is still validated, the moment the
search yields it, so the census is one stream from the search to the
written line and no step holds every table.

``census_records`` fingerprints each cocycle by the radical filtration,
the N_k layers and the annihilator classes, all read from one
AlgebraContext: the radical powers are built once, inside ``nk_partition``,
and the direct N_1 mask is computed once and shared by ``nk_partition``
and ``classify_annihilators``, which still compare it with the filtration
and the double cosets.

The property sweep is also the negative control: a fabricated table with
one flipped entry must fail either validation or at least one check here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, combinations, product, repeat, tee
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .algebra import (
    AlgebraContext,
    DescendingChain,
    MonomialIdeal,
    _closure_mask,
    _ideal_from_mask,
    _mask_of,
    _members_of,
    _principal_masks,
    _waterhouse_of,
    classify_annihilators,
    ideal_closure,
    ideal_lattice_op,
    nk_partition,
)
from .cocycles import (
    BinaryTable,
    Cocycle,
    CocycleViolation,
    _closing_schedule,
    _depth_first,
    _support_order,
    inertial_group,
    validate_cocycle,
)
from .decomposition import (
    DecompositionReport,
    _PASSED,
    _chain_table,
    _classes_of,
    _leq_f_verdict,
    _link_witness,
    _tables_check,
    _waterhouse_iff_verdict,
    check_identity,
    cocycle_mod_ideal,
    decompose_by_bstar,
    decompose_by_classes,
    morphism_check,
)
from .errors import ForgeError, ValidationError
from .generators import all_generators, n1_set, principal_via_generators
from .groups import Group, Subgroup
from .semilinear import SemilinearMap, chain_lift, cocycle_from_r, padded_lift, random_semilinear

__all__ = [
    "CensusConfig",
    "CensusStream",
    "enumerate_cocycles",
    "enumerate_ideals",
    "descending_multichains",
    "PropertyFailure",
    "CocycleCheckResult",
    "check_cocycle_properties",
    "CensusReport",
    "property_suite",
    "MutationOutcome",
    "mutation_report",
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


def _products_agree(
    step: Tuple[Sequence[Tuple[int, int, int]], Sequence[Tuple[int, int, int, int]]],
    vals: List[int],
) -> bool:
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


def _table_from_cells(group: Group, cells: Tuple[int, ...]) -> BinaryTable:
    """Row masks of a completed cell assignment; the identity row and
    column are all ones."""
    n = group.order
    m = n - 1
    masks = [(1 << n) - 1]
    for s in range(1, n):
        row = 1
        for t, v in enumerate(cells[(s - 1) * m + 1 : s * m + 1], start=1):
            row |= v << t
        masks.append(row)
    return BinaryTable(group=group, masks=tuple(masks))


def _census(cfg: CensusConfig) -> Iterator[Optional[Cocycle]]:
    """Each cocycle of the census as the search finds it, then None if the
    search stopped at the first table past max_candidates.

    Each search step checks the implications of ``_implications`` that it
    decides, then the identities of ``_triple_constraints`` that it closes;
    the implications only cut dead prefixes sooner, so the tables and
    their order are those of the identities alone.  Each table is validated
    the moment the search yields it, and is counted before the inertial
    filter, which keeps only the tables with that exact inertial subgroup.
    """
    group = cfg.group
    size = (group.order - 1) ** 2 + 1
    domains = [(1,)] + [(0, 1)] * (size - 1)
    identities = _triple_constraints(group)
    schedule = list(zip(
        _closing_schedule(size, _implications(identities)),
        _closing_schedule(size, identities),
    ))
    for count, cells in enumerate(_depth_first(domains, schedule, _products_agree)):
        if count == cfg.max_candidates:
            yield None
            return
        result = validate_cocycle(_table_from_cells(group, cells))
        if isinstance(result, CocycleViolation):
            raise ValidationError(f"enumerated table failed validation: {result}")
        if cfg.inertial is None or inertial_group(result).members == cfg.inertial.members:
            yield result


def enumerate_cocycles(cfg: CensusConfig) -> CensusStream:
    """Every idempotent cocycle of the group, in flattened-bits order, with
    the truncation flag; see ``_census``, which validates each table as the
    search finds it, so the peak memory is about that of the cocycles
    returned."""
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


def _chain_keys(
    ideals: Sequence[MonomialIdeal], max_len: int = _MAX_CHAIN_LEN, cap: int = 10_000
) -> Tuple[List[Tuple[int, ...]], bool]:
    """Mask tuples of the weakly descending ideal sequences of length
    2..max_len, at most cap of them, and whether more exist.  Shorter keys
    come first, each length in the lexicographic order of the ideal indices,
    and a key of length k + 1 is its length-k parent plus one mask."""
    if cap < 1:
        raise ValidationError("census limits must be positive")
    below = [[j for j, small in enumerate(ideals) if small <= big] for big in ideals]
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
class PropertyFailure:
    check: str
    group_order: int
    cocycle_rows: Tuple[str, ...]
    detail: str


@dataclass(frozen=True)
class CocycleCheckResult:
    counts: Dict[str, int]
    failures: Tuple[PropertyFailure, ...]
    chains_truncated: bool = False  # the chain cap left some chains unchecked
    chains_total: int = 0  # the chains that exist, checked or not


def _label(subject) -> str:
    """How a failure detail names its subject: a chain key by its ideals, an
    ideal or a pair of ideals by their members, a lifted map by its values,
    and the context itself (None) by nothing."""
    if subject is None:
        return ""
    if isinstance(subject, SemilinearMap):
        return f"r={list(subject.values)}"
    if isinstance(subject, MonomialIdeal):
        return f"ideal={list(subject.sorted_members)}"
    if isinstance(subject[0], MonomialIdeal):
        a, b = subject
        return f"pair=({list(a.sorted_members)}, {list(b.sorted_members)})"
    return f"chain={[list(_members_of(mask)) for mask in subject]}"


def _failure_suffix(result) -> Optional[str]:
    """None when a check passed, else how its failure detail ends.

    result is what the check returned (a bool or a verdict with ``ok``) or
    the ForgeError it raised.
    """
    if isinstance(result, ForgeError):
        return f" raised: {result}"
    if isinstance(result, bool):
        return None if result else ""
    return None if result.ok else f" {result.counterexample}"


CHAIN_CHECKS = ("leq_f", "chain_break", "waterhouse_iff")
_CHAIN_PASSED = tuple(_PASSED[name] for name in CHAIN_CHECKS)


def _read_link(ctx: AlgebraContext, ideals: Sequence[MonomialIdeal], links, squares, i, j):
    """Read the link I_i >= I_j of a chain walk into links[i][j] and return
    it: (mask of I_j, ``Group.cells`` of the layer I_i \\ I_j, the pair table
    through ``_chain_table``, the mask of the square of I_i).  The square is
    read once per ideal into squares.  An input that raised is kept as its
    error, without the traceback, whose frames would hold the context."""
    if i not in squares:
        big = ideals[i]
        squares[i] = _outcome(lambda: ideal_lattice_op("product", big, big).mask)
    outer, inner = ideals[i].mask, ideals[j].mask
    link = links[i][j] = (
        inner, ctx.group.cells(outer & ~inner),
        _outcome(_chain_table, ctx, (outer, inner)), squares[i],
    )
    return link


def _chain_verdicts(
    ctx: AlgebraContext, ideals: Sequence[MonomialIdeal], cap: int
) -> Iterator[Tuple[Tuple[int, ...], tuple, tuple]]:
    """Yield (key, verdicts, (join, witness)) for the first cap keys of
    ``_chain_keys(ideals, cap=cap)``, in its order; a cap below 1 raises.
    verdicts holds, per CHAIN_CHECKS name, the IdentityCheck that
    check_identity returns or the ForgeError it raises.  This is the exact,
    ordered and capped walk: the sweep runs it when ``_chain_pass_count``
    gives no count, and it alone reports chain failures.

    One walk down the ``below`` relation lists the keys level by level, and
    each chain carries its layer cells cells(L_1) | .. | cells(L_{k-1}), join
    and witness to its children.  Each link I_a >= I_{a+1} is read once, on
    first use, by ``_read_link``.  A chain's own table is built by
    ``_chain_table`` from its parent's cells OR the link's, never taken from
    the pair cache past two terms; its join is the parent's OR the link's
    pair table, and its witness, the first unsqueezed link, the parent's,
    or the link's own when the parent's is None.  A chain passes when its
    table lies inside f, equals the join, and equals the Waterhouse table
    exactly when no link is unsqueezed; any other chain gets the verdicts
    check_identity gives.  An input that raised, the Waterhouse table
    included, is carried as its error.
    """
    if cap < 1:
        raise ValidationError("census limits must be positive")
    n = ctx.group.order
    f = ctx.cocycle.packed
    f0 = _outcome(lambda: _waterhouse_of(ctx).packed)
    f0_ok = not isinstance(f0, ForgeError)
    below = [[j for j, small in enumerate(ideals) if small <= big] for big in ideals]
    links: List[Dict[int, tuple]] = [{} for _ in ideals]  # per outer ideal, by inner
    squares: Dict[int, object] = {}  # by ideal index: its square's mask, or the error
    # (key, index of its last ideal, layer cells, join, witness); no pairs join to 0
    level = [((ideal.mask,), i, 0, 0, None) for i, ideal in enumerate(ideals)]
    listed = 0
    for a in range(1, _MAX_CHAIN_LEN):
        nxt = []
        for parent, i, above, parent_join, parent_witness in level:
            row = links[i]
            for j in below[i]:
                if listed == cap:
                    return
                listed += 1
                inner, layer, pair, square = (
                    row.get(j) or _read_link(ctx, ideals, links, squares, i, j)
                )
                key = parent + (inner,)
                cells = above | layer
                try:
                    join = parent_join | pair
                except TypeError:  # a carried or read error is no table
                    join = parent_join if isinstance(parent_join, ForgeError) else pair
                witness = parent_witness
                if witness is None:  # a square that raised is carried as its error
                    witness = _link_witness(a, square, inner) if type(square) is int else square
                if a + 1 < _MAX_CHAIN_LEN:  # the last level has no children
                    nxt.append((key, j, cells, join, witness))
                try:
                    direct = _chain_table(ctx, key, cells)
                except ForgeError as exc:
                    verdicts = (exc.with_traceback(None),) * 3
                else:
                    if (
                        not direct & ~f and direct == join and f0_ok
                        and not isinstance(witness, ForgeError)
                        and (direct == f0) == (witness is None)
                    ):
                        verdicts = _CHAIN_PASSED
                    else:
                        verdicts = (
                            _leq_f_verdict(_support_order(direct, f)),
                            _outcome(_tables_check, "chain_break", n, direct, join),
                            _outcome(_waterhouse_iff_verdict, direct, f0, witness),
                        )
                yield key, verdicts, (join, witness)
        level = nxt


def _chain_pass_count(
    ctx: AlgebraContext, ideals: Sequence[MonomialIdeal], cap: int
) -> Optional[int]:
    """How many chains ``_chain_verdicts(ctx, ideals, cap)`` lists, when it
    would list them all and every one passes; None otherwise.

    The walk goes down the same ``below`` relation to the same depth, level
    by level, but it merges the chains of a level whose state is equal and
    counts the chains of each state.  The state is (index of the last
    ideal, OR of the layer cells, join, whether some link is unsqueezed),
    and it fixes the three verdicts of each of its chains and of all their
    descendants: the chain table is W | f & cells, chain_break compares it
    with the join, and waterhouse_iff compares it with W given the flag.
    So each state's table is built once, by ``_chain_table`` from the
    state's first key and its cells, and the pass condition of
    ``_chain_verdicts`` is evaluated once per state.  States never merge
    across lengths, and the join stays in the state, so a wrong pair table
    still fails chain_break.  Links are read by ``_read_link``.  The walk
    gives None as soon as a state misses, an input raised (a pair table, a
    square, W or a state's own table) or the count passes cap; the exact
    walk then decides every chain.
    """
    f = ctx.cocycle.packed
    f0 = _outcome(lambda: _waterhouse_of(ctx).packed)
    if isinstance(f0, ForgeError):
        return None
    below = [[j for j, small in enumerate(ideals) if small <= big] for big in ideals]
    links: List[Dict[int, tuple]] = [{} for _ in ideals]  # per outer ideal, by inner
    squares: Dict[int, object] = {}  # by ideal index: its square's mask, or the error
    # state (index of the last ideal, layer cells, join, unsqueezed) ->
    # [its chains, its first key]; a lone ideal is no chain yet
    level = {(i, 0, 0, False): [1, (ideal.mask,)] for i, ideal in enumerate(ideals)}
    total = 0
    for _ in range(1, _MAX_CHAIN_LEN):
        nxt: Dict[tuple, list] = {}
        for (i, above, parent_join, unsqueezed), (count, parent) in level.items():
            row = links[i]
            for j in below[i]:
                link = row.get(j)
                if link is None:
                    link = _read_link(ctx, ideals, links, squares, i, j)
                    if isinstance(link[2], ForgeError) or isinstance(link[3], ForgeError):
                        return None
                inner, layer, pair, square = link
                state = (j, above | layer, parent_join | pair, unsqueezed or square & ~inner != 0)
                merged = nxt.get(state)
                if merged is None:
                    nxt[state] = [count, parent + (inner,)]
                else:
                    merged[0] += count
        for (_, cells, join, unsqueezed), (count, key) in nxt.items():
            total += count
            if total > cap:
                return None
            try:
                direct = _chain_table(ctx, key, cells)
            except ForgeError:
                return None
            if direct & ~f or direct != join or (direct == f0) == unsqueezed:
                return None
        level = nxt
    return total


def _outcome(check, *args, **kwargs):
    """What check(*args, **kwargs) returned, or the ForgeError it raised,
    without the traceback, whose frames would hold the context.  Shared
    inputs are passed positionally: a positional argument that is a
    ForgeError, a shared input that raised, is the outcome instead, and check
    is not called."""
    for arg in args:
        if isinstance(arg, ForgeError):
            return arg
    try:
        return check(*args, **kwargs)
    except ForgeError as exc:
        return exc.with_traceback(None)


_IDEAL_CHECKS = (
    "n1_of_quotient", "ideal_members_trivial_in_quotient", "fI_eq_f", "morphism",
    "trivial_annih_replace",
)
_PAIR_CHECKS = ("sum_product", "intersection_vee", "cap_zero")
_CONTEXT_CHECKS = ("principal_two_routes", "bstar_recombination", "class_decomposition")
# a pair's kinds by whether its ideals meet in zero, and each one's shared
# all-pass tuple
_PAIR_KINDS = (_PAIR_CHECKS[:2], _PAIR_CHECKS)
_PAIR_PASSED = {kinds: tuple(_PASSED[name] for name in kinds) for kinds in _PAIR_KINDS}
# what the from-scratch ideal checks return when all five pass
_IDEAL_PASSED = (True, True, _PASSED["fI_eq_f"], True, _PASSED["trivial_annih_replace"])


def _ideal_verdicts(
    ctx: AlgebraContext, ideals: Sequence[MonomialIdeal], trivial, base_n1,
    quotients: Dict[int, int],
) -> Iterator[tuple]:
    """Yield (_IDEAL_CHECKS, ideal, outcomes) for each ideal, and put each
    packed quotient table that did not raise into quotients by mask.
    trivial and base_n1 are the context's trivial annihilators and N_1, or
    the errors they raised.  The first two checks are read off the quotient
    context; with m the ideal's mask, q the quotient and T the trivial mask,
    fI_eq_f passes when q == f exactly when m & ~T is 0, morphism on the
    psi test of morphism_check row by row (q and f agree at each (s, t)
    with st outside m), and trivial_annih_replace when inner, the closure
    of T & m, lies in m and in T and the pair tables (m, inner) and (m, 0)
    agree.  The scaling test of morphism_check is not run: once the first
    two checks pass, it holds exactly when the psi test does.  The two
    differ only where q has a 1 at a cell (s, t) with s and t outside m and
    st in m, which makes st factorable and fails n1_of_quotient, or with s
    in m and st outside m, which makes s a non-annihilator and fails
    ideal_members_trivial_in_quotient.  An ideal where all five pass
    yields the shared _IDEAL_PASSED.  Any other ideal, and
    every ideal when trivial is not the set the context keeps (the one the
    from-scratch checks read), gets what check_identity and morphism_check
    give.
    """
    g = ctx.group
    full = (1 << g.order) - 1
    f = ctx.cocycle.packed
    kept_trivial = ctx._annihilators is not None and trivial is ctx._annihilators[0]
    t_mask = _mask_of(trivial) if kept_trivial else 0

    def n1_union(base, sub, i):
        return n1_set(sub) == base | i.members

    def members_trivial(sub, i):
        return i.members <= classify_annihilators(sub)[0]

    def replaceable(shared, i):
        inner = ideal_closure(ctx, shared & i.members)
        return check_identity("trivial_annih_replace", ctx, first=i, second=inner)

    def passes(m, sub):
        if (sub.cocycle.packed == f) != (not m & ~t_mask):
            return False
        keep = full & ~m
        for s, (f_s, q_s) in enumerate(zip(ctx._masks, sub._masks)):
            if (q_s ^ f_s) & g.left_preimage(s, keep):
                return False
        inner = _closure_mask(ctx, t_mask & m)
        return (
            not inner & ~m and not inner & ~t_mask
            and _chain_table(ctx, (m, inner)) == _chain_table(ctx, (m, 0))
        )

    for ideal in ideals:
        sub = _outcome(lambda: AlgebraContext(cocycle_mod_ideal(ctx, ideal)))
        if not isinstance(sub, ForgeError):
            quotients[ideal.mask] = sub.cocycle.packed
        n1_ok = _outcome(n1_union, base_n1, sub, ideal)
        members_ok = _outcome(members_trivial, sub, ideal)
        decided = kept_trivial and n1_ok is True and members_ok is True
        if decided and _outcome(passes, ideal.mask, sub) is True:
            yield _IDEAL_CHECKS, ideal, _IDEAL_PASSED
            continue
        yield _IDEAL_CHECKS, ideal, (
            n1_ok, members_ok, _outcome(check_identity, "fI_eq_f", ctx, ideal=ideal),
            _outcome(lambda: morphism_check(ctx, ideal).ok), _outcome(replaceable, trivial, ideal),
        )


def _pair_verdicts(
    ctx: AlgebraContext, ideals: Sequence[MonomialIdeal], quotients: Dict[int, int]
) -> Iterator[tuple]:
    """Yield (kinds, pair, outcomes) for each pair of ideals, in the order of
    ``combinations``: sum_product and intersection_vee, and cap_zero when the
    two meet in zero.  quotients maps an ideal's mask to its packed quotient
    table, and lacks the ideals whose quotient raised.

    The sum u comes from ``ideal_lattice_op`` and must be the union of the
    masks; the intersection x, the mask AND, must be an enumerated ideal.
    The pair tables (u, a), (u, b), (u, u) and (u, x) are read by their own
    keys through ``_chain_table``.  sum_product passes when t(u,a) & t(u,b)
    is t(u,u), intersection_vee when t(u,a) | t(u,b) is t(u,x), and cap_zero
    when f is the join of the two quotients, decided on those quotients.
    A pair where all pass yields its kinds' shared all-pass tuple; any other
    pair gets what check_identity gives for the first two, and cap_zero's
    own verdict, or check_identity's when a quotient is missing.
    """
    n = ctx.group.order
    f = ctx.cocycle.packed
    masks = {ideal.mask for ideal in ideals}
    for pair in combinations(ideals, 2):
        a, b = pair
        x = a.mask & b.mask
        kinds = _PAIR_KINDS[not x]
        outer = _outcome(ideal_lattice_op, "sum", a, b)
        if x:
            cap = None
        elif a.mask in quotients and b.mask in quotients:
            cap = _tables_check("cap_zero", n, f, quotients[a.mask] | quotients[b.mask])
        else:
            cap = _outcome(check_identity, "cap_zero", ctx, ideals=[a, b])
        passed = False
        if not isinstance(outer, ForgeError) and outer.mask == a.mask | b.mask and x in masks:
            u = outer.mask
            try:
                ta = _chain_table(ctx, (u, a.mask))
                tb = _chain_table(ctx, (u, b.mask))
                passed = (
                    ta & tb == _chain_table(ctx, (u, u))
                    and ta | tb == _chain_table(ctx, (u, x))
                )
            except ForgeError:
                pass
        if passed and (x or cap is _PASSED["cap_zero"]):
            yield kinds, pair, _PAIR_PASSED[kinds]
            continue
        outcomes = [
            outer if isinstance(outer, ForgeError)
            else _outcome(check_identity, name, ctx, outer=outer, inner=[a, b])
            for name in _PAIR_CHECKS[:2]
        ]
        if not x:
            outcomes.append(cap)
        yield kinds, pair, outcomes


def _context_subjects(ctx: AlgebraContext, ideals: Sequence[MonomialIdeal]) -> Iterator[tuple]:
    """Yield (kinds, subject, outcomes) for each ideal, each pair of ideals
    and the context itself (subject None), in the sweep's order; the ideals
    come from _ideal_verdicts and the pairs from _pair_verdicts, given the
    packed quotient tables of the ideal pass.  The context's N_1,
    annihilator classes and Waterhouse table, each ideal's quotient context
    and each pair's sum are computed once and passed through _outcome, so a
    raise fails each check that reads the input."""
    trivial = _outcome(lambda: classify_annihilators(ctx)[0])
    base_n1 = _outcome(n1_set, ctx)
    f0 = _outcome(_waterhouse_of, ctx)
    quotients: Dict[int, int] = {}
    yield from _ideal_verdicts(ctx, ideals, trivial, base_n1, quotients)
    yield from _pair_verdicts(ctx, ideals, quotients)

    def principal_routes():
        gens = all_generators(ctx)
        for s in ctx.gstar:
            principal_via_generators(ctx, s, gens)
        return True

    def bstar_parts():
        decompose_by_bstar(ctx)
        return True

    def class_parts(_f0):  # runs when f is not its Waterhouse table f0
        outcome = decompose_by_classes(ctx)
        if isinstance(outcome, DecompositionReport):
            return outcome.recombines and all(p.strict for p in outcome.parts)
        return True

    outcomes = [_outcome(principal_routes), _outcome(bstar_parts)]
    if isinstance(f0, ForgeError) or ctx.cocycle.packed != f0.packed:
        outcomes.append(_outcome(class_parts, f0))
    yield _CONTEXT_CHECKS[: len(outcomes)], None, outcomes


def _tally(stream, rows, counts, failures, passed: int = 0) -> None:
    """Count each check of the stream of (kinds, subject, outcomes) by kind
    into counts, and append to failures a PropertyFailure on the cocycle
    with these rows for each check that failed, its detail _label(subject) +
    _failure_suffix(outcome).  Outcomes that are a kernel's shared all-pass
    tuple (_CHAIN_PASSED, _IDEAL_PASSED, or _PAIR_PASSED of their kinds)
    count each of their kinds once and are read no further.  The chains that
    passed, the given passed plus the chain kernel's, which come first, are
    summed and spread over CHAIN_CHECKS at the end, so the chain kinds keep
    their place after the context's."""
    for kinds, subject, outcomes in stream:
        if outcomes is _CHAIN_PASSED:
            passed += 1
            continue
        for kind in kinds:
            counts[kind] = counts.get(kind, 0) + 1
        if outcomes is _IDEAL_PASSED or outcomes is _PAIR_PASSED.get(kinds):
            continue
        for kind, outcome in zip(kinds, outcomes):
            suffix = _failure_suffix(outcome)
            if suffix is not None:
                failures.append(PropertyFailure(
                    check=kind, group_order=len(rows), cocycle_rows=rows,
                    detail=_label(subject) + suffix,
                ))
    if passed:
        for kind in CHAIN_CHECKS:
            counts[kind] = counts.get(kind, 0) + passed


def _run_suite_checks(ctx: AlgebraContext, max_chains: int) -> CocycleCheckResult:
    """The property sweep of one context: _tally over the subjects of
    _context_subjects, after the chains.  The chains are first counted by
    _chain_pass_count, and when every one passes, _tally is given that
    count.  Otherwise it reads each chain key with its verdicts, split from
    _chain_verdicts by tee with no Python frame per chain, so chain failures,
    their order and their text come from the exact walk alone.  Each chain
    checked runs one leq_f; a path count gives the total when the walk hit
    the cap."""
    ideals = enumerate_ideals(ctx)
    passed = _chain_pass_count(ctx, ideals, max_chains)
    stream = _context_subjects(ctx, ideals)
    if passed is None:
        walk, shadow = tee(_chain_verdicts(ctx, ideals, max_chains))
        chains = zip(repeat(CHAIN_CHECKS), map(itemgetter(0), walk), map(itemgetter(1), shadow))
        stream, passed = chain(chains, stream), 0
    counts: Dict[str, int] = {}
    failures: List[PropertyFailure] = []
    _tally(stream, ctx.cocycle.rows(), counts, failures, passed)
    listed = counts.get(CHAIN_CHECKS[0], 0)
    chains_total = _chain_count(ideals) if listed == max_chains else listed
    return CocycleCheckResult(
        counts=counts, failures=tuple(failures),
        chains_truncated=chains_total > max_chains, chains_total=chains_total,
    )


def check_cocycle_properties(cocycle: Cocycle, max_chains: int = 10_000) -> CocycleCheckResult:
    """Run the full identity sweep against one cocycle.

    Raising checks are reported as failures rather than propagated, so a
    fabricated (mutated) table lands in the failure list with the first
    broken invariant named; a check that reads a shared input that raised
    (N_1, the annihilator classes, the Waterhouse table, a quotient, a
    pair's sum) reports that error.  At
    most max_chains chains are checked, and chains_truncated says whether
    more exist; chains_total counts them all.
    """
    if max_chains < 1:
        raise ValidationError("census limits must be positive")
    try:
        ctx = AlgebraContext(cocycle)
    except ValidationError:
        # the all-ones cocycle: the algebra has no radical, nothing to check
        return CocycleCheckResult(counts={}, failures=())
    return _run_suite_checks(ctx, max_chains)


@dataclass(frozen=True)
class CensusReport:
    """What property_suite checked.  capped_cocycles counts the cocycles whose
    chains the chain cap cut off; truncated is set when that count is nonzero
    or the enumeration stopped at max_candidates.  chains_total counts the
    swept cocycles' chains, checked or not."""

    group_order: int
    cocycle_count: int
    skipped_simple: int
    capped_cocycles: int
    chains_total: int
    truncated: bool
    counts: Dict[str, int]
    failures: Tuple[PropertyFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def property_suite(
    cfg: CensusConfig, lift_samples: int = 3, seed: int = 0
) -> CensusReport:
    """Sweep every census cocycle, plus sampled subadditive-map lifts.

    Deterministic for a fixed seed: the lift checks draw random maps from a
    seeded generator, everything else is exhaustive.  Each lift r is one
    subject of _tally, with a lift_sandwich check per chain (at most 64).
    """
    stream = enumerate_cocycles(cfg)
    counts: Dict[str, int] = {}
    failures: List[PropertyFailure] = []
    skipped = capped = chains_total = 0
    for c in stream.cocycles:
        if inertial_group(c).members == tuple(range(cfg.group.order)):
            skipped += 1
            continue
        result = check_cocycle_properties(c, cfg.max_chains_per_cocycle)
        capped += result.chains_truncated
        chains_total += result.chains_total
        for k, v in result.counts.items():
            counts[k] = counts.get(k, 0) + v
        failures.extend(result.failures)

    def lift_sandwich(r, c):  # chain_lift checks (f_r)_c <= f_lift <= f_r
        chain_lift(r, c)
        return padded_lift(r, c).certified

    rng = random.Random(seed)
    for _ in range(lift_samples):
        r = random_semilinear(cfg.group, rng)
        fr = cocycle_from_r(r)
        if inertial_group(fr).members == tuple(range(cfg.group.order)):
            continue
        ctx = AlgebraContext(fr)
        chains, _ = descending_multichains(
            enumerate_ideals(ctx), cap=min(64, cfg.max_chains_per_cocycle)
        )
        outcomes = [_outcome(lift_sandwich, r, c) for c in chains]
        _tally([(("lift_sandwich",) * len(outcomes), r, outcomes)], fr.rows(), counts, failures)

    return CensusReport(
        group_order=cfg.group.order,
        cocycle_count=len(stream.cocycles),
        skipped_simple=skipped,
        capped_cocycles=capped,
        chains_total=chains_total,
        truncated=stream.truncated or capped > 0,
        counts=counts,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class MutationOutcome:
    detected: bool
    stage: Optional[str]  # "validation" or "properties"
    where: Optional[tuple]
    detail: str


def mutation_report(cocycle: Cocycle, s: int, t: int) -> MutationOutcome:
    """Flip one entry of a valid table and report what catches it."""
    n = cocycle.group.order
    if not (0 <= s < n and 0 <= t < n):
        raise ValidationError(f"cell ({s}, {t}) out of range for order {n}")
    masks = list(cocycle.masks)
    masks[s] ^= 1 << t
    flipped = BinaryTable(group=cocycle.group, masks=tuple(masks))
    outcome = validate_cocycle(flipped)
    if isinstance(outcome, CocycleViolation):
        return MutationOutcome(
            detected=True,
            stage="validation",
            where=outcome.where,
            detail=f"{outcome.kind}: {outcome.detail}",
        )
    fabricated = Cocycle(group=cocycle.group, masks=flipped.masks)
    result = check_cocycle_properties(fabricated)
    if result.failures:
        first = result.failures[0]
        return MutationOutcome(
            detected=True,
            stage="properties",
            where=(s, t),
            detail=f"{first.check}: {first.detail}",
        )
    return MutationOutcome(
        detected=False, stage=None, where=(s, t), detail="mutation went unnoticed"
    )


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

    One AlgebraContext serves every invariant: the all-ones cocycle is the
    one whose context has no G*, and the largest radical power is read off
    the N_k layers, one layer per nonzero power.
    """
    try:
        ctx = AlgebraContext(c)
    except ValidationError:
        # the all-ones cocycle: the algebra is simple
        inertial, layers, classes = tuple(range(c.group.order)), [], []
    else:
        inertial = ctx.inertial.members
        layers = nk_partition(ctx)
        trivial, nontrivial = classify_annihilators(ctx)
        classes = _classes_of(ctx, trivial | nontrivial)
    return CensusRecord(
        order=c.group.order,
        bits="".join(c.rows()),
        inertial=inertial,
        max_power=len(layers),
        nk_sizes=tuple(len(l) for l in layers),
        annihilator_classes=len(classes),
    )


def census_records(stream: CensusStream) -> List[CensusRecord]:
    """Fingerprint every cocycle of a census for the text output, one
    ``_census_record`` each; the ``census`` command calls that per cocycle
    and writes each line as it is made."""
    return [_census_record(c) for c in stream.cocycles]
