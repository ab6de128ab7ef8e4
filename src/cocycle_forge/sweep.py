"""The property sweep: every identity of the package checked on each
cocycle of a census, the ground truth.

Three kernels, the chain walk, the ideal kernel and the pair kernel, each
decide all their subjects of a context at once or refuse the context.  A
refused context sends each of that kernel's subjects to the from-scratch
checks (check_identity, morphism_check and the quotient context's own
N_1 and annihilator classes), and only they report failures.  The sweep
is also the negative control: a fabricated table with one flipped entry
must fail either validation or at least one check here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .algebra import (
    AlgebraContext,
    MonomialIdeal,
    _annihilator_classes,
    _closure_mask,
    _CocycleMasks,
    _layer_masks,
    _mask_of,
    _members_of,
    _waterhouse_of,
    classify_annihilators,
    ideal_closure,
    ideal_lattice_op,
)
from .census import (
    _MAX_CHAIN_LEN,
    CensusConfig,
    _below,
    _chain_count,
    descending_multichains,
    enumerate_cocycles,
    enumerate_ideals,
)
from .cocycles import (
    BinaryTable,
    Cocycle,
    CocycleViolation,
    inertial_group,
    validate_cocycle,
)
from .decomposition import (
    CHAIN_CHECKS,
    DecompositionReport,
    _chain_table,
    check_identity,
    cocycle_mod_ideal,
    decompose_by_bstar,
    decompose_by_classes,
    morphism_check,
)
from .errors import ForgeError, ValidationError
from .generators import all_generators, n1_set, principal_via_generators
from .semilinear import SemilinearMap, chain_lift, padded_lift, random_semilinear

__all__ = [
    "PropertyFailure",
    "CocycleCheckResult",
    "check_cocycle_properties",
    "CensusReport",
    "property_suite",
    "MutationOutcome",
    "mutation_report",
]


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
    chains_truncated: bool = False  # the cap left chains of a refused walk unchecked
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
    """None when a check passed, else how its failure detail ends; result
    is a bool, a verdict with ``ok``, or the ForgeError the check raised."""
    if isinstance(result, ForgeError):
        return f" raised: {result}"
    if isinstance(result, bool):
        return None if result else ""
    return None if result.ok else f" {result.counterexample}"


def _chain_pass_count(ctx: AlgebraContext, ideals: Sequence[MonomialIdeal]) -> Optional[int]:
    """How many chains ``census._chain_keys(ideals)`` lists with no cap, when
    every one passes the three chain checks; None as soon as a state misses
    or an input raised (a pair table, a square, W or a state's own table).

    The walk goes down ``census._below`` level by level, to the same depth,
    merging the chains of a level whose state is equal: (index of the last
    ideal, OR of the layer cells, join, whether some link is unsqueezed).
    The state fixes the verdicts of its chains and their descendants: the
    chain table W | f & cells must lie inside f (leq_f), equal the join
    (chain_break) and equal W exactly when no link is unsqueezed
    (waterhouse_iff).  So each state's table is built once, by
    ``_chain_table`` from its first key and its cells.  Each link is read
    once: its layer's ``Group.cells``, its pair table and its square.
    """
    f = ctx.cocycle.packed
    try:
        f0 = _waterhouse_of(ctx).packed
        links = []  # per outer ideal: (index, mask, layer cells, pair table, unsqueezed) per inner
        for big, below in zip(ideals, _below(ideals)):
            square = ideal_lattice_op("product", big, big).mask
            row = []
            for j in below:
                inner = ideals[j].mask
                row.append((j, inner, ctx.group.cells(big.mask & ~inner),
                            _chain_table(ctx, (big.mask, inner)), square & ~inner != 0))
            links.append(row)
        # state (index of the last ideal, layer cells, join, unsqueezed) ->
        # [its chains, its first key]; a lone ideal is no chain yet
        level = {(i, 0, 0, False): [1, (ideal.mask,)] for i, ideal in enumerate(ideals)}
        total = 0
        for _ in range(1, _MAX_CHAIN_LEN):
            nxt: Dict[tuple, list] = {}
            for (i, above, parent_join, unsqueezed), (count, parent) in level.items():
                for j, inner, layer, pair, extra in links[i]:
                    state = (j, above | layer, parent_join | pair, unsqueezed or extra)
                    merged = nxt.get(state)
                    if merged is None:
                        nxt[state] = [count, parent + (inner,)]
                    else:
                        merged[0] += count
            for (_, cells, join, unsqueezed), (count, key) in nxt.items():
                total += count
                direct = _chain_table(ctx, key, cells)
                if direct & ~f or direct != join or (direct == f0) == unsqueezed:
                    return None
            level = nxt
    except ForgeError:
        return None
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


def _ideals_pass(
    ctx: AlgebraContext, ideals: Sequence[MonomialIdeal], trivial, base_n1,
    quotients: Dict[int, int],
) -> bool:
    """Whether every ideal passes its five checks; False as soon as one
    misses or an input raised.  Each packed quotient goes into quotients by
    mask as it is built.  trivial and base_n1 are the context's trivial
    annihilators and N_1, or the errors they raised; only the trivial set
    the context keeps, the one the from-scratch checks read, is decided on.

    With m the ideal's mask, q the quotient and T the trivial mask, the
    first two checks read a ``_CocycleMasks`` view of q, as masks, and build
    no quotient context: N_1 from ``_layer_masks`` (both N_1 routes and the
    cover of G* checked) must be base N_1 | m, and m must lie in the
    annihilators of ``_annihilator_classes`` (double cosets checked) that
    are in that N_1.  fI_eq_f needs q == f exactly when m & ~T is 0,
    morphism the psi test of morphism_check (q and f agree at each (s, t)
    with st outside m), and trivial_annih_replace the closure of T & m
    inside m and T with equal pair tables (m, closure) and (m, 0).  Once
    the first two checks pass, the scaling test of morphism_check holds
    exactly when the psi test does: where they differ, n1_of_quotient or
    ideal_members_trivial_in_quotient fails.
    """
    kept = ctx._annihilators
    if kept is None or trivial is not kept[0] or isinstance(base_n1, ForgeError):
        return False
    g = ctx.group
    full = (1 << g.order) - 1
    f = ctx.cocycle.packed
    t_mask = _mask_of(trivial)
    n1_mask = _mask_of(base_n1)
    try:
        for ideal in ideals:
            m = ideal.mask
            quotient = cocycle_mod_ideal(ctx, ideal)
            quotients[m] = q = quotient.packed
            view = _CocycleMasks(quotient, q)
            n1 = _layer_masks(view)[0]
            if (
                n1 != n1_mask | m
                or m & ~(_annihilator_classes(view)[0] & n1)
                or (q == f) != (not m & ~t_mask)
            ):
                return False
            keep = full & ~m
            for s, (f_s, q_s) in enumerate(zip(ctx._masks, quotient.masks)):
                if (q_s ^ f_s) & g.left_preimage(s, keep):
                    return False
            inner = _closure_mask(ctx, t_mask & m)
            if inner & ~(m & t_mask) or _chain_table(ctx, (m, inner)) != _chain_table(ctx, (m, 0)):
                return False
    except ForgeError:
        return False
    return True


def _pairs_pass(
    ctx: AlgebraContext, ideals: Sequence[MonomialIdeal], quotients: Dict[int, int]
) -> Optional[int]:
    """How many pairs of ideals meet in zero, when every pair passes its
    checks; None as soon as one misses or an input raised.  quotients holds
    the packed quotients the ideal kernel handed over, by mask; a disjoint
    pair with a quotient missing is a miss.

    The sum u from ``ideal_lattice_op`` must be the union of the masks, and
    the intersection x, the mask AND, an enumerated ideal.  With t the pair
    tables of ``_chain_table``, sum_product needs t(u,a) & t(u,b) == t(u,u),
    intersection_vee t(u,a) | t(u,b) == t(u,x), and cap_zero, when x is 0,
    f to be the join of the two quotients.
    """
    f = ctx.cocycle.packed
    masks = {ideal.mask for ideal in ideals}
    disjoint = 0
    try:
        for a, b in combinations(ideals, 2):
            u, x = ideal_lattice_op("sum", a, b).mask, a.mask & b.mask
            if u != a.mask | b.mask or x not in masks:
                return None
            ta, tb = _chain_table(ctx, (u, a.mask)), _chain_table(ctx, (u, b.mask))
            if ta & tb != _chain_table(ctx, (u, u)) or ta | tb != _chain_table(ctx, (u, x)):
                return None
            if not x:
                if not (a.mask in quotients and b.mask in quotients
                        and quotients[a.mask] | quotients[b.mask] == f):
                    return None
                disjoint += 1
    except ForgeError:
        return None
    return disjoint


def _ideal_subjects(
    ctx: AlgebraContext, ideals: Sequence[MonomialIdeal], trivial, base_n1
) -> Iterator[tuple]:
    """Yield (_IDEAL_CHECKS, ideal, outcomes) for each ideal, from scratch:
    the quotient context's N_1 and annihilator classes, check_identity,
    morphism_check and the closure of the ideal's trivial members."""

    def n1_union(base, sub, i):
        return n1_set(sub) == base | i.members

    def members_trivial(sub, i):
        return i.members <= classify_annihilators(sub)[0]

    def replaceable(shared, i):
        inner = ideal_closure(ctx, shared & i.members)
        return check_identity("trivial_annih_replace", ctx, first=i, second=inner)

    for ideal in ideals:
        sub = _outcome(lambda: AlgebraContext(cocycle_mod_ideal(ctx, ideal)))
        yield _IDEAL_CHECKS, ideal, (
            _outcome(n1_union, base_n1, sub, ideal), _outcome(members_trivial, sub, ideal),
            _outcome(check_identity, "fI_eq_f", ctx, ideal=ideal),
            _outcome(lambda: morphism_check(ctx, ideal).ok), _outcome(replaceable, trivial, ideal),
        )


def _pair_subjects(ctx: AlgebraContext, ideals: Sequence[MonomialIdeal]) -> Iterator[tuple]:
    """Yield (kinds, pair, outcomes) for each pair of ideals, in the order of
    ``combinations``, from check_identity: sum_product and intersection_vee
    over the pair's sum, and cap_zero when the two meet in zero."""

    def over_sum(outer, name, a, b):
        return check_identity(name, ctx, outer=outer, inner=[a, b])

    for a, b in combinations(ideals, 2):
        outer = _outcome(ideal_lattice_op, "sum", a, b)
        outcomes = [_outcome(over_sum, outer, name, a, b) for name in _PAIR_CHECKS[:2]]
        if not a.mask & b.mask:
            outcomes.append(_outcome(check_identity, "cap_zero", ctx, ideals=[a, b]))
        yield _PAIR_CHECKS[: len(outcomes)], (a, b), outcomes


def _context_subject(ctx: AlgebraContext) -> tuple:
    """(kinds, None, outcomes) for the context-wide checks."""

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

    f0 = _outcome(_waterhouse_of, ctx)
    outcomes = [_outcome(principal_routes), _outcome(bstar_parts)]
    if isinstance(f0, ForgeError) or ctx.cocycle.packed != f0.packed:
        outcomes.append(_outcome(class_parts, f0))
    return _CONTEXT_CHECKS[: len(outcomes)], None, outcomes


def _add(counts: Dict[str, int], kinds: Sequence[str], count: int) -> None:
    """Count each of kinds count more times; a zero count adds no key."""
    if count:
        for kind in kinds:
            counts[kind] = counts.get(kind, 0) + count


def _tally(stream, rows, counts, failures) -> None:
    """Count each check of the stream of (kinds, subject, outcomes) by kind
    into counts, and append to failures a PropertyFailure on the cocycle
    with these rows for each check that failed, its detail _label(subject) +
    _failure_suffix(outcome)."""
    for kinds, subject, outcomes in stream:
        _add(counts, kinds, 1)
        for kind, outcome in zip(kinds, outcomes):
            suffix = _failure_suffix(outcome)
            if suffix is not None:
                failures.append(PropertyFailure(
                    check=kind, group_order=len(rows), cocycle_rows=rows,
                    detail=_label(subject) + suffix,
                ))


def _run_suite_checks(ctx: AlgebraContext, max_chains: int) -> CocycleCheckResult:
    """The property sweep of one context.  A kernel that passes (the chain
    walk, _ideals_pass, _pairs_pass) adds its number of subjects to each of
    its kinds.  A kernel that refuses sends each of its subjects through
    _tally from scratch: the first max_chains chains of
    ``descending_multichains`` to check_identity (a path count gives the
    total), the ideals through _ideal_subjects and the pairs through
    _pair_subjects.  The context-wide checks come last."""
    ideals = enumerate_ideals(ctx)
    rows = ctx.cocycle.rows()
    counts: Dict[str, int] = {}
    failures: List[PropertyFailure] = []
    chains_total, truncated = _chain_pass_count(ctx, ideals), False
    if chains_total is None:
        chains, truncated = descending_multichains(ideals, cap=max_chains)
        chains_total = _chain_count(ideals)
        _tally((
            (CHAIN_CHECKS, c.masks,
             [_outcome(check_identity, name, ctx, chain=c) for name in CHAIN_CHECKS])
            for c in chains
        ), rows, counts, failures)
    else:
        _add(counts, CHAIN_CHECKS, chains_total)
    trivial = _outcome(lambda: classify_annihilators(ctx)[0])
    base_n1 = _outcome(n1_set, ctx)
    quotients: Dict[int, int] = {}
    if _ideals_pass(ctx, ideals, trivial, base_n1, quotients):
        _add(counts, _IDEAL_CHECKS, len(ideals))
    else:
        _tally(_ideal_subjects(ctx, ideals, trivial, base_n1), rows, counts, failures)
    disjoint = _pairs_pass(ctx, ideals, quotients)
    if disjoint is None:
        _tally(_pair_subjects(ctx, ideals), rows, counts, failures)
    else:
        _add(counts, _PAIR_CHECKS[:2], len(ideals) * (len(ideals) - 1) // 2)
        _add(counts, _PAIR_CHECKS[2:], disjoint)
    _tally([_context_subject(ctx)], rows, counts, failures)
    return CocycleCheckResult(
        counts=counts, failures=tuple(failures),
        chains_truncated=truncated, chains_total=chains_total,
    )


def check_cocycle_properties(cocycle: Cocycle, max_chains: int = 10_000) -> CocycleCheckResult:
    """Run the full identity sweep against one cocycle.

    Raising checks are reported as failures rather than propagated, so a
    fabricated (mutated) table lands in the failure list with the first
    broken invariant named; a check that reads a shared input that raised
    (N_1, the annihilator classes, the Waterhouse table, a quotient, a
    pair's sum) reports that error.  Every chain is checked when the chain
    walk passes them all; when it refuses the cocycle, at most max_chains
    chains are checked one by one, and chains_truncated says whether more
    exist.  chains_total counts them all.
    """
    if max_chains < 1:
        raise ValidationError("census limits must be positive")
    try:
        ctx = AlgebraContext(cocycle)
    except ValidationError:
        # the all-ones cocycle: the algebra has no radical, nothing to check
        return CocycleCheckResult(counts={}, failures=())
    return _run_suite_checks(ctx, max_chains)


# the chains each sampled lift of property_suite is checked on
_LIFT_CHAINS = 64


@dataclass(frozen=True)
class CensusReport:
    """What property_suite checked.  capped_cocycles counts the cocycles whose
    chains the chain cap cut off, which can happen only to a cocycle that the
    chain walk refused; truncated is set when that count is nonzero or the
    enumeration stopped at max_candidates.  chains_total counts the swept
    cocycles' chains, checked or not."""

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
    subject of _tally, with a lift_sandwich check per chain, on the first
    _LIFT_CHAINS chains whatever the chain cap.
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
        fr = r.induced
        if inertial_group(fr).members == tuple(range(cfg.group.order)):
            continue
        ctx = AlgebraContext(fr)
        chains, _ = descending_multichains(enumerate_ideals(ctx), cap=_LIFT_CHAINS)
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
