"""The property sweep: every identity of the package checked on each
cocycle of a census, the ground truth.

Each context runs the chain kernel (a state-merged walk that counts the
chains when all pass), the ideal and pair kernels, and the context-wide
checks; a kernel falls back to the from-scratch check_identity and
morphism_check wherever its fast test does not pass, and a refused chain
walk sends each chain, up to the chain cap, to check_identity.  The sweep
is also the negative control: a fabricated table with one flipped entry
must fail either validation or at least one check here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .algebra import (
    AlgebraContext,
    MonomialIdeal,
    _closure_mask,
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
    _PASSED,
    _chain_table,
    _tables_check,
    check_identity,
    cocycle_mod_ideal,
    decompose_by_bstar,
    decompose_by_classes,
    morphism_check,
)
from .errors import ForgeError, ValidationError
from .generators import all_generators, n1_set, principal_via_generators
from .semilinear import SemilinearMap, chain_lift, cocycle_from_r, padded_lift, random_semilinear

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
    """None when a check passed, else how its failure detail ends.

    result is what the check returned (a bool or a verdict with ``ok``) or
    the ForgeError it raised.
    """
    if isinstance(result, ForgeError):
        return f" raised: {result}"
    if isinstance(result, bool):
        return None if result else ""
    return None if result.ok else f" {result.counterexample}"


def _chain_pass_count(ctx: AlgebraContext, ideals: Sequence[MonomialIdeal]) -> Optional[int]:
    """How many chains ``census._chain_keys(ideals)`` lists with no cap, when
    every one passes the three chain checks; None otherwise.

    The walk goes down ``census._below`` level by level, to the same depth,
    and merges the chains of a level whose state is equal, counting the
    chains of each state.  The state is (index of the last ideal, OR of the
    layer cells, join, whether some link is unsqueezed), and it fixes the
    three verdicts of each of its chains and of all their descendants: the
    chain table is W | f & cells, leq_f asks that it lie inside f,
    chain_break compares it with the join, and waterhouse_iff compares it
    with W given the flag.  So each state's table is built once, by
    ``_chain_table`` from the state's first key and its cells, and the pass
    condition is evaluated once per state.  States never merge across
    lengths, and the join stays in the state, so a wrong pair table still
    fails chain_break.  Each link I_i >= I_j is read once: its inner mask,
    the ``Group.cells`` of its layer, its pair table through
    ``_chain_table`` and whether I_i^2, read once per ideal, leaves I_j.
    The walk gives None as soon as a state misses or an input raised (a pair
    table, a square, W or a state's own table); the sweep then decides each
    chain through check_identity.
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


def _tally(stream, rows, counts, failures) -> None:
    """Count each check of the stream of (kinds, subject, outcomes) by kind
    into counts, and append to failures a PropertyFailure on the cocycle
    with these rows for each check that failed, its detail _label(subject) +
    _failure_suffix(outcome).  Outcomes that are a kernel's shared all-pass
    tuple (_IDEAL_PASSED, or _PAIR_PASSED of their kinds) count each of
    their kinds once and are read no further."""
    for kinds, subject, outcomes in stream:
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


def _run_suite_checks(ctx: AlgebraContext, max_chains: int) -> CocycleCheckResult:
    """The property sweep of one context: _tally over the subjects of
    _context_subjects.  The chains are first counted by _chain_pass_count;
    when every one passes, that count is spread over CHAIN_CHECKS after the
    context's kinds.  Otherwise each of the first max_chains chains of
    ``descending_multichains`` is decided by check_identity, one subject
    per chain before the context's, and a path count gives the total."""
    ideals = enumerate_ideals(ctx)
    passed = _chain_pass_count(ctx, ideals)
    stream = _context_subjects(ctx, ideals)
    chains_total, truncated = passed, False
    if passed is None:
        chains, truncated = descending_multichains(ideals, cap=max_chains)
        decided = (
            (CHAIN_CHECKS, c.masks,
             [_outcome(check_identity, name, ctx, chain=c) for name in CHAIN_CHECKS])
            for c in chains
        )
        stream, passed, chains_total = chain(decided, stream), 0, _chain_count(ideals)
    counts: Dict[str, int] = {}
    failures: List[PropertyFailure] = []
    _tally(stream, ctx.cocycle.rows(), counts, failures)
    if passed:
        for kind in CHAIN_CHECKS:
            counts[kind] = counts.get(kind, 0) + passed
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
