"""Exhaustive enumeration of idempotent cocycles and ideals on small groups,
and the property sweep that grinds every identity of the package against
that ground truth.

The enumeration runs the depth-first core shared with the realization
search (``cocycles._depth_first``).  It fills the table over non-identity
pairs cell by cell, checking each cocycle triple the moment its last cell
is assigned, which prunes the raw 2^((n-1)^2) space to the tiny set of
valid tables.  Each step makes one call of ``_products_agree``, which
checks every triple that step closes in one loop.  Position 0 of the
search is a constant 1 that stands for every cell normalization pins, so
each check reads the cell values directly.  Every enumerated table is
still validated before it is returned.

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
from itertools import combinations, islice, product
from operator import or_
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .algebra import (
    AlgebraContext,
    DescendingChain,
    MonomialIdeal,
    _ideal_from_mask,
    _principal_ideals,
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
    _classes_of,
    _leq_f_verdict,
    _link_witness,
    _pair_chain,
    _tables_check,
    _waterhouse_iff_verdict,
    check_identity,
    cocycle_from_chain,
    cocycle_mod_ideal,
    decompose_by_bstar,
    decompose_by_classes,
    morphism_check,
)
from .errors import ForgeError, ValidationError
from .generators import all_generators, n1_set, principal_via_generators
from .groups import Group, Subgroup
from .semilinear import chain_lift, cocycle_from_r, padded_lift, random_semilinear

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


def _products_agree(cs: Sequence[Tuple[int, int, int, int]], vals: List[int]) -> bool:
    """Whether vals[c1] vals[c2] = vals[c3] vals[c4] for every (c1, c2, c3, c4)
    in cs: one search step's constraints, checked in one loop."""
    for c1, c2, c3, c4 in cs:
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


def enumerate_cocycles(cfg: CensusConfig) -> CensusStream:
    """Every idempotent cocycle of the group, in flattened-bits order.

    The optional inertial filter keeps only the tables with that exact
    inertial subgroup.  The search stops at the first table past
    max_candidates and sets the truncation flag.
    """
    group = cfg.group
    size = (group.order - 1) ** 2 + 1
    domains = [(1,)] + [(0, 1)] * (size - 1)
    schedule = _closing_schedule(size, _triple_constraints(group))
    tables = list(
        islice(_depth_first(domains, schedule, _products_agree), cfg.max_candidates + 1)
    )
    truncated = len(tables) > cfg.max_candidates
    cocycles = []
    for cells in tables[: cfg.max_candidates]:
        result = validate_cocycle(_table_from_cells(group, cells))
        if isinstance(result, CocycleViolation):
            raise ValidationError(f"enumerated table failed validation: {result}")
        if cfg.inertial is not None and inertial_group(result).members != cfg.inertial.members:
            continue
        cocycles.append(result)
    return CensusStream(cocycles=tuple(cocycles), truncated=truncated)


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
    for principal in _principal_ideals(ctx).values():
        masks |= {mask | principal.mask for mask in masks}
    ideals = [_ideal_from_mask(ctx, mask) for mask in masks]
    ideals.sort(key=lambda i: (len(i), i.sorted_members))
    return ideals


def descending_multichains(
    ideals: Sequence[MonomialIdeal], max_len: int = 4, cap: int = 10_000
) -> Tuple[List[DescendingChain], bool]:
    """Weakly descending ideal sequences of length 2..max_len, capped.

    Shorter chains come first, each length in the lexicographic order of
    the ideal indices.  A chain of length k + 1 extends its length-k parent
    by one ideal, so only the new link is checked.  The flag is set when a
    chain past the cap exists.
    """
    order = list(ideals)
    below = [
        [j for j, small in enumerate(order) if small <= big]
        for big in order
    ]
    chains: List[DescendingChain] = []
    # (chain, index of its last ideal); a lone ideal has no chain yet
    level: List[Tuple[Optional[DescendingChain], int]]
    level = [(None, i) for i in range(len(order))]
    for _ in range(2, max_len + 1):
        nxt = []
        for parent, i in level:
            for j in below[i]:
                if len(chains) >= cap:
                    return chains, True
                if parent is None:
                    chain = DescendingChain(ideals=(order[i], order[j]))
                else:
                    chain = parent.extend(order[j])
                chains.append(chain)
                nxt.append((chain, j))
        level = nxt
    return chains, False


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


def _chain_label(chain: DescendingChain) -> str:
    return f"chain={[list(i.sorted_members) for i in chain.ideals]}"


def _ideal_label(ideal: MonomialIdeal) -> str:
    return f"ideal={list(ideal.sorted_members)}"


def _pair_label(pair: Tuple[MonomialIdeal, MonomialIdeal]) -> str:
    a, b = pair
    return f"pair=({list(a.sorted_members)}, {list(b.sorted_members)})"


def _no_label(_) -> str:
    return ""


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


def _chain_verdicts(
    ctx: AlgebraContext, chains: Sequence[DescendingChain]
) -> Iterator[Tuple[DescendingChain, tuple, tuple]]:
    """Yield (chain, verdicts, (join, witness)) for each chain, in order.

    verdicts holds, per CHAIN_CHECKS name, the IdentityCheck that
    check_identity returns or the ForgeError it raises.  Each chain must
    come after its parent ``chain.masks[:-1]``, as in descending_multichains.

    The chain cocycle is built on its own, once per chain.  The join of the
    pair tables is the parent's join OR the last pair's table, read from the
    chain cache by mask key.  The witness, the first unsqueezed link, is the
    parent's unless that is None; then the last link is tested, reading each
    ideal's square once per context.  An input that raised is carried as its
    error, without the traceback, whose frames would hold the context.
    """
    f_masks = ctx._masks
    f0 = _waterhouse_of(ctx).masks
    squares: Dict[int, int] = {}
    carried: Dict[Tuple[int, ...], tuple] = {}
    for chain in chains:
        key = chain.masks
        outer, inner = chain.ideals[-2:]
        try:
            direct = cocycle_from_chain(ctx, chain).masks
        except ForgeError as exc:
            direct = exc.with_traceback(None)
        join, witness = carried[key[:-1]] if len(key) > 2 else (None, None)
        if not isinstance(join, ForgeError):
            try:
                pair = _pair_chain(ctx, outer, inner).masks
            except ForgeError as exc:
                join = exc.with_traceback(None)
            else:
                join = pair if join is None else tuple(map(or_, join, pair))
        if witness is None:
            square = squares.get(outer.mask)
            try:
                if square is None:
                    square = ideal_lattice_op("product", outer, outer).mask
                    squares[outer.mask] = square
            except ForgeError as exc:
                witness = exc.with_traceback(None)
            else:
                witness = _link_witness(len(key) - 1, square, inner.mask)
        state = carried[key] = (join, witness)
        if isinstance(direct, ForgeError):
            yield chain, (direct, direct, direct), state
            continue
        yield chain, (
            _leq_f_verdict(_support_order(direct, f_masks)),
            join if isinstance(join, ForgeError) else _tables_check("chain_break", direct, join),
            witness
            if isinstance(witness, ForgeError)
            else _waterhouse_iff_verdict(direct, f0, witness),
        ), state


def _run_suite_checks(ctx: AlgebraContext, max_chains: int) -> CocycleCheckResult:
    """The property sweep of one context.  The chain identities run in one
    pass per chain (_chain_verdicts) and are counted in bulk; every other
    check is one guarded call.  A failure detail is formatted only then."""
    counts: Dict[str, int] = {}
    failures: List[PropertyFailure] = []
    rows = ctx.cocycle.rows()
    n = ctx.group.order

    def fail(check: str, detail: str) -> None:
        failures.append(
            PropertyFailure(check=check, group_order=n, cocycle_rows=rows, detail=detail)
        )

    def guarded(check: str, label, about, fn, *args, **kwargs) -> None:
        """Count one check of kind `check` and run fn(*args, **kwargs); on a
        failure the detail starts with label(about), formatted only then."""
        counts[check] = counts.get(check, 0) + 1
        try:
            suffix = _failure_suffix(fn(*args, **kwargs))
        except ForgeError as exc:
            suffix = _failure_suffix(exc)
        if suffix is not None:
            fail(check, label(about) + suffix)

    ideals = enumerate_ideals(ctx)
    chains, _ = descending_multichains(ideals, cap=max_chains)

    if chains:
        counts.update(dict.fromkeys(CHAIN_CHECKS, len(chains)))
    for chain, verdicts, _ in _chain_verdicts(ctx, chains):
        if verdicts == _CHAIN_PASSED:
            continue
        for name, outcome in zip(CHAIN_CHECKS, verdicts):
            suffix = _failure_suffix(outcome)
            if suffix is not None:
                fail(name, _chain_label(chain) + suffix)

    trivial, _ = classify_annihilators(ctx)
    base_n1 = n1_set(ctx)

    def n1_union(i):
        sub = AlgebraContext(cocycle_mod_ideal(ctx, i))
        return n1_set(sub) == base_n1 | i.members

    def members_trivial(i):
        sub = AlgebraContext(cocycle_mod_ideal(ctx, i))
        sub_trivial, _ = classify_annihilators(sub)
        return i.members <= sub_trivial

    def morphism_ok(i):
        return morphism_check(ctx, i).ok

    def replaceable(i):
        inner = ideal_closure(ctx, trivial & i.members)
        return check_identity("trivial_annih_replace", ctx, first=i, second=inner)

    for ideal in ideals:
        guarded("n1_of_quotient", _ideal_label, ideal, n1_union, ideal)
        guarded("ideal_members_trivial_in_quotient", _ideal_label, ideal, members_trivial, ideal)
        guarded("fI_eq_f", _ideal_label, ideal, check_identity, "fI_eq_f", ctx, ideal=ideal)
        guarded("morphism", _ideal_label, ideal, morphism_ok, ideal)
        guarded("trivial_annih_replace", _ideal_label, ideal, replaceable, ideal)

    for pair in combinations(ideals, 2):
        a, b = pair
        outer = ideal_lattice_op("sum", a, b)
        for name in ("sum_product", "intersection_vee"):
            guarded(name, _pair_label, pair, check_identity, name, ctx, outer=outer, inner=[a, b])
        if not a.mask & b.mask:
            guarded("cap_zero", _pair_label, pair, check_identity, "cap_zero", ctx, ideals=[a, b])

    def principal_routes():
        gens = all_generators(ctx)
        for s in ctx.gstar:
            principal_via_generators(ctx, s, gens)
        return True

    guarded("principal_two_routes", _no_label, None, principal_routes)

    def bstar_parts():
        decompose_by_bstar(ctx)
        return True

    guarded("bstar_recombination", _no_label, None, bstar_parts)

    if ctx.cocycle.masks != _waterhouse_of(ctx).masks:

        def class_parts():
            outcome = decompose_by_classes(ctx)
            if isinstance(outcome, DecompositionReport):
                return outcome.recombines and all(p.strict for p in outcome.parts)
            return True

        guarded("class_decomposition", _no_label, None, class_parts)

    return CocycleCheckResult(counts=counts, failures=tuple(failures))


def check_cocycle_properties(cocycle: Cocycle, max_chains: int = 10_000) -> CocycleCheckResult:
    """Run the full identity sweep against one cocycle.

    Raising checks are reported as failures rather than propagated, so a
    fabricated (mutated) table lands in the failure list with the first
    broken invariant named.
    """
    try:
        ctx = AlgebraContext(cocycle)
    except ValidationError:
        # the all-ones cocycle: the algebra has no radical, nothing to check
        return CocycleCheckResult(counts={}, failures=())
    try:
        return _run_suite_checks(ctx, max_chains)
    finally:
        # the ideals these caches hold point back at ctx; emptying them lets
        # reference counting free ctx here, not the cycle collector later
        ctx._lattice_cache.clear()
        ctx._principal_cache = None


@dataclass(frozen=True)
class CensusReport:
    group_order: int
    cocycle_count: int
    skipped_simple: int
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
    seeded generator, everything else is exhaustive.
    """
    stream = enumerate_cocycles(cfg)
    counts: Dict[str, int] = {}
    failures: List[PropertyFailure] = []
    skipped = 0
    for c in stream.cocycles:
        if inertial_group(c).members == tuple(range(cfg.group.order)):
            skipped += 1
            continue
        result = check_cocycle_properties(c, cfg.max_chains_per_cocycle)
        for k, v in result.counts.items():
            counts[k] = counts.get(k, 0) + v
        failures.extend(result.failures)

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
        for chain in chains:
            counts["lift_sandwich"] = counts.get("lift_sandwich", 0) + 1
            try:
                chain_lift(r, chain)
                if not padded_lift(r, chain).certified:
                    raise ValidationError("padding certificate failed")
            except ForgeError as exc:
                failures.append(
                    PropertyFailure(
                        check="lift_sandwich",
                        group_order=cfg.group.order,
                        cocycle_rows=fr.rows(),
                        detail=f"r={list(r.values)} {exc}",
                    )
                )

    return CensusReport(
        group_order=cfg.group.order,
        cocycle_count=len(stream.cocycles),
        skipped_simple=skipped,
        truncated=stream.truncated,
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


def census_records(stream: CensusStream) -> List[CensusRecord]:
    """Fingerprint every cocycle of a census for the text output.

    One AlgebraContext per cocycle serves every invariant: the all-ones
    cocycle is the one whose context has no G*, and the largest radical
    power is read off the N_k layers, one layer per nonzero power.
    """
    records = []
    for c in stream.cocycles:
        bits = "".join(c.rows())
        try:
            ctx = AlgebraContext(c)
        except ValidationError:
            # the all-ones cocycle: the algebra is simple
            records.append(
                CensusRecord(
                    order=c.group.order,
                    bits=bits,
                    inertial=tuple(range(c.group.order)),
                    max_power=0,
                    nk_sizes=(),
                    annihilator_classes=0,
                )
            )
            continue
        layers = nk_partition(ctx)
        trivial, nontrivial = classify_annihilators(ctx)
        classes = _classes_of(ctx, trivial | nontrivial)
        records.append(
            CensusRecord(
                order=c.group.order,
                bits=bits,
                inertial=ctx.inertial.members,
                max_power=len(layers),
                nk_sizes=tuple(len(l) for l in layers),
                annihilator_classes=len(classes),
            )
        )
    return records
