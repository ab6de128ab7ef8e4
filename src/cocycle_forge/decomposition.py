"""Chain cocycles, quotient cocycles, the identity catalog, annihilator-class
decomposition, and the homomorphism checks between an algebra and its
quotients.

The central construction takes a weakly descending chain of ideals
I_1 >= .. >= I_k and keeps an f-product only when all three basis elements
involved sit in the same layer I_i \\ I_{i+1} with i < k.  The one-ideal
quotient cocycle keeps a product exactly when it does not fall into the
ideal; both descriptions are computed on every call and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import AbstractSet, List, Optional, Sequence, Tuple, Union

from .algebra import (
    AlgebraContext,
    DescendingChain,
    MonomialIdeal,
    _closure_mask,
    _ideal_from_mask,
    _members_of,
    _n1_mask,
    _principal_ideals,
    _waterhouse_of,
    classify_annihilators,
    ideal_lattice_op,
    radical_powers,
)
from .cocycles import (
    BinaryTable,
    Cocycle,
    CocycleViolation,
    EQUAL,
    LESS,
    _lowest_bit,
    compare,
    pointwise_product,
    validate_cocycle,
    vee,
)
from .errors import InternalInvariantError, PreconditionError, ValidationError
from .generators import Word, all_generators, bstar, ideal_of_word
from .groups import double_cosets

__all__ = [
    "IdentityCheck",
    "MorphismReport",
    "DecompositionPart",
    "DecompositionReport",
    "UniqueClassVerdict",
    "TransportCertificate",
    "cocycle_from_chain",
    "cocycle_mod_ideal",
    "unique_class_ideal",
    "decompose_by_classes",
    "decompose_by_bstar",
    "check_identity",
    "morphism_check",
    "quotient_transport",
    "IDENTITY_NAMES",
]


def _finish(ctx: AlgebraContext, masks: List[int], what: str) -> Cocycle:
    """Validate a constructed table and check the inertial group is kept.

    The verdict is memoised per context by row masks: a table that passed
    both checks once comes back as the same Cocycle, so equal tables reached
    through different chains or ideals are validated once per context.  A
    table that fails is never memoised and raises on every call.
    """
    key = tuple(masks)
    hit = ctx._valid_tables.get(key)
    if hit is not None:
        return hit
    result = validate_cocycle(BinaryTable(group=ctx.group, masks=key))
    if isinstance(result, CocycleViolation):
        raise InternalInvariantError(f"{what} produced an invalid cocycle: {result}")
    inverse = ctx.group.inverse
    support = 0
    for s, row in enumerate(result.masks):
        support |= (row >> inverse[s] & 1) << s
    if support != ctx._hmask:
        raise InternalInvariantError(f"{what} changed the inertial group")
    ctx._valid_tables[key] = result
    return result


def cocycle_from_chain(ctx: AlgebraContext, chain: DescendingChain) -> Cocycle:
    """The cocycle of a descending chain.

    A product f(s,t) = 1 survives only when s, t, and st all lie in the same
    layer I_i \\ I_{i+1} with 1 <= i <= k-1; arguments in the inertial group
    always give 1.  So the row of s in layer L is H | (f-row & L & {t : st in L}).
    Results are cached per context under ``chain.masks``; a miss builds the
    table, starting from the context's Waterhouse rows, and hands it to
    ``_finish``, whose per-context memo validates each distinct table once
    however many chains produce it.  The check that no
    product of two G* elements lands in H depends only on the context: a
    pass is remembered on it, a failure raises on every call.
    """
    if chain.ctx is not ctx and chain.ctx != ctx:
        raise ValidationError("chain was built over a different context")
    cache = ctx._chain_cache
    key = chain.masks
    hit = cache.get(key)
    if hit is not None:
        return hit
    g = ctx.group
    if not ctx._gstar_products_avoid_h:
        gstar = ctx._gstar_mask
        for s in ctx.gstar:
            if ctx._masks[s] & gstar & g.left_preimage(s, ctx._hmask):
                raise InternalInvariantError(
                    "product of non-inertial elements landed in the inertial group"
                )
        ctx._gstar_products_avoid_h = True
    masks = list(_waterhouse_of(ctx).masks)
    f_masks, preimage = ctx._masks, g.left_preimage
    for outer, inner in zip(key, key[1:]):
        layer = outer & ~inner
        for s in _members_of(layer):
            masks[s] |= f_masks[s] & layer & preimage(s, layer)
    result = _finish(ctx, masks, "cocycle_from_chain")
    cache[key] = result
    return result


def cocycle_mod_ideal(ctx: AlgebraContext, ideal: MonomialIdeal) -> Cocycle:
    """The quotient cocycle of a single ideal: keep f(s,t) when st avoids it.

    Equals the chain cocycle of {J, I}; both are computed and compared, so
    the direct rule and the layer rule police each other.  I = J gives the
    Waterhouse idempotent and I = 0 gives f back.
    """
    if ideal.ctx != ctx:
        raise ValidationError("ideal was built over a different context")
    cache = ctx._mod_cache
    hit = cache.get(ideal.mask)
    if hit is not None:
        return hit
    g = ctx.group
    masks = list(_waterhouse_of(ctx).masks)
    for s in ctx.gstar:
        masks[s] |= ctx._masks[s] & ctx._gstar_mask & ~g.left_preimage(s, ideal.mask)
    result = _finish(ctx, masks, "cocycle_mod_ideal")
    radical = MonomialIdeal(ctx=ctx, mask=ctx._gstar_mask)
    via_chain = cocycle_from_chain(ctx, DescendingChain(ideals=(radical, ideal)))
    if result.masks != via_chain.masks:
        raise InternalInvariantError(
            "quotient cocycle disagrees with the two-term chain cocycle"
        )
    cache[ideal.mask] = result
    return result


def _classes_of(ctx: AlgebraContext, members: AbstractSet[int]) -> List[Tuple[int, ...]]:
    """The double cosets H s H that meet members, sorted by least member."""
    return [
        cls
        for cls in double_cosets(ctx.group, ctx.inertial)
        if not members.isdisjoint(cls)
    ]


def unique_class_ideal(ctx: AlgebraContext, rho: int) -> MonomialIdeal:
    """Sum of all principal ideals avoiding rho.

    The quotient by the result has [rho] as its unique class of non-trivial
    annihilators; that is re-derived from the quotient context and asserted.
    """
    if not 0 <= rho < ctx.group.order or ctx.in_inertial(rho):
        raise ValidationError(f"not-in-gstar: {rho}")
    if _n1_mask(ctx) >> rho & 1:
        raise ValidationError(f"rho-in-n1: {rho} admits no factorization")
    avoiding = [p.mask for p in _principal_ideals(ctx).values() if rho not in p]
    ideal = _ideal_from_mask(ctx, reduce(or_, avoiding, 0))
    sub_ctx = AlgebraContext(cocycle_mod_ideal(ctx, ideal))
    _, sub_nontrivial = classify_annihilators(sub_ctx)
    if sub_nontrivial != frozenset(_classes_of(ctx, {rho})[0]):
        raise InternalInvariantError(
            f"quotient by the ideal of {rho} does not isolate its class"
        )
    return ideal


@dataclass(frozen=True)
class DecompositionPart:
    representative: int
    ideal: MonomialIdeal
    cocycle: Cocycle
    strict: bool


@dataclass(frozen=True)
class DecompositionReport:
    parts: Tuple[DecompositionPart, ...]
    recombines: bool


@dataclass(frozen=True)
class UniqueClassVerdict:
    """The cocycle has a single non-trivial annihilator class, so the
    class construction cannot split it into strictly smaller parts."""

    class_members: Tuple[int, ...]

    @property
    def representative(self) -> int:
        return self.class_members[0]


def decompose_by_classes(
    ctx: AlgebraContext,
) -> Union[DecompositionReport, UniqueClassVerdict]:
    """Split f into quotient cocycles indexed by classes of J^2 elements.

    With a single non-trivial annihilator class no strict splitting exists
    and the verdict is returned instead.  Otherwise every double coset class
    of J^2 contributes the part (rho, unique_class_ideal(rho), quotient),
    the bounds f0 < part < f are recorded per part, and the join of all
    parts is compared against f.
    """
    f = ctx.cocycle
    f0 = _waterhouse_of(ctx)
    if f.masks == f0.masks:
        raise ValidationError("nothing-to-decompose: the cocycle is its Waterhouse idempotent")
    _, nontrivial = classify_annihilators(ctx)
    if not nontrivial:
        raise InternalInvariantError(
            "a cocycle above its Waterhouse idempotent has no non-trivial annihilator"
        )
    nta_classes = _classes_of(ctx, nontrivial)
    if len(nta_classes) == 1:
        return UniqueClassVerdict(class_members=nta_classes[0])
    powers, _ = radical_powers(ctx)
    square = powers[1]
    parts = []
    for cls in _classes_of(ctx, square.members):
        rho = cls[0]
        ideal = unique_class_ideal(ctx, rho)
        part_cocycle = cocycle_mod_ideal(ctx, ideal)
        strict = (
            compare(f0, part_cocycle) == LESS and compare(part_cocycle, f) == LESS
        )
        parts.append(
            DecompositionPart(
                representative=rho, ideal=ideal, cocycle=part_cocycle, strict=strict
            )
        )
    joined = vee([p.cocycle for p in parts])
    return DecompositionReport(
        parts=tuple(parts), recombines=joined.masks == f.masks
    )


def decompose_by_bstar(ctx: AlgebraContext) -> List[Tuple[Word, Cocycle]]:
    """One part per maximal non-trivial-annihilator word.

    Each word gamma yields the chain cocycle of {J, I_gamma, 0} where
    I_gamma sums the principal ideals of the word's letters.  The join of
    the parts must reproduce f; with no such words f must already be its
    Waterhouse idempotent.
    """
    words = bstar(all_generators(ctx))
    radical = MonomialIdeal(ctx=ctx, mask=ctx._gstar_mask)
    zero = MonomialIdeal(ctx=ctx, mask=0)
    parts: List[Tuple[Word, Cocycle]] = []
    for word in words:
        chain = DescendingChain(ideals=(radical, ideal_of_word(word), zero))
        parts.append((word, cocycle_from_chain(ctx, chain)))
    if parts:
        joined = vee([c for _, c in parts]).masks
    else:
        joined = _waterhouse_of(ctx).masks
    if joined != ctx.cocycle.masks:
        raise InternalInvariantError("maximal-word parts do not recombine to f")
    return parts


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    ok: bool
    counterexample: Optional[tuple] = None


def _first_diff(a, b) -> Optional[Tuple[int, int, int, int]]:
    """First (s, t, a(s,t), b(s,t)) in row-major order where two tables differ."""
    for s, (ra, rb) in enumerate(zip(a, b)):
        if ra != rb:
            t = _lowest_bit(ra ^ rb)
            return (s, t, ra >> t & 1, rb >> t & 1)
    return None


def _tables_check(name: str, lhs, rhs) -> IdentityCheck:
    if lhs == rhs:
        return _PASSED[name]
    return IdentityCheck(name=name, ok=False, counterexample=_first_diff(lhs, rhs))


def _subchain_masks(ctx, chain: DescendingChain, lo: int, hi: int) -> Tuple[int, ...]:
    """Row masks of the cocycle of chain.ideals[lo:hi].

    Read from the chain cache by mask key; the sub-chain is built and handed
    to cocycle_from_chain only on a miss.  The caller has already checked
    that the chain belongs to ctx.
    """
    hit = ctx._chain_cache.get(chain.masks[lo:hi])
    if hit is None:
        hit = cocycle_from_chain(ctx, DescendingChain(ideals=chain.ideals[lo:hi]))
    return hit.masks


def _check_chain_break(ctx, chain: DescendingChain, split: Optional[int] = None):
    k = len(chain)
    if split is None:
        spans = [(i, i + 2) for i in range(k - 1)]
    elif 2 <= split <= k - 1:
        spans = [(0, split), (split - 1, k)]
    else:
        raise PreconditionError(f"split position must lie in [2, {k - 1}]")
    lhs = cocycle_from_chain(ctx, chain).masks
    joined = _subchain_masks(ctx, chain, *spans[0])
    for lo, hi in spans[1:]:
        joined = tuple(map(or_, joined, _subchain_masks(ctx, chain, lo, hi)))
    return _tables_check("chain_break", lhs, joined)


def _link_witness(a: int, square: int, inner: int) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Whether link a, I_a >= I_{a+1}, of a chain is squeezed, from the masks
    of I_a^2 and I_{a+1}: None when I_a^2 <= I_{a+1}, else the witness
    (a, members of I_a^2 outside I_{a+1})."""
    extra = square & ~inner
    return (a, _members_of(extra)) if extra else None


def _first_unsqueezed(chain: DescendingChain) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """The witness of the first link of the chain that is not squeezed, or
    None when every link is."""
    ideals = chain.ideals
    for a, (outer, inner) in enumerate(zip(ideals, ideals[1:]), start=1):
        square = ideal_lattice_op("product", outer, outer)
        witness = _link_witness(a, square.mask, inner.mask)
        if witness is not None:
            return witness
    return None


def _waterhouse_iff_verdict(direct, f0, witness) -> IdentityCheck:
    """waterhouse_iff on row masks: the chain cocycle ``direct`` equals the
    Waterhouse idempotent ``f0`` exactly when ``witness``, the first
    unsqueezed link, is None."""
    collapses = direct == f0
    squeezed = witness is None
    if collapses == squeezed:
        return _PASSED["waterhouse_iff"]
    return IdentityCheck(
        name="waterhouse_iff", ok=False, counterexample=(collapses, squeezed, witness)
    )


def _check_waterhouse_iff(ctx, chain: DescendingChain):
    direct = cocycle_from_chain(ctx, chain).masks
    return _waterhouse_iff_verdict(direct, _waterhouse_of(ctx).masks, _first_unsqueezed(chain))


def _pair_chain(ctx, outer: MonomialIdeal, inner: MonomialIdeal) -> Cocycle:
    """The cocycle of the two-term chain outer >= inner.

    Read from the chain cache by mask key when both ideals are over ctx
    itself; a key there belongs to a chain that passed the link check.  The
    chain is built and handed to cocycle_from_chain only otherwise.
    """
    if outer.ctx is ctx and inner.ctx is ctx:
        hit = ctx._chain_cache.get((outer.mask, inner.mask))
        if hit is not None:
            return hit
    return cocycle_from_chain(ctx, DescendingChain(ideals=(outer, inner)))


def _require_nested(outer: MonomialIdeal, inner: Sequence[MonomialIdeal]) -> None:
    if not inner:
        raise PreconditionError("need at least one inner ideal")
    for i, ideal in enumerate(inner):
        if not ideal <= outer:
            raise PreconditionError(f"inner ideal {i + 1} is not contained in the outer one")


def _check_sum_product(ctx, outer: MonomialIdeal, inner: Sequence[MonomialIdeal]):
    _require_nested(outer, inner)
    total = reduce(lambda a, b: ideal_lattice_op("sum", a, b), inner)
    lhs = _pair_chain(ctx, outer, total).masks
    rhs = pointwise_product([_pair_chain(ctx, outer, i) for i in inner]).masks
    return _tables_check("sum_product", lhs, rhs)


def _check_intersection_vee(ctx, outer: MonomialIdeal, inner: Sequence[MonomialIdeal]):
    _require_nested(outer, inner)
    total = reduce(lambda a, b: ideal_lattice_op("intersection", a, b), inner)
    lhs = _pair_chain(ctx, outer, total).masks
    rhs = vee([_pair_chain(ctx, outer, i) for i in inner]).masks
    return _tables_check("intersection_vee", lhs, rhs)


def _check_cap_zero(ctx, ideals: Sequence[MonomialIdeal]):
    if not ideals:
        raise PreconditionError("need at least one ideal")
    meet = reduce(lambda a, b: ideal_lattice_op("intersection", a, b), ideals)
    if meet.members:
        raise PreconditionError(
            f"ideals intersect in {sorted(meet.members)}, not in zero"
        )
    rhs = vee([cocycle_mod_ideal(ctx, i) for i in ideals]).masks
    return _tables_check("cap_zero", ctx.cocycle.masks, rhs)


def _check_fI_eq_f(ctx, ideal: MonomialIdeal):
    trivial, _ = classify_annihilators(ctx)
    unchanged = cocycle_mod_ideal(ctx, ideal).masks == ctx.cocycle.masks
    expected = ideal.members <= trivial
    ok = unchanged == expected
    return IdentityCheck(
        name="fI_eq_f",
        ok=ok,
        counterexample=None if ok else (unchanged, expected, tuple(sorted(ideal.members - trivial))),
    )


def _check_trivial_annih_replace(ctx, first: MonomialIdeal, second: MonomialIdeal):
    trivial, _ = classify_annihilators(ctx)
    if not second <= first:
        raise PreconditionError("second ideal is not contained in the first")
    if not second.members <= trivial:
        raise PreconditionError(
            f"second ideal contains non-trivial-annihilator members "
            f"{sorted(second.members - trivial)}"
        )
    zero = MonomialIdeal(ctx=ctx, mask=0)
    lhs = _pair_chain(ctx, first, second).masks
    rhs = _pair_chain(ctx, first, zero).masks
    return _tables_check("trivial_annih_replace", lhs, rhs)


def _leq_f_verdict(relation: str) -> IdentityCheck:
    """leq_f from the support order of the chain cocycle against f, as
    ``compare`` or ``_support_order`` on the row masks gives it."""
    if relation in (LESS, EQUAL):
        return _PASSED["leq_f"]
    return IdentityCheck(name="leq_f", ok=False, counterexample=(relation,))


def _check_leq_f(ctx, chain: DescendingChain):
    return _leq_f_verdict(compare(cocycle_from_chain(ctx, chain), ctx.cocycle))


IDENTITY_NAMES = (
    "chain_break",
    "waterhouse_iff",
    "sum_product",
    "intersection_vee",
    "cap_zero",
    "fI_eq_f",
    "trivial_annih_replace",
    "leq_f",
)


# one frozen passing verdict per identity, shared by every check that passes
_PASSED = {name: IdentityCheck(name=name, ok=True) for name in IDENTITY_NAMES}


_CHECKS = {
    "chain_break": _check_chain_break,
    "waterhouse_iff": _check_waterhouse_iff,
    "sum_product": _check_sum_product,
    "intersection_vee": _check_intersection_vee,
    "cap_zero": _check_cap_zero,
    "fI_eq_f": _check_fI_eq_f,
    "trivial_annih_replace": _check_trivial_annih_replace,
    "leq_f": _check_leq_f,
}


def check_identity(name: str, ctx: AlgebraContext, **kwargs) -> IdentityCheck:
    """Evaluate one named identity, returning a counterexample on failure.

    Violated hypotheses raise PreconditionError; a False result always means
    the identity itself failed on valid input.  A pass of chain_break,
    waterhouse_iff, leq_f or any check that compares two tables returns the
    one shared IdentityCheck(name, ok=True); a failure is a new verdict
    carrying its counterexample.

    The chain identities compute their mask inputs from scratch: the chain
    cocycle, the join of its sub-chain cocycles and the first unsqueezed
    link.  They decide through ``_leq_f_verdict``, ``_tables_check`` and
    ``_waterhouse_iff_verdict``, which the property sweep calls with the
    join and the link carried from each chain's parent.
    """
    check = _CHECKS.get(name)
    if check is None:
        raise ValidationError(f"unknown identity {name!r}; choose from {IDENTITY_NAMES}")
    return check(ctx, **kwargs)


@dataclass(frozen=True)
class MorphismReport:
    ok: bool
    scaling_ok: bool
    first_violation: Optional[Tuple[int, int]]
    phi_kernel: Tuple[int, ...]
    phi_kernel_ok: bool
    psi_ok: bool
    psi_first_violation: Optional[Tuple[int, int]]
    dims: Tuple[int, int, int]
    dimension_ok: bool
    section_ok: bool


def morphism_check(ctx: AlgebraContext, ideal: MonomialIdeal) -> MorphismReport:
    """Verify the scaling map into the quotient cocycle's algebra.

    With a(s) = 1 exactly when s avoids the ideal, the map x_s -> a(s) y_s
    must satisfy f(s,t) a(st) = a(s) a(t) f_I(s,t) at every pair; its kernel
    is the ideal.  The projection that drops ideal members must likewise be
    multiplicative on the surviving basis, the dimensions must split, and
    projecting back the section must be the identity.
    """
    if ideal.ctx != ctx:
        raise ValidationError("ideal was built over a different context")
    g = ctx.group
    n = g.order
    fI = cocycle_mod_ideal(ctx, ideal)
    keep = ((1 << n) - 1) & ~ideal.mask  # bit s is a(s)
    a = [keep >> s & 1 for s in range(n)]
    first = None
    psi_first = None
    for s in range(n):
        kept = g.left_preimage(s, keep)  # the t with a(st) = 1
        f_row, fI_row = ctx._masks[s], fI.masks[s]
        if first is None:
            diff = (f_row & kept) ^ (fI_row & keep if a[s] else 0)
            if diff:
                first = (s, _lowest_bit(diff))
        if psi_first is None:
            diff = (fI_row ^ f_row) & kept
            if diff:
                psi_first = (s, _lowest_bit(diff))
    phi_kernel = tuple(s for s in range(n) if a[s] == 0)
    phi_kernel_ok = phi_kernel == ideal.sorted_members
    survivors = [s for s in range(n) if a[s] == 1]
    dims = (n, len(survivors), len(ideal))
    dimension_ok = dims[0] == dims[1] + dims[2]
    psi = {s: (s if a[s] == 1 else None) for s in range(n)}
    section_ok = all(psi[s] == s for s in survivors)
    ok = (
        first is None
        and phi_kernel_ok
        and psi_first is None
        and dimension_ok
        and section_ok
    )
    return MorphismReport(
        ok=ok,
        scaling_ok=first is None,
        first_violation=first,
        phi_kernel=phi_kernel,
        phi_kernel_ok=phi_kernel_ok,
        psi_ok=psi_first is None,
        psi_first_violation=psi_first,
        dims=dims,
        dimension_ok=dimension_ok,
        section_ok=section_ok,
    )


@dataclass(frozen=True)
class TransportCertificate:
    union_ideal: MonomialIdeal
    equal: bool
    psi_kernel: Tuple[int, ...]
    chain_equal: Optional[bool] = None


def quotient_transport(
    ctx: AlgebraContext,
    ideal: MonomialIdeal,
    p_members: Sequence[int],
    chain: Optional[DescendingChain] = None,
) -> TransportCertificate:
    """Quotienting twice equals quotienting once by the union.

    P must be an ideal of the quotient context; the union P with I is then
    automatically closed in the original context, and the double quotient
    (f_I)_P coincides with f over the union ideal.  Given a full chain
    ending at I, the masks of its ideals transport to a chain of the
    quotient context with an equal chain cocycle.
    """
    fI = cocycle_mod_ideal(ctx, ideal)
    sub_ctx = AlgebraContext(fI)
    try:
        p_ideal = MonomialIdeal.from_members(sub_ctx, p_members)
    except ValidationError as exc:
        raise ValidationError(f"invalid-ideal: {exc}") from exc
    union = p_ideal.mask | ideal.mask
    if _closure_mask(ctx, union) != union:
        raise InternalInvariantError("union of quotient ideal and kernel is not closed")
    union_ideal = MonomialIdeal(ctx=ctx, mask=union)
    lhs = cocycle_mod_ideal(sub_ctx, p_ideal)
    rhs = cocycle_mod_ideal(ctx, union_ideal)
    if lhs.masks != rhs.masks:
        raise InternalInvariantError("double quotient differs from the union quotient")
    chain_equal = None
    if chain is not None:
        if chain.ctx != ctx:
            raise ValidationError("chain was built over a different context")
        if chain.ideals[-1].mask != ideal.mask:
            raise ValidationError("chain must end at the quotient ideal")
        transported = DescendingChain(
            ideals=tuple(MonomialIdeal(ctx=sub_ctx, mask=i.mask) for i in chain.ideals)
        )
        chain_equal = (
            cocycle_from_chain(ctx, chain).masks
            == cocycle_from_chain(sub_ctx, transported).masks
        )
        if not chain_equal:
            raise InternalInvariantError("chain transport changed the chain cocycle")
    return TransportCertificate(
        union_ideal=union_ideal,
        equal=True,
        psi_kernel=ideal.sorted_members,
        chain_equal=chain_equal,
    )
