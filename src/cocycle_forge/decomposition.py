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
from functools import partial, reduce
from operator import and_, or_
from typing import AbstractSet, List, Optional, Sequence, Tuple, Union

from .algebra import (
    AlgebraContext,
    DescendingChain,
    MonomialIdeal,
    _ideal_from_mask,
    _mask_of,
    _members_of,
    _n1_mask,
    _principal_masks,
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
    _inertial_mask,
    _lowest_bit,
    _pack_rows,
    compare,
    validate_cocycle,
    vee,
)
from .errors import InternalInvariantError, PreconditionError, ValidationError
from .generators import Word, all_generators, bstar, ideal_of_word
from .groups import _double_coset_masks

__all__ = [
    "IdentityCheck",
    "MorphismReport",
    "DecompositionPart",
    "DecompositionReport",
    "UniqueClassVerdict",
    "cocycle_from_chain",
    "cocycle_mod_ideal",
    "unique_class_ideal",
    "decompose_by_classes",
    "decompose_by_bstar",
    "check_identity",
    "morphism_check",
    "IDENTITY_NAMES",
]


def _finish(ctx: AlgebraContext, packed: int, what: str) -> Cocycle:
    """Validate a constructed packed table and check the inertial group is
    kept.

    The verdict is memoised per context by the packed table, and the rows
    are unpacked only on a miss: equal tables reached through different
    chains or ideals are validated once per context and come back as one
    Cocycle.  A table that fails is never memoised and raises on every call.
    The memoised Cocycle keeps ``packed`` as its view, so no reader repacks it.
    """
    hit = ctx._valid_tables.get(packed)
    if hit is not None:
        return hit
    result = validate_cocycle(BinaryTable.from_packed(ctx.group, packed))
    if isinstance(result, CocycleViolation):
        raise InternalInvariantError(f"{what} produced an invalid cocycle: {result}")
    if _inertial_mask(ctx.group, result.masks) != ctx._hmask:
        raise InternalInvariantError(f"{what} changed the inertial group")
    result.__dict__["packed"] = packed  # the view, as from_packed stores it
    ctx._valid_tables[packed] = result
    return result


def cocycle_from_chain(ctx: AlgebraContext, chain: DescendingChain) -> Cocycle:
    """The cocycle of a descending chain.

    A product f(s,t) = 1 survives only when s, t, and st all lie in the same
    layer L_i = I_i \\ I_{i+1} with 1 <= i <= k-1; arguments in the inertial
    group always give 1.  So the table is W | f & (cells(L_1) | .. |
    cells(L_{k-1})), with W the Waterhouse idempotent and ``Group.cells``.
    The chain must belong to ctx; the table comes from ``_chain_cocycle``.
    """
    if chain.ctx is not ctx and chain.ctx != ctx:
        raise ValidationError("chain was built over a different context")
    return _chain_cocycle(ctx, chain.masks)


def _chain_cocycle(ctx: AlgebraContext, key: Tuple[int, ...]) -> Cocycle:
    """The table of ``_chain_table`` as the Cocycle its memo holds."""
    return _finish(ctx, _chain_table(ctx, key), "cocycle_from_chain")


def _chain_table(ctx: AlgebraContext, key: Tuple[int, ...], inside: Optional[int] = None) -> int:
    """The packed table of the chain of ideals of ctx whose masks are
    ``key``, which the caller has checked descend: built by the layer rule
    of ``cocycle_from_chain``, through ``_finish`` unless its memo holds it;
    only two-term keys are looked up in the cache and stored there.
    inside, when given, is the OR of the key's layer cells, computed by the
    caller in place of the walk over its links.  The first build in a
    context checks that no product of two G* elements lands in H: a pass
    is remembered, a failure raises on every call.  f and W are read as the
    ``packed`` views of their tables."""
    pair = len(key) == 2
    if pair:
        hit = ctx._chain_cache.get(key)
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
    if inside is None:
        memo = g._cells  # Group.cells' memo, read inline: hot loop
        inside = 0
        for outer, inner in zip(key, key[1:]):
            layer = outer & ~inner
            cells = memo.get(layer)
            inside |= g.cells(layer) if cells is None else cells
    # W through _waterhouse_of's memo, read inline: hot loop
    packed = (ctx._waterhouse or _waterhouse_of(ctx)).packed | ctx.cocycle.packed & inside
    if packed not in ctx._valid_tables:
        _finish(ctx, packed, "cocycle_from_chain")
    if pair:
        ctx._chain_cache[key] = packed
    return packed


def cocycle_mod_ideal(ctx: AlgebraContext, ideal: MonomialIdeal) -> Cocycle:
    """The quotient cocycle of a single ideal: keep f(s,t) when st avoids it.

    Equals the chain cocycle of {J, I}; both are computed and compared, so
    the direct rule, free of ``Group.cells``, and the layer rule police each
    other.  I = J gives the Waterhouse idempotent and I = 0 gives f back.
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
    packed = _pack_rows(masks, g.order)
    result = _finish(ctx, packed, "cocycle_mod_ideal")
    if packed != _chain_table(ctx, (ctx._gstar_mask, ideal.mask)):
        raise InternalInvariantError(
            "quotient cocycle disagrees with the two-term chain cocycle"
        )
    cache[ideal.mask] = result
    return result


def _classes_of(ctx: AlgebraContext, members: AbstractSet[int]) -> List[Tuple[int, ...]]:
    """The double cosets H s H that meet members, sorted by least member,
    read off the group's memo by the mask of H."""
    mask = _mask_of(members)
    return [_members_of(cls) for cls in _double_coset_masks(ctx.group, ctx._hmask) if cls & mask]


def unique_class_ideal(ctx: AlgebraContext, rho: int) -> MonomialIdeal:
    """Sum of all principal ideals avoiding rho.

    The quotient by the result has [rho] as its unique class of non-trivial
    annihilators; that is re-derived from the quotient context and asserted.
    """
    if not 0 <= rho < ctx.group.order or ctx.in_inertial(rho):
        raise ValidationError(f"not-in-gstar: {rho}")
    if _n1_mask(ctx) >> rho & 1:
        raise ValidationError(f"rho-in-n1: {rho} admits no factorization")
    avoiding = [p for p in _principal_masks(ctx).values() if not p >> rho & 1]
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
    # the join of no parts is the least table, the Waterhouse idempotent
    if vee([c for _, c in parts] or [_waterhouse_of(ctx)]).packed != ctx.cocycle.packed:
        raise InternalInvariantError("maximal-word parts do not recombine to f")
    return parts


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    ok: bool
    counterexample: Optional[tuple] = None


def _tables_check(name: str, n: int, lhs: int, rhs: int) -> IdentityCheck:
    """Two packed tables of order n compared; a failure names the first cell
    in row-major order where they differ, as (s, t, lhs(s,t), rhs(s,t))."""
    if lhs == rhs:
        return _PASSED[name]
    bit = _lowest_bit(lhs ^ rhs)
    s, t = divmod(bit, n)
    return IdentityCheck(name, False, (s, t, lhs >> bit & 1, rhs >> bit & 1))


def _check_chain_break(ctx, chain: DescendingChain, split: Optional[int] = None):
    k = len(chain)
    if split is None:
        spans = [(i, i + 2) for i in range(k - 1)]
    elif 2 <= split <= k - 1:
        spans = [(0, split), (split - 1, k)]
    else:
        raise PreconditionError(f"split position must lie in [2, {k - 1}]")
    lhs = cocycle_from_chain(ctx, chain).packed
    joined = reduce(or_, [_chain_table(ctx, chain.masks[lo:hi]) for lo, hi in spans])
    return _tables_check("chain_break", ctx.group.order, lhs, joined)


def _first_unsqueezed(chain: DescendingChain) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """The witness (a, members of I_a^2 outside I_{a+1}) of the first link
    I_a >= I_{a+1} of the chain with I_a^2 not inside I_{a+1}, or None when
    every link is squeezed."""
    ideals = chain.ideals
    for a, (outer, inner) in enumerate(zip(ideals, ideals[1:]), start=1):
        extra = ideal_lattice_op("product", outer, outer).mask & ~inner.mask
        if extra:
            return a, _members_of(extra)
    return None


def _check_waterhouse_iff(ctx, chain: DescendingChain):
    """The chain cocycle equals the Waterhouse idempotent exactly when every
    link of the chain is squeezed."""
    collapses = cocycle_from_chain(ctx, chain).packed == _waterhouse_of(ctx).packed
    witness = _first_unsqueezed(chain)
    squeezed = witness is None
    if collapses == squeezed:
        return _PASSED["waterhouse_iff"]
    return IdentityCheck(
        name="waterhouse_iff", ok=False, counterexample=(collapses, squeezed, witness)
    )


def _pair_table(ctx, outer: MonomialIdeal, inner: MonomialIdeal) -> int:
    """The packed table of the two-term chain outer >= inner, by its mask
    key; unless both ideals are over ctx itself and nested, the chain is
    first built, and checked, by the constructor."""
    if not (outer.ctx is ctx and inner.ctx is ctx and inner <= outer):
        cocycle_from_chain(ctx, DescendingChain(ideals=(outer, inner)))
    return _chain_table(ctx, (outer.mask, inner.mask))


def _check_pair_tables(name, kind, join, ctx, outer, inner: Sequence[MonomialIdeal]):
    """sum_product (kind "sum", join &) or intersection_vee ("intersection",
    |): the pair table of outer over the kind of all inner ideals against the
    join of their own pair tables."""
    if not inner:
        raise PreconditionError("need at least one inner ideal")
    for i, ideal in enumerate(inner):
        if not ideal <= outer:
            raise PreconditionError(f"inner ideal {i + 1} is not contained in the outer one")
    total = reduce(lambda a, b: ideal_lattice_op(kind, a, b), inner)
    lhs = _pair_table(ctx, outer, total)
    rhs = reduce(join, [_pair_table(ctx, outer, i) for i in inner])
    return _tables_check(name, ctx.group.order, lhs, rhs)


def _check_cap_zero(ctx, ideals: Sequence[MonomialIdeal]):
    if not ideals:
        raise PreconditionError("need at least one ideal")
    meet = reduce(lambda a, b: ideal_lattice_op("intersection", a, b), ideals)
    if meet.members:
        raise PreconditionError(
            f"ideals intersect in {sorted(meet.members)}, not in zero"
        )
    rhs = vee([cocycle_mod_ideal(ctx, i) for i in ideals]).packed
    return _tables_check("cap_zero", ctx.group.order, ctx.cocycle.packed, rhs)


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
    lhs = _pair_table(ctx, first, second)
    rhs = _pair_table(ctx, first, zero)
    return _tables_check("trivial_annih_replace", ctx.group.order, lhs, rhs)


def _check_leq_f(ctx, chain: DescendingChain):
    relation = compare(cocycle_from_chain(ctx, chain), ctx.cocycle)
    if relation in (LESS, EQUAL):
        return _PASSED["leq_f"]
    return IdentityCheck(name="leq_f", ok=False, counterexample=(relation,))


_CHECKS = {
    "chain_break": _check_chain_break,
    "waterhouse_iff": _check_waterhouse_iff,
    "sum_product": partial(_check_pair_tables, "sum_product", "sum", and_),
    "intersection_vee": partial(_check_pair_tables, "intersection_vee", "intersection", or_),
    "cap_zero": _check_cap_zero,
    "fI_eq_f": _check_fI_eq_f,
    "trivial_annih_replace": _check_trivial_annih_replace,
    "leq_f": _check_leq_f,
}
IDENTITY_NAMES = tuple(_CHECKS)
CHAIN_CHECKS = ("leq_f", "chain_break", "waterhouse_iff")

# one frozen passing verdict per identity, shared by every check that passes
_PASSED = {name: IdentityCheck(name=name, ok=True) for name in IDENTITY_NAMES}


def check_identity(name: str, ctx: AlgebraContext, **kwargs) -> IdentityCheck:
    """Evaluate one named identity, returning a counterexample on failure.

    Violated hypotheses raise PreconditionError; a False result always means
    the identity itself failed on valid input.  A pass of chain_break,
    waterhouse_iff, leq_f or any check that compares two tables returns the
    one shared IdentityCheck(name, ok=True); a failure is a new verdict
    carrying its counterexample.
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
