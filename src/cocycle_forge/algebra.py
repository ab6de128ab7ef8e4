"""Monomial two-sided ideals of the crossed product algebra attached to a
cocycle: principal ideals, radical powers, the N_k partition, annihilators,
lattice operations, and descending chains.

Ideals are subsets of the non-inertial indices, closed under one-sided basis
multiplication whenever the cocycle value is 1.  Each ideal is stored as the
bitmask of that subset, keyed to the group index order, and all set algebra
runs on the masks; the member set is a view.  Only proper ideals are
represented: the zero ideal is the mask 0 and the radical J is the mask of
G*, but the algebra itself is never an ideal value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from operator import or_
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .cocycles import Cocycle, _inertial_mask, waterhouse
from .errors import InternalInvariantError, ValidationError
from .groups import Group, Subgroup, _double_coset_masks

__all__ = [
    "AlgebraContext",
    "MonomialIdeal",
    "DescendingChain",
    "principal_ideal",
    "ideal_closure",
    "radical_powers",
    "nk_partition",
    "classify_annihilators",
    "ideal_lattice_op",
    "chain_levels",
]


class _CocycleMasks:
    """What every reading of a cocycle starts from, computed here and
    nowhere else: the group, the row masks, the packed table (given, as the
    caller has it), the inertial mask H of ``cocycles._inertial_mask``, G*
    as a mask and as members, and the N_1 slot.  The census fingerprint
    reads a bare view; the mask-level helpers (``_power_masks``,
    ``_layer_masks``, ``_n1_direct_mask`` and ``_annihilator_classes``) read
    a view as they read a context.  H is validated as a subgroup through
    ``_double_coset_masks``, once per group and mask; a set that is none
    raises InternalInvariantError, as ``inertial_group`` does.  G* may be
    empty here.
    """

    __slots__ = ("group", "_masks", "_packed", "_hmask", "_gstar_mask", "gstar", "_n1_mask")

    def __init__(self, cocycle: Cocycle, packed: int):
        g = cocycle.group
        hmask = _inertial_mask(g, cocycle.masks)
        try:
            _double_coset_masks(g, hmask)
        except ValidationError as exc:
            raise InternalInvariantError(
                f"inertial set {list(_members_of(hmask))} is not a subgroup: {exc}"
            ) from exc
        self.group: Group = g
        self._masks = cocycle.masks
        self._packed = packed
        self._hmask = hmask
        self._gstar_mask = (1 << g.order) - 1 & ~hmask
        self.gstar: Tuple[int, ...] = _members_of(self._gstar_mask)
        self._n1_mask: Optional[int] = None  # filled by _n1_mask


class AlgebraContext(_CocycleMasks):
    """The view of a cocycle with a nonempty G* (else the algebra is simple
    and no ideal construction applies), plus the caches declared here; the
    links and the inertial Subgroup are built on first read, as most
    contexts (a sweep's per-ideal quotients) read neither.  This module
    fills the principal-mask cache, the decomposition module the chain and
    quotient caches and the validated-table memo.  No cache points back at
    the context, so reference counting frees it.
    """

    def __init__(self, cocycle: Cocycle):
        super().__init__(cocycle, cocycle.packed)
        if not self.gstar:
            raise ValidationError(
                "the inertial group is all of G; no non-inertial elements exist"
            )
        self.cocycle: Cocycle = cocycle
        self._chain_cache: Dict[Tuple[int, int], int] = {}  # packed, two-term keys only
        self._mod_cache: Dict[int, Cocycle] = {}
        # packed table -> the Cocycle that passed validation and kept H here
        self._valid_tables: Dict[int, Cocycle] = {}
        # s -> the mask of the principal ideal of s, for s in G*
        self._principal_cache: Optional[Dict[int, int]] = None
        # (trivial, nontrivial) annihilators, kept by classify_annihilators;
        # a raise is never stored
        self._annihilators: Optional[Tuple[FrozenSet[int], FrozenSet[int]]] = None
        # the Waterhouse idempotent of H, read once by _waterhouse_of
        self._waterhouse: Optional[Cocycle] = None
        # set by the first chain build once no product of two G* elements
        # with f = 1 lands in H; a failing verdict is never stored
        self._gstar_products_avoid_h: bool = False

    @cached_property
    def _links(self) -> Tuple[int, ...]:
        """links[s]: every s t with f(s,t) = 1 and t s with f(t,s) = 1, what
        one basis multiplication reaches from s; built by the first
        ``_closure_mask``."""
        links = [0] * self.group.order
        for s, row in enumerate(self._masks):
            products = self.group.table[s]
            for t in _members_of(row):
                bit = 1 << products[t]
                links[s] |= bit
                links[t] |= bit
        return tuple(links)

    @cached_property
    def inertial(self) -> Subgroup:
        """H as a Subgroup, from the mask the view validated."""
        return Subgroup(group=self.group, members=_members_of(self._hmask))

    def f(self, s: int, t: int) -> int:
        return self._masks[s] >> t & 1

    def mul(self, s: int, t: int) -> int:
        return self.group.table[s][t]

    def in_inertial(self, s: int) -> bool:
        return self._hmask >> s & 1 == 1

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, AlgebraContext)
            and self.group == other.group
            and self._masks == other._masks
        )

    def __hash__(self) -> int:
        return hash((self.group.table, self._masks))

    def __repr__(self) -> str:
        return f"AlgebraContext(order={self.group.order}, gstar={list(self.gstar)})"


def _mask_of(members: Iterable[int]) -> int:
    m = 0
    for s in members:
        m |= 1 << s
    return m


@lru_cache(maxsize=1 << 12)
def _members_of(mask: int) -> Tuple[int, ...]:
    """The set bits of mask in increasing order.

    Memoised, as the same few masks come back across every context of a
    group; bounded, so a long run over large groups cannot grow it without
    end.  The result is a tuple, so sharing it is safe.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _gstar_mask_of(ctx: AlgebraContext, members: Iterable[int]) -> int:
    """The mask of a member set that lies in G*.  Members outside the group
    are refused first, then inertial ones, each kind as a sorted list."""
    members = set(members)
    bad = sorted(s for s in members if not 0 <= s < ctx.group.order)
    if bad:
        raise ValidationError(f"not-in-gstar: {bad}")
    mask = _mask_of(members)
    if mask & ~ctx._gstar_mask:
        raise ValidationError(f"not-in-gstar: {list(_members_of(mask & ~ctx._gstar_mask))}")
    return mask


def _closure_mask(ctx: AlgebraContext, seed_mask: int) -> int:
    """Smallest mask containing seed_mask closed under basis multiplication."""
    links = ctx._links
    mask = frontier = seed_mask
    while frontier:
        reached = 0
        for s in _members_of(frontier):
            reached |= links[s]
        frontier = reached & ~mask
        mask |= reached
    return mask


def _is_closed_mask(ctx: AlgebraContext, mask: int) -> bool:
    """Whether mask is closed under basis multiplication, read by left
    preimages: each row s of f, over all of G when s is in mask and over
    mask otherwise, lies in the r with s r in mask, which is f being 0 on
    ``Group.escapes(mask)``.  The first reading closes mask on the right,
    the second on the left.  A context and a ``_CocycleMasks`` view both
    carry the packed f."""
    return not ctx._packed & ctx.group.escapes(mask)


def _check_ideal_mask(ctx: AlgebraContext, mask: int) -> None:
    """Raise unless mask lies in G* and is closed under basis
    multiplication: the checks of the ideal constructor, and of each radical
    power read as a mask.  A negative mask is refused before it is unpacked."""
    if mask < 0:
        raise ValidationError(f"not-in-gstar: negative mask {mask}")
    if mask & ~ctx._gstar_mask:
        raise ValidationError(f"not-in-gstar: {list(_members_of(mask & ~ctx._gstar_mask))}")
    if not _is_closed_mask(ctx, mask):
        raise ValidationError(
            f"set {list(_members_of(mask))} is not closed under basis multiplication"
        )


@dataclass(frozen=True)
class MonomialIdeal:
    """A two-sided monomial ideal, stored as the bitmask of its subset of G*;
    ``from_members`` builds one from a member set, and ``members`` and
    ``sorted_members`` are views of the mask."""

    ctx: AlgebraContext
    mask: int

    def __post_init__(self) -> None:
        """The one checked path, ``_check_ideal_mask``."""
        _check_ideal_mask(self.ctx, self.mask)

    @classmethod
    def from_members(cls, ctx: AlgebraContext, members: Iterable[int]) -> "MonomialIdeal":
        """The ideal with these members; each must lie in G*."""
        return cls(ctx=ctx, mask=_gstar_mask_of(ctx, members))

    @property
    def members(self) -> FrozenSet[int]:
        return frozenset(_members_of(self.mask))

    @property
    def sorted_members(self) -> Tuple[int, ...]:
        return _members_of(self.mask)

    def __contains__(self, s: int) -> bool:
        return s >= 0 and self.mask >> s & 1 == 1

    def __le__(self, other: "MonomialIdeal") -> bool:
        return self.mask & ~other.mask == 0

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return f"MonomialIdeal({list(self.sorted_members)})"


def _ideal_from_mask(ctx: AlgebraContext, mask: int) -> MonomialIdeal:
    """The ideal with this mask, under the name bench/layers.py traces."""
    return MonomialIdeal(ctx=ctx, mask=mask)


def principal_ideal(ctx: AlgebraContext, s: int) -> MonomialIdeal:
    """The smallest ideal containing basis element s, by breadth-first closure."""
    if not 0 <= s < ctx.group.order:
        raise ValidationError(f"element {s} out of range")
    if ctx.in_inertial(s):
        raise ValidationError(f"not-in-gstar: {s}")
    return _ideal_from_mask(ctx, _closure_mask(ctx, 1 << s))


def _principal_masks(ctx: AlgebraContext) -> Dict[int, int]:
    """The mask of the principal ideal of every element of G*, each checked
    by the ideal constructor once and kept per context as a plain int."""
    if ctx._principal_cache is None:
        ctx._principal_cache = {s: principal_ideal(ctx, s).mask for s in ctx.gstar}
    return ctx._principal_cache


def ideal_closure(ctx: AlgebraContext, seed: Iterable[int]) -> MonomialIdeal:
    """The smallest ideal containing every seed element; empty seed gives 0."""
    return _ideal_from_mask(ctx, _closure_mask(ctx, _gstar_mask_of(ctx, seed)))


def _product_mask(ctx: AlgebraContext, a: int, b: int) -> int:
    """The products s t with s in a, t in b and f(s,t) = 1."""
    g = ctx.group
    masks = ctx._masks
    inverse, preimages = g.inverse, g._preimages
    out = 0
    for s in _members_of(a):
        row = masks[s] & b
        image = preimages[inverse[s]].get(row)  # left_preimage's memo, read inline
        if image is None:
            image = g.left_preimage(inverse[s], row)
        out |= image  # s * (row s within b)
    return out


def ideal_lattice_op(kind: str, a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """sum, intersection, or product of two ideals of the same context.

    Sums and intersections of closed sets are closed; the product
    {s t : s in a, t in b, f(s,t) = 1} is closed because the product of
    two-sided ideals is two-sided, and that is asserted rather than re-closed
    so implementation bugs surface.
    """
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise ValidationError("ctx mismatch between ideals")
    if kind == "sum":
        mask = a.mask | b.mask
    elif kind == "intersection":
        mask = a.mask & b.mask
    elif kind == "product":
        mask = _product_mask(a.ctx, a.mask, b.mask)
        if not _is_closed_mask(a.ctx, mask):
            raise InternalInvariantError("ideal product is not closed")
    else:
        raise ValidationError(f"unknown lattice operation {kind!r}")
    return _ideal_from_mask(a.ctx, mask)


def _power_masks(ctx: AlgebraContext) -> List[int]:
    """The masks of the nonzero powers J, J^2, .., J^t, each checked by
    ``_check_ideal_mask``.  Each power of a closed J lies inside the one
    before, and a strictly descending chain of nonzero subsets of G* has at
    most |G*| terms; so a power still nonzero after |G*| products repeats
    the one before, J is not nilpotent, and that raises."""
    gstar = ctx._gstar_mask
    masks = [gstar]
    _check_ideal_mask(ctx, gstar)
    for _ in range(len(ctx.gstar)):
        nxt = _product_mask(ctx, masks[-1], gstar)
        if nxt == 0:
            return masks
        _check_ideal_mask(ctx, nxt)
        masks.append(nxt)
    raise InternalInvariantError("radical is not nilpotent")


def radical_powers(ctx: AlgebraContext) -> Tuple[List[MonomialIdeal], int]:
    """All nonzero powers [J, J^2, .., J^t] and the nilpotency t + 1: the
    ideals of ``_power_masks``."""
    powers = [_ideal_from_mask(ctx, m) for m in _power_masks(ctx)]
    return powers, len(powers) + 1


def _n1_direct_mask(ctx: AlgebraContext) -> int:
    """N_1 from the defining property: no factorization within G*."""
    g = ctx.group
    masks = ctx._masks
    gstar = ctx._gstar_mask
    factorable = 0
    for s in ctx.gstar:
        row = masks[s] & gstar
        products = g.table[s]
        for t in _members_of(row):
            factorable |= 1 << products[t]
    return gstar & ~factorable


def _n1_mask(ctx: AlgebraContext) -> int:
    """The direct N_1 mask, computed once per context."""
    if ctx._n1_mask is None:
        ctx._n1_mask = _n1_direct_mask(ctx)
    return ctx._n1_mask


def _waterhouse_of(ctx: AlgebraContext) -> Cocycle:
    """The Waterhouse idempotent of the inertial group, read once per context."""
    if ctx._waterhouse is None:
        ctx._waterhouse = waterhouse(ctx.group, ctx.inertial)
    return ctx._waterhouse


def _layers_of(powers: List[int]) -> List[int]:
    """N_k = J^k \\ J^{k+1} for the powers J, J^2, .. of one cocycle, or of a
    census block's lanes, each power one integer."""
    return [power & ~below for power, below in zip(powers, powers[1:] + [0])]


def _layer_masks(ctx: AlgebraContext) -> List[int]:
    """The masks of N_k = J^k \\ J^{k+1} from ``_power_masks``; their union
    is G*.

    N_1 is computed both from the radical filtration and from the
    no-factorization characterization, and the two must agree; the latter
    is computed once per context and shared with classify_annihilators.
    """
    layers = _layers_of(_power_masks(ctx))
    if layers[0] != _n1_mask(ctx):
        raise InternalInvariantError("the two N_1 characterizations disagree")
    if reduce(or_, layers) != ctx._gstar_mask:
        raise InternalInvariantError("N_k layers do not cover G*")
    return layers


def nk_partition(ctx: AlgebraContext) -> List[FrozenSet[int]]:
    """The sets N_k = J^k \\ J^{k+1}, the members of ``_layer_masks``; their
    union is G*."""
    return [frozenset(_members_of(m)) for m in _layer_masks(ctx)]


def _annihilator_mask(ctx: AlgebraContext) -> int:
    """G* minus every s with f(s,t) = 1 or f(t,s) = 1 for some t in G*."""
    masks = ctx._masks
    gstar = ctx._gstar_mask
    factors = 0
    for s in ctx.gstar:
        right = masks[s] & gstar
        if right:
            factors |= 1 << s | right
    return gstar & ~factors


def _annihilator_classes(ctx: AlgebraContext) -> Tuple[int, int]:
    """The annihilator mask and the number of double cosets H s H it meets.
    Each double coset lies wholly inside or wholly outside the annihilators,
    which is asserted on the masks of ``_double_coset_masks``."""
    ann = _annihilator_mask(ctx)
    classes = _classes_met(_double_coset_masks(ctx.group, ctx._hmask), ann)
    if classes is None:
        raise InternalInvariantError("annihilator set is not closed under the double coset action")
    return ann, classes


def _classes_met(cosets: Tuple[int, ...], ann: int) -> Optional[int]:
    """How many of the double-coset masks ann meets, or None if it meets one
    only in part."""
    classes = 0
    for cls in cosets:
        meet = ann & cls
        if meet:
            if meet != cls:
                return None
            classes += 1
    return classes


def classify_annihilators(ctx: AlgebraContext) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """Two-sided annihilators of J split into (trivial, nontrivial).

    Trivial means the element also lies in N_1.  Both sets are closed under
    the double coset action h1 s h2: each double coset H s H lies wholly
    inside or wholly outside the annihilators, which is asserted.  The
    result is kept on the context; a raise is not, and comes back on every
    call.
    """
    if ctx._annihilators is not None:
        return ctx._annihilators
    ann, _ = _annihilator_classes(ctx)
    n1 = _n1_mask(ctx)
    ctx._annihilators = (
        frozenset(_members_of(ann & n1)),
        frozenset(_members_of(ann & ~n1)),
    )
    return ctx._annihilators


@dataclass(frozen=True)
class DescendingChain:
    """A weakly descending sequence I_1 >= .. >= I_k of ideals, k >= 2.

    The constructor is the one way to build a chain, and it checks every
    link: each ideal belongs to the context of the first and lies inside the
    one before it.  ``masks`` holds the ideals' masks, the chain's key in
    the per-context chain cache.
    """

    ideals: Tuple[MonomialIdeal, ...]
    masks: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ideals = self.ideals
        if len(ideals) < 2:
            raise ValidationError("chain-too-short: need at least two ideals")
        ctx = ideals[0].ctx
        for ideal in ideals[1:]:
            if ideal.ctx is not ctx and ideal.ctx != ctx:
                raise ValidationError("chain mixes ideals of different contexts")
        for i in range(1, len(ideals)):
            if ideals[i].mask & ~ideals[i - 1].mask:
                raise ValidationError(
                    f"chain not descending: ideal {i + 1} is not contained in ideal {i}"
                )
        object.__setattr__(self, "masks", tuple([ideal.mask for ideal in ideals]))

    @property
    def ctx(self) -> AlgebraContext:
        return self.ideals[0].ctx

    def __len__(self) -> int:
        return len(self.ideals)

    def __repr__(self) -> str:
        parts = ", ".join(str(list(i.sorted_members)) for i in self.ideals)
        return f"DescendingChain({parts})"


def chain_levels(chain: DescendingChain) -> Dict[int, int]:
    """Levels for every element of G*, with 0 meaning outside I_1.

    The extended convention I_0 = J, I_{k+1} = 0 used by the lift
    construction; elements of the inertial group are not in the map.
    """
    levels = {s: 0 for s in chain.ctx.gstar}
    for a, ideal in enumerate(chain.ideals, start=1):
        for s in _members_of(ideal.mask):
            levels[s] = a
    return levels
