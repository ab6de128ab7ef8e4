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
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .cocycles import Cocycle, inertial_group, waterhouse
from .errors import InternalInvariantError, ValidationError
from .groups import Group, Subgroup, double_cosets

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
    "chain_level",
    "chain_levels",
]


class AlgebraContext:
    """A cocycle together with its inertial group and non-inertial set G*.

    G* must be nonempty: with G* empty the algebra is simple and none of the
    ideal constructions apply.  The per-context caches are declared here.
    This module fills the lattice and principal-ideal caches; the chain and
    quotient caches and the validated-table memo are filled by the
    decomposition module.
    """

    def __init__(self, cocycle: Cocycle):
        self.group: Group = cocycle.group
        self.cocycle: Cocycle = cocycle
        self.inertial: Subgroup = inertial_group(cocycle)
        n = self.group.order
        self._hmask = _mask_of(self.inertial.members)
        self._gstar_mask = ((1 << n) - 1) & ~self._hmask
        self.gstar: Tuple[int, ...] = _members_of(self._gstar_mask)
        if not self.gstar:
            raise ValidationError(
                "the inertial group is all of G; no non-inertial elements exist"
            )
        self._masks = cocycle.masks
        self._table = self.group.table
        # _links[s]: the products s t with f(s,t) = 1 and t s with f(t,s) = 1,
        # everything one basis multiplication reaches from s
        links = [0] * n
        for s, row in enumerate(self._masks):
            products = self._table[s]
            for t in _members_of(row):
                bit = 1 << products[t]
                links[s] |= bit
                links[t] |= bit
        self._links: Tuple[int, ...] = tuple(links)
        self._lattice_cache: Dict[Tuple[str, int, int], MonomialIdeal] = {}
        self._chain_cache: Dict[Tuple[int, ...], Cocycle] = {}
        self._mod_cache: Dict[int, Cocycle] = {}
        # row masks -> the Cocycle that passed validation and kept H here
        self._valid_tables: Dict[Tuple[int, ...], Cocycle] = {}
        self._principal_cache: Optional[Dict[int, MonomialIdeal]] = None
        # N_1 by its defining property, computed once by _n1_mask
        self._n1_mask: Optional[int] = None
        # the Waterhouse idempotent of H, read once by _waterhouse_of
        self._waterhouse: Optional[Cocycle] = None
        # set by cocycle_from_chain once no product of two G* elements with
        # f = 1 lands in H; a failing verdict is never stored
        self._gstar_products_avoid_h: bool = False

    def f(self, s: int, t: int) -> int:
        return self._masks[s] >> t & 1

    def mul(self, s: int, t: int) -> int:
        return self._table[s][t]

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
    links = ctx._links
    return not any(links[s] & ~mask for s in _members_of(mask))


@dataclass(frozen=True)
class MonomialIdeal:
    """A two-sided monomial ideal, stored as the bitmask of its subset of G*;
    ``from_members`` builds one from a member set, and ``members`` and
    ``sorted_members`` are views of the mask."""

    ctx: AlgebraContext
    mask: int

    def __post_init__(self) -> None:
        """The one checked path: the mask lies in G* and is closed under basis
        multiplication.  A negative mask is refused before it is unpacked."""
        ctx, mask = self.ctx, self.mask
        if mask < 0:
            raise ValidationError(f"not-in-gstar: negative mask {mask}")
        if mask & ~ctx._gstar_mask:
            raise ValidationError(f"not-in-gstar: {list(_members_of(mask & ~ctx._gstar_mask))}")
        if not _is_closed_mask(ctx, mask):
            raise ValidationError(
                f"set {list(_members_of(mask))} is not closed under basis multiplication"
            )

    @classmethod
    def from_members(cls, ctx: AlgebraContext, members: Iterable[int]) -> "MonomialIdeal":
        """The ideal with these members; each must be a group index."""
        members = set(members)
        bad = sorted(s for s in members if not 0 <= s < ctx.group.order)
        if bad:
            raise ValidationError(f"not-in-gstar: {bad}")
        return cls(ctx=ctx, mask=_mask_of(members))

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


def _principal_ideals(ctx: AlgebraContext) -> Dict[int, MonomialIdeal]:
    """The principal ideal of every element of G*, built once per context."""
    if ctx._principal_cache is None:
        ctx._principal_cache = {s: principal_ideal(ctx, s) for s in ctx.gstar}
    return ctx._principal_cache


def ideal_closure(ctx: AlgebraContext, seed: Iterable[int]) -> MonomialIdeal:
    """The smallest ideal containing every seed element; empty seed gives 0."""
    seed = set(seed)
    for s in seed:
        if not 0 <= s < ctx.group.order or ctx.in_inertial(s):
            raise ValidationError(f"not-in-gstar: {s}")
    return _ideal_from_mask(ctx, _closure_mask(ctx, _mask_of(seed)))


def _product_mask(ctx: AlgebraContext, a: int, b: int) -> int:
    """The products s t with s in a, t in b and f(s,t) = 1."""
    g = ctx.group
    masks = ctx._masks
    out = 0
    for s in _members_of(a):
        out |= g.left_preimage(g.inverse[s], masks[s] & b)  # s * (row s within b)
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
    cache = a.ctx._lattice_cache
    key = (kind, a.mask, b.mask)
    hit = cache.get(key)
    if hit is not None:
        return hit
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
    result = _ideal_from_mask(a.ctx, mask)
    cache[key] = result
    return result


def radical_powers(ctx: AlgebraContext) -> Tuple[List[MonomialIdeal], int]:
    """All nonzero powers [J, J^2, .., J^t] and the nilpotency t + 1."""
    powers_masks = [ctx._gstar_mask]
    while True:
        nxt = _product_mask(ctx, powers_masks[-1], ctx._gstar_mask)
        if nxt == 0:
            break
        if nxt == powers_masks[-1]:
            raise InternalInvariantError("radical is not nilpotent")
        powers_masks.append(nxt)
    powers = [_ideal_from_mask(ctx, m) for m in powers_masks]
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


def nk_partition(ctx: AlgebraContext) -> List[FrozenSet[int]]:
    """The sets N_k = J^k \\ J^{k+1}; their union is G*.

    N_1 is computed both from the radical filtration and from the
    no-factorization characterization, and the two must agree; the latter
    is computed once per context and shared with classify_annihilators.
    """
    powers, _ = radical_powers(ctx)
    masks = [p.mask for p in powers] + [0]
    layers = [masks[i] & ~masks[i + 1] for i in range(len(powers))]
    if layers[0] != _n1_mask(ctx):
        raise InternalInvariantError("the two N_1 characterizations disagree")
    union = 0
    for m in layers:
        union |= m
    if union != ctx._gstar_mask:
        raise InternalInvariantError("N_k layers do not cover G*")
    return [frozenset(_members_of(m)) for m in layers]


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


def classify_annihilators(ctx: AlgebraContext) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """Two-sided annihilators of J split into (trivial, nontrivial).

    Trivial means the element also lies in N_1.  Both sets are closed under
    the double coset action h1 s h2: each double coset H s H lies wholly
    inside or wholly outside the annihilators, which is asserted.
    """
    ann = _annihilator_mask(ctx)
    n1 = _n1_mask(ctx)
    for cls in double_cosets(ctx.group, ctx.inertial):
        inside = ann >> cls[0] & 1
        for s in cls:
            if ann >> s & 1 != inside:
                raise InternalInvariantError(
                    "annihilator set is not closed under the double coset action"
                )
    trivial = ann & n1
    return (
        frozenset(_members_of(trivial)),
        frozenset(_members_of(ann & ~n1)),
    )


@dataclass(frozen=True)
class DescendingChain:
    """A weakly descending sequence I_1 >= .. >= I_k of ideals, k >= 2.

    The constructor checks every link: each ideal belongs to the context of
    the first and lies inside the one before it.  ``extend`` appends one
    ideal and checks only the new link, so a chain grown from its parent
    has each link checked once.
    """

    ideals: Tuple[MonomialIdeal, ...]
    masks: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.ideals) < 2:
            raise ValidationError("chain-too-short: need at least two ideals")
        ctx = self.ideals[0].ctx
        for ideal in self.ideals[1:]:
            _check_context(ctx, ideal)
        for i in range(1, len(self.ideals)):
            _check_link(self.ideals[i - 1], self.ideals[i], i)
        object.__setattr__(self, "masks", tuple([ideal.mask for ideal in self.ideals]))

    def extend(self, ideal: MonomialIdeal) -> "DescendingChain":
        """This chain with ideal appended; only the new link is checked."""
        _check_context(self.ideals[0].ctx, ideal)
        _check_link(self.ideals[-1], ideal, len(self.ideals))
        chain = object.__new__(DescendingChain)
        object.__setattr__(chain, "ideals", self.ideals + (ideal,))
        object.__setattr__(chain, "masks", self.masks + (ideal.mask,))
        return chain

    @property
    def ctx(self) -> AlgebraContext:
        return self.ideals[0].ctx

    def __len__(self) -> int:
        return len(self.ideals)

    def __repr__(self) -> str:
        parts = ", ".join(str(list(i.sorted_members)) for i in self.ideals)
        return f"DescendingChain({parts})"


def _check_context(ctx: AlgebraContext, ideal: MonomialIdeal) -> None:
    if ideal.ctx is not ctx and ideal.ctx != ctx:
        raise ValidationError("chain mixes ideals of different contexts")


def _check_link(outer: MonomialIdeal, inner: MonomialIdeal, i: int) -> None:
    """inner, ideal i + 1 of a chain, must lie inside outer, ideal i."""
    if inner.mask & ~outer.mask:
        raise ValidationError(
            f"chain not descending: ideal {i + 1} is not contained in ideal {i}"
        )


def chain_level(chain: DescendingChain, s: int) -> int:
    """The largest a with s in I_a.  Undefined outside I_1."""
    if s not in chain.ideals[0]:
        raise ValidationError(f"undefined-level: {s} is not in the first ideal")
    level = 1
    for a, ideal in enumerate(chain.ideals[1:], start=2):
        if s in ideal:
            level = a
    return level


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
