"""Subadditive maps into ordered monoids and the cocycles they induce.

A map r with r(1) = 0 and r(st) <= r(s) + r(t) (written additively; the
monoid interface is abstract) induces the cocycle that records where
subadditivity is tight.  Chains of ideals lift r to tuples ordered
lexicographically, grading it by chain depth, and padding a chain with
radical powers turns the chain cocycle itself into an induced cocycle.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple, Union

from .algebra import (
    AlgebraContext,
    DescendingChain,
    MonomialIdeal,
    chain_levels,
    ideal_lattice_op,
)
from .cocycles import (
    BinaryTable,
    Cocycle,
    CocycleViolation,
    EQUAL,
    LESS,
    _closing_schedule,
    _depth_first,
    _filtered,
    compare,
    inertial_group,
    validate_cocycle,
)
from .decomposition import cocycle_from_chain
from .errors import InternalInvariantError, ValidationError
from .groups import Group, Subgroup

__all__ = [
    "OrderedMonoid",
    "AdditiveNaturals",
    "LexProduct",
    "SemilinearMap",
    "RViolation",
    "validate_r",
    "as_semilinear",
    "cocycle_from_r",
    "chain_lift",
    "PaddedLift",
    "padded_lift",
    "ExhaustionCertificate",
    "search_realization",
    "random_semilinear",
]


class OrderedMonoid(ABC):
    """A totally ordered monoid whose neutral element is the minimum.

    The order must be strictly translation compatible: x < y implies
    xz < yz and zx < zy.  Nothing here enforces cancellativity; the axioms
    above are the only ones relied on, and ``cocycle_from_r`` reports a
    monoid that breaks the last one on a map's values.
    """

    @property
    @abstractmethod
    def neutral(self):
        ...

    @abstractmethod
    def combine(self, x, y):
        ...

    @abstractmethod
    def lt(self, x, y) -> bool:
        ...

    @abstractmethod
    def contains(self, x) -> bool:
        ...

    def le(self, x, y) -> bool:
        return x == y or self.lt(x, y)


class AdditiveNaturals(OrderedMonoid):
    """Nonnegative integers under addition, the monoid of all examples."""

    @property
    def neutral(self) -> int:
        return 0

    def combine(self, x: int, y: int) -> int:
        return x + y

    def lt(self, x: int, y: int) -> bool:
        return x < y

    def contains(self, x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool) and x >= 0

    def __eq__(self, other) -> bool:
        return isinstance(other, AdditiveNaturals)

    def __hash__(self) -> int:
        return hash(AdditiveNaturals)

    def __repr__(self) -> str:
        return "AdditiveNaturals()"


class LexProduct(OrderedMonoid):
    """Componentwise product of monoids ordered lexicographically."""

    def __init__(self, factors: Sequence[OrderedMonoid]):
        if not factors:
            raise ValidationError("a lexicographic product needs at least one factor")
        self.factors = tuple(factors)

    @property
    def neutral(self) -> tuple:
        return tuple(m.neutral for m in self.factors)

    def combine(self, x: tuple, y: tuple) -> tuple:
        return tuple(m.combine(a, b) for m, a, b in zip(self.factors, x, y))

    def lt(self, x: tuple, y: tuple) -> bool:
        for m, a, b in zip(self.factors, x, y):
            if a != b:
                return m.lt(a, b)
        return False

    def contains(self, x) -> bool:
        return (
            isinstance(x, tuple)
            and len(x) == len(self.factors)
            and all(m.contains(a) for m, a in zip(self.factors, x))
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, LexProduct) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash((LexProduct, self.factors))

    def __repr__(self) -> str:
        return f"LexProduct({len(self.factors)} factors)"


@dataclass(frozen=True)
class RViolation:
    kind: str  # "length", "element", "neutral", or "subadditive"
    where: tuple
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} violation at {self.where}: {self.detail}"


@dataclass(frozen=True)
class SemilinearMap:
    """A validated subadditive map; construct through validate_r."""

    group: Group
    monoid: OrderedMonoid
    values: tuple

    def __call__(self, s: int):
        return self.values[s]

    @cached_property
    def m_subgroup(self) -> Subgroup:
        """The neutral fiber as a Subgroup, built and validated on the first
        read; a fiber that is no subgroup raises on every read."""
        neutral = self.monoid.neutral
        members = tuple(
            s for s in range(self.group.order) if self.values[s] == neutral
        )
        return Subgroup(group=self.group, members=members)

    def __repr__(self) -> str:
        return f"SemilinearMap({list(self.values)})"


def validate_r(
    group: Group, monoid: OrderedMonoid, values: Sequence
) -> Union[SemilinearMap, RViolation]:
    """Check a value table against the subadditive-map axioms.

    Returns the first violation found: wrong length, a value outside the
    monoid, a non-neutral value at the identity, or the first pair where
    subadditivity fails (row-major).
    """
    values = tuple(values)
    if len(values) != group.order:
        return RViolation(
            kind="length",
            where=(len(values),),
            detail=f"expected {group.order} values",
        )
    for s, v in enumerate(values):
        if not monoid.contains(v):
            return RViolation(
                kind="element", where=(s,), detail=f"{v!r} is not a monoid element"
            )
    if values[0] != monoid.neutral:
        return RViolation(
            kind="neutral",
            where=(0,),
            detail=f"identity maps to {values[0]!r}, not {monoid.neutral!r}",
        )
    for s in range(group.order):
        for t in range(group.order):
            bound = monoid.combine(values[s], values[t])
            if monoid.lt(bound, values[group.mul(s, t)]):
                return RViolation(
                    kind="subadditive",
                    where=(s, t),
                    detail=f"r({group.mul(s, t)}) exceeds r({s}) + r({t})",
                )
    result = SemilinearMap(group=group, monoid=monoid, values=values)
    try:
        result.m_subgroup
    except ValidationError as exc:
        raise InternalInvariantError(
            f"neutral fiber of a subadditive map is not a subgroup: {exc}"
        ) from exc
    return result


def as_semilinear(group: Group, monoid: OrderedMonoid, values: Sequence) -> SemilinearMap:
    result = validate_r(group, monoid, values)
    if isinstance(result, RViolation):
        raise ValidationError(str(result))
    return result


def _require_strict_translation(monoid: OrderedMonoid, values: Sequence) -> None:
    """Raise ValidationError when the monoid breaks strict translation
    compatibility on the values: x < y but not xz < yz, or not zx < zy, for
    x and y values or products of two, and z a value.  The proof that an
    induced table is a cocycle with the neutral fiber as inertial group
    uses the axiom on these elements only."""
    combine, lt = monoid.combine, monoid.lt
    elements: List = []
    for x in itertools.chain(values, (combine(a, b) for a in values for b in values)):
        if x not in elements:
            elements.append(x)
    for x, y, z in itertools.product(elements, elements, values):
        if lt(x, y):
            for left, right in ((combine(x, z), combine(y, z)), (combine(z, x), combine(z, y))):
                if not lt(left, right):
                    raise ValidationError(
                        f"the monoid is not strictly translation compatible: {x!r} < {y!r}, "
                        f"but not {left!r} < {right!r} after combining with {z!r}"
                    )


def cocycle_from_r(r: SemilinearMap) -> Cocycle:
    """The induced cocycle: 1 exactly where subadditivity is an equality.

    A table that fails validation, or whose inertial group is not the
    neutral fiber, raises ValidationError when the monoid breaks strict
    translation compatibility on the map's values (as (N, max) or a
    saturating addition does), and InternalInvariantError otherwise."""
    n = r.group.order
    v = r.values
    combine = r.monoid.combine
    masks = tuple(
        sum(1 << t for t in range(n) if v[r.group.mul(s, t)] == combine(v[s], v[t]))
        for s in range(n)
    )
    result = validate_cocycle(BinaryTable(group=r.group, masks=masks))
    if isinstance(result, CocycleViolation):
        problem = f"induced table is not a cocycle: {result}"
    elif inertial_group(result).members != r.m_subgroup.members:
        problem = "inertial group differs from the neutral fiber"
    else:
        return result
    _require_strict_translation(r.monoid, v)
    raise InternalInvariantError(problem)


def chain_lift(r: SemilinearMap, chain: DescendingChain) -> SemilinearMap:
    """Grade r by chain depth into a lexicographic power of its monoid.

    An element at level a of the chain (0 outside it) maps to r repeated
    k+1-a times followed by a neutral entries.  The neutral fiber is
    unchanged, and the induced cocycle sits between the chain cocycle and
    the original: (f_r)_chain <= f_lift <= f_r, with equality on the left
    when the chain runs from J all the way down to the zero ideal.
    """
    return _chain_lift(r, chain)[0]


def _chain_lift(r: SemilinearMap, chain: DescendingChain) -> Tuple[SemilinearMap, Cocycle]:
    """``chain_lift``'s lift and the chain cocycle it was checked against."""
    ctx = chain.ctx
    if ctx.group != r.group or cocycle_from_r(r).masks != ctx.cocycle.masks:
        raise ValidationError("chain context does not match the induced cocycle of r")
    k = len(chain)
    levels = chain_levels(chain)
    target = LexProduct((r.monoid,) * (k + 1))
    neutral = r.monoid.neutral
    values = []
    for s in range(r.group.order):
        level = levels.get(s, 0)
        values.append((r.values[s],) * (k + 1 - level) + (neutral,) * level)
    lifted = validate_r(r.group, target, tuple(values))
    if isinstance(lifted, RViolation):
        raise InternalInvariantError(f"lift is not subadditive: {lifted}")
    if lifted.m_subgroup.members != r.m_subgroup.members:
        raise InternalInvariantError("lift changed the neutral fiber")
    lower = cocycle_from_chain(ctx, chain)
    middle = cocycle_from_r(lifted)
    if compare(lower, middle) not in (LESS, EQUAL):
        raise InternalInvariantError("chain cocycle is not below the lifted cocycle")
    if compare(middle, ctx.cocycle) not in (LESS, EQUAL):
        raise InternalInvariantError("lifted cocycle is not below the original")
    full_span = (
        chain.ideals[0].mask == ctx._gstar_mask and chain.ideals[-1].mask == 0
    )
    if full_span and lower.masks != middle.masks:
        raise InternalInvariantError(
            "full-span chain lift does not reproduce the chain cocycle"
        )
    return lifted, lower


@dataclass(frozen=True)
class PaddedLift:
    chain: DescendingChain
    lifted: SemilinearMap
    certified: bool


def padded_lift(r: SemilinearMap, chain: DescendingChain) -> PaddedLift:
    """Pad a chain with radical powers so its cocycle is induced by a lift.

    The prefix inserts J and the sums J^(2^i) + I_1 until the power falls
    inside I_1; the suffix squares I_k down to the zero ideal.  Certified
    means the lift of the padded chain induces exactly the chain cocycle of
    the original chain.  r is matched to the chain's context as in chain_lift.
    """
    ctx = chain.ctx
    radical = MonomialIdeal(ctx=ctx, mask=ctx._gstar_mask)
    zero = MonomialIdeal(ctx=ctx, mask=0)
    first, last = chain.ideals[0], chain.ideals[-1]

    prefix: List[MonomialIdeal] = []
    power = radical
    while not power <= first:
        prefix.append(
            radical if not prefix else ideal_lattice_op("sum", power, first)
        )
        power = ideal_lattice_op("product", power, power)

    suffix: List[MonomialIdeal] = []
    power = last
    while power.mask:
        power = ideal_lattice_op("product", power, power)
        if power.mask:
            suffix.append(power)
    if last.mask:
        suffix.append(zero)

    padded = DescendingChain(ideals=tuple(prefix) + chain.ideals + tuple(suffix))
    lifted, lower = _chain_lift(r, padded)
    # padded runs from J to 0, so _chain_lift checked that lifted induces lower
    certified = cocycle_from_chain(ctx, chain).packed == lower.packed
    return PaddedLift(chain=padded, lifted=lifted, certified=certified)


@dataclass(frozen=True)
class ExhaustionCertificate:
    """Witness that no subadditive map with values up to bound induces f.

    With ``truncated`` set, the node budget ran out first: no map was found
    within ``nodes_explored`` nodes, and nothing is ruled out.
    """

    bound: int
    nodes_explored: int
    truncated: bool = False


class _NodeBudgetSpent(Exception):
    """Raised inside the search when a node past the budget would be tried."""


def search_realization(
    ctx: AlgebraContext, bound: int, max_nodes: Optional[int] = None
) -> Union[SemilinearMap, ExhaustionCertificate]:
    """Find the least natural-valued map inducing f, or rule every one out.

    Runs the depth-first core the census enumeration uses, through
    ``_filtered``.  The inertial group comes first, pinned to 0, then G* in
    index order with values in [1, bound], so the first completion is the
    lexicographically least map.  Each value tried is checked by one call of
    a per-step predicate against every pair constraint it completes:
    r(st) = r(s) + r(t) where f is 1, r(st) < r(s) + r(t) where f is 0.
    The predicate also counts the values tried on G*, the nodes explored.
    The witness is re-verified through cocycle_from_r before being returned.
    With max_nodes, the search stops before its node max_nodes + 1 and
    returns a truncated certificate.
    """
    if bound < 1:
        raise ValidationError("bound must be at least 1")
    if max_nodes is not None and max_nodes < 1:
        raise ValidationError("max_nodes must be at least 1")
    n = ctx.group.order
    order = ctx.inertial.members + ctx.gstar
    position = {s: i for i, s in enumerate(order)}
    # tight[i][j]: f is 1 at the elements in positions i and j
    tight = [[ctx.f(s, t) for t in order] for s in order]
    constraints = [
        (position[s], position[t], position[ctx.mul(s, t)]) for s in range(n) for t in range(n)
    ]

    pinned = len(ctx.inertial.members)
    # each pinned position is set once, first; the count numbers the nodes
    nodes = itertools.count(1 - pinned)
    limit = float("inf") if max_nodes is None else max_nodes

    def holds(cs: Sequence[Tuple[int, int, int]], vals: List[int]) -> bool:
        if next(nodes) > limit:
            raise _NodeBudgetSpent
        for s, t, p in cs:
            total = vals[s] + vals[t]
            if vals[p] != total if tight[s][t] else vals[p] >= total:
                return False
        return True

    domains = [(0,)] * pinned + [range(1, bound + 1)] * len(ctx.gstar)
    search = _depth_first(_filtered(domains, _closing_schedule(n, constraints), holds))
    try:
        completion = next(search, None)
    except _NodeBudgetSpent:
        return ExhaustionCertificate(bound=bound, nodes_explored=max_nodes, truncated=True)
    if completion is None:
        return ExhaustionCertificate(bound=bound, nodes_explored=next(nodes) - 1)
    witness = [0] * n
    for s, v in zip(order, completion):
        witness[s] = v
    found = as_semilinear(ctx.group, AdditiveNaturals(), witness)
    if cocycle_from_r(found).masks != ctx.cocycle.masks:
        raise InternalInvariantError("search witness does not induce the cocycle")
    return found


def random_semilinear(group: Group, rng, cap: int = 12) -> SemilinearMap:
    """A random valid map over the naturals, by min-plus closing a draw."""
    values = [0] + [rng.randint(0, cap) for _ in range(group.order - 1)]
    changed = True
    while changed:
        changed = False
        for s, t in itertools.product(range(group.order), repeat=2):
            bound = values[s] + values[t]
            p = group.mul(s, t)
            if values[p] > bound:
                values[p] = bound
                changed = True
    return as_semilinear(group, AdditiveNaturals(), tuple(values))
