"""Idempotent normalized weak 2-cocycles and the binary tables around them.

A cocycle is an n x n table over {0, 1} with value 1 whenever either argument
is the identity, satisfying f(s,t) * f(st,r) = f(t,r) * f(s,tr) for all
triples.  Because the values are idempotent the Galois twist collapses and the
checker can use plain products.

A table is stored as n row masks: bit t of ``masks[s]`` is f(s,t), the same
encoding as ``MonomialIdeal.mask``.  The 0/1 rows ``values``, the strings
``rows()`` and the one-integer ``packed`` form, the layout of ``Group.cells``,
are views derived on access; ``from_rows`` and ``from_packed`` are the entry
points.  On masks the cocycle identity at (s, t) is one equality over every
r at once, and ``vee``, ``pointwise_product`` and ``compare`` are |, & and
a subset test on ``packed``.  ``vee`` and ``pointwise_product`` return
unvalidated BinaryTable objects on purpose: the set of cocycles is not
closed under either operation, and callers must revalidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from operator import and_, lshift, or_
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import InternalInvariantError, ValidationError
from .groups import Group, Subgroup, subgroup

__all__ = [
    "BinaryTable",
    "Cocycle",
    "CocycleViolation",
    "validate_cocycle",
    "as_cocycle",
    "inertial_group",
    "waterhouse",
    "compare",
    "vee",
    "pointwise_product",
    "EQUAL",
    "LESS",
    "GREATER",
    "INCOMPARABLE",
]

EQUAL = "equal"
LESS = "less"
GREATER = "greater"
INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class BinaryTable:
    """An n x n table over {0, 1} with no cocycle requirement.

    Bit t of ``masks[s]`` is the entry at (s, t), row = first argument.
    """

    group: Group
    masks: Tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.group.order
        if len(self.masks) != n or min(self.masks) < 0 or max(self.masks) >> n:
            raise ValidationError(f"shape-error: table is not {n} x {n}")

    @classmethod
    def from_rows(cls, group: Group, rows: Sequence[Sequence[int]]) -> "BinaryTable":
        """A table from n rows of n entries, each 0 or 1."""
        rows = [tuple(row) for row in rows]
        n = group.order
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValidationError(f"shape-error: table is not {n} x {n}")
        if any(v not in (0, 1) for row in rows for v in row):
            raise ValidationError("table entries must be 0 or 1")
        return cls(
            group=group,
            masks=tuple(sum(1 << t for t, v in enumerate(row) if v) for row in rows),
        )

    @classmethod
    def from_packed(cls, group: Group, packed: int) -> "BinaryTable":
        """A table from its ``packed`` form."""
        n = group.order
        if packed < 0 or packed >> n * n:
            raise ValidationError(f"shape-error: table is not {n} x {n}")
        table = cls(group=group, masks=_unpack_rows(packed, n))
        table.__dict__["packed"] = packed  # the view, as its first read stores it
        return table

    @cached_property
    def packed(self) -> int:
        """The table as one integer, row s at bits s*n .. s*n + n - 1; derived
        on first read and not a field, so equality, hash and repr ignore it."""
        return _pack_rows(self.masks, self.group.order)

    @property
    def values(self) -> Tuple[Tuple[int, ...], ...]:
        """The table as 0/1 rows, row = first argument."""
        columns = range(self.group.order)
        return tuple([tuple([m >> t & 1 for t in columns]) for m in self.masks])

    def rows(self) -> Tuple[str, ...]:
        """The table as 0/1 character rows, row = first argument."""
        width = f"0{self.group.order}b"
        return tuple(format(m, width)[::-1] for m in self.masks)


@dataclass(frozen=True)
class Cocycle(BinaryTable):
    """A BinaryTable that passed validate_cocycle, or the census block check.

    Construct through :func:`validate_cocycle`; the census builds each of
    its cocycles from a block that ``_tables_valid`` passed, the same
    verdict.  The constructor itself only re-checks shape, so code that
    fabricates instances directly (the sweep's mutation control does) owns
    the consequences.
    """


@dataclass(frozen=True)
class CocycleViolation:
    """First point where a table fails the cocycle requirements."""

    kind: str  # "normalization" or "identity"
    where: Tuple[int, ...]  # (s,) for normalization, (s, t, r) for identity
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} violated at {self.where}: {self.detail}"


def _lowest_bit(mask: int) -> int:
    """Index of the least set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def _pack_rows(masks: Sequence[int], n: int) -> int:
    """n row masks as one packed table, row s at bits s*n .. s*n + n - 1."""
    return sum(map(lshift, masks, range(0, n * n, n)))


def _unpack_rows(packed: int, n: int) -> Tuple[int, ...]:
    """The n row masks of a packed table."""
    row = (1 << n) - 1
    return tuple([packed >> k & row for k in range(0, n * n, n)])


def _coerce(table: Union[BinaryTable, Sequence[Sequence[int]]], group: Optional[Group]) -> BinaryTable:
    if isinstance(table, BinaryTable):
        return table
    if group is None:
        raise ValidationError("raw rows need an explicit group")
    return BinaryTable.from_rows(group, table)


def validate_cocycle(
    table: Union[BinaryTable, Sequence[Sequence[int]]],
    group: Optional[Group] = None,
) -> Union[Cocycle, CocycleViolation]:
    """Return a Cocycle, or a report naming the first violated requirement.

    Normalization is checked first, then the cocycle identity over all
    triples in row-major (s, t, r) order, so the reported violation is
    deterministic.  For each (s, t) the identity over all r is one mask
    equality: f(s,t) * masks[st] against masks[t] & {r : tr in masks[s]}.
    Once normalization holds, every triple with an identity argument
    satisfies it, so the least differing bit names the first failing r.
    """
    t = _coerce(table, group)
    g = t.group
    n = g.order
    masks = t.masks
    row0 = masks[0]
    for s in range(n):
        if not (row0 >> s & 1 and masks[s] & 1):
            return CocycleViolation(
                kind="normalization",
                where=(s,),
                detail=f"f(0,{s}) = {row0 >> s & 1}, f({s},0) = {masks[s] & 1}, both must be 1",
            )
    mul = g.table
    preimages = g._preimages
    for s in range(1, n):
        m_s = masks[s]
        row_mul = mul[s]
        for tt in range(1, n):
            pre = preimages[tt].get(m_s)  # left_preimage's memo, read inline: hot loop
            if pre is None:
                pre = g.left_preimage(tt, m_s)
            rhs = masks[tt] & pre
            lhs = masks[row_mul[tt]] if m_s >> tt & 1 else 0
            if lhs != rhs:
                r = _lowest_bit(lhs ^ rhs)
                return CocycleViolation(
                    kind="identity",
                    where=(s, tt, r),
                    detail=(
                        f"f({s},{tt})*f({row_mul[tt]},{r}) = {lhs >> r & 1} but "
                        f"f({tt},{r})*f({s},{mul[tt][r]}) = {rhs >> r & 1}"
                    ),
                )
    return Cocycle(group=g, masks=masks)


_BLOCK_TABLES = 1024  # the most tables one ``_tables_valid`` call checks


def _table_stride(n: int) -> int:
    """Bits per table in a block: n*n rounded up to whole bytes, so that a
    block is the bytes of its tables joined."""
    return -(-n * n // 8) * 8


def _side_by_side(tables: Sequence[int], width: int) -> int:
    """The packed tables as one integer, table i at bits i*width .. i*width +
    width - 1: the bytes of the tables joined."""
    return int.from_bytes(b"".join([p.to_bytes(width // 8, "little") for p in tables]), "little")


@lru_cache(maxsize=16)
def _block_patterns(n: int) -> Tuple[int, int, int, int]:
    """The patterns ``_tables_valid`` reads for order n: (the pinned row 0
    and column 0, column 0 of one table, row 0 and column 0), all but the
    second laid over _BLOCK_TABLES tables, each by one product with the
    table replicator."""
    width = _table_stride(n)
    row = (1 << n) - 1
    column = ((1 << n * n) - 1) // row  # bit 0 of each row of one table
    every = ((1 << _BLOCK_TABLES * width) - 1) // ((1 << width) - 1)  # bit 0 of each table
    return every * (row | column), column, every * row, every * column


def _tables_valid(group: Group, tables: Sequence[int]) -> bool:
    """Whether every packed n x n table of tables, at most _BLOCK_TABLES of
    them, is a cocycle: what validate_cocycle decides for each, decided for
    all at once on one integer that lays them side by side (bit-slicing:
    Biham, "A fast new DES implementation in software", FSE 1997).

    Normalization is one mask test.  For each t in 1..n-1 the identity
    f(s,t) f(st,r) = f(t,r) f(s,tr) over every s and r of every table is one
    equality of four planes: column t spread across each row (one product),
    the rows permuted by s -> st, row t copied to every row (one product)
    and the columns permuted by r -> tr; a row or column is moved by
    shifting it to row or column 0, masking, and shifting it into place.
    Once normalization holds, s = 0 and t = 0 add nothing, as in
    validate_cocycle.  A short block compares its normalization with the
    pinned pattern masked to its length; the other patterns need no mask,
    as x is 0 past its tables.
    """
    n = group.order
    pinned, column, row0, column0 = _block_patterns(n)
    width = _table_stride(n)
    x = _side_by_side(tables, width)
    if x & pinned != pinned & (1 << len(tables) * width) - 1:
        return False
    full = (1 << n) - 1
    mul = group.table
    for t in range(1, n):
        f_s_t = (x >> t & column0) * full
        f_t_r = (x >> t * n & row0) * column
        f_st_r = f_s_tr = 0
        for s in range(n):
            f_st_r |= (x >> mul[s][t] * n & row0) << s * n
        for r, tr in enumerate(mul[t]):
            f_s_tr |= (x >> tr & column0) << r
        if f_s_t & f_st_r != f_t_r & f_s_tr:
            return False
    return True


def as_cocycle(
    table: Union[BinaryTable, Sequence[Sequence[int]]],
    group: Optional[Group] = None,
) -> Cocycle:
    """validate_cocycle that raises instead of returning the report."""
    result = validate_cocycle(table, group)
    if isinstance(result, CocycleViolation):
        raise ValidationError(str(result))
    return result


def _inertial_mask(group: Group, masks: Sequence[int]) -> int:
    """The mask of H(f) = {s : f(s, s^-1) = 1} for the row masks of f: the
    one place that reads this rule."""
    hmask = 0
    for s, inverse in enumerate(group.inverse):
        hmask |= (masks[s] >> inverse & 1) << s
    return hmask


def inertial_group(f: Cocycle) -> Subgroup:
    """The subgroup H(f) of ``_inertial_mask``.

    For a valid cocycle this set is closed; if it is not, an invalid table
    slipped past validation and we fail loudly.
    """
    g = f.group
    hmask = _inertial_mask(g, f.masks)
    members = [s for s in range(g.order) if hmask >> s & 1]
    try:
        return subgroup(g, members)
    except ValidationError as exc:
        raise InternalInvariantError(
            f"inertial set {members} is not a subgroup: {exc}"
        ) from exc


def waterhouse(group: Group, sub: Subgroup) -> Cocycle:
    """The minimum cocycle with inertial group H: 1 iff an argument is in H.

    Built and validated on every call; an AlgebraContext keeps its own.
    """
    # rows: all ones for s in H, the mask h of H for s outside
    h = sum(1 << s for s in sub.members)
    full = (1 << group.order) - 1
    masks = tuple(full if h >> s & 1 else h for s in range(group.order))
    f = as_cocycle(BinaryTable(group=group, masks=masks))
    if _inertial_mask(group, masks) != h:
        raise InternalInvariantError("waterhouse table has the wrong inertial group")
    return f


def compare(f: BinaryTable, g: BinaryTable) -> str:
    """Support-containment order: equal, less, greater, or incomparable."""
    if f.group is not g.group and f.group != g.group:
        raise ValidationError("domain-mismatch: cocycles live on different groups")
    a, b = f.packed, g.packed
    if a == b:
        return EQUAL
    meet = a & b
    if meet == a:
        return LESS
    if meet == b:
        return GREATER
    return INCOMPARABLE


def _same_group(tables: Sequence[BinaryTable]) -> Group:
    if not tables:
        raise ValidationError("need at least one table")
    g = tables[0].group
    if any(t.group != g for t in tables):
        raise ValidationError("domain-mismatch: tables live on different groups")
    return g


def vee(tables: Sequence[BinaryTable]) -> BinaryTable:
    """Pointwise maximum.  The result is not validated."""
    g = _same_group(tables)
    return BinaryTable.from_packed(g, reduce(or_, [t.packed for t in tables]))


def pointwise_product(tables: Sequence[BinaryTable]) -> BinaryTable:
    """Entrywise product.  The result is not validated."""
    g = _same_group(tables)
    return BinaryTable.from_packed(g, reduce(and_, [t.packed for t in tables]))


Constraint = Tuple[int, ...]


def _closing_schedule(size: int, constraints: Iterable[Constraint]) -> List[List[Constraint]]:
    """Each constraint, a tuple of the positions it reads, filed under the
    last of them: the step of a depth-first search that closes it."""
    schedule: List[List[Constraint]] = [[] for _ in range(size)]
    for c in constraints:
        schedule[max(c)].append(c)
    return schedule


Choice = Callable[[List[int]], Iterable[int]]


def _filtered(
    domains: Sequence[Sequence[int]],
    schedule: Sequence[Sequence[Constraint]],
    holds: Callable[[Sequence[Constraint], List[int]], bool],
) -> List[Choice]:
    """The choices that try each value of domains[i] in order, setting
    vals[i] to it and keeping it when holds(schedule[i], vals) is true.

    Each choice is a generator: it tries the next value only after the core
    has searched below the last one it gave, so a predicate that counts or
    budgets the values tried sees them in search order.
    """

    def allowed(i: int, vals: List[int]) -> Iterator[int]:
        for v in domains[i]:
            vals[i] = v
            if holds(schedule[i], vals):
                yield v

    return [partial(allowed, i) for i in range(len(domains))]


def _depth_first(choices: Sequence[Choice]) -> Iterator[Tuple[int, ...]]:
    """Every assignment vals with each vals[i] among choices[i](vals),
    called with vals[:i] set, in the order the choices give their values.

    The positions are set in index order.  Reaching position i makes one
    call choices[i](vals), which returns the values allowed there given the
    prefix; the core descends only into those, so a prefix that no value
    extends is cut at once.  The census enumeration and the realization
    search both run on this core: the census's compiled choices decide both
    values of a cell in one call, and ``_filtered`` makes the choices of a
    per-step predicate, for the realization search, which counts and
    budgets the values tried in it, and for the census of smaller groups.
    """
    last = len(choices) - 1
    vals = [0] * (last + 1)
    left = [iter(choices[0](vals))] + [None] * last  # the values left to try at each position
    i = 0
    while i >= 0:
        for v in left[i]:
            vals[i] = v
            if i < last:
                i += 1
                left[i] = iter(choices[i](vals))
                break
            yield tuple(vals)
        else:
            i -= 1
