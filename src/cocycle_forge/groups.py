"""Finite groups as multiplication tables, subgroups, and double cosets.

Elements are the indices 0..n-1 and the identity is always index 0; every
file format and API in the package relies on that normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from .errors import ValidationError

__all__ = [
    "Group",
    "Subgroup",
    "make_cyclic",
    "make_dihedral",
    "group_from_table",
    "double_cosets",
]


@dataclass(frozen=True)
class Group:
    """A finite group given by its full multiplication table.

    ``table[a][b]`` is the index of the product a*b; ``inverse[a]`` the index
    of a^-1; ``names`` are display labels used by graph and CLI output.
    Subsets of the group are bitmasks: bit a stands for element a, and a set
    of cells (s, t) is packed in one integer, row s at bits s*n .. s*n + n - 1.
    The memos below hold plain data of the table alone, never a cocycle.
    """

    order: int
    table: Tuple[Tuple[int, ...], ...]
    # inverse is derived from table and names are cosmetic, so neither takes
    # part in equality: the same table under different labels is one group.
    inverse: Tuple[int, ...] = field(compare=False)
    names: Tuple[str, ...] = field(compare=False)
    # _preimages[t] memoises left_preimage(t, mask) for the masks seen so far
    _preimages: Tuple[Dict[int, int], ...] = field(init=False, repr=False, compare=False)
    # _cells memoises cells(mask) for the masks seen so far
    _cells: Dict[int, int] = field(init=False, repr=False, compare=False)
    # _escapes memoises escapes(mask) the same way
    _escapes: Dict[int, int] = field(init=False, repr=False, compare=False)
    # _double_coset_masks memoises _double_coset_masks by the subgroup's mask
    _double_coset_masks: Dict[int, Tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_preimages", tuple({} for _ in range(self.order)))
        object.__setattr__(self, "_cells", {})
        object.__setattr__(self, "_escapes", {})
        object.__setattr__(self, "_double_coset_masks", {})

    def left_preimage(self, t: int, mask: int) -> int:
        """The mask of the r with t*r in ``mask``.

        Left multiplication by t^-1 maps ``mask`` onto this set, so
        ``left_preimage(inverse[s], mask)`` is the image s*mask.
        """
        memo = self._preimages[t]
        pre = memo.get(mask)
        if pre is None:
            row = self.table[t]
            pre = 0
            for r in range(self.order):
                if mask >> row[r] & 1:
                    pre |= 1 << r
            memo[mask] = pre
        return pre

    def cells(self, mask: int) -> int:
        """The packed cells (s, t) with s, t and s*t all in ``mask``."""
        packed = self._cells.get(mask)
        if packed is None:
            n = self.order
            packed = self._cells[mask] = sum(
                (mask & self.left_preimage(s, mask)) << s * n for s in range(n) if mask >> s & 1
            )
        return packed

    def escapes(self, mask: int) -> int:
        """The packed cells (s, t) with s or t in ``mask`` and s*t outside
        it: row s holds the t of G when s is in mask, and of mask otherwise,
        that ``left_preimage(s, mask)`` lacks.  A 0/1 table closes mask
        under basis multiplication exactly when it is 0 on every one."""
        packed = self._escapes.get(mask)
        if packed is None:
            n = self.order
            full = (1 << n) - 1
            packed = self._escapes[mask] = sum(
                ((full if mask >> s & 1 else mask) & ~self.left_preimage(s, mask)) << s * n
                for s in range(n)
            )
        return packed

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def __repr__(self) -> str:
        return f"Group(order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``group`` stored as a sorted member tuple containing 0."""

    group: Group
    members: Tuple[int, ...]
    _member_set: FrozenSet[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen = frozenset(self.members)
        object.__setattr__(self, "_member_set", seen)
        if len(seen) != len(self.members) or tuple(sorted(seen)) != self.members:
            raise ValidationError("subgroup members must be a sorted duplicate-free tuple")
        if 0 not in seen:
            raise ValidationError("subgroup must contain the identity (index 0)")
        for a in self.members:
            if not 0 <= a < self.group.order:
                raise ValidationError(f"subgroup member {a} out of range")
        for a in self.members:
            if self.group.inverse[a] not in seen:
                raise ValidationError(f"subgroup not closed under inverse at {a}")
            for b in self.members:
                if self.group.table[a][b] not in seen:
                    raise ValidationError(f"subgroup not closed under product at ({a}, {b})")

    def __contains__(self, a: int) -> bool:
        return a in self._member_set

    def __repr__(self) -> str:
        return f"Subgroup({list(self.members)})"


def _validate_table(rows: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    n = len(rows)
    if n == 0:
        raise ValidationError("invalid-order: group must have at least one element")
    table = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValidationError(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise ValidationError(f"entry ({i}, {j}) = {v!r} is not an index in [0, {n})")
        table.append(tuple(row))
    full = set(range(n))
    for i in range(n):
        if set(table[i]) != full:
            raise ValidationError(f"row {i} is not a permutation of [0, {n})")
        if {table[j][i] for j in range(n)} != full:
            raise ValidationError(f"column {i} is not a permutation of [0, {n})")
    for s in range(n):
        if table[0][s] != s or table[s][0] != s:
            raise ValidationError(f"identity is not at index 0 (violated at {s})")
    for s in range(n):
        for t in range(n):
            st = table[s][t]
            row_st = table[st]
            row_t = table[t]
            for r in range(n):
                if row_st[r] != table[s][row_t[r]]:
                    raise ValidationError(
                        f"associativity fails at triple ({s}, {t}, {r})"
                    )
    return tuple(table)


def _inverses(table: Tuple[Tuple[int, ...], ...]) -> Tuple[int, ...]:
    n = len(table)
    inv = [0] * n
    for a in range(n):
        inv[a] = table[a].index(0)
        if table[inv[a]][a] != 0:
            raise ValidationError(f"element {a} has no two-sided inverse")
    return tuple(inv)


def group_from_table(
    rows: Sequence[Sequence[int]], names: Optional[Sequence[str]] = None
) -> Group:
    """Validate a square index matrix and wrap it as a Group."""
    table = _validate_table(rows)
    n = len(table)
    if names is None:
        names = tuple(str(i) for i in range(n))
    else:
        names = tuple(names)
        if len(names) != n:
            raise ValidationError(f"got {len(names)} names for {n} elements")
    return Group(order=n, table=table, inverse=_inverses(table), names=names)


def make_cyclic(n: int) -> Group:
    """The cyclic group Z/nZ with table[a][b] = (a+b) mod n."""
    if n < 1:
        raise ValidationError(f"invalid-order: {n}")
    rows = [[(a + b) % n for b in range(n)] for a in range(n)]
    return group_from_table(rows, names=[str(i) for i in range(n)])


def _dihedral_names(m: int) -> list:
    rot = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, m)]
    ref = ["b"] + [f"a{i}b" if i > 1 else "ab" for i in range(1, m)]
    return rot + ref


def make_dihedral(m: int) -> Group:
    """The dihedral group of order 2m, elements e, a, .., a^{m-1}, b, ab, ..

    Index i < m is a^i and index m+i is a^i b, with a^m = b^2 = e and
    b a b = a^-1.
    """
    if m < 1:
        raise ValidationError(f"invalid-order: {m}")
    n = 2 * m

    def mul(x: int, y: int) -> int:
        if x < m and y < m:
            return (x + y) % m
        if x < m:
            return m + (x + (y - m)) % m
        if y < m:
            return m + ((x - m) - y) % m
        return ((x - m) - (y - m)) % m

    rows = [[mul(x, y) for y in range(n)] for x in range(n)]
    return group_from_table(rows, names=_dihedral_names(m))


def subgroup(group: Group, members: Iterable[int]) -> Subgroup:
    """Build a Subgroup, validating closure."""
    return Subgroup(group=group, members=tuple(sorted(set(members))))


def double_cosets(group: Group, sub: Subgroup) -> Tuple[Tuple[int, ...], ...]:
    """Partition the group into double cosets H s H, sorted by least member:
    the member tuples of ``_double_coset_masks``."""
    if sub.group is not group and sub.group != group:
        raise ValidationError("invalid-subgroup: subgroup belongs to a different group")
    masks = _double_coset_masks(group, sum(1 << h for h in sub.members))
    return tuple(tuple([s for s in range(group.order) if m >> s & 1]) for m in masks)


def _double_coset_masks(group: Group, mask: int) -> Tuple[int, ...]:
    """The double cosets H s H, as masks sorted by least member, of the
    subgroup H whose members are the set bits of mask.  Each coset is found
    from its least member s, the first element no earlier coset holds; the
    cosets must be disjoint.  The mask is validated as a Subgroup the first
    time the group sees it, and the masks are memoised on the group by mask;
    a mask that is no subgroup raises ValidationError on every call."""
    hit = group._double_coset_masks.get(mask)
    if hit is None:
        members = tuple([s for s in range(group.order) if mask >> s & 1])
        Subgroup(group=group, members=members)
        table = group.table
        classes = []
        seen = 0
        for s in range(group.order):
            if not seen >> s & 1:
                cls = 0
                for h1 in members:
                    row = table[table[h1][s]]
                    for h2 in members:
                        cls |= 1 << row[h2]
                seen |= cls
                classes.append(cls)
        if sum(cls.bit_count() for cls in classes) != group.order:
            raise ValidationError("double cosets do not partition the group")
        hit = group._double_coset_masks[mask] = tuple(classes)
    return hit
