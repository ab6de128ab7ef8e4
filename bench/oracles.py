"""Reference computations that check cocycle-forge's outputs from outside.

Everything here works on plain tuples: ``rows`` is an n x n 0/1 table with
rows[s][t] = f(s, t), and ``mul`` the group's multiplication table with the
identity at index 0.  Nothing imports the package, so a defect in it cannot
also hide in its own reference.  The functions are brute force on purpose:
they follow the definitions in the README, not the package's algorithms.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

Rows = Sequence[Sequence[int]]
Mul = Sequence[Sequence[int]]


def first_violation(rows: Rows, mul: Mul) -> Optional[Tuple[str, Tuple[int, ...]]]:
    """The first failed cocycle requirement as (kind, where), or None.

    Normalization is checked over s, then f(s,t) f(st,r) = f(t,r) f(s,tr)
    over all triples in row-major order; triples with an identity argument
    hold under normalization, so the first witness matches a validator that
    skips them.
    """
    n = len(mul)
    for s in range(n):
        if rows[0][s] != 1 or rows[s][0] != 1:
            return "normalization", (s,)
    for s in range(n):
        for t in range(n):
            for r in range(n):
                if rows[s][t] * rows[mul[s][t]][r] != rows[t][r] * rows[s][mul[t][r]]:
                    return "identity", (s, t, r)
    return None


def inverses(mul: Mul) -> List[int]:
    return [list(row).index(0) for row in mul]


def inertial(rows: Rows, mul: Mul) -> Tuple[int, ...]:
    """H = {s : f(s, s^-1) = 1}."""
    inv = inverses(mul)
    return tuple(s for s in range(len(mul)) if rows[s][inv[s]] == 1)


def gstar(rows: Rows, mul: Mul) -> List[int]:
    h = set(inertial(rows, mul))
    return [s for s in range(len(mul)) if s not in h]


def waterhouse_rows(rows: Rows, mul: Mul) -> List[List[int]]:
    """The least cocycle with the same H: 1 iff an argument is in H."""
    h = set(inertial(rows, mul))
    n = len(mul)
    return [[int(s in h or t in h) for t in range(n)] for s in range(n)]


def radical_powers(rows: Rows, mul: Mul) -> List[Set[int]]:
    """Monomial supports of J, J^2, ... down to the last nonzero power.

    J^(k+1) = J^k J is spanned by x_a x_b = f(a,b) x_ab with a in J^k and
    b in J.
    """
    g = gstar(rows, mul)
    powers: List[Set[int]] = []
    current = set(g)
    while current:
        if len(powers) > len(mul):
            raise ValueError("radical is not nilpotent")
        powers.append(current)
        current = {mul[a][b] for a in current for b in g if rows[a][b]}
    return powers


def layers(rows: Rows, mul: Mul) -> List[Set[int]]:
    """N_k = J^k minus J^(k+1)."""
    powers = radical_powers(rows, mul) + [set()]
    return [powers[k] - powers[k + 1] for k in range(len(powers) - 1)]


def annihilators(rows: Rows, mul: Mul) -> Tuple[Set[int], Set[int]]:
    """Two-sided annihilators of J, split into (in N_1, not in N_1)."""
    g = gstar(rows, mul)
    ann = {s for s in g if all(rows[s][t] == 0 and rows[t][s] == 0 for t in g)}
    n1 = layers(rows, mul)[0]
    return ann & n1, ann - n1


def annihilator_classes(rows: Rows, mul: Mul) -> int:
    """Number of double cosets H s H that meet the annihilators."""
    h = inertial(rows, mul)
    trivial, nontrivial = annihilators(rows, mul)
    return len({frozenset(mul[mul[a][s]][b] for a in h for b in h) for s in trivial | nontrivial})


def ideal_count(rows: Rows, mul: Mul) -> int:
    """Number of monomial ideals: subsets of G* closed under x_t x_s, x_s x_t."""
    n = len(mul)
    g = gstar(rows, mul)
    reach = {
        s: {mul[s][t] for t in range(n) if rows[s][t]} | {mul[t][s] for t in range(n) if rows[t][s]}
        for s in g
    }
    count = 0
    for bits in range(1 << len(g)):
        members = {g[i] for i in range(len(g)) if bits >> i & 1}
        if all(reach[s] <= members for s in members):
            count += 1
    return count


def chain_rows(rows: Rows, mul: Mul, chain: Sequence[FrozenSet[int]]) -> List[List[int]]:
    """The cocycle of a descending chain I_1 >= .. >= I_k.

    Per the package documentation: f(s,t) survives only when s, t and st lie
    in one layer I_i minus I_(i+1) with 1 <= i <= k-1; inertial arguments
    give 1.
    """
    n = len(mul)
    h = set(inertial(rows, mul))
    k = len(chain)

    def level(x: int) -> int:
        return max([a for a, ideal in enumerate(chain, start=1) if x in ideal], default=0)

    out = []
    for s in range(n):
        row = []
        for t in range(n):
            if s in h or t in h:
                row.append(1)
            else:
                ls = level(s)
                same = ls == level(t) == level(mul[s][t])
                row.append(int(bool(rows[s][t]) and 1 <= ls <= k - 1 and same))
        out.append(row)
    return out


def word_catalog(rows: Rows, mul: Mul) -> Dict[int, Set[Tuple[int, ...]]]:
    """Every nonvanishing word in the letters N_1, keyed by its product."""
    n1 = sorted(layers(rows, mul)[0])
    limit = len(gstar(rows, mul))
    catalog: Dict[int, Set[Tuple[int, ...]]] = {}
    stack = [((g,), g) for g in n1]
    while stack:
        word, value = stack.pop()
        if len(word) > limit:
            raise ValueError("nonvanishing word longer than |G*|")
        catalog.setdefault(value, set()).add(word)
        stack.extend((word + (g,), mul[value][g]) for g in n1 if rows[value][g])
    return catalog


def realizes(r: Sequence[int], rows: Rows, mul: Mul) -> bool:
    """r is subadditive, zero exactly on H, and induces the table."""
    n = len(mul)
    h = set(inertial(rows, mul))
    if any((r[s] == 0) != (s in h) or r[s] < 0 for s in range(n)):
        return False
    for s in range(n):
        for t in range(n):
            total = r[s] + r[t]
            if r[mul[s][t]] > total or rows[s][t] != (r[mul[s][t]] == total):
                return False
    return True


def lex_subadditive(values: Sequence[Tuple[int, ...]], mul: Mul) -> bool:
    """v(st) <= v(s) + v(t) in the lexicographic order on tuples."""
    n = len(mul)
    for s in range(n):
        for t in range(n):
            total = tuple(a + b for a, b in zip(values[s], values[t]))
            if values[mul[s][t]] > total:
                return False
    return True


def induced_rows(r: Sequence[int], mul: Mul) -> Tuple[Tuple[int, ...], ...]:
    """f_r(s,t) = 1 iff r(st) = r(s) + r(t)."""
    n = len(mul)
    return tuple(tuple(int(r[mul[s][t]] == r[s] + r[t]) for t in range(n)) for s in range(n))


def random_cocycle(mul: Mul, rng: random.Random) -> Tuple[Tuple[int, ...], ...]:
    """One cocycle from a depth-first fill of the non-identity cells.

    Cells are filled row-major with a random value order per cell; each
    triple is checked once its last cell is set.  The pick is not uniform
    over the census, but it is a census member and depends only on ``mul``
    and the generator state.
    """
    n = len(mul)
    cells = [(s, t) for s in range(1, n) for t in range(1, n)]
    index = {cell: i for i, cell in enumerate(cells)}
    closing: List[List[Tuple[Tuple[int, int], ...]]] = [[] for _ in cells]
    for s in range(1, n):
        for t in range(1, n):
            for r in range(1, n):
                quad = ((s, t), (mul[s][t], r), (t, r), (s, mul[t][r]))
                last = max(index.get(c, -1) for c in quad)
                closing[last].append(quad)
    table = [[1] * n for _ in range(n)]
    orders = [rng.sample((0, 1), 2) for _ in cells]
    choice = [0] * len(cells)
    i = 0
    while i < len(cells):
        if choice[i] == 2:
            choice[i] = 0
            i -= 1
            choice[i] += 1
            continue
        s, t = cells[i]
        table[s][t] = orders[i][choice[i]]
        if all(table[a][b] * table[c][d] == table[e][g] * table[p][q]
               for (a, b), (c, d), (e, g), (p, q) in closing[i]):
            i += 1
        else:
            choice[i] += 1
    return tuple(tuple(row) for row in table)
