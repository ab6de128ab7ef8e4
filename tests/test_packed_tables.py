"""Packed whole tables against entry-by-entry oracles.

The chain code stores a table as one integer of n*n bits, row s at bits
s*n .. s*n + n - 1, and builds a chain's table from the group's memo of
``cells(L)``, the cells (s, t) with s, t and st in L.  Every chain and every
quotient over a group reads that one memo, and chain_break cannot see a
wrong entry, since the chain table and the pair tables it joins would share
the mistake.  So the chain tables are compared here with a loop over
(s, t) that reads only the group table and the 0/1 rows of f, and a flipped
memo bit must make that comparison fail.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import cocycle_forge as cf
from cocycle_forge import census, decomposition
from cocycle_forge.cocycles import _pack_rows, _unpack_rows
from cocycle_forge.errors import ForgeError, ValidationError


def _census_contexts(group):
    out = []
    for c in cf.enumerate_cocycles(cf.CensusConfig(group=group)).cocycles:
        try:
            out.append(cf.AlgebraContext(c))
        except ValidationError:
            continue  # the all-ones cocycle has no G*
    return out


def brute_chain_rows(table, f_rows, key):
    """Row masks of the chain cocycle of the ideal masks ``key``, entry by
    entry: 1 when s or t is inertial, else f(s, t) when s, t and st lie in
    one layer key[i] minus key[i + 1]."""
    n = len(table)
    inertial = [f_rows[s][table[s].index(0)] == 1 for s in range(n)]
    level = [None] * n
    for i in range(len(key) - 1):
        for x in range(n):
            if key[i] >> x & 1 and not key[i + 1] >> x & 1:
                level[x] = i
    rows = []
    for s in range(n):
        row = 0
        for t in range(n):
            if inertial[s] or inertial[t]:
                value = 1
            else:
                product = table[s][t]
                same = level[s] is not None and level[s] == level[t] == level[product]
                value = f_rows[s][t] if same else 0
            row |= value << t
        rows.append(row)
    return tuple(rows)


def _mismatches(group):
    """(rows of f, key) for every chain key of every non-simple census
    context whose chain cocycle differs from the oracle or raises."""
    table = [list(row) for row in group.table]
    out = []
    for ctx in _census_contexts(group):
        f_rows = [[int(v) for v in row] for row in ctx.cocycle.rows()]
        keys, truncated = census._chain_keys(census.enumerate_ideals(ctx))
        assert not truncated
        for key in keys:
            try:
                got = decomposition._chain_cocycle(ctx, key).masks
            except ForgeError:
                got = None
            if got != brute_chain_rows(table, f_rows, key):
                out.append((ctx.cocycle.rows(), key))
    return out


def test_chain_tables_match_the_oracle_on_c4_c5_and_d3():
    for group in (cf.make_cyclic(4), cf.make_cyclic(5), cf.make_dihedral(3)):
        assert _mismatches(group) == []


def test_cells_match_a_brute_force_set():
    for group in (cf.make_cyclic(6), cf.make_dihedral(3)):
        n = group.order
        for mask in range(1 << n):
            inside = {x for x in range(n) if mask >> x & 1}
            expected = {
                (s, t) for s in inside for t in inside if group.table[s][t] in inside
            }
            packed = group.cells(mask)
            assert {(b // n, b % n) for b in range(n * n) if packed >> b & 1} == expected
            assert group._cells[mask] == packed


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
))
def test_rows_survive_packing(rows):
    n = len(rows)
    packed = _pack_rows(rows, n)
    assert 0 <= packed < 1 << n * n
    for s, row in enumerate(rows):
        assert packed >> s * n & (1 << n) - 1 == row
    assert _unpack_rows(packed, n) == tuple(rows)


def test_a_flipped_cells_bit_fails_the_oracle():
    group = cf.make_cyclic(4)
    assert _mismatches(group) == []
    # the layer J = {1, 2, 3} of the chain J >= 0 when H is trivial; its
    # cell (1, 1) is kept by every cocycle with f(1, 1) = 1 there
    layer = 0b1110
    assert group._cells[layer] >> 1 * 4 + 1 & 1
    group._cells[layer] ^= 1 << 1 * 4 + 1
    assert _mismatches(group) != []
