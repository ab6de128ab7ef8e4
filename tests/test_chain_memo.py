"""The validated-table memo of decomposition._finish and the mask-key reads
of sub-chain cocycles.

Every table a chain or quotient construction builds is validated and its
inertial group checked once per context; equal tables reached through
different chains come back as one object.  The memo must never change a
result, so the constructions are compared with a memo-free _finish over
whole censuses.
"""

from __future__ import annotations

import pytest

import cocycle_forge as cf
from cocycle_forge import decomposition
from cocycle_forge.census import descending_multichains, enumerate_ideals
from cocycle_forge.cocycles import (
    BinaryTable,
    Cocycle,
    CocycleViolation,
    _pack_rows,
    _unpack_rows,
)
from cocycle_forge.errors import InternalInvariantError


def _census(group):
    n = group.order
    return [
        c
        for c in cf.enumerate_cocycles(cf.CensusConfig(group=group)).cocycles
        if cf.inertial_group(c).members != tuple(range(n))
    ]


def _radical(ctx):
    return cf.MonomialIdeal.from_members(ctx, frozenset(ctx.gstar))


def _zero(ctx):
    return cf.MonomialIdeal.from_members(ctx, frozenset())


def _key(table):
    """A table's key in the validated-table memo: the packed table."""
    return _pack_rows(table.masks, table.group.order)


def _finish_unmemoised(ctx, packed, what):
    """_finish as it reads without the memo; the inertial group goes through
    inertial_group instead of the support mask."""
    masks = _unpack_rows(packed, ctx.group.order)
    result = cf.validate_cocycle(BinaryTable(group=ctx.group, masks=masks))
    if isinstance(result, CocycleViolation):
        raise InternalInvariantError(f"{what} produced an invalid cocycle: {result}")
    if cf.inertial_group(result).members != ctx.inertial.members:
        raise InternalInvariantError(f"{what} changed the inertial group")
    return result


def test_identity_names_match_dispatch():
    assert cf.IDENTITY_NAMES == tuple(decomposition._CHECKS)


def test_memo_is_per_context(d3_cocycle):
    first = cf.AlgebraContext(d3_cocycle)
    second = cf.AlgebraContext(d3_cocycle)
    chain = cf.DescendingChain(ideals=(_radical(first), _zero(first)))
    a = cf.cocycle_from_chain(first, chain)
    assert first._valid_tables[_key(a)] is a
    assert second._valid_tables == {}
    b = cf.cocycle_from_chain(second, chain)
    assert b.masks == a.masks and b is not a
    assert second._valid_tables[_key(b)] is b
    assert first._valid_tables[_key(a)] is a


def test_equal_tables_from_different_chains_are_one_object():
    for group in (cf.make_cyclic(4), cf.make_dihedral(3)):
        for cocycle in _census(group):
            ctx = cf.AlgebraContext(cocycle)
            j, zero = _radical(ctx), _zero(ctx)
            chains = [
                cf.DescendingChain(ideals=ideals)
                for ideals in ((j, zero), (j, j, zero), (j, zero, zero), (j, j, zero, zero))
            ]
            assert len({chain.masks for chain in chains}) == 4
            tables = [cf.cocycle_from_chain(ctx, chain) for chain in chains]
            assert all(t is tables[0] for t in tables)
            # the quotient by 0 and the chain {J, 0} are the same table too
            assert cf.cocycle_mod_ideal(ctx, zero) is tables[0]


def test_invalid_chain_table_raises_on_every_call():
    # C3 cocycle 111/100/101 with f(1,1) flipped to 1: the context builds,
    # but the chain {J, 0} yields a table that fails the cocycle identity
    g = cf.make_cyclic(3)
    fabricated = Cocycle(group=g, masks=(0b111, 0b011, 0b101))
    ctx = cf.AlgebraContext(fabricated)
    chain = cf.DescendingChain(ideals=(_radical(ctx), _zero(ctx)))
    for _ in range(3):
        with pytest.raises(InternalInvariantError, match="produced an invalid cocycle"):
            cf.cocycle_from_chain(ctx, chain)
    assert ctx._valid_tables == {}
    assert ctx._chain_cache == {}


def test_table_dropping_an_inertial_element_raises_on_every_call():
    g = cf.make_cyclic(4)
    ctx = cf.AlgebraContext(cf.waterhouse(g, cf.subgroup(g, [0, 2])))
    # a valid cocycle whose inertial group is {0}: it drops 2
    smaller = cf.waterhouse(g, cf.subgroup(g, [0])).masks
    for _ in range(3):
        with pytest.raises(InternalInvariantError, match="probe changed the inertial group"):
            decomposition._finish(ctx, _pack_rows(smaller, g.order), "probe")
    assert _pack_rows(smaller, g.order) not in ctx._valid_tables
    bad = list(smaller)
    bad[2] |= 0b0100  # f(2,2) = 1 alone breaks the identity at (1, 2, 2)
    for _ in range(2):
        with pytest.raises(InternalInvariantError, match="probe produced an invalid cocycle"):
            decomposition._finish(ctx, _pack_rows(bad, g.order), "probe")
    assert ctx._valid_tables == {}


def test_chain_break_reads_pair_tables_from_the_cache(d3_ctx):
    ideals = enumerate_ideals(d3_ctx)
    chains, _ = descending_multichains(ideals, max_len=4)
    for chain in chains:
        if len(chain) > 2:
            assert cf.check_identity("chain_break", d3_ctx, chain=chain).ok
            for i in range(len(chain) - 1):
                assert chain.masks[i : i + 2] in d3_ctx._chain_cache
    for chain in chains:
        for split in range(2, len(chain)):
            assert cf.check_identity("chain_break", d3_ctx, chain=chain, split=split).ok


def test_constructions_match_a_memo_free_finish(monkeypatch):
    cases = []
    for group in (cf.make_cyclic(4), cf.make_dihedral(3)):
        for cocycle in _census(group):
            ctx = cf.AlgebraContext(cocycle)
            ideals = enumerate_ideals(ctx)
            pairs = [(a, b) for a in ideals for b in ideals if b <= a]
            chain_tables = [
                cf.cocycle_from_chain(ctx, cf.DescendingChain(ideals=p)) for p in pairs
            ]
            mod_tables = [cf.cocycle_mod_ideal(ctx, i) for i in ideals]
            cases.append((cocycle, ctx, pairs, chain_tables, ideals, mod_tables))
    assert sum(len(c[2]) for c in cases) > 5000

    monkeypatch.setattr(decomposition, "_finish", _finish_unmemoised)
    for cocycle, ctx, pairs, chain_tables, ideals, mod_tables in cases:
        fresh = cf.AlgebraContext(cocycle)
        for (a, b), table in zip(pairs, chain_tables):
            chain = cf.DescendingChain(
                ideals=tuple(cf.MonomialIdeal.from_members(fresh, i.members) for i in (a, b))
            )
            assert cf.cocycle_from_chain(fresh, chain).masks == table.masks
        for ideal, table in zip(ideals, mod_tables):
            again = cf.MonomialIdeal.from_members(fresh, ideal.members)
            assert cf.cocycle_mod_ideal(fresh, again).masks == table.masks
        assert fresh._valid_tables == {}
        # each memoised table is the one Cocycle every equal table came back as
        for table in chain_tables + mod_tables:
            assert ctx._valid_tables[_key(table)] is table
