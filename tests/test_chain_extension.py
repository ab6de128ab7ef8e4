"""descending_multichains grows each chain from its parent.

A chain of length k + 1 is its length-k parent extended by one ideal, and
only the new link is checked.  The chains, their order, the cap and the
truncation flag are compared with a brute-force oracle that filters every
index sequence, and an extension that breaks a link raises as the
constructor does.
"""

from __future__ import annotations

from itertools import product

import pytest

import cocycle_forge as cf
from cocycle_forge.census import descending_multichains, enumerate_ideals
from cocycle_forge.errors import ValidationError


def _contexts(group):
    out = []
    for c in cf.enumerate_cocycles(cf.CensusConfig(group=group)).cocycles:
        try:
            out.append(cf.AlgebraContext(c))
        except ValidationError:
            continue  # the all-ones cocycle has no G*
    return out


def _oracle(contained, max_len=4):
    """Every weakly descending index sequence of length 2..max_len, shorter
    first, each length in itertools.product order; contained[j][i] says
    ideal j lies inside ideal i."""
    m = len(contained)
    links = {(i, j) for i in range(m) for j in range(m) if contained[j][i]}
    return [
        seq
        for length in range(2, max_len + 1)
        for seq in product(range(m), repeat=length)
        if links.issuperset(zip(seq, seq[1:]))
    ]


@pytest.mark.parametrize("group", [cf.make_cyclic(4), cf.make_dihedral(3)], ids=["C4", "D3"])
def test_multichains_match_filtered_product(group):
    oracles = {}  # the oracle depends only on the containment relation
    for ctx in _contexts(group):
        ideals = enumerate_ideals(ctx)
        contained = tuple(tuple(small <= big for big in ideals) for small in ideals)
        if contained not in oracles:
            oracles[contained] = _oracle(contained)
        expected = [tuple(ideals[i] for i in seq) for seq in oracles[contained]]
        total = len(expected)
        for cap in (1, 7, total, total + 1):
            chains, truncated = descending_multichains(ideals, cap=cap)
            assert truncated == (cap < total), (ctx.cocycle.rows(), cap)
            assert [c.ideals for c in chains] == expected[:cap]
        assert [c.masks for c in chains] == [tuple(i.mask for i in e) for e in expected]


def test_short_max_len_gives_no_chains(d3_ctx):
    assert descending_multichains(enumerate_ideals(d3_ctx), max_len=1) == ([], False)


def _raised(build):
    with pytest.raises(ValidationError) as info:
        build()
    return str(info.value)


def test_extension_breaking_a_link_raises_as_the_constructor(d3_ctx):
    ideals = enumerate_ideals(d3_ctx)
    radical = ideals[-1]
    checked = 0
    for inner in ideals:
        for extra in ideals:
            if extra <= inner:
                continue
            chain = cf.DescendingChain(ideals=(radical, inner))
            message = _raised(lambda: chain.extend(extra))
            assert message == _raised(
                lambda: cf.DescendingChain(ideals=(radical, inner, extra))
            )
            assert message == "chain not descending: ideal 3 is not contained in ideal 2"
            checked += 1
    assert checked > 0


def test_extension_from_another_context_raises_as_the_constructor(d3_cocycle):
    first = cf.AlgebraContext(d3_cocycle)
    second = cf.AlgebraContext(
        cf.waterhouse(d3_cocycle.group, cf.subgroup(d3_cocycle.group, [0]))
    )
    zero_first = cf.MonomialIdeal(ctx=first, members=frozenset())
    zero_second = cf.MonomialIdeal(ctx=second, members=frozenset())
    radical = cf.MonomialIdeal(ctx=first, members=frozenset(first.gstar))
    chain = cf.DescendingChain(ideals=(radical, zero_first))
    message = _raised(lambda: chain.extend(zero_second))
    assert message == _raised(
        lambda: cf.DescendingChain(ideals=(radical, zero_first, zero_second))
    )
    assert message == "chain mixes ideals of different contexts"


def test_extension_leaves_the_parent_unchanged(d3_ctx):
    ideals = enumerate_ideals(d3_ctx)
    radical, zero = ideals[-1], ideals[0]
    parent = cf.DescendingChain(ideals=(radical, radical))
    child = parent.extend(zero)
    assert parent.ideals == (radical, radical)
    assert parent.masks == (radical.mask, radical.mask)
    assert child.ideals == (radical, radical, zero)
    assert child.masks == (radical.mask, radical.mask, 0)
    assert cf.cocycle_from_chain(d3_ctx, child) is cf.cocycle_from_chain(
        d3_ctx, cf.DescendingChain(ideals=child.ideals)
    )
