"""descending_multichains lists every weakly descending chain of ideals.

The sweep's chain keys grow each mask tuple of length k + 1 from its
length-k parent, and descending_multichains builds each chain from its key
through the DescendingChain constructor.  The chains, their keys, their
order, the cap and the truncation flag are compared with a brute-force
oracle that filters every index sequence, and a third ideal that breaks a
link or comes from another context makes the constructor raise.
"""

from __future__ import annotations

from itertools import product

import pytest

import cocycle_forge as cf
from cocycle_forge import census
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
            assert census._chain_keys(ideals, cap=cap) == ([c.masks for c in chains], truncated)
        assert [c.masks for c in chains] == [tuple(i.mask for i in e) for e in expected]


def test_short_max_len_gives_no_chains(d3_ctx):
    assert descending_multichains(enumerate_ideals(d3_ctx), max_len=1) == ([], False)


def _raised(build):
    with pytest.raises(ValidationError) as info:
        build()
    return str(info.value)


def test_a_third_ideal_breaking_a_link_raises(d3_ctx):
    ideals = enumerate_ideals(d3_ctx)
    radical = ideals[-1]
    checked = 0
    for inner in ideals:
        for extra in ideals:
            if extra <= inner:
                continue
            message = _raised(lambda: cf.DescendingChain(ideals=(radical, inner, extra)))
            assert message == "chain not descending: ideal 3 is not contained in ideal 2"
            checked += 1
    assert checked > 0


def test_a_third_ideal_from_another_context_raises(d3_cocycle):
    first = cf.AlgebraContext(d3_cocycle)
    second = cf.AlgebraContext(
        cf.waterhouse(d3_cocycle.group, cf.subgroup(d3_cocycle.group, [0]))
    )
    zero_first = cf.MonomialIdeal.from_members(first, frozenset())
    zero_second = cf.MonomialIdeal.from_members(second, frozenset())
    radical = cf.MonomialIdeal.from_members(first, frozenset(first.gstar))
    message = _raised(
        lambda: cf.DescendingChain(ideals=(radical, zero_first, zero_second))
    )
    assert message == "chain mixes ideals of different contexts"
