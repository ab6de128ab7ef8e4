"""The per-cocycle mask view that census records read, against the
AlgebraContext it stands in for and against brute force.

``algebra._CocycleMasks`` has no links, and an AlgebraContext is a view
that builds its links and its inertial Subgroup on first read.  Closedness,
for a view and a context alike, is read on the packed table and
``Group.escapes``; the view validates the inertial set through the
per-group memo of ``groups._double_coset_masks``.
"""

from __future__ import annotations

import random

import pytest

import cocycle_forge as cf
from cocycle_forge import algebra, census, groups
from cocycle_forge.cocycles import Cocycle
from cocycle_forge.errors import InternalInvariantError

GROUPS = {"C4": cf.make_cyclic(4), "C5": cf.make_cyclic(5), "D3": cf.make_dihedral(3)}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_escapes_are_the_cells_that_leave_the_mask(name):
    group = GROUPS[name]
    n = group.order
    for mask in range(1 << n):
        expected = sum(
            1 << s * n + t
            for s in range(n)
            for t in range(n)
            if (mask >> s & 1 or mask >> t & 1) and not mask >> group.mul(s, t) & 1
        )
        assert group.escapes(mask) == expected


def _masks_within(gstar):
    """Every mask whose members lie in gstar."""
    masks = [0]
    for s in gstar:
        masks += [m | 1 << s for m in masks]
    return masks


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_closedness_is_read_as_the_links_read_it(name):
    # census cocycles, and random tables with H = {0} that are mostly no
    # cocycles, over every subset of G*: a mask is closed when nothing one
    # basis multiplication reaches from a member, s t with f(s,t) = 1 or
    # t s with f(t,s) = 1, leaves it
    group = GROUPS[name]
    n = group.order
    rng = random.Random(f"view-{name}")
    tables = [c.masks for c in cf.enumerate_cocycles(cf.CensusConfig(group=group)).cocycles]
    for _ in range(40):
        masks = [(1 << n) - 1] + [rng.getrandbits(n) | 1 for _ in range(1, n)]
        for s in range(1, n):
            masks[s] &= ~(1 << group.inverse[s])
        tables.append(tuple(masks))
    closed = both = 0
    for masks in tables:
        cocycle = Cocycle(group=group, masks=masks)
        if cf.inertial_group(cocycle).members == tuple(range(n)):
            continue
        ctx = cf.AlgebraContext(cocycle)
        view = algebra._CocycleMasks(cocycle, cocycle.packed)
        assert (view._hmask, view._gstar_mask, view.gstar) == (ctx._hmask, ctx._gstar_mask, ctx.gstar)
        links = [0] * n
        for s in range(n):
            for t in range(n):
                if masks[s] >> t & 1:
                    links[s] |= 1 << group.mul(s, t)
                    links[t] |= 1 << group.mul(s, t)
        for mask in _masks_within(ctx.gstar):
            verdict = not any(links[s] & ~mask for s in range(n) if mask >> s & 1)
            assert algebra._is_closed_mask(ctx, mask) is verdict, (masks, mask)
            assert algebra._is_closed_mask(view, mask) is verdict, (masks, mask)
            closed += verdict
            both += 1
    assert 0 < closed < both


def test_a_context_builds_its_links_and_inertial_subgroup_on_first_read():
    group = GROUPS["D3"]
    n = group.order
    cocycles = [
        c
        for c in cf.enumerate_cocycles(cf.CensusConfig(group=group)).cocycles
        if cf.inertial_group(c).members != tuple(range(n))
    ]
    for cocycle in cocycles[:: len(cocycles) // 10]:
        ctx = cf.AlgebraContext(cocycle)
        assert isinstance(ctx, algebra._CocycleMasks)
        assert "_links" not in vars(ctx) and "inertial" not in vars(ctx)
        view = algebra._CocycleMasks(cocycle, cocycle.packed)
        for name in algebra._CocycleMasks.__slots__:
            assert getattr(ctx, name) == getattr(view, name), name
        # the first closure builds the links; the second reads the same tuple
        seed = 1 << ctx.gstar[0]
        closure = algebra._closure_mask(ctx, seed)
        links = vars(ctx)["_links"]
        assert algebra._closure_mask(ctx, seed) == closure
        assert vars(ctx)["_links"] is links
        assert links == tuple(
            sum(1 << group.mul(s, t) for t in range(n) if cocycle.masks[s] >> t & 1)
            | sum(1 << group.mul(t, s) for t in range(n) if cocycle.masks[t] >> s & 1)
            for s in range(n)
        )
        assert "inertial" not in vars(ctx)
        inertial = ctx.inertial
        assert inertial.members == cf.inertial_group(cocycle).members
        assert ctx.inertial is inertial


def test_a_census_record_refuses_an_inertial_set_that_is_no_subgroup():
    # C4 with f(1,3) = f(3,1) = 1 and f(2,2) = 0: H would be {0, 1, 3}
    cocycle = Cocycle(group=cf.make_cyclic(4), masks=(0b1111, 0b1011, 0b0011, 0b0011))
    message = r"inertial set \[0, 1, 3\] is not a subgroup"
    with pytest.raises(InternalInvariantError, match=message):
        cf.census_records(cf.CensusStream(cocycles=(cocycle,), truncated=False))
    with pytest.raises(InternalInvariantError, match=message):
        cf.AlgebraContext(cocycle)


def test_census_records_build_no_context_and_check_each_inertial_mask_once(monkeypatch):
    group = cf.make_dihedral(3)  # a fresh group: its memos are empty
    stream = cf.enumerate_cocycles(cf.CensusConfig(group=group))
    expected = [census._census_record(c) for c in stream.cocycles]
    group._double_coset_masks.clear()
    checked = []
    real = groups.Subgroup

    def counted(**fields):
        checked.append(fields["members"])
        return real(**fields)

    def refused(cocycle):
        raise AssertionError("a census record built an AlgebraContext")

    monkeypatch.setattr(groups, "Subgroup", counted)
    monkeypatch.setattr(algebra, "AlgebraContext", refused)
    monkeypatch.setattr(census, "AlgebraContext", refused)
    assert cf.census_records(stream) == expected
    inertial = {record.inertial for record in expected}
    assert sorted(checked) == sorted(inertial)
    assert set(group._double_coset_masks) == {sum(1 << s for s in h) for h in inertial}
    assert all(type(m) is int for cosets in group._double_coset_masks.values() for m in cosets)
