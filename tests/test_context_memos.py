"""What a context keeps once computed: the packed view of each validated
table, and the annihilator classes.

A memoised table read again must not be repacked, and the classes must be
computed once per context; a raise is never kept, so it comes back on every
call.
"""

from __future__ import annotations

import pytest

import cocycle_forge as cf
from cocycle_forge import algebra, decomposition
from cocycle_forge.census import enumerate_ideals
from cocycle_forge.cocycles import _pack_rows
from cocycle_forge.errors import InternalInvariantError


def _non_simple(group):
    n = group.order
    return [
        c
        for c in cf.enumerate_cocycles(cf.CensusConfig(group=group)).cocycles
        if cf.inertial_group(c).members != tuple(range(n))
    ]


def test_a_finished_table_keeps_its_packed_view():
    for cocycle in _non_simple(cf.make_cyclic(4)):
        n = cocycle.group.order
        ref = cf.AlgebraContext(cocycle)
        for ideal in enumerate_ideals(ref):
            packed = cf.cocycle_mod_ideal(ref, ideal).packed
            # a fresh context, whose memo has not seen the table
            table = decomposition._finish(cf.AlgebraContext(cocycle), packed, "probe")
            assert "packed" in table.__dict__
            assert table.__dict__["packed"] == packed == _pack_rows(table.masks, n)


def test_annihilator_classes_are_computed_once_per_context(monkeypatch):
    calls = []
    real = algebra._annihilator_mask

    def counted(ctx):
        calls.append(ctx)  # keeps ctx alive, so no two entries share an id
        return real(ctx)

    monkeypatch.setattr(algebra, "_annihilator_mask", counted)
    for cocycle in _non_simple(cf.make_cyclic(4)):
        result = cf.check_cocycle_properties(cocycle)
        assert result.failures == ()
    assert calls
    assert len({id(ctx) for ctx in calls}) == len(calls)


def test_a_raising_classification_is_not_kept(monkeypatch):
    cocycle = _non_simple(cf.make_cyclic(4))[-1]
    ctx = cf.AlgebraContext(cocycle)
    expected = cf.classify_annihilators(cf.AlgebraContext(cocycle))
    real = algebra._annihilator_mask
    raises = [True, True]

    def flaky(ctx):
        if raises:
            raises.pop()
            raise InternalInvariantError("no mask")
        return real(ctx)

    monkeypatch.setattr(algebra, "_annihilator_mask", flaky)
    for _ in range(2):
        with pytest.raises(InternalInvariantError, match="no mask"):
            cf.classify_annihilators(ctx)
        assert ctx._annihilators is None
    first = cf.classify_annihilators(ctx)
    assert first == expected
    assert cf.classify_annihilators(ctx) is first
