"""What a context keeps once computed: the packed view of each validated
table, and the annihilator classes.

A memoised table read again must not be repacked, and the classes must be
computed once per context; a raise is never kept, so it comes back on every
call.  Nothing a context keeps points back at it, and its group keeps no
cocycle, so reference counting frees both as soon as the caller lets go.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import cocycle_forge as cf
from cocycle_forge import algebra, decomposition
from cocycle_forge.census import enumerate_ideals
from cocycle_forge.cocycles import _pack_rows
from cocycle_forge.errors import InternalInvariantError


# a D3 census cocycle that decompose_by_classes splits into parts
ROWS_D3_PARTS = ("111111", "100000", "100000", "100000", "100000", "101010")


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


def test_a_context_that_filled_its_caches_is_freed_by_reference_counting():
    rows = [[int(v) for v in row] for row in ROWS_D3_PARTS]
    cocycle = cf.as_cocycle(rows, cf.make_dihedral(3))
    gc.collect()
    gc.disable()
    try:
        ctx = cf.AlgebraContext(cocycle)
        ideals = enumerate_ideals(ctx)
        cf.ideal_lattice_op("sum", ideals[1], ideals[2])
        cf.ideal_lattice_op("product", ideals[-1], ideals[-1])
        report = cf.decompose_by_classes(ctx)
        is_report = isinstance(report, cf.DecompositionReport)
        filled = ctx._principal_cache is not None
        ref = weakref.ref(ctx)
        group_ref = weakref.ref(cocycle.group)
        del ctx, ideals, report, cocycle
        alive = ref() is not None
        group_alive = group_ref() is not None
    finally:
        gc.enable()
    assert is_report and filled
    assert not alive
    assert not group_alive
