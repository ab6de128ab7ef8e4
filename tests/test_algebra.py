from __future__ import annotations

import pytest

import cocycle_forge as cf
from cocycle_forge.errors import ValidationError


def _ideal(ctx, *members):
    return cf.MonomialIdeal.from_members(ctx, frozenset(members))


def test_context_rejects_all_ones_cocycle():
    g = cf.make_cyclic(3)
    ones = cf.as_cocycle(tuple(tuple(1 for _ in range(3)) for _ in range(3)), g)
    with pytest.raises(ValidationError, match="no non-inertial"):
        cf.AlgebraContext(ones)


def test_context_exposes_gstar(golden_ctx):
    assert tuple(golden_ctx.gstar) == tuple(range(1, 9))
    assert golden_ctx.in_inertial(0)
    assert not golden_ctx.in_inertial(4)


def test_ideal_requires_gstar_members(golden_ctx):
    with pytest.raises(ValidationError, match=r"not-in-gstar: \[0\]"):
        _ideal(golden_ctx, 0, 4)


def test_ideal_rejects_members_outside_the_group(golden_ctx):
    with pytest.raises(ValidationError, match=r"not-in-gstar: \[-1\]"):
        _ideal(golden_ctx, -1, 4)
    with pytest.raises(ValidationError, match=r"not-in-gstar: \[-3, 9\]"):
        _ideal(golden_ctx, 9, 4, -3)


def test_ideal_requires_closure(golden_ctx):
    # 5*8 = 4 survives (f(5,8)=1), so {5} alone is not closed
    with pytest.raises(ValidationError, match="not closed"):
        _ideal(golden_ctx, 5)
    assert _ideal(golden_ctx, 4, 5, 6, 7).sorted_members == (4, 5, 6, 7)


def test_empty_and_radical_are_ideals(golden_ctx):
    zero = _ideal(golden_ctx)
    assert len(zero) == 0
    rad = _ideal(golden_ctx, *range(1, 9))
    assert zero <= rad
    assert not rad <= zero


def test_principal_ideals_golden(golden_ctx):
    # closures of the single basis elements, computed by hand from the table
    expected = {
        1: {1, 2, 3, 4, 6, 7},
        2: {2, 3, 4, 7},
        3: {3, 4},
        4: {4},
        5: {4, 5, 6, 7},
        6: {6, 7},
        7: {7},
        8: {4, 8},
    }
    for s, members in expected.items():
        assert cf.principal_ideal(golden_ctx, s).members == frozenset(members)


def test_principal_ideal_rejects_bad_element(golden_ctx):
    with pytest.raises(ValidationError, match="not-in-gstar"):
        cf.principal_ideal(golden_ctx, 0)
    with pytest.raises(ValidationError, match="out of range"):
        cf.principal_ideal(golden_ctx, 9)


def test_ideal_closure_empty_seed_is_zero(golden_ctx):
    assert len(cf.ideal_closure(golden_ctx, [])) == 0
    got = cf.ideal_closure(golden_ctx, [3, 8])
    assert got.members == frozenset({3, 4, 8})


def test_lattice_ops(golden_ctx):
    a = cf.principal_ideal(golden_ctx, 5)  # {4,5,6,7}
    b = cf.principal_ideal(golden_ctx, 8)  # {4,8}
    assert cf.ideal_lattice_op("sum", a, b).members == frozenset({4, 5, 6, 7, 8})
    assert cf.ideal_lattice_op("intersection", a, b).members == frozenset({4})
    assert cf.ideal_lattice_op("product", a, b).members == frozenset({4})
    with pytest.raises(ValidationError, match="unknown lattice operation"):
        cf.ideal_lattice_op("join", a, b)


def test_product_of_ideals_collects_surviving_products(golden_ctx):
    # I3 = {6,7} kills itself; the radical squared keeps exactly {2,3,4,6,7}
    i3 = _ideal(golden_ctx, 6, 7)
    assert len(cf.ideal_lattice_op("product", i3, i3)) == 0
    rad = _ideal(golden_ctx, *range(1, 9))
    sq = cf.ideal_lattice_op("product", rad, rad)
    assert sq.members == frozenset({2, 3, 4, 6, 7})


def test_radical_powers_golden(golden_ctx):
    powers, nilpotency = cf.radical_powers(golden_ctx)
    assert [sorted(p.members) for p in powers] == [
        [1, 2, 3, 4, 5, 6, 7, 8],
        [2, 3, 4, 6, 7],
        [3, 4, 7],
        [4],
    ]
    assert nilpotency == 5


def test_nk_partition_golden(golden_ctx):
    assert cf.nk_partition(golden_ctx) == [
        frozenset({1, 5, 8}),
        frozenset({2, 6}),
        frozenset({3, 7}),
        frozenset({4}),
    ]


def test_nk_partition_waterhouse_is_single_layer():
    g = cf.make_cyclic(5)
    f0 = cf.waterhouse(g, cf.subgroup(g, [0]))
    ctx = cf.AlgebraContext(f0)
    assert cf.nk_partition(ctx) == [frozenset({1, 2, 3, 4})]
    powers, nilpotency = cf.radical_powers(ctx)
    assert len(powers) == 1 and nilpotency == 2


def test_classify_annihilators_golden(golden_ctx):
    trivial, nontrivial = cf.classify_annihilators(golden_ctx)
    assert trivial == frozenset()
    assert nontrivial == frozenset({4, 7})


def test_classify_annihilators_d3(d3_ctx):
    trivial, nontrivial = cf.classify_annihilators(d3_ctx)
    assert trivial == frozenset()
    assert nontrivial == frozenset({4})  # ab


def test_classify_annihilators_waterhouse_all_trivial():
    g = cf.make_cyclic(4)
    f0 = cf.waterhouse(g, cf.subgroup(g, [0]))
    ctx = cf.AlgebraContext(f0)
    trivial, nontrivial = cf.classify_annihilators(ctx)
    assert trivial == frozenset({1, 2, 3})
    assert nontrivial == frozenset()


def test_annihilator_status_constant_on_classes(d3):
    # H = {e, b}: double cosets lump ab with a; the bundled dihedral cocycle
    # has trivial H, so build a Waterhouse cocycle over the bigger H instead
    h = cf.subgroup(d3, [0, 3])
    f0 = cf.waterhouse(d3, h)
    ctx = cf.AlgebraContext(f0)
    trivial, nontrivial = cf.classify_annihilators(ctx)
    for cls in cf.double_cosets(d3, h):
        inside = [s for s in cls if s in trivial or s in nontrivial]
        assert inside in ([], list(cls))


def test_chain_validation(golden_ctx):
    rad = _ideal(golden_ctx, *range(1, 9))
    i3 = _ideal(golden_ctx, 6, 7)
    zero = _ideal(golden_ctx)
    chain = cf.DescendingChain(ideals=(rad, i3, zero))
    assert len(chain) == 3
    with pytest.raises(ValidationError, match="chain-too-short"):
        cf.DescendingChain(ideals=(rad,))
    with pytest.raises(ValidationError, match="not descending"):
        cf.DescendingChain(ideals=(i3, rad))


def test_chain_rejects_mixed_contexts(golden_ctx, d3_ctx):
    rad9 = _ideal(golden_ctx, *range(1, 9))
    rad6 = _ideal(d3_ctx, *range(1, 6))
    with pytest.raises(ValidationError, match="different contexts"):
        cf.DescendingChain(ideals=(rad9, rad6))


def test_chain_levels(golden_ctx):
    rad = _ideal(golden_ctx, *range(1, 9))
    i3 = _ideal(golden_ctx, 6, 7)
    chain = cf.DescendingChain(ideals=(rad, i3))
    assert cf.chain_level(chain, 6) == 2
    assert cf.chain_level(chain, 1) == 1
    with pytest.raises(ValidationError, match="undefined-level"):
        cf.chain_level(chain, 0)  # levels only exist inside the radical
    levels = cf.chain_levels(chain)
    assert levels == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 2, 7: 2, 8: 1}


def test_weakly_descending_chain_allows_repeats(golden_ctx):
    rad = _ideal(golden_ctx, *range(1, 9))
    chain = cf.DescendingChain(ideals=(rad, rad))
    assert cf.chain_level(chain, 3) == 2


def test_negative_mask_is_rejected_before_unpacking(golden_ctx):
    with pytest.raises(ValidationError, match="not-in-gstar"):
        cf.MonomialIdeal(ctx=golden_ctx, mask=-1)
    with pytest.raises(ValidationError, match="not-in-gstar"):
        cf.MonomialIdeal(ctx=golden_ctx, mask=-1 << 40)


def test_negative_element_is_in_no_ideal(golden_ctx):
    rad = _ideal(golden_ctx, *range(1, 9))
    assert -1 not in rad
    assert -9 not in rad
    chain = cf.DescendingChain(ideals=(rad, _ideal(golden_ctx, 6, 7)))
    with pytest.raises(ValidationError, match="undefined-level"):
        cf.chain_level(chain, -1)


def test_ideal_from_mask_matches_the_members_constructor():
    from cocycle_forge.algebra import _ideal_from_mask

    def raised(build):
        with pytest.raises(ValidationError) as info:
            build()
        return str(info.value)

    checked = 0
    for group in (cf.make_cyclic(4), cf.make_dihedral(3)):
        n = group.order
        for c in cf.enumerate_cocycles(cf.CensusConfig(group=group)).cocycles:
            try:
                ctx = cf.AlgebraContext(c)
            except ValidationError:
                continue
            for mask in range(1 << n):
                members = frozenset(s for s in range(n) if mask >> s & 1)
                builders = (
                    lambda: cf.MonomialIdeal(ctx=ctx, mask=mask),
                    lambda: _ideal_from_mask(ctx, mask),
                )
                try:
                    expected = cf.MonomialIdeal.from_members(ctx, members)
                except ValidationError as exc:
                    for build in builders:
                        assert raised(build) == str(exc)
                    continue
                for build in builders:
                    ideal = build()
                    assert ideal == expected
                    assert (ideal.mask, ideal.members) == (mask, members)
                    assert isinstance(ideal.members, frozenset)
                checked += 1
    assert checked > 1000
