from __future__ import annotations

import pytest

import cocycle_forge as cf
from cocycle_forge.errors import PreconditionError, ValidationError

# f restricted to the chain {J, I3}, written out from the level rule
F_I3_ROWS = (
    "111111111",
    "111100000",
    "111000000",
    "110000000",
    "100000000",
    "100000001",
    "100000000",
    "100000000",
    "100001000",
)


def _ideal(ctx, *members):
    return cf.MonomialIdeal.from_members(ctx, frozenset(members))


def _radical(ctx):
    return _ideal(ctx, *ctx.gstar)


def test_chain_cocycle_of_repeated_radical_is_waterhouse(golden_ctx, z9):
    chain = cf.DescendingChain(ideals=(_radical(golden_ctx), _radical(golden_ctx)))
    got = cf.cocycle_from_chain(golden_ctx, chain)
    f0 = cf.waterhouse(z9, cf.subgroup(z9, [0]))
    assert got.values == f0.values


def test_chain_cocycle_radical_to_zero_recovers_f(golden_ctx, golden):
    chain = cf.DescendingChain(ideals=(_radical(golden_ctx), _ideal(golden_ctx)))
    got = cf.cocycle_from_chain(golden_ctx, chain)
    assert got.values == golden.values


def test_chain_cocycle_matches_quotient_by_ideal(golden_ctx):
    i3 = _ideal(golden_ctx, 6, 7)
    chain = cf.DescendingChain(ideals=(_radical(golden_ctx), i3))
    via_chain = cf.cocycle_from_chain(golden_ctx, chain)
    via_quotient = cf.cocycle_mod_ideal(golden_ctx, i3)
    assert via_chain.values == via_quotient.values
    assert via_chain.rows() == F_I3_ROWS


def test_chain_cocycle_ignores_trailing_zero(golden_ctx):
    i3 = _ideal(golden_ctx, 6, 7)
    two = cf.DescendingChain(ideals=(_radical(golden_ctx), i3))
    three = cf.DescendingChain(ideals=(_radical(golden_ctx), i3, _ideal(golden_ctx)))
    assert cf.cocycle_from_chain(golden_ctx, two).values == \
        cf.cocycle_from_chain(golden_ctx, three).values


def test_chain_cocycle_rejects_foreign_chain(golden_ctx, d3_ctx):
    foreign = cf.DescendingChain(ideals=(_radical(d3_ctx), _ideal(d3_ctx)))
    with pytest.raises(ValidationError, match="different context"):
        cf.cocycle_from_chain(golden_ctx, foreign)


def test_quotient_endpoints(golden_ctx, golden, z9):
    assert cf.cocycle_mod_ideal(golden_ctx, _ideal(golden_ctx)).values == golden.values
    f0 = cf.waterhouse(z9, cf.subgroup(z9, [0]))
    assert cf.cocycle_mod_ideal(golden_ctx, _radical(golden_ctx)).values == f0.values


def test_unique_class_ideal_golden(golden_ctx):
    expected = {
        2: {3, 4, 5, 6, 7, 8},
        3: {4, 5, 6, 7, 8},
        4: {6, 7},
        6: {2, 3, 4, 7, 8},
        7: {3, 4, 8},
    }
    for rho, members in expected.items():
        assert cf.unique_class_ideal(golden_ctx, rho).members == frozenset(members)


def test_unique_class_ideal_rejects_n1_elements(golden_ctx):
    with pytest.raises(ValidationError, match="rho-in-n1"):
        cf.unique_class_ideal(golden_ctx, 5)
    with pytest.raises(ValidationError, match="not-in-gstar"):
        cf.unique_class_ideal(golden_ctx, 0)


def test_decompose_by_classes_golden(golden_ctx, golden):
    report = cf.decompose_by_classes(golden_ctx)
    assert isinstance(report, cf.DecompositionReport)
    assert [p.representative for p in report.parts] == [2, 3, 4, 6, 7]
    assert report.recombines
    assert all(p.strict for p in report.parts)
    joined = cf.vee([p.cocycle for p in report.parts])
    assert joined.values == golden.values


def test_each_part_has_one_nontrivial_class(golden_ctx):
    report = cf.decompose_by_classes(golden_ctx)
    for part in report.parts:
        sub = cf.AlgebraContext(part.cocycle)
        _, nontrivial = cf.classify_annihilators(sub)
        classes = {
            cls
            for cls in cf.double_cosets(part.cocycle.group, cf.inertial_group(part.cocycle))
            if set(cls) & nontrivial
        }
        assert len(classes) == 1
        assert part.representative in next(iter(classes))


def test_decompose_single_class_yields_verdict(golden_ctx):
    i3 = _ideal(golden_ctx, 6, 7)
    quotient = cf.cocycle_mod_ideal(golden_ctx, i3)
    verdict = cf.decompose_by_classes(cf.AlgebraContext(quotient))
    assert isinstance(verdict, cf.UniqueClassVerdict)
    assert verdict.class_members == (4,)


def test_decompose_waterhouse_has_nothing_to_do():
    g = cf.make_cyclic(4)
    ctx = cf.AlgebraContext(cf.waterhouse(g, cf.subgroup(g, [0])))
    with pytest.raises(ValidationError, match="nothing-to-decompose"):
        cf.decompose_by_classes(ctx)


def test_decompose_by_bstar_golden(golden_ctx, golden):
    parts = cf.decompose_by_bstar(golden_ctx)
    assert [w.letters for w, _ in parts] == [
        (5, 8), (8, 5), (1, 1, 5), (1, 5, 1), (5, 1, 1), (1, 1, 1, 1),
    ]
    joined = cf.vee([f for _, f in parts])
    assert joined.values == golden.values


def test_decompose_by_bstar_waterhouse_is_empty():
    g = cf.make_cyclic(4)
    ctx = cf.AlgebraContext(cf.waterhouse(g, cf.subgroup(g, [0])))
    assert cf.decompose_by_bstar(ctx) == []


def test_identity_names_cover_dispatch(golden_ctx):
    assert set(cf.IDENTITY_NAMES) == {
        "chain_break", "waterhouse_iff", "sum_product", "intersection_vee",
        "cap_zero", "fI_eq_f", "trivial_annih_replace", "leq_f",
    }
    with pytest.raises(ValidationError, match="unknown identity"):
        cf.check_identity("modus_ponens", golden_ctx)


def test_identity_chain_break(golden_ctx):
    chain = cf.DescendingChain(ideals=(
        _radical(golden_ctx),
        _ideal(golden_ctx, 3, 4, 5, 6, 7, 8),
        _ideal(golden_ctx, 4),
        _ideal(golden_ctx),
    ))
    whole = cf.check_identity("chain_break", golden_ctx, chain=chain)
    assert whole.ok and whole.counterexample is None
    split = cf.check_identity("chain_break", golden_ctx, chain=chain, split=2)
    assert split.ok
    with pytest.raises(PreconditionError, match=r"split position"):
        cf.check_identity("chain_break", golden_ctx, chain=chain, split=4)


def test_identity_leq_f_and_waterhouse_iff(golden_ctx):
    chain = cf.DescendingChain(ideals=(_radical(golden_ctx), _ideal(golden_ctx, 6, 7)))
    assert cf.check_identity("leq_f", golden_ctx, chain=chain).ok
    assert cf.check_identity("waterhouse_iff", golden_ctx, chain=chain).ok


def test_identity_fI_eq_f(golden_ctx):
    assert cf.check_identity("fI_eq_f", golden_ctx, ideal=_ideal(golden_ctx, 6, 7)).ok


def test_identity_sum_product_and_intersection(golden_ctx):
    outer = _ideal(golden_ctx, 3, 4, 5, 6, 7, 8)
    inner = [_ideal(golden_ctx, 4, 5, 6, 7), _ideal(golden_ctx, 3, 4, 8)]
    assert cf.check_identity("sum_product", golden_ctx, outer=outer, inner=inner).ok
    assert cf.check_identity(
        "intersection_vee", golden_ctx, outer=outer, inner=inner
    ).ok
    with pytest.raises(PreconditionError, match="contained"):
        cf.check_identity(
            "sum_product", golden_ctx,
            outer=_ideal(golden_ctx, 4), inner=inner,
        )


def test_identity_cap_zero(golden_ctx):
    disjoint = [_ideal(golden_ctx, 6, 7), _ideal(golden_ctx, 4, 8)]
    assert cf.check_identity("cap_zero", golden_ctx, ideals=disjoint).ok
    with pytest.raises(PreconditionError, match="intersect"):
        cf.check_identity(
            "cap_zero", golden_ctx,
            ideals=[_ideal(golden_ctx, 4, 5, 6, 7), _ideal(golden_ctx, 4, 8)],
        )


def test_identity_trivial_annih_replace():
    # the golden example has no trivial annihilators, so use a Waterhouse
    # algebra where every radical element annihilates trivially
    g = cf.make_cyclic(4)
    ctx = cf.AlgebraContext(cf.waterhouse(g, cf.subgroup(g, [0])))
    first = cf.MonomialIdeal.from_members(ctx, frozenset({1, 2, 3}))
    second = cf.MonomialIdeal.from_members(ctx, frozenset({2}))
    assert cf.check_identity(
        "trivial_annih_replace", ctx, first=first, second=second
    ).ok


def test_identity_trivial_annih_replace_rejects_nontrivial(golden_ctx):
    first = _radical(golden_ctx)
    second = _ideal(golden_ctx, 6, 7)  # 7 annihilates non-trivially
    with pytest.raises(PreconditionError, match="trivial"):
        cf.check_identity(
            "trivial_annih_replace", golden_ctx, first=first, second=second
        )


def test_morphism_check_golden(golden_ctx):
    report = cf.morphism_check(golden_ctx, _ideal(golden_ctx, 6, 7))
    assert report.ok
    assert report.scaling_ok and report.psi_ok and report.section_ok
    assert report.phi_kernel == (6, 7)
    assert report.dims == (9, 7, 2)
    assert report.dimension_ok


def test_morphism_check_rejects_foreign_ideal(golden_ctx, d3_ctx):
    with pytest.raises(ValidationError, match="different context"):
        cf.morphism_check(golden_ctx, cf.MonomialIdeal.from_members(d3_ctx, frozenset({4})))


def test_quotient_transport_union(golden_ctx):
    i3 = _ideal(golden_ctx, 6, 7)
    cert = cf.quotient_transport(golden_ctx, i3, [4, 8])
    assert cert.equal
    assert cert.union_ideal.members == frozenset({4, 6, 7, 8})
    assert cert.psi_kernel == (6, 7)  # the kernel of the first projection


def test_quotient_transport_carries_chains(golden_ctx):
    i3 = _ideal(golden_ctx, 6, 7)
    chain = cf.DescendingChain(ideals=(
        _radical(golden_ctx),
        _ideal(golden_ctx, 3, 4, 5, 6, 7, 8),
        i3,
    ))
    cert = cf.quotient_transport(golden_ctx, i3, [4, 8], chain=chain)
    assert cert.chain_equal is True


def test_quotient_transport_rejects_non_ideal(golden_ctx):
    i3 = _ideal(golden_ctx, 6, 7)
    with pytest.raises(ValidationError, match="invalid-ideal"):
        cf.quotient_transport(golden_ctx, i3, [5])
