"""The chain checks read the Waterhouse idempotent once per context and
share one passing verdict per identity.

A pass must equal a fresh IdentityCheck(name, ok=True); a failure must still
carry its own counterexample.  The per-kind counts of the sweep over every
10th D3 census cocycle were read before either change and pin that no check
was dropped.
"""

from __future__ import annotations

import cocycle_forge as cf
from cocycle_forge import algebra, cocycles, decomposition
from cocycle_forge.census import descending_multichains, enumerate_ideals
from cocycle_forge.decomposition import IdentityCheck
from cocycle_forge.errors import ValidationError

CHAIN_CHECKS = ("leq_f", "chain_break", "waterhouse_iff")

# check_cocycle_properties summed over cocycles 0, 10, .., 260 of the D3 census
D3_EVERY_10TH_COUNTS = {
    "bstar_recombination": 27, "cap_zero": 498, "chain_break": 27970,
    "class_decomposition": 25, "fI_eq_f": 348,
    "ideal_members_trivial_in_quotient": 348, "intersection_vee": 2445,
    "leq_f": 27970, "morphism": 348, "n1_of_quotient": 348,
    "principal_two_routes": 27, "sum_product": 2445, "trivial_annih_replace": 348,
    "waterhouse_iff": 27970,
}


def _d3_census():
    return cf.enumerate_cocycles(cf.CensusConfig(group=cf.make_dihedral(3))).cocycles


def _contexts(cocycles):
    out = []
    for c in cocycles:
        try:
            out.append(cf.AlgebraContext(c))
        except ValidationError:
            continue  # the all-ones cocycle has no G*
    return out


def test_sweep_counts_per_kind_on_every_tenth_d3_cocycle():
    counts = {}
    for c in _d3_census()[::10]:
        result = cf.check_cocycle_properties(c)
        assert result.failures == (), c.rows()
        for kind, n in result.counts.items():
            counts[kind] = counts.get(kind, 0) + n
    assert counts == D3_EVERY_10TH_COUNTS


def test_waterhouse_is_read_once_per_context(monkeypatch):
    calls = []
    real = algebra.waterhouse

    def counted(group, sub):
        calls.append(sub.members)
        return real(group, sub)

    monkeypatch.setattr(algebra, "waterhouse", counted)
    contexts = _contexts(_d3_census())
    assert {ctx.inertial.members for ctx in contexts} != {(0,)}
    for ctx in contexts:
        radical = cf.MonomialIdeal.from_members(ctx, frozenset(ctx.gstar))
        f0 = cf.cocycle_from_chain(ctx, cf.DescendingChain(ideals=(radical, radical)))
        assert f0.masks == cf.waterhouse(ctx.group, ctx.inertial).masks
        assert cf.cocycle_mod_ideal(ctx, radical).masks == f0.masks
        for ideal in enumerate_ideals(ctx)[:3]:
            chain = cf.DescendingChain(ideals=(radical, ideal))
            cf.check_identity("waterhouse_iff", ctx, chain=chain)
        assert ctx._waterhouse.masks == cf.waterhouse(ctx.group, ctx.inertial).masks
    assert calls == [ctx.inertial.members for ctx in contexts]


def test_passing_chain_checks_share_one_verdict(d3_ctx):
    chains, _ = descending_multichains(enumerate_ideals(d3_ctx), cap=200)
    for name in CHAIN_CHECKS:
        verdicts = [cf.check_identity(name, d3_ctx, chain=c) for c in chains]
        assert verdicts[0] == IdentityCheck(name=name, ok=True)
        assert all(v is verdicts[0] for v in verdicts)


def _one_chain(ctx):
    radical = cf.MonomialIdeal.from_members(ctx, frozenset(ctx.gstar))
    zero = cf.MonomialIdeal.from_members(ctx, frozenset())
    return cf.DescendingChain(ideals=(radical, radical, zero))


def test_failing_leq_f_keeps_its_counterexample(d3_ctx, monkeypatch):
    monkeypatch.setattr(decomposition, "compare", lambda f, g: cocycles.INCOMPARABLE)
    verdict = cf.check_identity("leq_f", d3_ctx, chain=_one_chain(d3_ctx))
    assert verdict == IdentityCheck(
        name="leq_f", ok=False, counterexample=(cocycles.INCOMPARABLE,)
    )


def test_failing_chain_break_keeps_its_counterexample(d3_ctx, monkeypatch):
    chain = _one_chain(d3_ctx)
    direct = cf.cocycle_from_chain(d3_ctx, chain).masks
    flipped = (direct[0],) + (direct[1] ^ 0b100,) + direct[2:]
    packed = cf.BinaryTable(group=d3_ctx.group, masks=flipped).packed
    real = decomposition._chain_table

    def chain_table(ctx, key, inside=None):  # every sub-chain, not the chain
        return real(ctx, key, inside) if key == chain.masks else packed

    monkeypatch.setattr(decomposition, "_chain_table", chain_table)
    verdict = cf.check_identity("chain_break", d3_ctx, chain=chain)
    assert verdict == IdentityCheck(
        name="chain_break",
        ok=False,
        counterexample=(1, 2, direct[1] >> 2 & 1, flipped[1] >> 2 & 1),
    )


def test_failing_waterhouse_iff_keeps_its_counterexample(d3_ctx, monkeypatch):
    chain = _one_chain(d3_ctx)
    # the chain cocycle of J >= J >= 0 is f itself, so it collapses to f0
    # exactly when f is its Waterhouse idempotent; a wrong f0 flips that
    assert cf.cocycle_from_chain(d3_ctx, chain).masks == d3_ctx.cocycle.masks
    wrong = cf.cocycle_from_chain(d3_ctx, chain)
    monkeypatch.setattr(decomposition, "_waterhouse_of", lambda ctx: wrong)
    verdict = cf.check_identity("waterhouse_iff", d3_ctx, chain=chain)
    square = algebra.ideal_lattice_op("product", chain.ideals[0], chain.ideals[0])
    assert square.members  # J^2 is not 0, so J >= J >= 0 is not squeezed
    assert verdict == IdentityCheck(
        name="waterhouse_iff",
        ok=False,
        counterexample=(True, False, (2, tuple(sorted(square.members)))),
    )
