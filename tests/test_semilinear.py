from __future__ import annotations

import random
from itertools import product

import pytest

import cocycle_forge as cf
from cocycle_forge import semilinear
from cocycle_forge.cocycles import CocycleViolation
from cocycle_forge.errors import InternalInvariantError, ValidationError

from conftest import GOLDEN_R_VALUES, GOLDEN_ROWS


def _ideal(ctx, *members):
    return cf.MonomialIdeal.from_members(ctx, frozenset(members))


def _radical(ctx):
    return _ideal(ctx, *ctx.gstar)


def _full_chain(ctx, *middles):
    ideals = (_radical(ctx),) + tuple(_ideal(ctx, *m) for m in middles) + (_ideal(ctx),)
    return cf.DescendingChain(ideals=ideals)


def test_naturals_monoid_basics():
    nat = cf.AdditiveNaturals()
    assert nat.neutral == 0
    assert nat.combine(3, 4) == 7
    assert nat.lt(0, 5) and not nat.lt(5, 0)
    assert nat.le(5, 5)
    assert nat.contains(7)
    assert not nat.contains(-1)
    assert not nat.contains(True)  # bools are not element labels


def test_lex_product_ordering():
    lex = cf.LexProduct((cf.AdditiveNaturals(), cf.AdditiveNaturals()))
    assert lex.neutral == (0, 0)
    assert lex.combine((1, 2), (3, 4)) == (4, 6)
    assert lex.lt((1, 9), (2, 0))
    assert not lex.lt((2, 0), (1, 9))
    assert lex.contains((0, 3))
    assert not lex.contains((0,))
    with pytest.raises(ValidationError, match="at least one factor"):
        cf.LexProduct(())


def test_as_semilinear_golden(z9, golden_r):
    assert golden_r.values == GOLDEN_R_VALUES
    assert golden_r.group == z9


def test_validate_r_reports_violations(z9):
    nat = cf.AdditiveNaturals()
    report = cf.validate_r(z9, nat, (1, 1, 2, 3, 4, 1, 2, 3, 3))
    assert isinstance(report, cf.RViolation)
    assert report.kind == "neutral"
    assert report.where == (0,)
    report = cf.validate_r(z9, nat, (0, 1, 2, 3, 9, 1, 2, 3, 3))
    assert isinstance(report, cf.RViolation)
    assert report.kind == "subadditive"
    # first (s, t) in row-major order with r(st) > r(s) + r(t)
    assert report.where == (1, 3)
    report = cf.validate_r(z9, nat, (0, 1, 2, 3, 4, 1, 2, 3, -1))
    assert report.kind == "element"
    assert report.where == (8,)
    with pytest.raises(ValidationError, match="length violation"):
        cf.as_semilinear(z9, nat, (0, 1, 2))


def test_cocycle_from_r_golden(golden_r):
    assert cf.cocycle_from_r(golden_r).rows() == GOLDEN_ROWS


def test_cocycle_from_r_equality_rule(z9, golden_r):
    f = cf.cocycle_from_r(golden_r)
    r = golden_r.values
    for s in range(9):
        for t in range(9):
            expect = 1 if r[z9.mul(s, t)] == r[s] + r[t] else 0
            assert f.values[s][t] == expect


def test_chain_lift_example_column(golden_r, golden_ctx):
    # 3-chain through I3: the lift grades r by chain depth
    chain = _full_chain(golden_ctx, (6, 7))
    lifted = cf.chain_lift(golden_r, chain)
    assert lifted.values == (
        (0, 0, 0, 0),
        (1, 1, 1, 0),
        (2, 2, 2, 0),
        (3, 3, 3, 0),
        (4, 4, 4, 0),
        (1, 1, 1, 0),
        (2, 2, 0, 0),
        (3, 3, 0, 0),
        (3, 3, 3, 0),
    )
    assert lifted.monoid.neutral == (0, 0, 0, 0)


def test_chain_lift_full_chain_gives_equal_cocycle(golden_r, golden_ctx):
    chain = _full_chain(golden_ctx, (2, 3, 4, 6, 7), (4,))
    lifted = cf.chain_lift(golden_r, chain)
    chain_f = cf.cocycle_from_chain(golden_ctx, chain)
    assert cf.cocycle_from_r(lifted).values == chain_f.values


def test_chain_lift_partial_chain_sandwich(golden_r, golden_ctx):
    chain = cf.DescendingChain(ideals=(_radical(golden_ctx), _ideal(golden_ctx, 6, 7)))
    lifted = cf.chain_lift(golden_r, chain)
    f_chain = cf.cocycle_from_chain(golden_ctx, chain)
    f_lift = cf.cocycle_from_r(lifted)
    f = cf.cocycle_from_r(golden_r)
    assert cf.compare(f_chain, f_lift) in (cf.LESS, cf.EQUAL)
    assert cf.compare(f_lift, f) in (cf.LESS, cf.EQUAL)


def test_chain_lift_requires_matching_cocycle(golden_r, d3_ctx):
    chain = cf.DescendingChain(ideals=(_radical(d3_ctx), _ideal(d3_ctx)))
    for lift in (cf.chain_lift, cf.padded_lift):
        with pytest.raises(ValidationError, match="does not match the induced"):
            lift(golden_r, chain)


def test_padded_lift_pads_to_full_endpoints(golden_r, golden_ctx):
    chain = cf.DescendingChain(ideals=(_radical(golden_ctx), _ideal(golden_ctx, 6, 7)))
    result = cf.padded_lift(golden_r, chain)
    assert isinstance(result, cf.PaddedLift)
    assert result.certified
    assert result.chain.ideals[0].members == frozenset(range(1, 9))
    assert result.chain.ideals[-1].members == frozenset()
    assert len(result.chain) >= 3
    assert result.lifted.values[0] == result.lifted.monoid.neutral
    f_chain = cf.cocycle_from_chain(golden_ctx, cf.DescendingChain(
        ideals=(_radical(golden_ctx), _ideal(golden_ctx, 6, 7))
    ))
    assert cf.cocycle_from_r(result.lifted).values == f_chain.values


def test_padded_lift_keeps_full_chain(golden_r, golden_ctx):
    chain = _full_chain(golden_ctx, (6, 7))
    result = cf.padded_lift(golden_r, chain)
    assert result.certified
    assert [i.members for i in result.chain.ideals] == [i.members for i in chain.ideals]


def test_search_realization_recovers_golden(golden_ctx):
    found = cf.search_realization(golden_ctx, bound=4)
    assert isinstance(found, cf.SemilinearMap)
    assert found.values == GOLDEN_R_VALUES
    assert cf.cocycle_from_r(found).values == golden_ctx.cocycle.values


def test_search_realization_exhaustion(d3_ctx):
    result = cf.search_realization(d3_ctx, bound=20)
    assert isinstance(result, cf.ExhaustionCertificate)
    assert result.bound == 20
    assert result.nodes_explored > 0


def test_search_realization_rejects_bad_bound(golden_ctx):
    with pytest.raises(ValidationError, match="bound"):
        cf.search_realization(golden_ctx, bound=0)


def test_random_semilinear_always_validates():
    rng = random.Random(7)
    for n in (2, 3, 5, 8):
        g = cf.make_cyclic(n)
        for _ in range(25):
            r = cf.random_semilinear(g, rng)
            assert isinstance(r, cf.SemilinearMap)
            f = cf.cocycle_from_r(r)
            assert isinstance(cf.validate_cocycle(f.values, g), cf.Cocycle)


class _MaxNaturals(cf.AdditiveNaturals):
    """(N, max): a totally ordered monoid, not strictly translation compatible."""

    def combine(self, x, y):
        return max(x, y)


class _SaturatingNaturals(cf.AdditiveNaturals):
    """Addition capped at 3, on 0..3."""

    def combine(self, x, y):
        return min(x + y, 3)

    def contains(self, x):
        return super().contains(x) and x <= 3


@pytest.mark.parametrize("monoid", [_MaxNaturals(), _SaturatingNaturals()], ids=["max", "saturating"])
@pytest.mark.parametrize("group", [cf.make_cyclic(4), cf.make_dihedral(3)], ids=["c4", "d3"])
def test_cocycle_from_r_names_the_broken_axiom(monoid, group):
    refused = 0
    for tail in product(range(4), repeat=group.order - 1):
        r = cf.validate_r(group, monoid, (0,) + tail)
        if not isinstance(r, cf.SemilinearMap):
            continue
        try:
            cf.cocycle_from_r(r)
        except ValidationError as exc:
            assert "not strictly translation compatible" in str(exc)
            refused += 1
    assert refused


def test_cocycle_from_r_keeps_the_invariant_error_for_a_lawful_monoid(monkeypatch, golden_r):
    violation = CocycleViolation(kind="identity", where=(1, 1, 1), detail="injected")
    monkeypatch.setattr(semilinear, "validate_cocycle", lambda table: violation)
    with pytest.raises(InternalInvariantError, match="induced table is not a cocycle"):
        cf.cocycle_from_r(golden_r)


def test_the_neutral_fiber_is_built_once_and_a_broken_one_raises_on_every_read(z9, golden_r):
    fiber = golden_r.m_subgroup
    assert fiber.members == (0,)
    assert golden_r.m_subgroup is fiber
    assert golden_r == cf.as_semilinear(z9, cf.AdditiveNaturals(), GOLDEN_R_VALUES)
    # fabricated past validate_r: the fiber {0, 1} of Z/9 is no subgroup
    fabricated = cf.SemilinearMap(
        group=z9, monoid=cf.AdditiveNaturals(), values=(0, 0, 1, 1, 1, 1, 1, 1, 1)
    )
    for _ in range(2):
        with pytest.raises(ValidationError, match="not closed under inverse at 1"):
            fabricated.m_subgroup
