"""The property sweep checks each chain's three identities in one pass.

leq_f, chain_break and waterhouse_iff are decided per chain by
census._chain_verdicts from the chain cocycle, the join of the pair tables
and the first unsqueezed link, the last two carried from the parent chain.
Every verdict must equal what check_identity computes from scratch, the
carried inputs must equal their from-scratch values, and the failure
reports under injected faults must match a loop through check_identity
byte for byte.
"""

from __future__ import annotations

import gc
import weakref
from functools import reduce
from operator import or_

import pytest

import cocycle_forge as cf
from cocycle_forge import census, decomposition
from cocycle_forge.census import CHAIN_CHECKS, descending_multichains, enumerate_ideals
from cocycle_forge.cocycles import BinaryTable
from cocycle_forge.errors import ForgeError, InternalInvariantError, ValidationError

# D3 census cocycle 87: 8 ideals and 397 chains; J^2 = [1, 3, 4] and
# [1, 3, 4, 5]^2 = [1], every smaller ideal squares to 0
ROWS_87 = ("111111", "100000", "100001", "100001", "100000", "101010")


def _census_contexts(group):
    out = []
    for c in cf.enumerate_cocycles(cf.CensusConfig(group=group)).cocycles:
        try:
            out.append(cf.AlgebraContext(c))
        except ValidationError:
            continue  # the all-ones cocycle has no G*
    return out


def _context_87():
    d3 = cf.make_dihedral(3)
    return cf.AlgebraContext(cf.as_cocycle([[int(v) for v in row] for row in ROWS_87], d3))


def _ideal(ctx, members):
    return cf.MonomialIdeal.from_members(ctx, frozenset(members))


@pytest.mark.parametrize("group", [cf.make_cyclic(4), cf.make_dihedral(3)], ids=["c4", "d3"])
def test_chain_pass_matches_the_from_scratch_checks(group):
    for ctx in _census_contexts(group):
        ref = cf.AlgebraContext(ctx.cocycle)  # caches of its own
        chains, _ = descending_multichains(enumerate_ideals(ctx))
        seen = 0
        for chain, verdicts, (join, witness) in census._chain_verdicts(ctx, chains):
            assert chain is chains[seen]
            seen += 1
            assert verdicts == tuple(
                cf.check_identity(name, ref, chain=chain) for name in CHAIN_CHECKS
            )
            pairs = [
                decomposition._subchain_masks(ref, chain, i, i + 2)
                for i in range(len(chain) - 1)
            ]
            assert join == tuple(reduce(or_, rows) for rows in zip(*pairs))
            assert witness == decomposition._first_unsqueezed(chain)
        assert seen == len(chains)


@pytest.mark.parametrize("group", [cf.make_cyclic(4), cf.make_dihedral(3)], ids=["c4", "d3"])
def test_every_chain_comes_after_its_parent(group):
    for ctx in _census_contexts(group):
        ideals = enumerate_ideals(ctx)
        full, _ = descending_multichains(ideals)
        for cap in (7, len(full) // 2, len(full)):
            chains, _ = descending_multichains(ideals, cap=cap)
            listed = set()
            for chain in chains:
                assert len(chain) == 2 or chain.masks[:-1] in listed
                listed.add(chain.masks)


def _suite_chain_failures(ctx):
    result = census._run_suite_checks(ctx, 10_000)
    return [(f.check, f.detail) for f in result.failures if f.check in CHAIN_CHECKS]


def _reference_chain_failures(ctx):
    """The chain checks as the sweep ran them before the one-pass kernel:
    one check_identity call per check, a raise reported as a failure."""
    out = []
    chains, _ = descending_multichains(enumerate_ideals(ctx))
    for chain in chains:
        label = census._chain_label(chain)
        for name in CHAIN_CHECKS:
            try:
                verdict = cf.check_identity(name, ctx, chain=chain)
            except ForgeError as exc:
                out.append((name, f"{label} raised: {exc}"))
            else:
                if not verdict.ok:
                    out.append((name, f"{label} {verdict.counterexample}"))
    return out


@pytest.mark.parametrize(
    "target",
    [((1, 3, 4, 5), (1, 3, 4)), ((1, 2, 3, 4, 5), (1, 3, 4), (1,))],
    ids=["pair", "triple"],
)
def test_a_raising_chain_cocycle_fails_all_three_checks(monkeypatch, target):
    real = decomposition.cocycle_from_chain
    masks = tuple(_ideal(_context_87(), m).mask for m in target)

    def cocycle_from_chain(ctx, chain):
        if chain.masks == masks:
            raise InternalInvariantError("injected")
        return real(ctx, chain)

    monkeypatch.setattr(decomposition, "cocycle_from_chain", cocycle_from_chain)
    monkeypatch.setattr(census, "cocycle_from_chain", cocycle_from_chain)
    failures = _suite_chain_failures(_context_87())
    assert failures == _reference_chain_failures(_context_87())
    label = f"chain={[list(m) for m in target]} raised: injected"
    assert failures[:3] == [(name, label) for name in CHAIN_CHECKS]
    if len(target) == 3:
        assert len(failures) == 3
    else:
        # every longer chain with this link reads the pair table and raises
        assert {check for check, _ in failures[3:]} == {"chain_break"}


def test_a_wrong_pair_table_breaks_chain_break(monkeypatch):
    def inject(ctx):
        outer, inner = _ideal(ctx, (1, 2, 3, 4, 5)), _ideal(ctx, (1, 3, 4))
        real = cf.cocycle_from_chain(ctx, cf.DescendingChain(ideals=(outer, inner)))
        wrong = real.masks[:5] + (real.masks[5] ^ 0b100,)
        ctx._chain_cache[(outer.mask, inner.mask)] = BinaryTable(group=ctx.group, masks=wrong)
        return ctx

    failures = _suite_chain_failures(inject(_context_87()))
    assert failures == _reference_chain_failures(inject(_context_87()))
    assert any(check == "chain_break" and "(5, 2, " in detail for check, detail in failures)


def test_a_raising_square_fails_only_the_chains_that_reach_it(monkeypatch):
    real = decomposition.ideal_lattice_op
    target = _ideal(_context_87(), (1,)).mask

    def ideal_lattice_op(kind, a, b):
        if kind == "product" and a.mask == target:
            raise InternalInvariantError("no square")
        return real(kind, a, b)

    monkeypatch.setattr(decomposition, "ideal_lattice_op", ideal_lattice_op)
    monkeypatch.setattr(census, "ideal_lattice_op", ideal_lattice_op)
    failures = _suite_chain_failures(_context_87())
    assert failures == _reference_chain_failures(_context_87())
    raised = {detail for check, detail in failures if check == "waterhouse_iff"}
    assert raised and all(detail.endswith(" raised: no square") for detail in raised)
    # J >= [1, 3] >= [1] >= 0 stops at its first link, as J^2 = [1, 3, 4];
    # in J >= [1, 3, 4] >= [1] >= 0 the first two links are squeezed
    assert "chain=[[1, 2, 3, 4, 5], [1, 3], [1], []] raised: no square" not in raised
    assert "chain=[[1, 2, 3, 4, 5], [1, 3, 4], [1], []] raised: no square" in raised


def test_the_context_is_freed_without_the_cycle_collector(monkeypatch):
    refs = []
    real = census._run_suite_checks

    def run_suite_checks(ctx, max_chains):
        refs.append(weakref.ref(ctx))
        return real(ctx, max_chains)

    monkeypatch.setattr(census, "_run_suite_checks", run_suite_checks)
    cocycle = _context_87().cocycle
    gc.collect()
    gc.disable()
    try:
        result = cf.check_cocycle_properties(cocycle)
        alive = refs[0]() is not None
    finally:
        gc.enable()
    assert result.failures == ()
    assert not alive
