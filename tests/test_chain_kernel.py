"""The property sweep checks each chain's three identities in one pass.

leq_f, chain_break and waterhouse_iff are decided per chain by
census._chain_verdicts, which walks the chains in the order of
census._chain_keys, from the chain cocycle, built from the layer cells
carried from the parent chain, the join of the pair tables and the first
unsqueezed link, the last two also carried.  The walk must list the keys of
_chain_keys under every cap, every verdict must equal what check_identity
computes from scratch, the carried inputs must equal their from-scratch
values, and the failure reports under injected faults must match a loop
through check_identity byte for byte.
"""

from __future__ import annotations

import gc
import random
import weakref
from functools import reduce
from operator import or_
from types import SimpleNamespace

import pytest

import cocycle_forge as cf
from cocycle_forge import algebra, census, decomposition
from cocycle_forge.census import CHAIN_CHECKS, descending_multichains, enumerate_ideals
from cocycle_forge.cocycles import _pack_rows
from cocycle_forge.errors import ForgeError, InternalInvariantError, ValidationError

# D3 census cocycle 87: 8 ideals and 397 chains; J^2 = [1, 3, 4] and
# [1, 3, 4, 5]^2 = [1], every smaller ideal squares to 0
ROWS_87 = ("111111", "100000", "100001", "100001", "100000", "101010")


def _census_contexts(group, sample=None, searched=1_000_000):
    """The contexts of the group's census cocycles, or of a seeded sample of
    that many of them; the census stops after its first searched cocycles."""
    config = cf.CensusConfig(group=group, max_candidates=searched)
    cocycles = cf.enumerate_cocycles(config).cocycles
    if sample is not None:
        cocycles = random.Random(0).sample(cocycles, sample)
    out = []
    for c in cocycles:
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


# (group, cocycles searched, contexts, chains checked per context): every C4
# and D3 census context and chain; a seeded sample of C7 and D4 contexts,
# each walked in full and a seeded sample of its chains checked, so that
# chains with four distinct layers on orders 7 and 8 are covered (the level
# order reaches them only past half of a context's chains).  The D4 sample
# comes from the first 5,000 of the 21,830 census cocycles, which the census
# search lists in a fifth of the time it takes for all of them.
SWEEPS = {
    "c4": (cf.make_cyclic(4), 1_000_000, None, None),
    "d3": (cf.make_dihedral(3), 1_000_000, None, None),
    "c7": (cf.make_cyclic(7), 1_000_000, 8, 400),
    "d4": (cf.make_dihedral(4), 5_000, 8, 400),
}


@pytest.mark.parametrize("sweep", list(SWEEPS))
def test_chain_pass_matches_the_from_scratch_checks(sweep):
    group, searched, sample, checked = SWEEPS[sweep]
    rng = random.Random(0)
    distinct = 0
    for ctx in _census_contexts(group, sample, searched):
        ref = cf.AlgebraContext(ctx.cocycle)  # caches of its own
        ideals = enumerate_ideals(ctx)
        by_mask = {ideal.mask: ideal for ideal in ideals}
        keys, truncated = census._chain_keys(ideals, cap=census._chain_count(ideals))
        assert not truncated
        walk = list(census._chain_verdicts(ctx, ideals, len(keys)))
        assert [key for key, _, _ in walk] == keys
        for key, verdicts, (join, witness) in walk if checked is None else rng.sample(walk, checked):
            distinct += len(set(key)) == 4
            chain = cf.DescendingChain(ideals=tuple(by_mask[m] for m in key))
            assert verdicts == tuple(
                cf.check_identity(name, ref, chain=chain) for name in CHAIN_CHECKS
            )
            pairs = [
                decomposition._subchain_masks(ref, chain, i, i + 2)
                for i in range(len(chain) - 1)
            ]
            assert join == reduce(or_, pairs)
            assert witness == decomposition._first_unsqueezed(chain)
    assert distinct


@pytest.mark.parametrize("group", [cf.make_cyclic(4), cf.make_dihedral(3)], ids=["c4", "d3"])
def test_the_walk_lists_the_chain_keys_up_to_the_cap(group):
    swept = set()  # the chain count depends only on the containment relation
    for ctx in _census_contexts(group):
        ideals = enumerate_ideals(ctx)
        total = census._chain_count(ideals)
        contained = tuple(tuple(small <= big for big in ideals) for small in ideals)
        for cap in sorted({1, 7, max(total // 2, 1), total, total + 1}):
            walked = [key for key, _, _ in census._chain_verdicts(ctx, ideals, cap)]
            assert walked == census._chain_keys(ideals, cap=cap)[0]
            if contained not in swept:
                result = cf.check_cocycle_properties(ctx.cocycle, cap)
                assert (result.chains_truncated, result.chains_total) == (total > cap, total)
        swept.add(contained)


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
        label = census._label(chain.masks)
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
    [
        ((1, 3, 4, 5), (1, 3, 4)),
        ((1, 2, 3, 4, 5), (1, 3, 4), (1,)),
        ((1, 2, 3, 4, 5), (1, 3, 4), (1,), ()),
    ],
    ids=["pair", "triple", "quadruple"],
)
def test_a_raising_chain_cocycle_fails_all_three_checks(monkeypatch, target):
    real = decomposition._chain_table
    masks = tuple(_ideal(_context_87(), m).mask for m in target)

    def chain_table(ctx, key, *rest):
        if key == masks:
            raise InternalInvariantError("injected")
        return real(ctx, key, *rest)

    monkeypatch.setattr(decomposition, "_chain_table", chain_table)
    monkeypatch.setattr(census, "_chain_table", chain_table)
    if len(target) > 2:
        # past two terms the real _chain_table depends only on ctx and the
        # layer cells, and the state walk builds one table per state from
        # its first key, so a raise for one key is met by the exact walk only
        monkeypatch.setattr(census, "_chain_pass_count", lambda *args: None)
    failures = _suite_chain_failures(_context_87())
    assert failures == _reference_chain_failures(_context_87())
    label = f"chain={[list(m) for m in target]} raised: injected"
    assert failures[:3] == [(name, label) for name in CHAIN_CHECKS]
    if len(target) > 2:
        # a chain's raise reaches none of its children
        assert len(failures) == 3
    else:
        # every longer chain with this link reads the pair table and raises
        assert {check for check, _ in failures[3:]} == {"chain_break"}


def test_a_wrong_pair_table_breaks_chain_break(monkeypatch):
    def inject(ctx):
        outer, inner = _ideal(ctx, (1, 2, 3, 4, 5)), _ideal(ctx, (1, 3, 4))
        real = cf.cocycle_from_chain(ctx, cf.DescendingChain(ideals=(outer, inner)))
        wrong = real.masks[:5] + (real.masks[5] ^ 0b100,)
        ctx._chain_cache[(outer.mask, inner.mask)] = _pack_rows(wrong, ctx.group.order)
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


@pytest.mark.parametrize("sweep", list(SWEEPS))
def test_the_state_walk_counts_every_chain(sweep):
    group, searched, sample, _ = SWEEPS[sweep]
    for ctx in _census_contexts(group, sample, searched):
        ideals = enumerate_ideals(ctx)
        total = census._chain_count(ideals)
        assert census._chain_pass_count(ctx, ideals, total) == total
        assert census._chain_pass_count(ctx, ideals, total - 1) is None


# C5 census cocycle 25: the table of J >= [1, 3] >= 0 is the table of no
# two-term chain, so the state walk meets it only as a state's own table
ROWS_C5_25 = ("11111", "10000", "10101", "10010", "10100")


def _context_c5_25():
    c5 = cf.make_cyclic(5)
    return cf.AlgebraContext(cf.as_cocycle([[int(v) for v in row] for row in ROWS_C5_25], c5))


@pytest.mark.parametrize(
    "context, target, pair_table",
    [
        (_context_87, ((1, 2, 3, 4, 5), (1, 3, 4), (1,)), True),
        (_context_c5_25, ((1, 2, 3, 4), (1, 3), ()), False),
    ],
    ids=["d3-87", "c5-25"],
)
def test_a_refused_chain_table_sends_the_sweep_to_the_exact_walk(
    monkeypatch, context, target, pair_table
):
    ctx = context()
    ideals = enumerate_ideals(ctx)
    refused = decomposition._chain_table(ctx, tuple(_ideal(ctx, m).mask for m in target))
    keys, _ = census._chain_keys(ideals)
    pairs = {decomposition._chain_table(ctx, key) for key in keys if len(key) == 2}
    assert (refused in pairs) == pair_table
    real = decomposition._finish

    def finish(ctx, packed, what):
        if packed == refused:
            raise InternalInvariantError("refused")
        return real(ctx, packed, what)

    monkeypatch.setattr(decomposition, "_finish", finish)
    ctx = context()
    assert census._chain_pass_count(ctx, enumerate_ideals(ctx), 10_000) is None
    failures = _suite_chain_failures(context())
    assert failures == _reference_chain_failures(context())
    assert ("leq_f", f"chain={[list(m) for m in target]} raised: refused") in failures


def _outside_f_in_w(monkeypatch, ctx):
    # the Waterhouse table with the cell (1, 1), where f is 0, and no
    # validation of the tables built on it: every chain table leaves f
    monkeypatch.setattr(decomposition, "_finish", lambda ctx, packed, what: None)
    ctx._waterhouse = SimpleNamespace(packed=algebra._waterhouse_of(ctx).packed | 1 << 7)


def _pair_table_without_a_cell(monkeypatch, ctx):
    # J >= [1] loses the cell (5, 2), which its longer chains keep
    key = (_ideal(ctx, (1, 2, 3, 4, 5)).mask, _ideal(ctx, (1,)).mask)
    ctx._chain_cache[key] = decomposition._chain_table(ctx, key) & ~(1 << 5 * 6 + 2)


def _square_of_j_read_as_zero(monkeypatch, ctx):
    # every link below J looks squeezed, but J >= [1] keeps cells above W
    real = census.ideal_lattice_op

    def ideal_lattice_op(kind, a, b):
        if kind == "product" and a.mask == ctx._gstar_mask:
            return cf.MonomialIdeal(ctx=a.ctx, mask=0)
        return real(kind, a, b)

    monkeypatch.setattr(census, "ideal_lattice_op", ideal_lattice_op)


@pytest.mark.parametrize(
    "kind, fault",
    [
        ("leq_f", _outside_f_in_w),
        ("chain_break", _pair_table_without_a_cell),
        ("waterhouse_iff", _square_of_j_read_as_zero),
    ],
)
def test_each_chain_check_failing_alone_makes_the_state_walk_miss(monkeypatch, kind, fault):
    ctx = _context_87()
    fault(monkeypatch, ctx)
    ideals = enumerate_ideals(ctx)
    failed = {
        name
        for _, verdicts, _ in census._chain_verdicts(ctx, ideals, 10_000)
        for name, verdict in zip(CHAIN_CHECKS, verdicts)
        if not verdict.ok
    }
    assert failed == {kind}
    assert census._chain_pass_count(ctx, ideals, 10_000) is None
