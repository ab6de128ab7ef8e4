"""The property sweep decides each chain's three identities.

leq_f, chain_break and waterhouse_iff are decided for all the chains of a
context at once by the state walk sweep._chain_pass_count, which merges the
chains of equal state and counts them when every state passes.  When the
walk refuses a context, the sweep decides each chain of census._chain_keys,
up to the chain cap, through check_identity.  On clean census contexts the
walk must count every chain and check_identity must pass a seeded sample of
them; a refused context must send the keys of _chain_keys under every cap
to check_identity; and under each injected fault the walk must refuse and
the failure reports must match a loop through check_identity byte for byte.
"""

from __future__ import annotations

import gc
import random
import weakref
from types import SimpleNamespace

import pytest

import cocycle_forge as cf
from cocycle_forge import algebra, census, decomposition
from cocycle_forge import sweep as sweep_module
from cocycle_forge.census import descending_multichains, enumerate_ideals
from cocycle_forge.decomposition import CHAIN_CHECKS
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


# (group, cocycles searched, contexts): every C4 and D3 census context, and
# a seeded sample of C7 and D4 contexts, each walked in full and a seeded
# sample of CHECKED of its chains checked, so that chains with four distinct
# layers on orders 7 and 8 are covered (the level order reaches them only
# past half of a context's chains).  The D4 sample comes from the first
# 5,000 of the 21,830 census cocycles, which the census search lists in a
# fifth of the time it takes for all of them.
SWEEPS = {
    "c4": (cf.make_cyclic(4), 1_000_000, None),
    "d3": (cf.make_dihedral(3), 1_000_000, None),
    "c7": (cf.make_cyclic(7), 1_000_000, 8),
    "d4": (cf.make_dihedral(4), 5_000, 8),
}
CHECKED = 400


def _chains_sent_to_check_identity(monkeypatch):
    """Patch sweep.check_identity to record the key of each chain it gets,
    once per chain, and to pass every chain check without computing it."""
    sent = []
    real = sweep_module.check_identity

    def check_identity(name, ctx, **kwargs):
        if "chain" not in kwargs:
            return real(name, ctx, **kwargs)
        if name == CHAIN_CHECKS[0]:
            sent.append(kwargs["chain"].masks)
        return decomposition._PASSED[name]

    monkeypatch.setattr(sweep_module, "check_identity", check_identity)
    return sent


@pytest.mark.parametrize("group", [cf.make_cyclic(4), cf.make_dihedral(3)], ids=["c4", "d3"])
def test_the_walk_lists_the_chain_keys_up_to_the_cap(monkeypatch, group):
    swept = set()  # the chain count depends only on the containment relation
    for ctx in _census_contexts(group):
        ideals = enumerate_ideals(ctx)
        contained = tuple(tuple(small <= big for big in ideals) for small in ideals)
        if contained in swept:
            continue
        swept.add(contained)
        total = census._chain_count(ideals)
        caps = sorted({1, 7, max(total // 2, 1), total, total + 1})
        for cap in caps:  # a clean context: the walk counts every chain
            result = cf.check_cocycle_properties(ctx.cocycle, cap)
            assert (result.chains_truncated, result.chains_total) == (False, total)
            assert result.counts["leq_f"] == total
        with monkeypatch.context() as patch:  # a refused one: the cap's keys
            patch.setattr(sweep_module, "_chain_pass_count", lambda *args: None)
            sent = _chains_sent_to_check_identity(patch)
            for cap in caps:
                sent.clear()
                result = cf.check_cocycle_properties(ctx.cocycle, cap)
                assert (result.chains_truncated, result.chains_total) == (total > cap, total)
                assert sent == census._chain_keys(ideals, cap=cap)[0]


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
    result = sweep_module._run_suite_checks(ctx, 10_000)
    return [(f.check, f.detail) for f in result.failures if f.check in CHAIN_CHECKS]


def _reference_chain_failures(ctx):
    """The chain checks as the sweep ran them before the one-pass kernel:
    one check_identity call per check, a raise reported as a failure."""
    out = []
    chains, _ = descending_multichains(enumerate_ideals(ctx))
    for chain in chains:
        label = sweep_module._label(chain.masks)
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
    monkeypatch.setattr(sweep_module, "_chain_table", chain_table)
    if len(target) > 2:
        # past two terms the real _chain_table depends only on ctx and the
        # layer cells, and the state walk builds one table per state from
        # its first key, so a raise for one key is met by check_identity only
        monkeypatch.setattr(sweep_module, "_chain_pass_count", lambda *args: None)
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
    monkeypatch.setattr(sweep_module, "ideal_lattice_op", ideal_lattice_op)
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
    real = sweep_module._run_suite_checks

    def run_suite_checks(ctx, max_chains):
        refs.append(weakref.ref(ctx))
        return real(ctx, max_chains)

    monkeypatch.setattr(sweep_module, "_run_suite_checks", run_suite_checks)
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
    group, searched, sample = SWEEPS[sweep]
    rng = random.Random(0)
    distinct = 0
    for ctx in _census_contexts(group, sample, searched):
        ideals = enumerate_ideals(ctx)
        total = census._chain_count(ideals)
        assert sweep_module._chain_pass_count(ctx, ideals) == total
        ref = cf.AlgebraContext(ctx.cocycle)  # caches of its own
        chains, _ = descending_multichains(enumerate_ideals(ref), cap=total)
        for chain in rng.sample(chains, min(CHECKED, total)):
            distinct += len(set(chain.masks)) == 4
            for name in CHAIN_CHECKS:
                assert cf.check_identity(name, ref, chain=chain).ok
    assert distinct


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
def test_a_refused_chain_table_sends_the_sweep_to_check_identity(
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
    assert sweep_module._chain_pass_count(ctx, enumerate_ideals(ctx)) is None
    failures = _suite_chain_failures(context())
    assert failures == _reference_chain_failures(context())
    assert ("leq_f", f"chain={[list(m) for m in target]} raised: refused") in failures


def _outside_f_in_w(monkeypatch, ctx):
    # the Waterhouse table with the cell (1, 1), where f is 0, and no
    # validation of the tables built on it: every chain table leaves f
    def unvalidated(ctx, packed, what):
        return cf.Cocycle.from_packed(ctx.group, packed)

    monkeypatch.setattr(decomposition, "_finish", unvalidated)
    ctx._waterhouse = SimpleNamespace(packed=algebra._waterhouse_of(ctx).packed | 1 << 7)


def _pair_table_without_a_cell(monkeypatch, ctx):
    # J >= [1] loses the cell (5, 2), which its longer chains keep
    key = (_ideal(ctx, (1, 2, 3, 4, 5)).mask, _ideal(ctx, (1,)).mask)
    ctx._chain_cache[key] = decomposition._chain_table(ctx, key) & ~(1 << 5 * 6 + 2)


def _square_of_j_read_as_zero(monkeypatch, ctx):
    # every link below J looks squeezed, but J >= [1] keeps cells above W
    real = sweep_module.ideal_lattice_op

    def ideal_lattice_op(kind, a, b):
        if kind == "product" and a.mask == ctx._gstar_mask:
            return cf.MonomialIdeal(ctx=a.ctx, mask=0)
        return real(kind, a, b)

    monkeypatch.setattr(sweep_module, "ideal_lattice_op", ideal_lattice_op)
    monkeypatch.setattr(decomposition, "ideal_lattice_op", ideal_lattice_op)


# the chains each fault fails, all of them in its one kind
FAILING = {"leq_f": 397, "chain_break": 9, "waterhouse_iff": 46}


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
    assert sweep_module._chain_pass_count(ctx, enumerate_ideals(ctx)) is None
    # the faults reach the context's other checks too, so only the chain
    # checks run
    failures = _reference_chain_failures(ctx)
    assert {check for check, _ in failures} == {kind}
    assert len(failures) == FAILING[kind]
