"""The sweep's kernels pass every clean census subject, and refusing is safe.

Each kernel decides a whole context or refuses it, and a refused context
goes to the from-scratch checks, so a kernel that refuses everywhere gives
the same outputs, only slower, and no output test would see it.  Over the
clean C4-D3 census the state walk must count every chain, and the ideal
and pair kernels must pass every context.  Conversely, with all three
kernels made to refuse, the sweep must report exactly what it reports with
them.
"""

from __future__ import annotations

import random

import pytest

import cocycle_forge as cf
from cocycle_forge import sweep
from cocycle_forge.census import enumerate_ideals
from cocycle_forge.errors import ValidationError
from cocycle_forge.generators import n1_set

GROUPS = (cf.make_cyclic(4), cf.make_cyclic(5), cf.make_cyclic(6), cf.make_dihedral(3))


def test_every_kernel_takes_its_fast_path_on_the_clean_census():
    contexts = chains = ideals_seen = pairs_seen = 0
    for group in GROUPS:
        for cocycle in cf.enumerate_cocycles(cf.CensusConfig(group=group)).cocycles:
            try:
                ctx = cf.AlgebraContext(cocycle)
            except ValidationError:
                continue  # the all-ones cocycle has no G*
            contexts += 1
            ideals = enumerate_ideals(ctx)
            count = sweep._chain_pass_count(ctx, ideals)
            assert count is not None
            chains += count
            trivial = cf.classify_annihilators(ctx)[0]
            quotients = {}
            assert sweep._ideals_pass(ctx, ideals, trivial, n1_set(ctx), quotients)
            assert set(quotients) == {ideal.mask for ideal in ideals}
            ideals_seen += len(ideals)
            disjoint = sweep._pairs_pass(ctx, ideals, quotients)
            assert disjoint == sum(
                1 for i, a in enumerate(ideals) for b in ideals[i + 1:] if not a.mask & b.mask
            )
            pairs_seen += len(ideals) * (len(ideals) - 1) // 2
    assert (contexts, chains, ideals_seen, pairs_seen) == (612, 623_103, 8_049, 54_229)


def _clean_cocycles(group):
    return [
        c for c in cf.enumerate_cocycles(cf.CensusConfig(group=group)).cocycles
        if cf.inertial_group(c).members != tuple(range(group.order))
    ]


def _sweep(cocycles):
    return [
        (r.counts, r.failures, r.chains_total, r.chains_truncated)
        for r in (cf.check_cocycle_properties(c, max_chains=10**9) for c in cocycles)
    ]


@pytest.mark.parametrize(
    "group, sample",
    [(cf.make_cyclic(4), None), (cf.make_cyclic(5), None), (cf.make_dihedral(3), 40)],
    ids=["c4", "c5", "d3"],
)
def test_refusing_every_kernel_changes_no_output(group, sample, monkeypatch):
    cocycles = _clean_cocycles(group)
    if sample is not None:
        cocycles = random.Random(0).sample(cocycles, sample)
    decided = _sweep(cocycles)
    assert all(result[0]["leq_f"] == result[2] for result in decided)
    monkeypatch.setattr(sweep, "_chain_pass_count", lambda *args: None)
    monkeypatch.setattr(sweep, "_ideals_pass", lambda *args: False)
    monkeypatch.setattr(sweep, "_pairs_pass", lambda *args: None)
    assert _sweep(cocycles) == decided
