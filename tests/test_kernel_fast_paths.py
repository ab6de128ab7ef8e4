"""The sweep's kernels take their fast path on every clean census subject.

Each kernel falls back to the from-scratch checks on a miss, so a kernel
that misses everywhere gives the same outputs, only slower, and no output
test would see it.  Over the clean C4-D3 census the state walk must count
every chain, and the ideal and pair kernels must yield their shared
all-pass objects for every ideal and pair.
"""

from __future__ import annotations

import cocycle_forge as cf
from cocycle_forge import census
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
            count = census._chain_pass_count(ctx, ideals, 10_000)
            assert count is not None
            chains += count
            trivial = cf.classify_annihilators(ctx)[0]
            quotients = {}
            for _, _, outcomes in census._ideal_verdicts(
                ctx, ideals, trivial, n1_set(ctx), quotients
            ):
                assert outcomes is census._IDEAL_PASSED
                ideals_seen += 1
            for kinds, _, outcomes in census._pair_verdicts(ctx, ideals, quotients):
                assert outcomes is census._PAIR_PASSED[kinds]
                pairs_seen += 1
    assert (contexts, chains, ideals_seen, pairs_seen) == (612, 623_103, 8_049, 54_229)
