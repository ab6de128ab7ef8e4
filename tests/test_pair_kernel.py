"""The property sweep decides each pair of ideals in one kernel.

sum_product, intersection_vee and cap_zero are decided per pair by
sweep._pair_verdicts on packed tables: the four pair tables over the sum,
read by their own keys, and the packed quotient of each ideal.  Every
verdict must equal what check_identity computes from scratch, and a
corrupted pair table or quotient must be caught by the kernel itself.
"""

from __future__ import annotations

from itertools import combinations

import pytest

import cocycle_forge as cf
from cocycle_forge import decomposition, sweep
from cocycle_forge.census import enumerate_ideals
from cocycle_forge.errors import InternalInvariantError, ValidationError

PAIR_CHECKS = ("sum_product", "intersection_vee", "cap_zero")
# D3 census cocycle 87: 8 ideals, J^2 = [1, 3, 4]
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


def _quotients(ctx, ideals):
    return {ideal.mask: cf.cocycle_mod_ideal(ctx, ideal).packed for ideal in ideals}


def _reference(ctx, a, b):
    """The pair's verdicts from check_identity, one call per check."""
    outer = cf.ideal_lattice_op("sum", a, b)
    verdicts = [
        cf.check_identity(name, ctx, outer=outer, inner=[a, b]) for name in PAIR_CHECKS[:2]
    ]
    if not a.mask & b.mask:
        verdicts.append(cf.check_identity("cap_zero", ctx, ideals=[a, b]))
    return verdicts


def _summary(verdicts):
    return [(v.name, v.ok, v.counterexample) for v in verdicts]


@pytest.mark.parametrize(
    "group",
    [cf.make_cyclic(3), cf.make_cyclic(4), cf.make_cyclic(5), cf.make_dihedral(3)],
    ids=["c3", "c4", "c5", "d3"],
)
def test_pair_kernel_matches_check_identity(group):
    for ctx in _census_contexts(group):
        ref = cf.AlgebraContext(ctx.cocycle)  # caches of its own
        ideals = enumerate_ideals(ctx)
        by_mask = {ideal.mask: ideal for ideal in enumerate_ideals(ref)}
        pairs = list(combinations(ideals, 2))
        seen = 0
        for kinds, pair, outcomes in sweep._pair_verdicts(ctx, ideals, _quotients(ctx, ideals)):
            assert pair == pairs[seen]
            seen += 1
            a, b = pair
            expected = _reference(ref, by_mask[a.mask], by_mask[b.mask])
            assert kinds == PAIR_CHECKS[: len(expected)]
            assert _summary(outcomes) == _summary(expected)
            if all(v.ok for v in expected):
                assert outcomes is sweep._PAIR_PASSED[kinds]
        assert seen == len(pairs)


@pytest.mark.parametrize("members", [(1, 2, 3, 4, 5), (1, 3, 4, 5)], ids=["radical", "middle"])
def test_a_flipped_pair_table_fails_the_kernel_as_check_identity(members):
    ctx = _context_87()
    ideals = enumerate_ideals(ctx)
    quotients = _quotients(ctx, ideals)
    list(sweep._pair_verdicts(ctx, ideals, quotients))  # fills the pair tables
    u = cf.MonomialIdeal.from_members(ctx, members).mask
    ctx._chain_cache[(u, u)] ^= 1 << 7  # the cell (1, 1)
    failed = 0
    for kinds, (a, b), outcomes in sweep._pair_verdicts(ctx, ideals, quotients):
        expected = _reference(ctx, a, b)
        assert _summary(outcomes) == _summary(expected)
        failed += not outcomes[0].ok
        assert outcomes[0].ok == (a.mask | b.mask != u)
    assert failed


def test_a_wrong_quotient_fails_cap_zero():
    ctx = _context_87()
    ideals = enumerate_ideals(ctx)
    quotients = _quotients(ctx, ideals)
    target = ideals[1]
    f = ctx.cocycle.packed
    bit = (~f & -~f).bit_length() - 1  # the first cell where f is 0
    quotients[target.mask] |= 1 << bit
    s, t = divmod(bit, ctx.group.order)
    failed = 0
    for kinds, (a, b), outcomes in sweep._pair_verdicts(ctx, ideals, quotients):
        verdicts = dict(zip(kinds, outcomes))
        assert verdicts["sum_product"].ok and verdicts["intersection_vee"].ok
        if "cap_zero" not in verdicts:
            continue
        if target in (a, b):
            failed += 1
            assert verdicts["cap_zero"].counterexample == (s, t, 0, 1)
            assert cf.check_identity("cap_zero", ctx, ideals=[a, b]).ok  # the kernel alone
        else:
            assert verdicts["cap_zero"].ok
    assert failed


def test_a_disjoint_pair_with_one_missing_quotient_fails_cap_zero_as_check_identity(monkeypatch):
    ctx = _context_87()
    ideals = enumerate_ideals(ctx)
    target = ideals[-1]  # J; only the zero ideal is disjoint from it
    real = decomposition.cocycle_mod_ideal

    def cocycle_mod_ideal(ctx, ideal):
        if ideal.mask == target.mask:
            raise InternalInvariantError("no quotient")
        return real(ctx, ideal)

    monkeypatch.setattr(decomposition, "cocycle_mod_ideal", cocycle_mod_ideal)
    quotients = _quotients(ctx, [ideal for ideal in ideals if ideal is not target])
    seen = 0
    for kinds, (a, b), outcomes in sweep._pair_verdicts(ctx, ideals, quotients):
        if "cap_zero" in kinds and target in (a, b):
            seen += 1
            expected = sweep._outcome(cf.check_identity, "cap_zero", ctx, ideals=[a, b])
            assert sweep._failure_suffix(outcomes[2]) == sweep._failure_suffix(expected)
            assert sweep._failure_suffix(expected) == " raised: no quotient"
    assert seen == 1
