"""The property sweep decides every pair of ideals of a context in one kernel.

sum_product, intersection_vee and cap_zero are decided for all pairs at
once by sweep._pairs_pass on packed tables: the four pair tables over each
sum, read by their own keys, and the packed quotient of each ideal that the
ideal pass hands over.  On the clean census the kernel passes every
context and check_identity passes every pair.  A corrupted pair table or
quotient, or a quotient that was not handed over, must make the kernel
refuse, and the sweep must then report what check_identity gives.
"""

from __future__ import annotations

from itertools import combinations

import pytest

import cocycle_forge as cf
from cocycle_forge import decomposition, sweep
from cocycle_forge.census import enumerate_ideals
from cocycle_forge.cocycles import Cocycle
from cocycle_forge.errors import ForgeError, InternalInvariantError, ValidationError

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


def _outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except ForgeError as exc:
        return exc


def _reference(ctx, a, b):
    """The pair's outcomes from check_identity, one call per check."""
    outer = _outcome(cf.ideal_lattice_op, "sum", a, b)
    outcomes = [
        outer if isinstance(outer, ForgeError)
        else _outcome(cf.check_identity, name, ctx, outer=outer, inner=[a, b])
        for name in PAIR_CHECKS[:2]
    ]
    if not a.mask & b.mask:
        outcomes.append(_outcome(cf.check_identity, "cap_zero", ctx, ideals=[a, b]))
    return outcomes


def _summary(outcomes):
    return [
        (type(o).__name__, str(o)) if isinstance(o, ForgeError) else (o.name, o.ok, o.counterexample)
        for o in outcomes
    ]


def _expected_failures(ctx, ideals):
    """The (check, detail) of each pair check that check_identity fails."""
    out = []
    for a, b in combinations(ideals, 2):
        label = f"pair=({sorted(a.members)}, {sorted(b.members)})"
        for name, o in zip(PAIR_CHECKS, _reference(ctx, a, b)):
            if isinstance(o, ForgeError):
                out.append((name, f"{label} raised: {o}"))
            elif not o.ok:
                out.append((name, f"{label} {o.counterexample}"))
    return out


def _pair_failures(ctx):
    """The (check, detail) of each pair check the sweep of ctx fails."""
    result = sweep._run_suite_checks(ctx, 10_000)
    return [(f.check, f.detail) for f in result.failures if f.check in PAIR_CHECKS]


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
        subjects = list(sweep._pair_subjects(ctx, ideals))
        assert [pair for _, pair, _ in subjects] == pairs
        for kinds, (a, b), outcomes in subjects:
            expected = _reference(ref, by_mask[a.mask], by_mask[b.mask])
            assert kinds == PAIR_CHECKS[: len(expected)]
            assert _summary(outcomes) == _summary(expected)
            assert all(v.ok for v in expected)
        disjoint = sum(1 for a, b in pairs if not a.mask & b.mask)
        assert sweep._pairs_pass(ctx, ideals, _quotients(ctx, ideals)) == disjoint


@pytest.mark.parametrize("members", [(1, 2, 3, 4, 5), (1, 3, 4, 5)], ids=["radical", "middle"])
def test_a_flipped_pair_table_fails_the_kernel_as_check_identity(members):
    ctx = _context_87()
    ideals = enumerate_ideals(ctx)
    quotients = _quotients(ctx, ideals)
    assert sweep._pairs_pass(ctx, ideals, quotients) is not None  # fills the pair tables
    u = cf.MonomialIdeal.from_members(ctx, members).mask
    ctx._chain_cache[(u, u)] ^= 1 << 7  # the cell (1, 1)
    assert sweep._pairs_pass(ctx, ideals, quotients) is None
    expected = _expected_failures(ctx, ideals)
    assert _pair_failures(ctx) == expected
    failed = [detail for name, detail in expected if name == "sum_product"]
    assert failed and len(failed) == sum(1 for a, b in combinations(ideals, 2) if a.mask | b.mask == u)


def test_a_wrong_quotient_fails_cap_zero():
    ctx = _context_87()
    ideals = enumerate_ideals(ctx)
    quotients = _quotients(ctx, ideals)
    target = ideals[1]
    f = ctx.cocycle.packed
    bit = (~f & -~f).bit_length() - 1  # the first cell where f is 0
    s, t = divmod(bit, ctx.group.order)
    wrong = dict(quotients)
    wrong[target.mask] |= 1 << bit
    assert sweep._pairs_pass(ctx, ideals, wrong) is None
    masks = list(ctx._mod_cache[target.mask].masks)
    masks[s] |= 1 << t
    ctx._mod_cache[target.mask] = Cocycle(group=ctx.group, masks=tuple(masks))
    expected = _expected_failures(ctx, ideals)
    assert _pair_failures(ctx) == expected
    disjoint = [b for b in ideals if b is not target and not b.mask & target.mask]
    assert expected == [
        ("cap_zero", f"pair=({sorted(a.members)}, {sorted(b.members)}) {(s, t, 0, 1)}")
        for a, b in combinations(ideals, 2)
        if target in (a, b) and (b if a is target else a) in disjoint
    ]
    assert expected


def test_a_disjoint_pair_with_one_missing_quotient_fails_cap_zero_as_check_identity(monkeypatch):
    ctx = _context_87()
    ideals = enumerate_ideals(ctx)
    target = ideals[-1]  # J; only the zero ideal is disjoint from it
    quotients = _quotients(ctx, [ideal for ideal in ideals if ideal is not target])
    assert sweep._pairs_pass(ctx, ideals, quotients) is None
    real = decomposition.cocycle_mod_ideal

    def cocycle_mod_ideal(ctx, ideal):
        if ideal.mask == target.mask:
            raise InternalInvariantError("no quotient")
        return real(ctx, ideal)

    monkeypatch.setattr(decomposition, "cocycle_mod_ideal", cocycle_mod_ideal)
    monkeypatch.setattr(sweep, "cocycle_mod_ideal", cocycle_mod_ideal)
    ctx = _context_87()
    expected = _expected_failures(ctx, enumerate_ideals(ctx))
    assert expected == [("cap_zero", "pair=([], [1, 2, 3, 4, 5]) raised: no quotient")]
    assert _pair_failures(ctx) == expected
