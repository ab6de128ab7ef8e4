"""The property sweep decides each ideal's five checks in one kernel.

n1_of_quotient, ideal_members_trivial_in_quotient, fI_eq_f, morphism and
trivial_annih_replace are decided per ideal by sweep._ideal_verdicts: the
first two on the quotient context, the other three on masks and packed
tables.  Every outcome must equal what the from-scratch checks give, and a
corrupted pair table, quotient, trivial set or reach table must make the
kernel miss and report what the from-scratch checks report.
"""

from __future__ import annotations

import pytest

import cocycle_forge as cf
from cocycle_forge import sweep
from cocycle_forge.algebra import _mask_of
from cocycle_forge.census import enumerate_ideals
from cocycle_forge.cocycles import Cocycle
from cocycle_forge.decomposition import IdentityCheck
from cocycle_forge.errors import ForgeError, ValidationError

# a C5 census cocycle with 12 ideals, trivial annihilators [3, 4] and the
# non-trivial annihilator 2; 9 ideals meet [3, 4], 6 of them also hold more
ROWS_C5 = ("11111", "11000", "10000", "10000", "10000")
# a D3 census cocycle with 24 ideals, trivial annihilators [3, 4, 5] and the
# non-trivial annihilator 2
ROWS_D3 = ("111111", "110000", "100000", "100000", "100000", "100000")


def _census_contexts(group):
    out = []
    for c in cf.enumerate_cocycles(cf.CensusConfig(group=group)).cocycles:
        try:
            out.append(cf.AlgebraContext(c))
        except ValidationError:
            continue  # the all-ones cocycle has no G*
    return out


def _context(rows):
    group = cf.make_cyclic(5) if len(rows) == 5 else cf.make_dihedral(3)
    return cf.AlgebraContext(cf.as_cocycle([[int(v) for v in row] for row in rows], group))


def _outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except ForgeError as exc:
        return exc


def _from_scratch(ctx, ideal, trivial, base_n1):
    """The ideal's five outcomes, each check run on its own."""

    def quotient():
        return cf.AlgebraContext(cf.cocycle_mod_ideal(ctx, ideal))

    def replaceable():
        inner = cf.ideal_closure(ctx, trivial & ideal.members)
        return cf.check_identity("trivial_annih_replace", ctx, first=ideal, second=inner)

    return [
        _outcome(lambda: cf.n1_set(quotient()) == base_n1 | ideal.members),
        _outcome(lambda: ideal.members <= cf.classify_annihilators(quotient())[0]),
        _outcome(cf.check_identity, "fI_eq_f", ctx, ideal=ideal),
        _outcome(lambda: cf.morphism_check(ctx, ideal).ok),
        _outcome(replaceable),
    ]


def _summary(outcomes):
    out = []
    for o in outcomes:
        if isinstance(o, IdentityCheck):
            o = (o.name, o.ok, o.counterexample)
        elif isinstance(o, ForgeError):
            o = (type(o).__name__, str(o))
        out.append(o)
    return out


def _passed(outcomes):
    return all(o is True or isinstance(o, IdentityCheck) and o.ok for o in outcomes)


def _kernel(ctx, ideals, trivial=None):
    """(ideal, outcomes) for each ideal from the kernel, and the quotients."""
    if trivial is None:
        trivial = cf.classify_annihilators(ctx)[0]
    quotients = {}
    verdicts = sweep._ideal_verdicts(ctx, ideals, trivial, cf.n1_set(ctx), quotients)
    out = []
    for kinds, ideal, outcomes in verdicts:
        assert kinds == sweep._IDEAL_CHECKS
        out.append((ideal, outcomes))
    return out, quotients


@pytest.mark.parametrize(
    "group",
    [cf.make_cyclic(3), cf.make_cyclic(4), cf.make_cyclic(5), cf.make_cyclic(6),
     cf.make_dihedral(3)],
    ids=["c3", "c4", "c5", "c6", "d3"],
)
def test_ideal_kernel_matches_the_from_scratch_checks(group):
    for ctx in _census_contexts(group):
        ref = cf.AlgebraContext(ctx.cocycle)  # caches of its own
        ref_trivial = cf.classify_annihilators(ref)[0]
        ref_n1 = cf.n1_set(ref)
        ideals = enumerate_ideals(ctx)
        by_mask = {ideal.mask: ideal for ideal in enumerate_ideals(ref)}
        verdicts, quotients = _kernel(ctx, ideals)
        assert [ideal for ideal, _ in verdicts] == ideals
        for ideal, outcomes in verdicts:
            expected = _from_scratch(ref, by_mask[ideal.mask], ref_trivial, ref_n1)
            assert _summary(outcomes) == _summary(expected)
            assert (outcomes is sweep._IDEAL_PASSED) == _passed(expected)
        assert quotients == {
            mask: cf.cocycle_mod_ideal(ref, ideal).packed for mask, ideal in by_mask.items()
        }


def _trivial_mask(ctx):
    return _mask_of(cf.classify_annihilators(ctx)[0])


@pytest.mark.parametrize("key", ["whole", "inner"])
def test_a_flipped_pair_table_misses_the_kernel(key):
    ctx = _context(ROWS_C5)
    ideals = enumerate_ideals(ctx)
    _kernel(ctx, ideals)  # fills the pair tables
    t_mask = _trivial_mask(ctx)
    trivial = cf.classify_annihilators(ctx)[0]
    missed = 0
    for target in ideals:
        inner = cf.ideal_closure(ctx, trivial & target.members).mask
        if not inner:
            continue  # (m, inner) is (m, 0): one table
        table = (target.mask, 0 if key == "whole" else inner)
        ctx._chain_cache[table] ^= 1 << 6  # the cell (1, 1)
        for ideal, outcomes in _kernel(ctx, ideals)[0]:
            expected = _from_scratch(ctx, ideal, trivial, cf.n1_set(ctx))
            assert _summary(outcomes) == _summary(expected)
            if ideal is target:
                assert outcomes is not sweep._IDEAL_PASSED
                assert not outcomes[4].ok
                missed += 1
            else:
                assert outcomes is sweep._IDEAL_PASSED
        ctx._chain_cache[table] ^= 1 << 6
    assert missed == sum(1 for i in ideals if i.mask & t_mask) == 9


def test_a_wrong_quotient_misses_the_kernel():
    ctx = _context(ROWS_C5)
    ideals = enumerate_ideals(ctx)
    t_mask = _trivial_mask(ctx)
    trivial = cf.classify_annihilators(ctx)[0]
    _kernel(ctx, ideals)  # fills the quotient cache
    missed = 0
    for target in ideals:
        if not target.mask & ~t_mask:
            continue  # its quotient is f itself
        real = ctx._mod_cache[target.mask]
        ctx._mod_cache[target.mask] = ctx.cocycle  # as if the ideal held no product
        for ideal, outcomes in _kernel(ctx, ideals)[0]:
            expected = _from_scratch(ctx, ideal, trivial, cf.n1_set(ctx))
            assert _summary(outcomes) == _summary(expected)
            assert (outcomes is sweep._IDEAL_PASSED) == (ideal is not target)
        assert not _passed(_from_scratch(ctx, target, trivial, cf.n1_set(ctx)))
        ctx._mod_cache[target.mask] = real
        missed += 1
    assert missed == 8


@pytest.mark.parametrize("rows", [ROWS_C5, ROWS_D3], ids=["c5", "d3"])
def test_every_one_cell_flip_of_a_quotient_reads_as_from_scratch(rows):
    ctx = _context(rows)
    ideals = enumerate_ideals(ctx)
    trivial = cf.classify_annihilators(ctx)[0]
    base_n1 = cf.n1_set(ctx)
    _kernel(ctx, ideals)  # fills the quotient cache
    n = ctx.group.order
    failed = 0
    for target in ideals:
        real = ctx._mod_cache[target.mask]
        for bit in range(n * n):
            masks = list(real.masks)
            masks[bit // n] ^= 1 << bit % n
            ctx._mod_cache[target.mask] = Cocycle(group=ctx.group, masks=tuple(masks))
            for ideal, outcomes in _kernel(ctx, ideals)[0]:
                expected = _from_scratch(ctx, ideal, trivial, base_n1)
                assert _summary(outcomes) == _summary(expected)
                assert (outcomes is sweep._IDEAL_PASSED) == _passed(expected)
                failed += not _passed(expected)
        ctx._mod_cache[target.mask] = real
    assert failed


@pytest.mark.parametrize("rows", [ROWS_C5, ROWS_D3], ids=["c5", "d3"])
def test_every_one_member_change_of_the_kept_trivial_set_reads_as_from_scratch(rows):
    ctx = _context(rows)
    ideals = enumerate_ideals(ctx)
    base_n1 = cf.n1_set(ctx)
    real = trivial, nontrivial = cf.classify_annihilators(ctx)
    failed = 0
    for s in ctx.gstar:
        ctx._annihilators = (trivial ^ {s}, nontrivial)  # what both paths read
        for ideal, outcomes in _kernel(ctx, ideals)[0]:
            expected = _from_scratch(ctx, ideal, trivial ^ {s}, base_n1)
            assert _summary(outcomes) == _summary(expected)
            assert (outcomes is sweep._IDEAL_PASSED) == _passed(expected)
            failed += not _passed(expected)
    ctx._annihilators = real
    assert failed


def test_a_wrong_trivial_set_misses_every_ideal(monkeypatch):
    ctx = _context(ROWS_C5)
    ideals = enumerate_ideals(ctx)
    trivial, nontrivial = cf.classify_annihilators(ctx)
    wrong = trivial | nontrivial  # every annihilator called trivial
    real = sweep.classify_annihilators

    def classify_annihilators(c):
        return (wrong, nontrivial) if c is ctx else real(c)

    monkeypatch.setattr(sweep, "classify_annihilators", classify_annihilators)
    subjects = sweep._context_subjects(ctx, ideals)
    base_n1 = cf.n1_set(ctx)
    failed = 0
    for ideal in ideals:
        kinds, subject, outcomes = next(subjects)
        assert (kinds, subject) == (sweep._IDEAL_CHECKS, ideal)
        assert outcomes is not sweep._IDEAL_PASSED
        expected = _from_scratch(ctx, ideal, wrong, base_n1)
        assert _summary(outcomes) == _summary(expected)
        failed += not _passed(expected)
    assert failed  # the kernel decided on the wrong set would have passed these


@pytest.mark.parametrize(
    "group", [cf.make_cyclic(4), cf.make_cyclic(5)], ids=["c4", "c5"]
)
def test_a_closure_that_leaves_the_ideal_or_the_trivial_set_misses_the_kernel(group):
    """A context whose reach table sends a trivial annihilator s one step
    further, to y, makes the closure of the trivial members of an ideal
    leave the ideal (y outside it) or the trivial set (y inside it), and
    the from-scratch check raises on its precondition."""
    raised = set()
    for ctx in _census_contexts(group):
        ideals = enumerate_ideals(ctx)
        trivial = cf.classify_annihilators(ctx)[0]
        base_n1 = cf.n1_set(ctx)
        real_links = ctx._links
        for s in sorted(trivial):
            for y in ctx.gstar:
                links = list(real_links)
                links[s] |= 1 << y
                ctx._links = tuple(links)
                for ideal, outcomes in _kernel(ctx, ideals)[0]:
                    expected = _from_scratch(ctx, ideal, trivial, base_n1)
                    assert _summary(outcomes) == _summary(expected)
                    assert (outcomes is sweep._IDEAL_PASSED) == _passed(expected)
                    if isinstance(expected[4], ForgeError):
                        raised.add(str(expected[4]).split(" contain")[0])
        ctx._links = real_links
    assert raised == {"second ideal is not", "second ideal"}  # both preconditions
