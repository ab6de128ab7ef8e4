"""The property sweep decides the five checks of every ideal in one kernel.

n1_of_quotient, ideal_members_trivial_in_quotient, fI_eq_f, morphism and
trivial_annih_replace are decided for all ideals at once by
sweep._ideals_pass: the first two on each quotient context, the other
three on masks and packed tables.  The kernel passes exactly when every
from-scratch check passes, and a corrupted pair table, quotient, trivial
set or reach table must make it refuse; the sweep then reports, through
sweep._ideal_subjects, what the from-scratch checks report.
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

IDEAL_CHECKS = (
    "n1_of_quotient", "ideal_members_trivial_in_quotient", "fI_eq_f", "morphism",
    "trivial_annih_replace",
)
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


def _failures(ideal, outcomes):
    """The (check, detail) of each of the ideal's outcomes that failed."""
    label = f"ideal={sorted(ideal.members)}"
    out = []
    for name, o in zip(IDEAL_CHECKS, outcomes):
        if isinstance(o, ForgeError):
            out.append((name, f"{label} raised: {o}"))
        elif o is False:
            out.append((name, label))
        elif isinstance(o, IdentityCheck) and not o.ok:
            out.append((name, f"{label} {o.counterexample}"))
    return out


def _kernel(ctx, ideals, trivial, base_n1):
    """Whether the kernel passes ctx, and the quotients it handed over."""
    quotients = {}
    return sweep._ideals_pass(ctx, ideals, trivial, base_n1, quotients), quotients


def _stream(ctx, ideals, trivial, base_n1):
    """(ideal, outcomes) for each ideal from the sweep's from-scratch path."""
    out = []
    for kinds, ideal, outcomes in sweep._ideal_subjects(ctx, ideals, trivial, base_n1):
        assert kinds == IDEAL_CHECKS
        out.append((ideal, outcomes))
    assert [ideal for ideal, _ in out] == ideals
    return out


def _check_both_paths(ctx, ideals, trivial, base_n1):
    """The from-scratch outcomes of each ideal, after checking that the
    kernel passes exactly when all of them pass and, when it refuses, that
    the sweep's from-scratch path gives them."""
    expected = [_from_scratch(ctx, ideal, trivial, base_n1) for ideal in ideals]
    passed = all(_passed(e) for e in expected)
    assert _kernel(ctx, ideals, trivial, base_n1)[0] == passed
    if not passed:
        stream = _stream(ctx, ideals, trivial, base_n1)
        assert [_summary(o) for _, o in stream] == [_summary(e) for e in expected]
    return expected


def _sweep_failures(ctx):
    """The (check, detail) of each ideal check the sweep of ctx fails."""
    result = sweep._run_suite_checks(ctx, 10_000)
    return [(f.check, f.detail) for f in result.failures if f.check in IDEAL_CHECKS]


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
        passed, quotients = _kernel(ctx, ideals, cf.classify_annihilators(ctx)[0], cf.n1_set(ctx))
        assert passed
        for ideal, outcomes in _stream(ctx, ideals, cf.classify_annihilators(ctx)[0], cf.n1_set(ctx)):
            expected = _from_scratch(ref, by_mask[ideal.mask], ref_trivial, ref_n1)
            assert _summary(outcomes) == _summary(expected)
            assert _passed(expected)
        assert quotients == {
            mask: cf.cocycle_mod_ideal(ref, ideal).packed for mask, ideal in by_mask.items()
        }


def _trivial_mask(ctx):
    return _mask_of(cf.classify_annihilators(ctx)[0])


@pytest.mark.parametrize("key", ["whole", "inner"])
def test_a_flipped_pair_table_misses_the_kernel(key):
    t_mask = _trivial_mask(_context(ROWS_C5))
    missed = 0
    for index in range(len(enumerate_ideals(_context(ROWS_C5)))):
        ctx = _context(ROWS_C5)
        ideals = enumerate_ideals(ctx)
        target = ideals[index]
        trivial = cf.classify_annihilators(ctx)[0]
        base_n1 = cf.n1_set(ctx)
        assert _kernel(ctx, ideals, trivial, base_n1)[0]  # fills the pair tables
        inner = cf.ideal_closure(ctx, trivial & target.members).mask
        if not inner:
            continue  # (m, inner) is (m, 0): one table
        ctx._chain_cache[(target.mask, 0 if key == "whole" else inner)] ^= 1 << 6  # the cell (1, 1)
        expected = _check_both_paths(ctx, ideals, trivial, base_n1)
        assert [_passed(e) for e in expected] == [ideal is not target for ideal in ideals]
        assert not expected[index][4].ok
        failures = [f for ideal, e in zip(ideals, expected) for f in _failures(ideal, e)]
        assert _sweep_failures(ctx) == failures
        assert [name for name, _ in failures] == ["trivial_annih_replace"]
        missed += 1
    assert missed == 9 == sum(1 for i in enumerate_ideals(_context(ROWS_C5)) if i.mask & t_mask)


def test_a_wrong_quotient_misses_the_kernel():
    t_mask = _trivial_mask(_context(ROWS_C5))
    missed = 0
    for index in range(len(enumerate_ideals(_context(ROWS_C5)))):
        ctx = _context(ROWS_C5)
        ideals = enumerate_ideals(ctx)
        target = ideals[index]
        if not target.mask & ~t_mask:
            continue  # its quotient is f itself
        trivial = cf.classify_annihilators(ctx)[0]
        base_n1 = cf.n1_set(ctx)
        assert _kernel(ctx, ideals, trivial, base_n1)[0]  # fills the quotient cache
        ctx._mod_cache[target.mask] = ctx.cocycle  # as if the ideal held no product
        expected = _check_both_paths(ctx, ideals, trivial, base_n1)
        assert [_passed(e) for e in expected] == [ideal is not target for ideal in ideals]
        failures = [f for ideal, e in zip(ideals, expected) for f in _failures(ideal, e)]
        assert failures and _sweep_failures(ctx) == failures
        missed += 1
    assert missed == 8


@pytest.mark.parametrize("rows", [ROWS_C5, ROWS_D3], ids=["c5", "d3"])
def test_every_one_cell_flip_of_a_quotient_reads_as_from_scratch(rows):
    ctx = _context(rows)
    ideals = enumerate_ideals(ctx)
    trivial = cf.classify_annihilators(ctx)[0]
    base_n1 = cf.n1_set(ctx)
    assert _kernel(ctx, ideals, trivial, base_n1)[0]  # fills the quotient cache
    n = ctx.group.order
    failed = 0
    for target in ideals:
        real = ctx._mod_cache[target.mask]
        for bit in range(n * n):
            masks = list(real.masks)
            masks[bit // n] ^= 1 << bit % n
            ctx._mod_cache[target.mask] = Cocycle(group=ctx.group, masks=tuple(masks))
            expected = _check_both_paths(ctx, ideals, trivial, base_n1)
            failed += sum(not _passed(e) for e in expected)
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
        expected = _check_both_paths(ctx, ideals, ctx._annihilators[0], base_n1)
        failed += sum(not _passed(e) for e in expected)
    ctx._annihilators = real
    assert failed


def test_a_wrong_trivial_set_misses_every_ideal(monkeypatch):
    ctx = _context(ROWS_C5)
    ideals = enumerate_ideals(ctx)
    trivial, nontrivial = cf.classify_annihilators(ctx)
    wrong = trivial | nontrivial  # every annihilator called trivial
    base_n1 = cf.n1_set(ctx)
    # the kernel decides only on the trivial set the context keeps
    assert not _kernel(ctx, ideals, wrong, base_n1)[0]
    real = sweep.classify_annihilators

    def classify_annihilators(c):
        return (wrong, nontrivial) if c is ctx else real(c)

    monkeypatch.setattr(sweep, "classify_annihilators", classify_annihilators)
    expected = [_from_scratch(ctx, ideal, wrong, base_n1) for ideal in ideals]
    failures = [f for ideal, e in zip(ideals, expected) for f in _failures(ideal, e)]
    assert failures  # the kernel decided on the wrong set would have passed these
    assert _sweep_failures(ctx) == failures


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
                for outcomes in _check_both_paths(ctx, ideals, trivial, base_n1):
                    if isinstance(outcomes[4], ForgeError):
                        raised.add(str(outcomes[4]).split(" contain")[0])
        ctx._links = real_links
    assert raised == {"second ideal is not", "second ideal"}  # both preconditions
