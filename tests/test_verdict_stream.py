"""How the property sweep reports each kind of check, and what it does when
an input that several checks share raises.

Every failure detail is the subject's label followed by how the check
failed: nothing for a False, the counterexample of a failed verdict, or
``raised: <error>`` for a ForgeError.  A raise in a shared input (the
context's N_1, its annihilator classes, its Waterhouse table, an ideal's
quotient context, a pair's sum) fails each check that reads it and stops no
other check.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import cocycle_forge as cf
from cocycle_forge import algebra, census, sweep
from cocycle_forge.decomposition import DecompositionReport, IdentityCheck
from cocycle_forge.errors import InternalInvariantError

# a C4 census cocycle that runs every non-chain kind; its ideals are
# 0, [1], [2], [1, 2], [2, 3] and [1, 2, 3]
C4_ROWS = ("1111", "1000", "1000", "1001")
# the C3 Waterhouse table of {0}: ideals 0, [1], [2], [1, 2]
C3_ROWS = ("111", "100", "100")


def _mask(*members):
    return sum(1 << s for s in members)


def _c4_cocycle():
    return cf.as_cocycle([[int(v) for v in row] for row in C4_ROWS], cf.make_cyclic(4))


def _c3_waterhouse():
    g = cf.make_cyclic(3)
    return cf.waterhouse(g, cf.subgroup(g, [0]))


def _failures(result):
    return [(f.check, f.detail) for f in result.failures]


def test_every_non_chain_kind_keeps_its_failure_text(monkeypatch):
    cocycle = _c4_cocycle()
    unpatched = cf.check_cocycle_properties(cocycle).counts
    real_mod = sweep.cocycle_mod_ideal
    real_n1 = sweep.n1_set
    real_classes = sweep.classify_annihilators
    real_check_identity = sweep.check_identity
    real_morphism = sweep.morphism_check
    quotient_of = []  # the ideal of the last quotient taken

    def cocycle_mod_ideal(ctx, ideal):
        quotient_of.append(ideal.mask)
        return real_mod(ctx, ideal)

    def n1_set(ctx):
        if quotient_of[-1:] == [_mask(2)]:
            return frozenset()
        return real_n1(ctx)

    def classify_annihilators(ctx):
        if quotient_of[-1:] == [_mask(1, 2)]:
            raise InternalInvariantError("no classes")
        return real_classes(ctx)

    def check_identity(name, ctx, **kwargs):
        pair = [i.mask for i in kwargs.get("inner", kwargs.get("ideals", ()))]
        if name == "fI_eq_f" and kwargs["ideal"].mask == _mask(2):
            return IdentityCheck(name="fI_eq_f", ok=False, counterexample=(0, 2, 1, 0))
        if name == "trivial_annih_replace" and kwargs["first"].mask == _mask(1, 2, 3):
            raise InternalInvariantError("no replacement")
        if name == "sum_product" and pair == [_mask(1), _mask(2)]:
            return IdentityCheck(name="sum_product", ok=False, counterexample=(1, 2, 0, 1))
        if name == "intersection_vee" and pair == [_mask(1), _mask(2, 3)]:
            raise InternalInvariantError("no vee")
        if name == "cap_zero" and pair == [_mask(1), _mask(2, 3)]:
            return IdentityCheck(name="cap_zero", ok=False, counterexample=(3, 3, 1, 0))
        return real_check_identity(name, ctx, **kwargs)

    def morphism_check(ctx, ideal):
        if ideal.mask == _mask(1, 2):
            return SimpleNamespace(ok=False)
        return real_morphism(ctx, ideal)

    def principal_via_generators(ctx, s, gens):
        raise InternalInvariantError("no route")

    def decompose_by_bstar(ctx):
        raise InternalInvariantError("no parts")

    def decompose_by_classes(ctx):
        return DecompositionReport(parts=(), recombines=False)

    for name, patch in [
        ("cocycle_mod_ideal", cocycle_mod_ideal),
        ("n1_set", n1_set),
        ("classify_annihilators", classify_annihilators),
        ("check_identity", check_identity),
        ("morphism_check", morphism_check),
        # the ideal and pair kernels would pass the injected checks unread
        ("_ideals_pass", lambda *args: False),
        ("_pairs_pass", lambda *args: None),
        ("principal_via_generators", principal_via_generators),
        ("decompose_by_bstar", decompose_by_bstar),
        ("decompose_by_classes", decompose_by_classes),
    ]:
        monkeypatch.setattr(sweep, name, patch)
    result = cf.check_cocycle_properties(cocycle)
    assert _failures(result) == [
        ("n1_of_quotient", "ideal=[2]"),
        ("fI_eq_f", "ideal=[2] (0, 2, 1, 0)"),
        ("ideal_members_trivial_in_quotient", "ideal=[1, 2] raised: no classes"),
        ("morphism", "ideal=[1, 2]"),
        ("trivial_annih_replace", "ideal=[1, 2, 3] raised: no replacement"),
        ("sum_product", "pair=([1], [2]) (1, 2, 0, 1)"),
        ("intersection_vee", "pair=([1], [2, 3]) raised: no vee"),
        ("cap_zero", "pair=([1], [2, 3]) (3, 3, 1, 0)"),
        ("principal_two_routes", " raised: no route"),
        ("bstar_recombination", " raised: no parts"),
        ("class_decomposition", ""),
    ]
    assert all(f.group_order == 4 and f.cocycle_rows == C4_ROWS for f in result.failures)
    assert result.counts == unpatched


def _raise_on_first_call(monkeypatch, name, error):
    """Patch sweep.<name> to raise error on its first call only: the sweep
    reads the context's own input before any quotient's."""
    real = getattr(sweep, name)
    calls = []

    def patched(*args):
        calls.append(args)
        if len(calls) == 1:
            raise InternalInvariantError(error)
        return real(*args)

    monkeypatch.setattr(sweep, name, patched)


def test_a_raising_n1_fails_each_quotient_check(monkeypatch):
    cocycle = _c3_waterhouse()
    unpatched = cf.check_cocycle_properties(cocycle).counts
    _raise_on_first_call(monkeypatch, "n1_set", "no n1")
    result = cf.check_cocycle_properties(cocycle)
    assert _failures(result) == [
        ("n1_of_quotient", f"ideal={members} raised: no n1")
        for members in ([], [1], [2], [1, 2])
    ]
    assert all(f.cocycle_rows == C3_ROWS for f in result.failures)
    assert result.counts == unpatched


def test_raising_annihilator_classes_fail_each_replacement(monkeypatch):
    cocycle = _c3_waterhouse()
    unpatched = cf.check_cocycle_properties(cocycle).counts
    _raise_on_first_call(monkeypatch, "classify_annihilators", "no classes")
    result = cf.check_cocycle_properties(cocycle)
    assert _failures(result) == [
        ("trivial_annih_replace", f"ideal={members} raised: no classes")
        for members in ([], [1], [2], [1, 2])
    ]
    assert result.counts == unpatched


def test_a_raising_pair_sum_fails_only_that_pairs_checks(monkeypatch):
    cocycle = _c3_waterhouse()
    unpatched = cf.check_cocycle_properties(cocycle).counts
    real = sweep.ideal_lattice_op

    def ideal_lattice_op(kind, a, b):
        if kind == "sum" and (a.mask, b.mask) == (_mask(1), _mask(2)):
            raise InternalInvariantError("no sum")
        return real(kind, a, b)

    monkeypatch.setattr(sweep, "ideal_lattice_op", ideal_lattice_op)
    result = cf.check_cocycle_properties(cocycle)
    assert _failures(result) == [
        ("sum_product", "pair=([1], [2]) raised: no sum"),
        ("intersection_vee", "pair=([1], [2]) raised: no sum"),
    ]
    assert result.counts == unpatched


def _raise_waterhouse(*args):
    raise InternalInvariantError("no waterhouse")


def _chain_labels(cocycle):
    ideals = census.enumerate_ideals(cf.AlgebraContext(cocycle))
    keys, _ = census._chain_keys(ideals)
    return [sweep._label(key) for key in keys]


def test_a_raising_waterhouse_read_fails_each_waterhouse_check(monkeypatch):
    # the sweep's own read of W fails the chain walk and class_decomposition;
    # the refused chains then go to check_identity, which reads W itself
    cocycle = _c4_cocycle()
    unpatched = cf.check_cocycle_properties(cocycle).counts
    monkeypatch.setattr(sweep, "_waterhouse_of", _raise_waterhouse)
    result = cf.check_cocycle_properties(cocycle)
    assert _failures(result) == [("class_decomposition", " raised: no waterhouse")]
    assert result.counts == unpatched


def test_a_raising_waterhouse_table_is_reported_not_raised(monkeypatch):
    cocycle = _c4_cocycle()
    unpatched = cf.check_cocycle_properties(cocycle).counts
    monkeypatch.setattr(algebra, "waterhouse", _raise_waterhouse)
    result = cf.check_cocycle_properties(cocycle)
    failures = _failures(result)
    assert [f for f in failures if f[0] == "waterhouse_iff"] == [
        ("waterhouse_iff", f"{label} raised: no waterhouse") for label in _chain_labels(cocycle)
    ]
    assert ("class_decomposition", " raised: no waterhouse") in failures
    assert result.counts == unpatched


def test_each_ideal_has_one_quotient_context(monkeypatch):
    cocycle = _c4_cocycle()
    real = sweep.cocycle_mod_ideal
    quotients = []

    def cocycle_mod_ideal(ctx, ideal):
        quotients.append(ideal.mask)
        return real(ctx, ideal)

    monkeypatch.setattr(sweep, "cocycle_mod_ideal", cocycle_mod_ideal)
    result = cf.check_cocycle_properties(cocycle)
    assert result.failures == ()
    ideals = census.enumerate_ideals(cf.AlgebraContext(cocycle))
    assert quotients == [ideal.mask for ideal in ideals]
    assert len(quotients) == 6


def test_lift_failures_name_the_map(monkeypatch):
    g = cf.make_cyclic(3)
    cfg = cf.CensusConfig(group=g)
    unpatched = cf.property_suite(cfg, lift_samples=1).counts
    r = cf.random_semilinear(g, random.Random(0))  # the suite's first draw
    fr = cf.cocycle_from_r(r)
    zero, top = 0, cf.AlgebraContext(fr)._gstar_mask
    real_lift, real_padded = sweep.chain_lift, sweep.padded_lift

    def chain_lift(r, chain):
        if chain.masks == (zero, zero):
            raise InternalInvariantError("no lift")
        return real_lift(r, chain)

    def padded_lift(r, chain):
        if chain.masks == (top, zero):
            return SimpleNamespace(certified=False)
        return real_padded(r, chain)

    monkeypatch.setattr(sweep, "chain_lift", chain_lift)
    monkeypatch.setattr(sweep, "padded_lift", padded_lift)
    report = cf.property_suite(cfg, lift_samples=1)
    assert _failures(report) == [
        ("lift_sandwich", f"r={list(r.values)} raised: no lift"),
        ("lift_sandwich", f"r={list(r.values)}"),
    ]
    assert all(f.group_order == 3 and f.cocycle_rows == fr.rows() for f in report.failures)
    assert report.counts == unpatched
