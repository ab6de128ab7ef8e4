"""What property_suite runs and how it reports a failure, pinned.

The per-kind check counts on C2-C5 fix how many checks the sweep runs, so
a speed-up that silently drops checks fails here.  The failure details are
built only when a check fails; their text is pinned byte for byte.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import cocycle_forge as cf
from cocycle_forge import sweep
from cocycle_forge.decomposition import IdentityCheck
from cocycle_forge.errors import InternalInvariantError

# property_suite(CensusConfig(group=C_n)) with the default lift_samples and seed
SUITE_COUNTS = {
    2: {
        "bstar_recombination": 1, "cap_zero": 1, "chain_break": 12, "fI_eq_f": 2,
        "ideal_members_trivial_in_quotient": 2, "intersection_vee": 1, "leq_f": 12,
        "lift_sandwich": 36, "morphism": 2, "n1_of_quotient": 2,
        "principal_two_routes": 1, "sum_product": 1, "trivial_annih_replace": 2,
        "waterhouse_iff": 12,
    },
    3: {
        "bstar_recombination": 3, "cap_zero": 8, "chain_break": 112,
        "class_decomposition": 2, "fI_eq_f": 10,
        "ideal_members_trivial_in_quotient": 10, "intersection_vee": 12,
        "leq_f": 112, "lift_sandwich": 62, "morphism": 10, "n1_of_quotient": 10,
        "principal_two_routes": 3, "sum_product": 12, "trivial_annih_replace": 10,
        "waterhouse_iff": 112,
    },
    4: {
        "bstar_recombination": 13, "cap_zero": 62, "chain_break": 1317,
        "class_decomposition": 11, "fI_eq_f": 65,
        "ideal_members_trivial_in_quotient": 65, "intersection_vee": 141,
        "leq_f": 1317, "lift_sandwich": 128, "morphism": 65, "n1_of_quotient": 65,
        "principal_two_routes": 13, "sum_product": 141, "trivial_annih_replace": 65,
        "waterhouse_iff": 1317,
    },
    5: {
        "bstar_recombination": 55, "cap_zero": 592, "chain_break": 19828,
        "class_decomposition": 54, "fI_eq_f": 486,
        "ideal_members_trivial_in_quotient": 486, "intersection_vee": 2000,
        "leq_f": 19828, "lift_sandwich": 128, "morphism": 486, "n1_of_quotient": 486,
        "principal_two_routes": 55, "sum_product": 2000, "trivial_annih_replace": 486,
        "waterhouse_iff": 19828,
    },
}


@pytest.mark.parametrize("order", sorted(SUITE_COUNTS))
def test_property_suite_counts_per_kind(order):
    report = cf.property_suite(cf.CensusConfig(group=cf.make_cyclic(order)))
    assert report.failures == ()
    assert report.counts == SUITE_COUNTS[order]


def test_failure_details_keep_their_format(monkeypatch):
    # the C3 Waterhouse table of {0}: ideals 0, [1], [2], [1, 2]
    g = cf.make_cyclic(3)
    cocycle = cf.waterhouse(g, cf.subgroup(g, [0]))
    real_check_identity = sweep.check_identity
    real_morphism_check = sweep.morphism_check

    def check_identity(name, ctx, **kwargs):
        if name == "leq_f" and kwargs["chain"].masks == (0b110, 0b010):
            return IdentityCheck(name="leq_f", ok=False, counterexample=("incomparable",))
        if name == "sum_product" and [i.mask for i in kwargs["inner"]] == [0b010, 0b100]:
            raise InternalInvariantError("boom")
        return real_check_identity(name, ctx, **kwargs)

    def morphism_check(ctx, ideal):
        if ideal.mask == 0b100:
            return SimpleNamespace(ok=False)
        return real_morphism_check(ctx, ideal)

    def all_generators(ctx):
        raise InternalInvariantError("no words")

    monkeypatch.setattr(sweep, "check_identity", check_identity)
    monkeypatch.setattr(sweep, "morphism_check", morphism_check)
    # the injected failures are on subjects that pass: each kernel must
    # refuse the cocycle, so that the from-scratch checks, and the
    # injections, run
    monkeypatch.setattr(sweep, "_chain_pass_count", lambda *args: None)
    monkeypatch.setattr(sweep, "_ideals_pass", lambda *args: False)
    monkeypatch.setattr(sweep, "_pairs_pass", lambda *args: None)
    monkeypatch.setattr(sweep, "all_generators", all_generators)
    result = cf.check_cocycle_properties(cocycle)
    assert [(f.check, f.detail) for f in result.failures] == [
        ("leq_f", "chain=[[1, 2], [1]] ('incomparable',)"),
        ("morphism", "ideal=[2]"),
        ("sum_product", "pair=([1], [2]) raised: boom"),
        ("principal_two_routes", " raised: no words"),
    ]
    assert all(
        f.group_order == 3 and f.cocycle_rows == ("111", "100", "100")
        for f in result.failures
    )
