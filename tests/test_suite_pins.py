"""What property_suite runs and how it reports a failure, pinned.

The per-kind check counts on C2-C5 fix how many checks the sweep runs, so
a speed-up that silently drops checks fails here.  The failure details are
built only when a check fails; their text is pinned byte for byte.
"""

from __future__ import annotations

import pytest

import cocycle_forge as cf
from cocycle_forge import census
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
    real_chain_verdicts = census._chain_verdicts
    real_pair_verdicts = census._pair_verdicts
    real_ideal_verdicts = census._ideal_verdicts

    def chain_verdicts(ctx, *args):
        for key, verdicts, carried in real_chain_verdicts(ctx, *args):
            if key == (0b110, 0b010):
                failed = IdentityCheck(name="leq_f", ok=False, counterexample=("incomparable",))
                verdicts = (failed,) + verdicts[1:]
            yield key, verdicts, carried

    def pair_verdicts(ctx, ideals, quotients):
        for kinds, pair, outcomes in real_pair_verdicts(ctx, ideals, quotients):
            if [i.mask for i in pair] == [0b010, 0b100]:
                outcomes = (InternalInvariantError("boom"),) + tuple(outcomes[1:])
            yield kinds, pair, outcomes

    def ideal_verdicts(ctx, *args):
        for kinds, ideal, outcomes in real_ideal_verdicts(ctx, *args):
            if ideal.mask == 0b100:
                outcomes = tuple(outcomes[:3]) + (False,) + tuple(outcomes[4:])
            yield kinds, ideal, outcomes

    def all_generators(ctx):
        raise InternalInvariantError("no words")

    monkeypatch.setattr(census, "_chain_verdicts", chain_verdicts)
    # the injected leq_f failure is on a chain that passes: the state walk
    # must miss, so that the exact walk, and the injection, run
    monkeypatch.setattr(census, "_chain_pass_count", lambda *args: None)
    monkeypatch.setattr(census, "_pair_verdicts", pair_verdicts)
    monkeypatch.setattr(census, "_ideal_verdicts", ideal_verdicts)
    monkeypatch.setattr(census, "all_generators", all_generators)
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
