from __future__ import annotations

import itertools
import random
import time

import pytest

import cocycle_forge as cf
from cocycle_forge import census, sweep
from cocycle_forge.errors import InternalInvariantError, ValidationError

# enumeration sizes pinned once against the brute-force oracle below (orders
# 2 and 3 recomputed in-test, the rest frozen from the same oracle run)
KNOWN_COUNTS = {2: 2, 3: 4, 4: 14, 5: 56}
D3_COUNT = 262


def _brute_force_tables(group):
    """Every normalized 0/1 table satisfying the product identity, found by
    trying all assignments of the free cells.  Independent of the package's
    pruned search."""
    n = group.order
    free = [(s, t) for s in range(1, n) for t in range(1, n)]
    found = []
    for bits in itertools.product((0, 1), repeat=len(free)):
        rows = [[1] * n] + [[1] + [0] * (n - 1) for _ in range(n - 1)]
        for (s, t), b in zip(free, bits):
            rows[s][t] = b
        ok = True
        for s in range(n):
            for t in range(n):
                for u in range(n):
                    lhs = rows[s][t] * rows[group.mul(s, t)][u]
                    rhs = rows[t][u] * rows[s][group.mul(t, u)]
                    if lhs != rhs:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            found.append(tuple(tuple(r) for r in rows))
    return found


def _stream_tables(stream):
    return [c.values for c in stream.cocycles]


def test_enumeration_matches_brute_force_small():
    for n in (2, 3):
        g = cf.make_cyclic(n)
        stream = cf.enumerate_cocycles(cf.CensusConfig(group=g))
        assert not stream.truncated
        assert sorted(_stream_tables(stream)) == sorted(_brute_force_tables(g))


def test_enumeration_counts_frozen():
    for n, count in KNOWN_COUNTS.items():
        stream = cf.enumerate_cocycles(cf.CensusConfig(group=cf.make_cyclic(n)))
        assert len(stream.cocycles) == count, f"order {n}"
    d3 = cf.enumerate_cocycles(cf.CensusConfig(group=cf.make_dihedral(3)))
    assert len(d3.cocycles) == D3_COUNT


def test_enumeration_inertial_filter():
    g = cf.make_cyclic(4)
    whole = cf.subgroup(g, range(4))
    stream = cf.enumerate_cocycles(cf.CensusConfig(group=g, inertial=whole))
    assert len(stream.cocycles) == 1
    assert all(v == 1 for row in stream.cocycles[0].values for v in row)
    half = cf.subgroup(g, [0, 2])
    stream = cf.enumerate_cocycles(cf.CensusConfig(group=g, inertial=half))
    for c in stream.cocycles:
        assert cf.inertial_group(c).members == (0, 2)


def test_enumeration_truncation_flag():
    g = cf.make_cyclic(4)
    stream = cf.enumerate_cocycles(cf.CensusConfig(group=g, max_candidates=3))
    assert stream.truncated
    assert len(stream.cocycles) == 3


def test_the_census_validates_each_block_as_the_search_finds_it(monkeypatch):
    # C9 has 170,780 cocycles: the first one comes out after a single block
    # check, of at most _BLOCK_TABLES tables, that holds it
    blocks = []
    real = census._tables_valid

    def counted(group, tables):
        blocks.append(list(tables))
        return real(group, tables)

    monkeypatch.setattr(census, "_tables_valid", counted)
    monkeypatch.setattr(census, "validate_cocycle", None)  # a passed block never calls it
    first = next(census._census(cf.CensusConfig(group=cf.make_cyclic(9))))
    assert len(blocks) == 1
    assert 1 <= len(blocks[0]) <= census._BLOCK_TABLES
    assert first.packed in blocks[0]


def test_a_refused_block_goes_table_by_table_through_validate_cocycle(monkeypatch):
    # every table of the refused block passes, which is an internal error
    c9 = cf.CensusConfig(group=cf.make_cyclic(9))
    search = census._census(c9)
    expected = [next(search).packed for _ in range(census._BLOCK_TABLES)]
    validated = []
    real = census.validate_cocycle

    def counted(table):
        validated.append(table.packed)
        return real(table)

    monkeypatch.setattr(census, "_tables_valid", lambda group, tables: False)
    monkeypatch.setattr(census, "validate_cocycle", counted)
    yielded = []
    with pytest.raises(InternalInvariantError, match="each pass validate_cocycle"):
        for cocycle in census._census(c9):
            yielded.append(cocycle.packed)
    assert validated == expected
    assert yielded == expected


def test_an_enumerated_table_that_fails_keeps_its_validation_text(monkeypatch):
    # the third C4 table with its cell (1, 1) flipped; the two before it in
    # its block still come out
    c4 = cf.CensusConfig(group=cf.make_cyclic(4))
    expected = list(cf.enumerate_cocycles(c4).cocycles[:2])
    real = census._depth_first

    def injected(choices):
        for k, cells in enumerate(real(choices)):
            yield cells[:1] + (1 - cells[1],) + cells[2:] if k == 2 else cells

    monkeypatch.setattr(census, "_depth_first", injected)
    yielded = []
    with pytest.raises(ValidationError) as caught:
        for cocycle in census._census(c4):
            yielded.append(cocycle)
    assert yielded == expected
    assert str(caught.value) == (
        "enumerated table failed validation: identity violated at (1, 3, 2): "
        "f(1,3)*f(0,2) = 0 but f(3,2)*f(1,1) = 1"
    )


def test_census_config_validation():
    g = cf.make_cyclic(3)
    with pytest.raises(ValidationError, match="positive"):
        cf.CensusConfig(group=g, max_candidates=0)
    with pytest.raises(ValidationError, match="different group"):
        cf.CensusConfig(group=g, inertial=cf.subgroup(cf.make_cyclic(4), [0]))


def test_enumerate_ideals_golden(golden_ctx):
    ideals = cf.enumerate_ideals(golden_ctx)
    assert len(ideals) == 29
    members = {i.sorted_members for i in ideals}
    # the empty ideal, the radical, its powers, and the five decomposition
    # ideals all appear
    for expect in (
        (), (1, 2, 3, 4, 5, 6, 7, 8),
        (2, 3, 4, 6, 7), (3, 4, 7), (4,),
        (3, 4, 5, 6, 7, 8), (4, 5, 6, 7, 8), (6, 7), (2, 3, 4, 7, 8), (3, 4, 8),
    ):
        assert expect in members
    # canonical order: by size, then lexicographically
    keys = [(len(i), i.sorted_members) for i in ideals]
    assert keys == sorted(keys)


def _closed_subsets(ctx):
    """Every subset S of G* with st and ts in S whenever s is in S and f is 1
    on the product, sorted by size then members; read from f and the
    multiplication table only."""
    n = ctx.group.order
    found = []
    for k in range(len(ctx.gstar) + 1):
        for subset in itertools.combinations(ctx.gstar, k):
            members = set(subset)
            if all(
                (not ctx.f(s, t) or ctx.mul(s, t) in members)
                and (not ctx.f(t, s) or ctx.mul(t, s) in members)
                for s in subset
                for t in range(n)
            ):
                found.append(subset)
    return sorted(found, key=lambda t: (len(t), t))


def test_enumerate_ideals_brute_force_cross_check(d3_ctx):
    # every non-simple cocycle of C2-C7 and D3 is small enough to test every
    # subset of G* directly; the order is compared as well as the sets
    contexts = [d3_ctx]
    for group in [cf.make_cyclic(n) for n in range(2, 8)] + [cf.make_dihedral(3)]:
        for f in cf.enumerate_cocycles(cf.CensusConfig(group=group)).cocycles:
            if any(v == 0 for row in f.values for v in row):
                contexts.append(cf.AlgebraContext(f))
    assert len(contexts) == 1 + 2699
    for ctx in contexts:
        got = [i.sorted_members for i in cf.enumerate_ideals(ctx)]
        assert got == _closed_subsets(ctx), ctx


def test_enumerate_ideals_lattice_route():
    # a staircase cocycle with 15 radical elements: its closed sets are
    # exactly the upward intervals
    g = cf.make_cyclic(16)
    r = cf.as_semilinear(g, cf.AdditiveNaturals(), tuple(range(16)))
    ctx = cf.AlgebraContext(cf.cocycle_from_r(r))
    got = [i.sorted_members for i in cf.enumerate_ideals(ctx)]
    expect = [()] + [tuple(range(m, 16)) for m in range(15, 0, -1)]
    assert got == sorted(expect, key=lambda t: (len(t), t))


def test_enumerate_ideals_waterhouse_c14_every_subset():
    # the Waterhouse cocycle of C14 over the trivial subgroup keeps no
    # product inside G*, so all 2^13 subsets of G* are ideals
    g = cf.make_cyclic(14)
    ctx = cf.AlgebraContext(cf.waterhouse(g, cf.subgroup(g, [0])))
    start = time.perf_counter()
    got = [i.sorted_members for i in cf.enumerate_ideals(ctx)]
    elapsed = time.perf_counter() - start
    expect = [c for k in range(14) for c in itertools.combinations(range(1, 14), k)]
    assert got == expect
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def test_enumerate_ideals_size_cap():
    g = cf.make_cyclic(22)
    ctx = cf.AlgebraContext(cf.waterhouse(g, cf.subgroup(g, [0])))
    with pytest.raises(ValidationError, match="size-error"):
        cf.enumerate_ideals(ctx)


def test_descending_multichains_golden(golden_ctx):
    ideals = cf.enumerate_ideals(golden_ctx)
    chains, truncated = cf.descending_multichains(ideals)
    assert not truncated
    assert len(chains) == 9772
    assert all(2 <= len(c) <= 4 for c in chains)
    capped, truncated = cf.descending_multichains(ideals, cap=100)
    assert truncated and len(capped) == 100


def test_descending_multichains_counts_small(d3_ctx):
    ideals = cf.enumerate_ideals(d3_ctx)
    chains, _ = cf.descending_multichains(ideals, max_len=2)
    # pairs I >= K, counted directly from the containment order
    expect = sum(
        1 for a in ideals for b in ideals if b.mask & ~a.mask == 0
    )
    assert len(chains) == expect


def test_check_cocycle_properties_golden(golden, golden_ctx):
    result = cf.check_cocycle_properties(golden)
    assert result.failures == ()
    assert sum(result.counts.values()) == 30312
    assert set(result.counts) == {
        "leq_f", "chain_break", "waterhouse_iff",
        "n1_of_quotient", "ideal_members_trivial_in_quotient", "fI_eq_f",
        "morphism", "trivial_annih_replace",
        "sum_product", "intersection_vee", "cap_zero",
        "principal_two_routes", "bstar_recombination", "class_decomposition",
    }


def test_check_cocycle_properties_all_ones_is_vacuous():
    g = cf.make_cyclic(3)
    ones = cf.as_cocycle(tuple(tuple(1 for _ in range(3)) for _ in range(3)), g)
    result = cf.check_cocycle_properties(ones)
    assert result.counts == {}
    assert result.failures == ()
    assert not result.chains_truncated
    assert result.chains_total == 0


def test_check_cocycle_properties_refuses_a_chain_cap_below_one(golden):
    for cap in (0, -1):
        with pytest.raises(ValidationError, match="census limits must be positive"):
            cf.check_cocycle_properties(golden, cap)


def test_chain_listings_refuse_a_cap_below_one(d3_ctx):
    ideals = cf.enumerate_ideals(d3_ctx)
    for cap in (0, -1):
        with pytest.raises(ValidationError, match="census limits must be positive"):
            cf.descending_multichains(ideals, cap=cap)


def test_check_cocycle_properties_reports_the_chain_cap(monkeypatch):
    # a C7 census cocycle with 12,421 weakly descending chains of length 2-4
    rows = ["1111111"] + ["1000000"] * 5 + ["1000001"]
    c7 = cf.as_cocycle([[int(v) for v in row] for row in rows], cf.make_cyclic(7))
    # the chain walk passes every chain, so the cap cuts none of them
    full = cf.check_cocycle_properties(c7)
    assert not full.chains_truncated and full.counts["leq_f"] == 12_421
    # a refused walk sends at most the cap's chains to check_identity, and
    # the total comes from a path count
    monkeypatch.setattr(sweep, "_chain_pass_count", lambda *args: None)
    capped = cf.check_cocycle_properties(c7)
    assert capped.chains_truncated and capped.counts["leq_f"] == 10_000
    assert capped.chains_total == full.chains_total == 12_421
    assert capped.failures == full.failures == ()


def test_the_default_cap_cuts_no_chain_of_a_clean_c8_sample(monkeypatch):
    # 20 seeded non-simple C8 census cocycles; most have more than 10,000 chains
    c8 = cf.make_cyclic(8)
    cocycles = [
        c for c in cf.enumerate_cocycles(cf.CensusConfig(group=c8)).cocycles
        if cf.inertial_group(c).members != tuple(range(8))
    ]
    sample = random.Random(0).sample(cocycles, 20)
    chains_checked = []
    real = sweep.check_identity

    def check_identity(name, ctx, **kwargs):
        if "chain" in kwargs:
            chains_checked.append(kwargs["chain"].masks)
        return real(name, ctx, **kwargs)

    monkeypatch.setattr(sweep, "check_identity", check_identity)
    totals = []
    for c in sample:
        default = cf.check_cocycle_properties(c)
        uncapped = cf.check_cocycle_properties(c, max_chains=10**9)
        assert default.failures == uncapped.failures == ()
        assert default.counts == uncapped.counts
        assert default.chains_total == uncapped.chains_total == default.counts["leq_f"]
        assert not default.chains_truncated
        totals.append(default.chains_total)
    assert max(totals) > 10_000
    assert chains_checked == []


def test_chain_count_matches_the_listed_keys():
    for group in (cf.make_cyclic(4), cf.make_dihedral(3)):
        for cocycle in cf.enumerate_cocycles(cf.CensusConfig(group=group)).cocycles:
            if cf.inertial_group(cocycle).members == tuple(range(group.order)):
                continue
            ideals = cf.enumerate_ideals(cf.AlgebraContext(cocycle))
            for max_len in (2, 3, 4):
                keys, truncated = census._chain_keys(ideals, max_len, cap=10**9)
                assert not truncated
                assert census._chain_count(ideals, max_len) == len(keys)


def test_property_suite_counts_every_d3_chain():
    report = cf.property_suite(cf.CensusConfig(group=cf.make_dihedral(3)))
    assert report.capped_cocycles == 0
    assert report.chains_total == report.counts["leq_f"] == 278_020


def test_property_suite_counts_the_capped_cocycles(monkeypatch):
    cfg = cf.CensusConfig(group=cf.make_cyclic(3), max_chains_per_cocycle=1)
    # the chain walk passes every C3 cocycle, so the cap cuts nothing
    assert cf.property_suite(cfg, lift_samples=0).capped_cocycles == 0
    monkeypatch.setattr(sweep, "_chain_pass_count", lambda *args: None)
    report = cf.property_suite(cfg, lift_samples=0)
    assert report.capped_cocycles == 3  # every cocycle but the all-ones one
    assert report.truncated


def test_the_chain_cap_cuts_no_lift_check():
    # the lifts are checked on their first 64 chains whatever the chain cap
    cfg = cf.CensusConfig(group=cf.make_cyclic(3), max_chains_per_cocycle=1)
    report = cf.property_suite(cfg)
    assert report.counts["lift_sandwich"] == 62
    assert not report.truncated and report.failures == ()


def test_property_suite_small_groups():
    for n in (2, 3):
        report = cf.property_suite(cf.CensusConfig(group=cf.make_cyclic(n)))
        assert report.failures == ()
        assert report.cocycle_count == KNOWN_COUNTS[n]
        assert report.skipped_simple == 1  # the all-ones table
        assert report.capped_cocycles == 0
        assert not report.truncated


def test_mutation_detected_at_validation(golden):
    outcome = cf.mutation_report(golden, 4, 4)
    assert outcome.detected
    assert outcome.stage == "validation"
    assert outcome.where == (1, 3, 4)


def test_mutation_normalization_cell(golden):
    outcome = cf.mutation_report(golden, 3, 0)
    assert outcome.detected
    assert outcome.stage == "validation"
    assert outcome.where == (3,)


def test_mutation_out_of_range(golden):
    with pytest.raises(ValidationError, match="out of range"):
        cf.mutation_report(golden, 9, 0)


def test_census_records_fields(z9):
    stream = cf.enumerate_cocycles(cf.CensusConfig(group=cf.make_cyclic(3)))
    records = cf.census_records(stream)
    assert len(records) == 4
    by_bits = {rec.bits: rec for rec in records}
    ones = by_bits["111111111"]
    assert ones.inertial == (0, 1, 2)
    assert ones.max_power == 0
    assert ones.nk_sizes == ()
    assert ones.annihilator_classes == 0
    f0 = by_bits["111100100"]
    assert f0.inertial == (0,)
    assert f0.max_power == 1
    assert f0.nk_sizes == (2,)
    assert f0.annihilator_classes == 2
