"""Row-mask tables against elementwise oracles.

The package stores a table as row masks and checks the cocycle identity one
(s, t) pair at a time; every other table identity runs on the packed view.
The oracles here work entry by entry on 0/1 rows, the way the definitions
read, so a slip in the bit arithmetic shows up as a disagreement.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

from hypothesis import given, settings, strategies as st

import cocycle_forge as cf

GROUPS = {f"C{n}": cf.make_cyclic(n) for n in range(1, 10)}
GROUPS["D3"] = cf.make_dihedral(3)
GROUPS["D4"] = cf.make_dihedral(4)
# groups whose census is cheap enough to draw flips from
CENSUS_GROUPS = ("C1", "C2", "C3", "C4", "C5", "C6", "D3")


def oracle_validate(rows, group):
    """None for a cocycle, else (kind, where, detail) of the first violation."""
    n, mul = group.order, group.table
    for s in range(n):
        if rows[0][s] != 1 or rows[s][0] != 1:
            return "normalization", (s,), f"f(0,{s}) = {rows[0][s]}, f({s},0) = {rows[s][0]}, both must be 1"
    for s in range(1, n):
        for t in range(1, n):
            for r in range(1, n):
                lhs = rows[s][t] * rows[mul[s][t]][r]
                rhs = rows[t][r] * rows[s][mul[t][r]]
                if lhs != rhs:
                    return "identity", (s, t, r), (
                        f"f({s},{t})*f({mul[s][t]},{r}) = {lhs} but f({t},{r})*f({s},{mul[t][r]}) = {rhs}"
                    )
    return None


def assert_validator_agrees(rows, group):
    got = cf.validate_cocycle(rows, group)
    want = oracle_validate(rows, group)
    if want is None:
        assert isinstance(got, cf.Cocycle)
        assert got.values == rows
    else:
        assert isinstance(got, cf.CocycleViolation)
        assert (got.kind, got.where, got.detail) == want


@lru_cache(maxsize=None)
def census(name):
    return cf.enumerate_cocycles(cf.CensusConfig(group=GROUPS[name])).cocycles


@st.composite
def random_tables(draw):
    group = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]
    n = group.order
    if draw(st.booleans()):
        # dense: every entry drawn
        bits = draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
        rows = [bits[s * n:(s + 1) * n] for s in range(n)]
    else:
        # sparse: a few ones, which survive more of the identity triples
        ones = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
        rows = [[int((s, t) in ones) for t in range(n)] for s in range(n)]
    if draw(st.booleans()):
        rows[0] = [1] * n
        for row in rows:
            row[0] = 1
    return group, tuple(tuple(row) for row in rows)


@settings(max_examples=400, deadline=None)
@given(random_tables())
def test_validator_matches_triple_loop_on_random_tables(drawn):
    group, rows = drawn
    assert_validator_agrees(rows, group)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(CENSUS_GROUPS), st.data())
def test_validator_matches_triple_loop_on_census_flips(name, data):
    group = GROUPS[name]
    cocycles = census(name)
    rows = [list(row) for row in data.draw(st.sampled_from(cocycles)).values]
    s = data.draw(st.integers(0, group.order - 1))
    t = data.draw(st.integers(0, group.order - 1))
    rows[s][t] ^= 1
    assert_validator_agrees(tuple(tuple(row) for row in rows), group)


def test_census_cocycles_pass_the_triple_loop():
    for name in CENSUS_GROUPS:
        for c in census(name):
            assert_validator_agrees(c.values, GROUPS[name])


def test_a_normalization_violation_names_the_identity_index_0():
    # C3 with f(0,1) = 0: the identity is index 0 in `where` and in the detail
    report = cf.validate_cocycle([[1, 0, 1], [1, 1, 1], [1, 1, 1]], GROUPS["C3"])
    assert (report.kind, report.where) == ("normalization", (1,))
    assert report.detail == "f(0,1) = 0, f(1,0) = 1, both must be 1"
    assert str(report) == "normalization violated at (1,): f(0,1) = 0, f(1,0) = 1, both must be 1"


def test_table_views_round_trip():
    assert [f.name for f in dataclasses.fields(cf.BinaryTable)] == ["group", "masks"]
    for c in census("D3"):
        assert cf.BinaryTable.from_rows(c.group, c.values).masks == c.masks
        assert c.rows() == tuple("".join(map(str, row)) for row in c.values)
        for s, row in enumerate(c.values):
            assert all(row[t] == c.masks[s] >> t & 1 for t in range(c.group.order))


def test_waterhouse_memo_keeps_the_callers_group():
    table = cf.make_cyclic(4).table
    g1 = cf.group_from_table(table, names=["e", "a", "a2", "a3"])
    g2 = cf.group_from_table(table, names=["0", "1", "2", "3"])
    f1 = cf.waterhouse(g1, cf.subgroup(g1, [0, 2]))
    f2 = cf.waterhouse(g2, cf.subgroup(g2, [0, 2]))
    assert f2.group is g2 and f2.group.names == g2.names
    assert f1.group is g1 and f1.group.names == g1.names
    assert f1.masks == f2.masks
    assert cf.waterhouse(g1, cf.subgroup(g1, [0, 2])).group.names == g1.names
    dot = cf.graphs_dot(cf.AlgebraContext(f2), "element")
    assert '"a"' not in dot and '"1"' in dot


def oracle_vee(views):
    return tuple(tuple(max(col) for col in zip(*rows)) for rows in zip(*views))


def oracle_product(views):
    return tuple(tuple(min(col) for col in zip(*rows)) for rows in zip(*views))


def oracle_compare(a, b):
    sa = {(s, t) for s, row in enumerate(a) for t, v in enumerate(row) if v}
    sb = {(s, t) for s, row in enumerate(b) for t, v in enumerate(row) if v}
    if sa == sb:
        return cf.EQUAL
    if sa < sb:
        return cf.LESS
    if sa > sb:
        return cf.GREATER
    return cf.INCOMPARABLE


def oracle_chain(ctx, chain):
    """f(s,t) survives when s, t and st share a layer I_i minus I_{i+1}, i < k."""
    n, k = ctx.group.order, len(chain)
    levels = cf.chain_levels(chain)
    rows = [[1] * n for _ in range(n)]
    for s in ctx.gstar:
        for t in ctx.gstar:
            level = levels[s]
            rows[s][t] = int(
                ctx.f(s, t) == 1
                and 1 <= level <= k - 1
                and levels[t] == level == levels[ctx.mul(s, t)]
            )
    return tuple(tuple(row) for row in rows)


def oracle_quotient(ctx, ideal):
    """f(s,t) survives when st avoids the ideal."""
    n = ctx.group.order
    rows = [[1] * n for _ in range(n)]
    for s in ctx.gstar:
        for t in ctx.gstar:
            rows[s][t] = int(ctx.f(s, t) == 1 and ctx.mul(s, t) not in ideal)
    return tuple(tuple(row) for row in rows)


def chains_to_check(name, ideals):
    """Every chain on C4.  The D3 census has 278,020 chains, so there the
    two-term chains and every 50th three-term chain."""
    if name == "C4":
        chains, truncated = cf.descending_multichains(ideals)
        assert not truncated
        return chains
    chains, _ = cf.descending_multichains(ideals, max_len=3)
    return [c for i, c in enumerate(chains) if len(c) == 2 or i % 50 == 0]


def test_table_operations_match_elementwise_oracles():
    for name in ("C4", "D3"):
        group = GROUPS[name]
        for f in census(name):
            if cf.inertial_group(f).members == tuple(range(group.order)):
                continue
            ctx = cf.AlgebraContext(f)
            f0 = cf.waterhouse(group, ctx.inertial)
            ideals = cf.enumerate_ideals(ctx)
            tables = [f, f0]
            for ideal in ideals:
                quotient = cf.cocycle_mod_ideal(ctx, ideal)
                assert quotient.values == oracle_quotient(ctx, ideal)
                tables.append(quotient)
            for chain in chains_to_check(name, ideals):
                table = cf.cocycle_from_chain(ctx, chain)
                assert table.values == oracle_chain(ctx, chain)
                tables.append(table)
            views = [t.values for t in tables]
            n = group.order
            for t, view in zip(tables, views):
                assert t.packed == sum(
                    v << s * n + u for s, row in enumerate(view) for u, v in enumerate(row)
                )
                assert cf.BinaryTable.from_packed(group, t.packed).masks == t.masks
            for i in range(len(tables) - 2):
                a, b, c = tables[i:i + 3]
                va, vb, vc = views[i:i + 3]
                assert cf.vee([a, b, c]).values == oracle_vee([va, vb, vc])
                assert cf.pointwise_product([a, b, c]).values == oracle_product([va, vb, vc])
                assert cf.compare(a, b) == oracle_compare(va, vb)
                assert cf.compare(a, f) == oracle_compare(va, views[0])
