"""End-to-end checks, one per advertised guarantee.

Every expected value here was either printed with the original examples or
frozen from an independent brute-force run; nothing asserts the library
against itself.
"""

from __future__ import annotations

import itertools
import random
import time

import cocycle_forge as cf

from conftest import D3_ROWS, GOLDEN_R_VALUES, GOLDEN_ROWS, int_rows

# printed generator catalog of the running Z/9Z example
GOLDEN_CATALOG = {
    1: [(1,)],
    2: [(1, 1)],
    3: [(1, 1, 1)],
    4: [(5, 8), (8, 5), (1, 1, 1, 1)],
    5: [(5,)],
    6: [(1, 5), (5, 1)],
    7: [(1, 1, 5), (1, 5, 1), (5, 1, 1)],
    8: [(8,)],
}

# the five printed decomposition ideals, keyed by class representative
GOLDEN_DECOMPOSITION = {
    2: {3, 4, 5, 6, 7, 8},
    3: {4, 5, 6, 7, 8},
    4: {6, 7},
    6: {2, 3, 4, 7, 8},
    7: {3, 4, 8},
}

# printed lift table: values of r_1 .. r_5 at 0 .. 8
LIFT_TABLE = {
    1: (
        (0, 0, 0, 0, 0), (1, 1, 1, 1, 0), (2, 2, 2, 2, 0), (3, 3, 3, 0, 0),
        (4, 4, 0, 0, 0), (1, 1, 1, 0, 0), (2, 2, 2, 0, 0), (3, 3, 3, 0, 0),
        (3, 3, 3, 0, 0),
    ),
    2: (
        (0, 0, 0, 0, 0), (1, 1, 1, 1, 0), (2, 2, 2, 2, 0), (3, 3, 3, 3, 0),
        (4, 4, 0, 0, 0), (1, 1, 1, 0, 0), (2, 2, 2, 0, 0), (3, 3, 3, 0, 0),
        (3, 3, 3, 0, 0),
    ),
    3: (
        (0, 0, 0, 0), (1, 1, 1, 0), (2, 2, 2, 0), (3, 3, 3, 0),
        (4, 4, 4, 0), (1, 1, 1, 0), (2, 2, 0, 0), (3, 3, 0, 0),
        (3, 3, 3, 0),
    ),
    4: (
        (0, 0, 0, 0, 0), (1, 1, 1, 1, 0), (2, 2, 2, 0, 0), (3, 3, 3, 0, 0),
        (4, 4, 0, 0, 0), (1, 1, 1, 1, 0), (2, 2, 2, 2, 0), (3, 3, 3, 0, 0),
        (3, 3, 3, 0, 0),
    ),
    5: (
        (0, 0, 0, 0), (1, 1, 1, 0), (2, 2, 2, 0), (3, 3, 0, 0),
        (4, 4, 0, 0), (1, 1, 1, 0), (2, 2, 2, 0), (3, 3, 3, 0),
        (3, 3, 0, 0),
    ),
}

R_PRIME = (0, 9, 18, 27, 36, 9, 17, 24, 27)

# printed generator catalogs of the two b*-parts of f_{r'}
P1_PART_CATALOG = {
    1: [(1,)], 2: [(1, 1)], 3: [(1, 1, 1)], 4: [(5, 8), (8, 5)],
    5: [(5,)], 6: [(6,)], 7: [(7,)], 8: [(8,)],
}
P2_PART_CATALOG = {
    1: [(1,)], 2: [(1, 1)], 3: [(1, 1, 1)], 4: [(1, 1, 1, 1)],
    5: [(5,)], 6: [(6,)], 7: [(7,)], 8: [(8,)],
}

# printed cover edges of the dihedral generator graph
D3_DOT_EDGES = {
    ('()', '(a)'), ('()', '(b)'),
    ('(a)', '(a,a)'), ('(a)', '(a,b)'), ('(a)', '(b,a)'),
    ('(b)', '(a,b)'), ('(b)', '(b,a)'),
    ('(a,a)', '(b,a,a)'), ('(b,a)', '(b,a,a)'),
}

# flips of the golden table that yield a different but still valid cocycle;
# certified by the independent checker inside test_criterion_9
EQUIVALENT_FLIPS = {(5, 8), (8, 5), (8, 8)}


def _catalog(ctx):
    gens = cf.all_generators(ctx)
    return {s: [w.letters for w in ws] for s, ws in gens.catalog.items()}


def _ideal(ctx, *members):
    return cf.MonomialIdeal.from_members(ctx, frozenset(members))


def _radical(ctx):
    return _ideal(ctx, *ctx.gstar)


def _chain(ctx, *member_sets):
    return cf.DescendingChain(
        ideals=tuple(_ideal(ctx, *m) for m in member_sets)
    )


def _violation_free(group, rows):
    """Normalization and product identity checked directly, without the
    package's validator."""
    n = group.order
    for s in range(n):
        if rows[0][s] != 1 or rows[s][0] != 1:
            return False
    for s in range(n):
        for t in range(n):
            for u in range(n):
                if rows[s][t] * rows[group.mul(s, t)][u] != \
                        rows[t][u] * rows[s][group.mul(t, u)]:
                    return False
    return True


def test_criterion_1_golden_reproduction(z9, golden_r):
    start = time.perf_counter()
    f = cf.cocycle_from_r(golden_r)
    assert f.rows() == GOLDEN_ROWS
    assert cf.inertial_group(f).members == (0,)
    ctx = cf.AlgebraContext(f)
    assert _catalog(ctx) == GOLDEN_CATALOG
    _, nontrivial = cf.classify_annihilators(ctx)
    assert nontrivial == frozenset({4, 7})
    assert time.perf_counter() - start < 1.0


def test_criterion_2_class_decomposition(golden_ctx, golden):
    start = time.perf_counter()
    report = cf.decompose_by_classes(golden_ctx)
    assert isinstance(report, cf.DecompositionReport)
    got = {p.representative: set(p.ideal.members) for p in report.parts}
    assert got == GOLDEN_DECOMPOSITION
    f0 = cf.waterhouse(golden.group, cf.inertial_group(golden))
    for part in report.parts:
        assert part.strict
        assert cf.compare(f0, part.cocycle) == cf.LESS
        assert cf.compare(part.cocycle, golden) == cf.LESS
        sub = cf.AlgebraContext(part.cocycle)
        _, nontrivial = cf.classify_annihilators(sub)
        classes = {
            cls for cls in cf.double_cosets(golden.group, cf.inertial_group(part.cocycle))
            if set(cls) & nontrivial
        }
        assert len(classes) == 1
    assert report.recombines
    assert cf.vee([p.cocycle for p in report.parts]).values == golden.values
    assert time.perf_counter() - start < 1.0


def test_criterion_3_lift_table(golden_ctx, golden_r):
    ideals = {i: _ideal(golden_ctx, *GOLDEN_DECOMPOSITION[rho])
              for i, rho in enumerate([2, 3, 4, 6, 7], start=1)}
    squares = {i: cf.ideal_lattice_op("product", ideal, ideal)
               for i, ideal in ideals.items()}
    assert squares[3].members == squares[5].members == frozenset()
    for i in (1, 2, 4):
        assert squares[i].members == frozenset({4})
        fourth = cf.ideal_lattice_op("product", squares[i], squares[i])
        assert fourth.members == frozenset()
    for i in (3, 5):
        chain = cf.DescendingChain(ideals=(
            _radical(golden_ctx), ideals[i], _ideal(golden_ctx),
        ))
        lifted = cf.chain_lift(golden_r, chain)
        assert lifted.values == LIFT_TABLE[i], f"r_{i}"
        quotient = cf.cocycle_mod_ideal(golden_ctx, ideals[i])
        assert cf.cocycle_from_r(lifted).values == quotient.values
    for i in (1, 2, 4):
        chain = cf.DescendingChain(ideals=(
            _radical(golden_ctx), ideals[i], squares[i], _ideal(golden_ctx),
        ))
        lifted = cf.chain_lift(golden_r, chain)
        assert lifted.values == LIFT_TABLE[i], f"r_{i}"
        quotient = cf.cocycle_mod_ideal(golden_ctx, ideals[i])
        assert cf.cocycle_from_r(lifted).values == quotient.values


def test_criterion_4_bstar_decomposition(golden_ctx, z9):
    f_i3 = cf.cocycle_mod_ideal(golden_ctx, _ideal(golden_ctx, 6, 7))
    r_prime = cf.as_semilinear(z9, cf.AdditiveNaturals(), R_PRIME)
    f_rp = cf.cocycle_from_r(r_prime)
    assert f_rp.values == f_i3.values

    ctx = cf.AlgebraContext(f_rp)
    gens = cf.all_generators(ctx)
    words = {w.letters: w for w in cf.bstar(gens)}
    assert set(words) == {(5, 8), (8, 5), (1, 1, 1, 1)}
    p1 = cf.ideal_of_word(words[(5, 8)])
    assert p1.members == cf.ideal_of_word(words[(8, 5)]).members == frozenset({4, 5, 8})
    p2 = cf.ideal_of_word(words[(1, 1, 1, 1)])
    assert p2.members == frozenset({1, 2, 3, 4})

    parts = cf.decompose_by_bstar(ctx)
    assert cf.vee([f for _, f in parts]).values == f_rp.values
    catalogs = {}
    for word, part in parts:
        expect = p1.members if len(word) == 2 else p2.members
        key = frozenset(expect)
        catalogs[key] = _catalog(cf.AlgebraContext(part))
    assert catalogs[frozenset(p1.members)] == P1_PART_CATALOG
    assert catalogs[frozenset(p2.members)] == P2_PART_CATALOG


def test_criterion_5_dihedral_example(d3_ctx):
    start = time.perf_counter()
    trivial, nontrivial = cf.classify_annihilators(d3_ctx)
    assert trivial == frozenset()
    assert nontrivial == frozenset({4})  # ab
    gens = cf.all_generators(d3_ctx)
    words = {w.letters for w in cf.bstar(gens)}
    assert words == {(1, 3), (3, 1, 1)}  # (a,b) and (b,a,a)

    ia = cf.principal_ideal(d3_ctx, 1)
    ib = cf.principal_ideal(d3_ctx, 3)
    expect = cf.ideal_lattice_op("sum", ia, ib).members
    for letters in words:
        word = cf.Word(ctx=d3_ctx, letters=letters)
        assert cf.ideal_of_word(word).members == expect

    dot = cf.graphs_dot(d3_ctx, "generator")
    edges = set()
    for line in dot.splitlines():
        if " -- " in line:
            left, right = line.strip().rstrip(";").split(" -- ")
            edges.add((left.strip('"'), right.strip('"')))
    assert edges == D3_DOT_EDGES

    result = cf.search_realization(d3_ctx, bound=20)
    assert isinstance(result, cf.ExhaustionCertificate)
    assert result.bound == 20
    assert time.perf_counter() - start < 1.0


def test_criterion_6_census_property_suite():
    start = time.perf_counter()
    groups = [cf.make_cyclic(2), cf.make_cyclic(3), cf.make_cyclic(4),
              cf.make_dihedral(3)]
    expected_counts = {2: 2, 3: 4, 4: 14, 6: 262}
    for group in groups:
        report = cf.property_suite(cf.CensusConfig(group=group))
        assert report.failures == (), f"order {group.order}: {report.failures[:3]}"
        assert report.cocycle_count == expected_counts[group.order]
        assert not report.truncated
    assert time.perf_counter() - start < 180.0


def test_criterion_7_morphism_over_census():
    for group in (cf.make_cyclic(4), cf.make_dihedral(3)):
        stream = cf.enumerate_cocycles(cf.CensusConfig(group=group))
        for cocycle in stream.cocycles:
            if all(v == 1 for row in cocycle.values for v in row):
                continue
            ctx = cf.AlgebraContext(cocycle)
            for ideal in cf.enumerate_ideals(ctx):
                report = cf.morphism_check(ctx, ideal)
                assert report.ok, (cocycle.rows(), ideal.sorted_members)
                n = group.order
                assert report.dims == (n, n - len(ideal), len(ideal))


def test_criterion_8_sandwich_and_padded_equality():
    rng = random.Random(20260814)
    samples = 0
    while samples < 100:
        group = cf.make_cyclic(rng.randint(2, 9))
        r = cf.random_semilinear(group, rng)
        f = cf.cocycle_from_r(r)
        if all(v == 1 for row in f.values for v in row):
            continue
        ctx = cf.AlgebraContext(f)
        ideals = cf.enumerate_ideals(ctx)
        chains, _ = cf.descending_multichains(ideals, max_len=4, cap=500)
        chain = chains[rng.randrange(len(chains))]

        f_chain = cf.cocycle_from_chain(ctx, chain)
        lifted = cf.chain_lift(r, chain)
        f_lift = cf.cocycle_from_r(lifted)
        assert cf.compare(f_chain, f_lift) in (cf.LESS, cf.EQUAL)
        assert cf.compare(f_lift, f) in (cf.LESS, cf.EQUAL)

        result = cf.padded_lift(r, chain)
        assert result.certified
        padded_chain_f = cf.cocycle_from_chain(ctx, result.chain)
        assert cf.cocycle_from_r(result.lifted).values == padded_chain_f.values
        samples += 1


def test_criterion_9_single_entry_mutations(golden, z9):
    caught = {}
    missed = set()
    for s in range(9):
        for t in range(9):
            outcome = cf.mutation_report(golden, s, t)
            if outcome.detected:
                caught[(s, t)] = outcome
            else:
                missed.add((s, t))

    # the three exceptions flip into genuinely different valid cocycles, so
    # no check of any kind could flag them; certify that independently
    assert missed == EQUIVALENT_FLIPS
    for s, t in missed:
        rows = [list(r) for r in golden.values]
        rows[s][t] ^= 1
        assert _violation_free(z9, rows)

    assert len(caught) == 78
    for (s, t), outcome in caught.items():
        assert outcome.stage == "validation"
        rows = [list(r) for r in golden.values]
        rows[s][t] ^= 1
        assert not _violation_free(z9, rows)
        # replay the reported location against the mutated table
        if len(outcome.where) == 1:
            (w,) = outcome.where
            assert rows[0][w] == 0 or rows[w][0] == 0
        else:
            a, b, c = outcome.where
            lhs = rows[a][b] * rows[z9.mul(a, b)][c]
            rhs = rows[b][c] * rows[a][z9.mul(b, c)]
            assert lhs != rhs
