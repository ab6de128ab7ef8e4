from __future__ import annotations

from itertools import product

import pytest

import cocycle_forge as cf
from cocycle_forge.errors import ValidationError

# catalog printed with the running example, keyed by product element
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

GOLDEN_ELEMENT_EDGES = {
    (0, 1), (0, 5), (0, 8),
    (1, 2), (1, 6),
    (2, 3), (2, 7),
    (3, 4),
    (4, 5), (4, 8),
    (5, 6),
    (6, 7),
}

D3_COVER_EDGES = {
    ((), (1,)),
    ((), (3,)),
    ((1,), (1, 1)),
    ((1,), (1, 3)),
    ((1,), (3, 1)),
    ((3,), (1, 3)),
    ((3,), (3, 1)),
    ((1, 1), (3, 1, 1)),
    ((3, 1), (3, 1, 1)),
}


def _word(ctx, *letters):
    return cf.Word(ctx=ctx, letters=tuple(letters))


def test_n1_sets(golden_ctx, d3_ctx):
    assert cf.n1_set(golden_ctx) == frozenset({1, 5, 8})
    assert cf.n1_set(d3_ctx) == frozenset({1, 3})  # a and b


def test_n1_waterhouse_is_all_of_gstar():
    g = cf.make_cyclic(5)
    ctx = cf.AlgebraContext(cf.waterhouse(g, cf.subgroup(g, [0])))
    assert cf.n1_set(ctx) == frozenset({1, 2, 3, 4})


def test_word_letters_must_generate(golden_ctx):
    with pytest.raises(ValidationError, match="letter 2 is not in N_1"):
        _word(golden_ctx, 2)
    with pytest.raises(ValidationError, match="vanishes at position 1"):
        _word(golden_ctx, 5, 5)  # f(5,5) = 0


def test_word_value_and_length(golden_ctx):
    w = _word(golden_ctx, 5, 8)
    assert w.evaluation == 4
    assert len(w) == 2
    assert _word(golden_ctx).evaluation == 0  # empty word sits at the identity


def test_all_generators_golden_catalog(golden_ctx):
    gens = cf.all_generators(golden_ctx)
    catalog = {s: [w.letters for w in ws] for s, ws in gens.catalog.items()}
    assert catalog == GOLDEN_CATALOG


def test_all_generators_d3(d3_ctx):
    gens = cf.all_generators(d3_ctx)
    catalog = {s: [w.letters for w in ws] for s, ws in gens.catalog.items()}
    assert catalog == {
        1: [(1,)],
        2: [(1, 1)],
        3: [(3,)],
        4: [(1, 3), (3, 1, 1)],
        5: [(3, 1)],
    }


def test_is_ordered_part_contiguous_infix(d3_ctx):
    a = _word(d3_ctx, 1)
    ab = _word(d3_ctx, 1, 3)
    baa = _word(d3_ctx, 3, 1, 1)
    assert cf.is_ordered_part(a, baa)
    assert not cf.is_ordered_part(ab, baa)
    assert cf.is_ordered_part(baa, baa)
    assert cf.is_ordered_part(_word(d3_ctx), a)


def test_bstar_golden(golden_ctx):
    gens = cf.all_generators(golden_ctx)
    words = {w.letters for w in cf.bstar(gens)}
    # maximal words over the non-trivial annihilators 4 and 7
    assert words == {(5, 8), (8, 5), (1, 1, 1, 1), (1, 1, 5), (1, 5, 1), (5, 1, 1)}


def test_bstar_d3(d3_ctx):
    gens = cf.all_generators(d3_ctx)
    assert {w.letters for w in cf.bstar(gens)} == {(1, 3), (3, 1, 1)}


def test_bstar_waterhouse_empty():
    g = cf.make_cyclic(4)
    ctx = cf.AlgebraContext(cf.waterhouse(g, cf.subgroup(g, [0])))
    assert cf.bstar(cf.all_generators(ctx)) == ()


def test_ideal_of_word_sums_letter_ideals(golden_ctx):
    w = _word(golden_ctx, 5, 8)
    got = cf.ideal_of_word(w)
    by_hand = cf.ideal_lattice_op(
        "sum",
        cf.principal_ideal(golden_ctx, 5),
        cf.principal_ideal(golden_ctx, 8),
    )
    assert got.members == by_hand.members == frozenset({4, 5, 6, 7, 8})


def test_ideal_of_word_d3_both_maximal_words_agree(d3_ctx):
    ia = cf.principal_ideal(d3_ctx, 1)
    ib = cf.principal_ideal(d3_ctx, 3)
    expect = cf.ideal_lattice_op("sum", ia, ib).members
    for letters in ((1, 3), (3, 1, 1)):
        w = cf.Word(ctx=d3_ctx, letters=letters)
        assert cf.ideal_of_word(w).members == expect


def test_principal_via_generators_matches_bfs(golden_ctx):
    gens = cf.all_generators(golden_ctx)
    for s in range(1, 9):
        via_words = cf.principal_via_generators(golden_ctx, s, gens)
        via_bfs = cf.principal_ideal(golden_ctx, s)
        assert via_words.members == via_bfs.members


def _word_value(ctx, letters):
    """The product of letters from the identity, or None once a step vanishes."""
    value = 0
    for letter in letters:
        if not ctx.f(value, letter):
            return None
        value = ctx.mul(value, letter)
    return value


def _principal_by_flanks(ctx, s, gens):
    """The members of principal_via_generators by a loop over flanks u,
    centers c and flanks v, each u + c + v evaluated from scratch."""
    hs = ctx.inertial.members
    centers = set()
    for w in gens.words_for(s):
        for h1, h2 in product(hs, hs):
            if len(w) == 1:
                centers.add((ctx.mul(ctx.mul(h1, s), h2),))
            else:
                centers.add(
                    (ctx.mul(h1, w.letters[0]),) + w.letters[1:-1] + (ctx.mul(w.letters[-1], h2),)
                )
    flanks = [()] + [w.letters for w in gens.all_words()]
    values = {_word_value(ctx, u + c + v) for u, c, v in product(flanks, centers, flanks)}
    return frozenset(values - {None})


@pytest.mark.parametrize(
    "group",
    [cf.make_cyclic(4), cf.make_cyclic(5), cf.make_cyclic(6), cf.make_dihedral(3)],
    ids=["c4", "c5", "c6", "d3"],
)
def test_principal_via_generators_matches_the_flank_loop(group):
    checked = 0
    for c in cf.enumerate_cocycles(cf.CensusConfig(group=group)).cocycles:
        try:
            ctx = cf.AlgebraContext(c)
        except ValidationError:
            continue  # the all-ones cocycle has no G*
        gens = cf.all_generators(ctx)
        for s in ctx.gstar:
            via_words = cf.principal_via_generators(ctx, s, gens)
            assert via_words.members == _principal_by_flanks(ctx, s, gens)
            checked += 1
    assert checked


def test_element_graph_golden(golden_ctx):
    assert set(cf.element_graph_edges(golden_ctx)) == GOLDEN_ELEMENT_EDGES


def test_element_graph_waterhouse_is_star():
    g = cf.make_cyclic(4)
    ctx = cf.AlgebraContext(cf.waterhouse(g, cf.subgroup(g, [0])))
    assert set(cf.element_graph_edges(ctx)) == {(0, 1), (0, 2), (0, 3)}


def test_generator_cover_edges_d3(d3_ctx):
    gens = cf.all_generators(d3_ctx)
    edges = {(u.letters, v.letters) for u, v in cf.generator_cover_edges(gens)}
    assert edges == D3_COVER_EDGES


def test_cover_edges_skip_transitive_pairs(golden_ctx):
    gens = cf.all_generators(golden_ctx)
    edges = {(u.letters, v.letters) for u, v in cf.generator_cover_edges(gens)}
    # (1) is part of (1,1,1) but only through (1,1); no direct cover edge
    assert ((1,), (1, 1)) in edges
    assert ((1,), (1, 1, 1)) not in edges


def test_word_label_uses_names(d3_ctx, golden_ctx):
    assert cf.word_label(cf.Word(ctx=d3_ctx, letters=(3, 1, 1))) == "(b,a,a)"
    assert cf.word_label(cf.Word(ctx=golden_ctx, letters=(5, 8))) == "(5,8)"
    assert cf.word_label(cf.Word(ctx=d3_ctx, letters=())) == "()"


def test_graphs_dot_element_d3(d3_ctx):
    text = cf.graphs_dot(d3_ctx, "element")
    assert text == (
        "graph {\n"
        '  "e";\n'
        '  "a";\n'
        '  "a2";\n'
        '  "b";\n'
        '  "ab";\n'
        '  "a2b";\n'
        '  "e" -- "a";\n'
        '  "e" -- "b";\n'
        '  "a" -- "a2";\n'
        '  "a" -- "ab";\n'
        '  "a" -- "a2b";\n'
        '  "a2" -- "ab";\n'
        '  "b" -- "ab";\n'
        '  "b" -- "a2b";\n'
        '  "ab" -- "a2b";\n'
        "}\n"
    )


def test_graphs_dot_generator_d3(d3_ctx):
    text = cf.graphs_dot(d3_ctx, "generator")
    assert text == (
        "graph {\n"
        '  "()";\n'
        '  "(a)";\n'
        '  "(b)";\n'
        '  "(a,a)";\n'
        '  "(a,b)";\n'
        '  "(b,a)";\n'
        '  "(b,a,a)";\n'
        '  "()" -- "(a)";\n'
        '  "()" -- "(b)";\n'
        '  "(a)" -- "(a,a)";\n'
        '  "(a)" -- "(a,b)";\n'
        '  "(a)" -- "(b,a)";\n'
        '  "(b)" -- "(a,b)";\n'
        '  "(b)" -- "(b,a)";\n'
        '  "(a,a)" -- "(b,a,a)";\n'
        '  "(b,a)" -- "(b,a,a)";\n'
        "}\n"
    )


def test_graphs_dot_rejects_unknown_kind(golden_ctx):
    with pytest.raises(ValidationError, match="unknown graph kind"):
        cf.graphs_dot(golden_ctx, "hasse")
