"""Census fingerprints against a brute-force oracle, the pinned census
output, and the direct N_1 mask that serves every fingerprint of a context.

The oracle reads only the raw 0/1 rows and the group table: the inertial
set, the radical powers by set products, the N_k layers and the double
cosets of the annihilators, with no masks and nothing from the package's
algebra module.
"""

from __future__ import annotations

import hashlib

import pytest

import cocycle_forge as cf
from cocycle_forge import algebra, census, groups
from cocycle_forge.cli import run_command
from cocycle_forge.cocycles import Cocycle
from cocycle_forge.errors import InternalInvariantError, ValidationError

GROUPS = {
    "C2": cf.make_cyclic(2),
    "C3": cf.make_cyclic(3),
    "C4": cf.make_cyclic(4),
    "C5": cf.make_cyclic(5),
    "C6": cf.make_cyclic(6),
    "D3": cf.make_dihedral(3),
}

# SHA-256 of the CLI output, read before census_records shared one context
# per cocycle among its invariants; the order-8 and D4 outputs, the sizes the
# benchmark runs, were read before the census compiled its search steps and
# fingerprinted on masks.
CENSUS_OUTPUT_SHA256 = {
    ("census", "--order", "7"): "db2f2018204b914fd8cc6e843721928ef6c209293989bb5a153fda4df2e97781",
    ("census", "--group", "d3"): "c05a0ce96ec07286ef3ca6075c86602365a9594518e0f3d4ef1e5d47c8507ed5",
    ("census", "--order", "8"): "d61125f6288382870b8351d2f9c7e7d9e2957304f045fd9c95e53fb91aa842db",
    ("census", "--group", "d4"): "91007e9759fd78fa9a9f49033777c83791b18848361c14479df38dfdc9f774b8",
}


def _oracle_record(group, rows):
    """(bits, inertial, max_power, nk_sizes, annihilator_classes) from raw rows."""
    n = group.order
    table = group.table
    inverse = [next(t for t in range(n) if table[s][t] == 0) for s in range(n)]
    inertial = tuple(s for s in range(n) if rows[s][inverse[s]])
    gstar = [s for s in range(n) if s not in inertial]
    bits = "".join("".join(map(str, row)) for row in rows)
    if not gstar:
        return bits, inertial, 0, (), 0
    powers = [set(gstar)]  # J, J^2, .. while nonzero
    while True:
        nxt = {table[s][t] for s in powers[-1] for t in gstar if rows[s][t]}
        if not nxt:
            break
        assert nxt != powers[-1], "radical is not nilpotent"
        powers.append(nxt)
    layers = [power - below for power, below in zip(powers, powers[1:] + [set()])]
    annihilators = {s for s in gstar if not any(rows[s][t] or rows[t][s] for t in gstar)}
    classes = {
        frozenset(table[table[h1][s]][h2] for h1 in inertial for h2 in inertial)
        for s in annihilators
    }
    return bits, inertial, len(powers), tuple(len(layer) for layer in layers), len(classes)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_census_records_match_the_oracle(name):
    group = GROUPS[name]
    stream = cf.enumerate_cocycles(cf.CensusConfig(group=group))
    records = cf.census_records(stream)
    assert len(records) == len(stream.cocycles)
    for cocycle, record in zip(stream.cocycles, records):
        expected = _oracle_record(group, cocycle.values)
        got = (
            record.bits,
            record.inertial,
            record.max_power,
            record.nk_sizes,
            record.annihilator_classes,
        )
        assert record.order == group.order
        assert got == expected, cocycle.rows()


# The same outputs through the library, emit_census(census_records(...)):
# Z/7 spans 3 blocks of census_records and 9 of the command.
LIBRARY_CENSUS = {
    ("library", "--order", "7"): cf.make_cyclic(7),
    ("library", "--group", "d4"): cf.make_dihedral(4),
}


@pytest.mark.parametrize(
    "argv", sorted(CENSUS_OUTPUT_SHA256) + sorted(LIBRARY_CENSUS),
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv),
)
def test_census_output_is_pinned(argv, capsys):
    if argv in LIBRARY_CENSUS:
        stream = cf.enumerate_cocycles(cf.CensusConfig(group=LIBRARY_CENSUS[argv]))
        out = cf.emit_census(cf.census_records(stream))
    else:
        assert run_command(list(argv)) == 0
        out = capsys.readouterr().out
    expected = CENSUS_OUTPUT_SHA256[("census",) + argv[1:]]
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def _non_simple(group):
    everything = tuple(range(group.order))
    return [
        c
        for c in cf.enumerate_cocycles(cf.CensusConfig(group=group)).cocycles
        if cf.inertial_group(c).members != everything
    ]


def test_a_wrong_direct_n1_still_raises(monkeypatch):
    real = algebra._n1_direct_mask
    monkeypatch.setattr(
        algebra, "_n1_direct_mask", lambda ctx: real(ctx) ^ 1 << ctx.gstar[0]
    )
    # the block kernel reads no _n1_direct_mask: refused, each record reports
    monkeypatch.setattr(census, "_block_records", lambda group, cocycles: None)
    for cocycle in _non_simple(GROUPS["D3"])[:20]:
        stream = cf.CensusStream(cocycles=(cocycle,), truncated=False)
        with pytest.raises(InternalInvariantError, match="N_1 characterizations disagree"):
            cf.census_records(stream)
        with pytest.raises(InternalInvariantError, match="N_1 characterizations disagree"):
            cf.nk_partition(cf.AlgebraContext(cocycle))


# Tables that are no cocycles, each tripping one check of the radical powers
# or of the annihilator classes: on C4 with H = {0, 2}, a radical [1, 3]
# that is not closed, a closed radical whose square [3] is not, and a
# radical whose square is itself; on D3 with H = {0, 3}, annihilators
# [1, 5] that split the double coset [1, 2, 4, 5].
BROKEN_TABLES = {
    "J-not-closed": ("C4", (0b1111, 0b0111, 0b0111, 0b0101),
                     ValidationError, r"set \[1, 3\] is not closed"),
    "square-not-closed": ("C4", (0b1111, 0b0101, 0b1011, 0b0001),
                          ValidationError, r"set \[3\] is not closed"),
    "not-nilpotent": ("C4", (0b1111, 0b0011, 0b1011, 0b1101),
                      InternalInvariantError, "radical is not nilpotent"),
    "split-double-coset": ("D3", (0b111111, 0b000001, 0b000001, 0b001011, 0b001101, 0b000001),
                           InternalInvariantError, "not closed under the double coset action"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_TABLES))
def test_each_fingerprint_check_still_raises(case):
    name, masks, error, message = BROKEN_TABLES[case]
    cocycle = Cocycle(group=GROUPS[name], masks=masks)
    stream = cf.CensusStream(cocycles=(cocycle,), truncated=False)
    with pytest.raises(error, match=message):
        cf.census_records(stream)
    if case == "split-double-coset":
        ctx = cf.AlgebraContext(cocycle)
        assert [len(layer) for layer in cf.nk_partition(ctx)] == [3, 1]
        with pytest.raises(error, match=message):
            cf.classify_annihilators(ctx)
        assert ctx._annihilators is None
        return
    for view in (cf.radical_powers, cf.nk_partition):
        with pytest.raises(error, match=message):
            view(cf.AlgebraContext(cocycle))


def test_double_coset_masks_are_the_double_cosets():
    for group in GROUPS.values():
        for members in {cf.inertial_group(c).members for c in _non_simple(group)}:
            sub = cf.subgroup(group, members)
            mask = sum(1 << s for s in members)
            masks = groups._double_coset_masks(group, mask)
            assert masks == tuple(sum(1 << s for s in cls) for cls in cf.double_cosets(group, sub))
            assert group._double_coset_masks[mask] is masks
            assert groups._double_coset_masks(group, mask) is masks


def test_direct_n1_is_computed_once_per_context(monkeypatch):
    calls = []
    real = algebra._n1_direct_mask

    def counted(ctx):
        calls.append(ctx)
        return real(ctx)

    monkeypatch.setattr(algebra, "_n1_direct_mask", counted)
    for cocycle in _non_simple(GROUPS["C4"]):
        ctx = cf.AlgebraContext(cocycle)
        assert ctx._n1_mask is None
        layers = cf.nk_partition(ctx)
        cf.classify_annihilators(ctx)
        assert cf.n1_set(ctx) == layers[0]
        cf.all_generators(ctx)
        assert calls == [ctx]
        assert ctx._n1_mask == real(ctx)
        calls.clear()
    monkeypatch.setattr(census, "_block_records", lambda group, cocycles: None)
    cf.census_records(cf.CensusStream(cocycles=(cocycle, cocycle), truncated=False))
    assert len(calls) == 2 and calls[0] is not calls[1]


def test_context_check_passes_once_and_fails_on_every_call():
    # C4 with H = {0, 2}: f(1,1) = 1 although 1 + 1 = 2 lies in H
    g = cf.make_cyclic(4)
    fabricated = Cocycle(group=g, masks=(0b1111, 0b0011, 0b1111, 0b0001))
    ctx = cf.AlgebraContext(fabricated)
    assert ctx.inertial.members == (0, 2)
    zero = cf.MonomialIdeal.from_members(ctx, frozenset())
    chain = cf.DescendingChain(ideals=(zero, zero))
    for _ in range(2):
        with pytest.raises(InternalInvariantError, match="landed in the inertial group"):
            cf.cocycle_from_chain(ctx, chain)
    assert ctx._gstar_products_avoid_h is False
    assert ctx._chain_cache == {} and ctx._valid_tables == {}

    good = cf.AlgebraContext(_non_simple(g)[0])
    assert good._gstar_products_avoid_h is False
    radical = cf.MonomialIdeal.from_members(good, frozenset(good.gstar))
    cf.cocycle_from_chain(good, cf.DescendingChain(ideals=(radical, radical)))
    assert good._gstar_products_avoid_h is True
