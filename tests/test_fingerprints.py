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
from cocycle_forge import algebra
from cocycle_forge.cli import run_command
from cocycle_forge.cocycles import Cocycle
from cocycle_forge.errors import InternalInvariantError

GROUPS = {
    "C2": cf.make_cyclic(2),
    "C3": cf.make_cyclic(3),
    "C4": cf.make_cyclic(4),
    "C5": cf.make_cyclic(5),
    "C6": cf.make_cyclic(6),
    "D3": cf.make_dihedral(3),
}

# SHA-256 of the CLI output, read before census_records shared one context
# per cocycle among its invariants.
CENSUS_OUTPUT_SHA256 = {
    ("census", "--order", "7"): "db2f2018204b914fd8cc6e843721928ef6c209293989bb5a153fda4df2e97781",
    ("census", "--group", "d3"): "c05a0ce96ec07286ef3ca6075c86602365a9594518e0f3d4ef1e5d47c8507ed5",
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


@pytest.mark.parametrize("argv", sorted(CENSUS_OUTPUT_SHA256))
def test_census_output_is_pinned(argv, capsys):
    assert run_command(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_OUTPUT_SHA256[argv]


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
    for cocycle in _non_simple(GROUPS["D3"])[:20]:
        stream = cf.CensusStream(cocycles=(cocycle,), truncated=False)
        with pytest.raises(InternalInvariantError, match="N_1 characterizations disagree"):
            cf.census_records(stream)
        with pytest.raises(InternalInvariantError, match="N_1 characterizations disagree"):
            cf.nk_partition(cf.AlgebraContext(cocycle))


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
