"""The implications the census search files next to the cocycle identities:
each follows from its identity, and with them the search visits fewer
prefixes but yields the same tables in the same order.  Each choice the
census compiles returns the values of its cell for which
``_products_agree`` holds on the step, the census compiles its steps from
order 7, and C7's compiled search makes a pinned number of choice calls."""

from __future__ import annotations

import itertools
import random

import pytest

import cocycle_forge as cf
from cocycle_forge import census
from cocycle_forge.census import (
    _cell_weights,
    _census_steps,
    _compiled_choices,
    _implications,
    _products_agree,
    _triple_constraints,
)
from cocycle_forge.cocycles import _closing_schedule, _depth_first, _filtered, _unpack_rows

GROUPS = {f"C{n}": cf.make_cyclic(n) for n in range(1, 8)}
GROUPS.update({f"D{n}": cf.make_dihedral(n) for n in range(1, 5)})


def _counted(holds, calls):
    """holds, adding one to calls[0] at each value the search tries."""

    def counting(step, vals):
        calls[0] += 1
        return holds(step, vals)

    return counting


def _plain_search(group):
    """Cell tuples of the search that checks only the identities, each at
    the step that closes it, and the number of values it tried."""
    size = (group.order - 1) ** 2 + 1
    domains = [(1,)] + [(0, 1)] * (size - 1)
    schedule = [((), cs) for cs in _closing_schedule(size, _triple_constraints(group))]
    calls = [0]
    return list(_depth_first(_filtered(domains, schedule, _counted(_products_agree, calls)))), calls[0]


def _pruned_census(group, monkeypatch):
    """enumerate_cocycles's mask lists and the number of values its search
    tried, counted at the predicate it hands ``_filtered``: 0 from order 7,
    where the census compiles its choices."""
    calls = [0]

    def counting(domains, schedule, holds):
        return _filtered(domains, schedule, _counted(holds, calls))

    monkeypatch.setattr(census, "_filtered", counting)
    stream = cf.enumerate_cocycles(cf.CensusConfig(group=group))
    assert not stream.truncated
    return [c.masks for c in stream.cocycles], calls[0]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_each_implication_follows_from_its_identity(name):
    for c in _triple_constraints(GROUPS[name]):
        last = max(c)
        cells = sorted(set(c) - {0})
        for x, y, z in _implications([c]):
            assert z not in (0, x, y) and max(x, y, z) < last, (name, c, (x, y, z))
            for bits in itertools.product((0, 1), repeat=len(cells)):
                vals = {0: 1, **dict(zip(cells, bits))}
                if vals[c[0]] * vals[c[1]] == vals[c[2]] * vals[c[3]]:
                    assert not (vals[x] and vals[y]) or vals[z], (name, c, (x, y, z))


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_implications_are_each_identitys_own_without_repeats(name):
    identities = _triple_constraints(GROUPS[name])
    merged = _implications(identities)
    assert len(set(merged)) == len(merged), name
    own = [imp for c in identities for imp in _implications([c])]
    assert merged == list(dict.fromkeys(own)), name


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_pruned_census_equals_the_plain_search(name, monkeypatch):
    group = GROUPS[name]
    weights = _cell_weights(group.order)
    plain = [
        _unpack_rows(sum(itertools.compress(weights, cells)), group.order)
        for cells in _plain_search(group)[0]
    ]
    pruned, _ = _pruned_census(group, monkeypatch)
    assert pruned == plain, name


def test_pruning_cuts_the_search_steps(monkeypatch):
    for name, before, after in (("C6", 8_273, 4_103), ("D3", 6_999, 4_249)):
        group = GROUPS[name]
        assert _plain_search(group)[1] == before, name
        assert _pruned_census(group, monkeypatch)[1] == after, name


def test_the_census_compiles_its_steps_from_order_7(monkeypatch):
    handed = []

    def filtered(domains, schedule, holds):
        handed.append(holds)
        return _filtered(domains, schedule, holds)

    def compiled(steps):
        handed.append("compiled")
        return _compiled_choices(steps)

    monkeypatch.setattr(census, "_filtered", filtered)
    monkeypatch.setattr(census, "_compiled_choices", compiled)
    for name in ("C6", "D3", "C7", "D4"):
        cf.enumerate_cocycles(cf.CensusConfig(group=GROUPS[name], max_candidates=1))
    assert handed == [_products_agree, _products_agree, "compiled", "compiled"]


def test_the_compiled_c7_search_makes_a_pinned_number_of_choice_calls(monkeypatch):
    # one call at each prefix the search reaches, for both values of its cell
    calls = [0]

    def counted(choice):
        def counting(vals):
            calls[0] += 1
            return choice(vals)

        return counting

    def counting(choices):
        return _depth_first([counted(choice) for choice in choices])

    monkeypatch.setattr(census, "_depth_first", counting)
    stream = cf.enumerate_cocycles(cf.CensusConfig(group=GROUPS["C7"]))
    assert len(stream.cocycles) == 2_084
    assert calls[0] == 19_312


def _step_values(step, size, tables, rng):
    """0/1 value lists for one step: every assignment of the positions it
    reads when they are at most 10 (the rest 1), else each table's cells and
    each of those with one read position flipped, and 200 seeded draws at
    densities 0.2, 0.5 and 0.8."""
    implications, identities = step
    read = sorted({p for c in (*implications, *identities) for p in c})
    if len(read) <= 10:
        for bits in itertools.product((0, 1), repeat=len(read)):
            vals = [1] * size
            for p, v in zip(read, bits):
                vals[p] = v
            yield vals
        return
    for cells in tables:
        yield list(cells)
        for p in read:
            vals = list(cells)
            vals[p] ^= 1
            yield vals
    for k in range(200):
        density = (0.2, 0.5, 0.8)[k % 3]
        yield [int(rng.random() < density) for _ in range(size)]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_each_compiled_step_agrees_with_products_agree(name):
    group = GROUPS[name]
    size = (group.order - 1) ** 2 + 1
    steps = _census_steps(group)
    compiled = _compiled_choices(steps)
    assert len(compiled) == len(steps) == size, name
    rng = random.Random(size)
    cocycles = cf.enumerate_cocycles(cf.CensusConfig(group=group)).cocycles
    # the cell values of 40 census tables: position 0 and then row-major cells
    tables = [
        [1] + [c.masks[s] >> t & 1 for s in range(1, group.order) for t in range(1, group.order)]
        for c in rng.sample(cocycles, min(40, len(cocycles)))
    ]
    verdicts = set()
    for i, (step, choice) in enumerate(zip(steps, compiled)):
        for vals in _step_values(step, size, tables, rng):
            expected = []
            for v in (0, 1):
                vals[i] = v
                verdict = _products_agree(step, vals)
                verdicts.add(verdict)
                if verdict:
                    expected.append(v)
            for v in (0, 1):
                vals[i] = v
                assert choice(vals) == tuple(expected), (name, i, vals)
    assert verdicts == ({True, False} if size > 2 else {True}), name
