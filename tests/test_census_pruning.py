"""The implications the census search files next to the cocycle identities:
each follows from its identity, and with them the search visits fewer
prefixes but yields the same tables in the same order."""

from __future__ import annotations

import itertools

import pytest

import cocycle_forge as cf
from cocycle_forge import census
from cocycle_forge.census import (
    _implications,
    _products_agree,
    _table_from_cells,
    _triple_constraints,
)
from cocycle_forge.cocycles import _closing_schedule, _depth_first

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
    return list(_depth_first(domains, schedule, _counted(_products_agree, calls))), calls[0]


def _pruned_census(group, monkeypatch):
    """enumerate_cocycles's mask lists and the number of values its search
    tried, counted at the predicate it hands the search core."""
    calls = [0]

    def counting(domains, schedule, holds):
        return _depth_first(domains, schedule, _counted(holds, calls))

    monkeypatch.setattr(census, "_depth_first", counting)
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
    plain = [_table_from_cells(group, cells).masks for cells in _plain_search(group)[0]]
    pruned, _ = _pruned_census(group, monkeypatch)
    assert pruned == plain, name


def test_pruning_cuts_the_search_steps(monkeypatch):
    for name, before, after in (("C6", 8_273, 4_103), ("D3", 6_999, 4_249)):
        group = GROUPS[name]
        assert _plain_search(group)[1] == before, name
        assert _pruned_census(group, monkeypatch)[1] == after, name
