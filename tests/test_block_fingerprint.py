"""The census block fingerprint against ``_census_record``, its reference.

``census._block_records`` fingerprints a whole block of cocycles at once and
either returns exactly the records ``_census_record`` makes, one by one, or
refuses the block; a refused block goes cocycle by cocycle through
``_census_record``, which reports.  The inputs are every census cocycle of
C2-C8 and D3-D4 in blocks of several sizes, the first C9 tables of the
search, the broken tables of ``test_fingerprints`` placed in blocks of
valid cocycles, hypothesis-drawn 0/1 tables, and each kernel check patched
to fail.
"""

from __future__ import annotations

import functools
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import cocycle_forge as cf
from cocycle_forge import census, cli
from cocycle_forge.cocycles import Cocycle
from cocycle_forge.errors import InternalInvariantError, ValidationError
from cocycle_forge.files import _census_line

from test_fingerprints import BROKEN_TABLES

GROUPS = {
    **{f"C{n}": cf.make_cyclic(n) for n in range(2, 9)},
    "D3": cf.make_dihedral(3),
    "D4": cf.make_dihedral(4),
}

# C4 with f(1,3) = f(3,1) = 1 and f(2,2) = 0: H would be {0, 1, 3}
NO_SUBGROUP = ("C4", (0b1111, 0b1011, 0b0011, 0b0011),
               InternalInvariantError, r"inertial set \[0, 1, 3\] is not a subgroup")


@functools.lru_cache(maxsize=None)
def _census(name):
    """The census cocycles of a group and their reference records."""
    cocycles = cf.enumerate_cocycles(cf.CensusConfig(group=GROUPS[name])).cocycles
    return cocycles, [census._census_record(c) for c in cocycles]


def _kernel(group, cocycles, size):
    """The kernel's records over blocks of size; a refusal fails the test."""
    records = []
    for start in range(0, len(cocycles), size):
        block = list(cocycles[start:start + size])
        got = census._block_records(group, block)
        assert got is not None, (len(records), len(block))
        records += got
    return records


def _stream(cocycles):
    return cf.CensusStream(cocycles=tuple(cocycles), truncated=False)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_every_census_block_gives_the_reference_records(name):
    cocycles, expected = _census(name)
    for size in (1, 37, 500, census._BLOCK_TABLES):
        assert _kernel(GROUPS[name], cocycles, size) == expected, size


def test_the_first_c9_tables_give_the_reference_records():
    # a C9 table is 81 bits, so each set of a lane spans two bytes
    group = cf.make_cyclic(9)
    cocycles = list(islice(census._census(cf.CensusConfig(group=group)), 3000))
    expected = [census._census_record(c) for c in cocycles]
    assert _kernel(group, cocycles, census._BLOCK_TABLES) == expected
    assert _kernel(group, cocycles[:100], 37) == expected[:100]


def test_census_records_takes_any_stream_in_runs_of_one_group():
    c4, c4_records = _census("C4")
    d3, d3_records = _census("D3")
    assert cf.census_records(_stream(())) == []
    mixed = c4[:5] + d3 + c4[5:]
    assert cf.census_records(_stream(mixed)) == c4_records[:5] + d3_records + c4_records[5:]


@pytest.mark.parametrize("case", sorted(BROKEN_TABLES) + ["inertial-not-a-subgroup"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_broken_table_refuses_its_block_and_keeps_its_report(case, where):
    broken = {**BROKEN_TABLES, "inertial-not-a-subgroup": NO_SUBGROUP}
    name, masks, error, message = broken[case]
    group = GROUPS[name]
    table = Cocycle(group=group, masks=masks)
    valid = list(_census(name)[0][:40])
    at = {"first": 0, "middle": len(valid) // 2, "last": len(valid)}[where]
    block = valid[:at] + [table] + valid[at:]
    assert census._block_records(group, block) is None
    with pytest.raises(error, match=message) as alone:
        census._census_record(table)
    with pytest.raises(error) as in_block:
        cf.census_records(_stream(block))
    assert str(in_block.value) == str(alone.value)


def _tables(name):
    """Blocks of normalized 0/1 tables, row and column 0 all ones: drawn at
    random, or census cocycles with one cell flipped."""
    group = GROUPS[name]
    n = group.order
    row = st.integers(0, (1 << n - 1) - 1).map(lambda bits: bits << 1 | 1)
    drawn = st.lists(row, min_size=n - 1, max_size=n - 1).map(lambda rows: ((1 << n) - 1, *rows))
    flipped = st.builds(
        lambda c, s, t: c.masks[:s] + (c.masks[s] ^ 1 << t,) + c.masks[s + 1:],
        st.sampled_from(_census(name)[0]), st.integers(1, n - 1), st.integers(1, n - 1),
    )
    table = st.one_of(drawn, flipped).map(lambda masks: Cocycle(group=group, masks=masks))
    return st.lists(table, min_size=1, max_size=40)


def _outcome(cocycle):
    try:
        return census._census_record(cocycle)
    except (ValidationError, InternalInvariantError) as exc:
        return exc


@pytest.mark.parametrize("name", ["C4", "C6", "D3"])
def test_random_blocks_agree_with_the_reference(name):
    group = GROUPS[name]

    @settings(max_examples=150, deadline=None)
    @given(_tables(name))
    def check(block):
        outcomes = [_outcome(c) for c in block]
        failures = [o for o in outcomes if isinstance(o, Exception)]
        for cocycle, outcome in zip(block, outcomes):
            alone = census._block_records(group, [cocycle])
            assert alone is None if isinstance(outcome, Exception) else alone in (None, [outcome])
        if failures:
            assert census._block_records(group, block) is None
            with pytest.raises(type(failures[0])) as caught:
                cf.census_records(_stream(block))
            assert str(caught.value) == str(failures[0])
        else:
            assert census._block_records(group, block) in (None, outcomes)
            assert cf.census_records(_stream(block)) == outcomes

    check()


def _raise_validation(group, mask):
    raise ValidationError("patched: no subgroup")


_real_layout = census._block_layout
_real_layers = census._layers_of

# Each check of the kernel, patched to fail: (attribute of census, patch).
PATCHED_CHECKS = {
    "closedness": ("_closed", lambda lay, right, left, rows, columns: False),
    "nilpotency-bound": (
        "_block_layout", lambda table, lanes: _real_layout(table, lanes)._replace(products=1)
    ),
    "second-n1-route": ("_factorable", lambda lay, cells: 0),
    "cover": ("_layers_of", lambda powers: _real_layers(powers)[:-1] + [0]),
    "coset-union": ("_classes_met", lambda cosets, ann: None),
    "h-subgroup": ("_double_coset_masks", _raise_validation),
}


@pytest.mark.parametrize("check", sorted(PATCHED_CHECKS))
def test_each_kernel_check_patched_to_fail_refuses_and_changes_no_record(check, monkeypatch):
    cocycles, expected = _census("D3")
    monkeypatch.setattr(census, *PATCHED_CHECKS[check])
    assert census._block_records(GROUPS["D3"], list(cocycles)) is None
    assert cf.census_records(_stream(cocycles)) == expected


def test_the_census_command_writes_every_line_before_a_failing_table(monkeypatch):
    # more than one block of lines, then a table that fails validation
    cocycles, expected = _census("C7")
    count = cli._LINE_BLOCK + 44

    def failing(cfg):
        yield from cocycles[:count]
        raise ValidationError("enumerated table failed validation: injected")

    monkeypatch.setattr(cli, "_census", failing)
    lines = []
    with pytest.raises(ValidationError, match="injected"):
        for line in cli._census_lines(cf.CensusConfig(group=GROUPS["C7"])):
            lines.append(line)
    assert lines == [_census_line(record) for record in expected[:count]]
