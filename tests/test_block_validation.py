"""The census block check against validate_cocycle, its reference.

``cocycles._tables_valid`` decides a whole block of packed tables at once;
its verdict must be exactly whether validate_cocycle passes every table of
the block.  The inputs are every census table of C2-C7 and D3-D4, every
single-entry flip of a seeded sample of them, row 0 and column 0 included,
each flip alone and placed first, in the middle, last and in a short last
block, and hypothesis-drawn 0/1 tables.
"""

from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import cocycle_forge as cf
from cocycle_forge.cocycles import _BLOCK_TABLES, BinaryTable, Cocycle, _tables_valid, validate_cocycle

GROUPS = {
    **{f"C{n}": cf.make_cyclic(n) for n in range(2, 8)},
    "D3": cf.make_dihedral(3),
    "D4": cf.make_dihedral(4),
}


@functools.lru_cache(maxsize=None)
def _census(name):
    """The packed census tables of a group, enumerated once per test run."""
    stream = cf.enumerate_cocycles(cf.CensusConfig(group=GROUPS[name]))
    return tuple([c.packed for c in stream.cocycles])


def _passes(group, packed):
    return isinstance(validate_cocycle(BinaryTable.from_packed(group, packed)), Cocycle)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_every_census_block_passes(name):
    group, tables = GROUPS[name], _census(name)
    assert all(_passes(group, p) for p in tables)
    # full blocks and a short last block, then every table alone
    for start in range(0, len(tables), _BLOCK_TABLES):
        assert _tables_valid(group, list(tables[start:start + _BLOCK_TABLES]))
    if len(tables) <= 300:
        assert all(_tables_valid(group, [p]) for p in tables)


# a refused table at each place a block can hold it: (block length, index)
PLACES = {
    "first": (_BLOCK_TABLES, 0),
    "middle": (_BLOCK_TABLES, _BLOCK_TABLES // 2),
    "last": (_BLOCK_TABLES, _BLOCK_TABLES - 1),
    "alone": (1, 0),
    "short-last": (37, 36),
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_every_single_flip_reads_as_validate_cocycle(name):
    group, tables = GROUPS[name], _census(name)
    n = group.order
    rng = random.Random(f"flips-{name}")
    sample = rng.sample(tables, min(12, len(tables)))
    filler = list(itertools.islice(itertools.cycle(tables), _BLOCK_TABLES))
    verdicts = {True: 0, False: 0}
    placed = 0
    for base in sample:
        for cell in range(n * n):
            flipped = base ^ 1 << cell
            verdict = _passes(group, flipped)
            verdicts[verdict] += 1
            assert _tables_valid(group, [flipped]) is verdict, (name, base, cell)
            # every flip of row 0 or column 0, and a few others, at each place
            if cell < n or cell % n == 0 or rng.random() < 0.05:
                placed += 1
                for length, index in PLACES.values():
                    block = filler[:length - 1]
                    block.insert(index, flipped)
                    assert _tables_valid(group, block) is verdict, (name, base, cell, length, index)
    assert verdicts[False] and placed >= 2 * n - 1


def _near_census_tables(name):
    """A census table with up to three entries flipped, or a random table
    with row 0 and column 0 set or not."""
    group = GROUPS[name]
    n = group.order
    cell = st.integers(0, n * n - 1)
    pinned = (1 << n) - 1 | sum(1 << s * n for s in range(n))
    near = st.tuples(st.sampled_from(_census(name)), st.lists(cell, max_size=3)).map(
        lambda drawn: drawn[0] ^ sum({1 << c for c in drawn[1]})
    )
    drawn = st.tuples(st.integers(0, (1 << n * n) - 1), st.booleans()).map(
        lambda drawn: drawn[0] | pinned if drawn[1] else drawn[0]
    )
    return near | drawn


@pytest.mark.parametrize("name", ["C4", "C6", "D3"])
def test_drawn_blocks_read_as_validate_cocycle(name):
    group = GROUPS[name]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_near_census_tables(name), min_size=1, max_size=6))
    def check(block):
        verdicts = [_passes(group, p) for p in block]
        assert [_tables_valid(group, [p]) for p in block] == verdicts
        assert _tables_valid(group, block) is all(verdicts)

    check()
