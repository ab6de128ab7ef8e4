from __future__ import annotations

import pytest

import cocycle_forge as cf
from cocycle_forge import groups
from cocycle_forge.errors import ValidationError


def test_cyclic_table_is_addition_mod_n():
    for n in (1, 2, 5, 9):
        g = cf.make_cyclic(n)
        assert g.order == n
        for a in range(n):
            for b in range(n):
                assert g.mul(a, b) == (a + b) % n
            assert g.mul(a, g.inverse[a]) == 0


def test_cyclic_rejects_nonpositive_order():
    with pytest.raises(ValidationError, match="invalid-order"):
        cf.make_cyclic(0)


def test_dihedral_matches_rotation_reflection_model():
    # independent model: i < m is the rotation by i, m + i the rotation
    # followed by the reflection, with b a b = a^-1
    for m in (1, 2, 3, 5):
        g = cf.make_dihedral(m)
        assert g.order == 2 * m

        def model(x, y):
            rx, fx = x % m, x >= m
            ry, fy = y % m, y >= m
            rot = (rx - ry) % m if fx else (rx + ry) % m
            return rot + (m if fx != fy else 0)

        for x in range(2 * m):
            for y in range(2 * m):
                assert g.mul(x, y) == model(x, y)


def test_dihedral_names():
    g = cf.make_dihedral(3)
    assert g.names == ("e", "a", "a2", "b", "ab", "a2b")
    assert g.names[4] == "ab"


def test_group_from_table_rejects_ragged_rows():
    with pytest.raises(ValidationError, match="row 1 has length 1"):
        cf.group_from_table([[0, 1], [1]])


def test_group_from_table_rejects_bad_entries():
    with pytest.raises(ValidationError, match=r"entry \(1, 1\)"):
        cf.group_from_table([[0, 1], [1, 7]])


def test_group_from_table_rejects_non_latin_square():
    with pytest.raises(ValidationError, match="not a permutation"):
        cf.group_from_table([[0, 1], [0, 1]])


def test_group_from_table_requires_identity_first():
    # swap rows of Z/2Z so index 0 is no longer the identity
    with pytest.raises(ValidationError, match="identity is not at index 0"):
        cf.group_from_table([[1, 0], [0, 1]])


def test_group_from_table_rejects_non_associative_square():
    # a quasigroup with identity that fails associativity (order 5 loop)
    rows = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValidationError, match="associativity fails"):
        cf.group_from_table(rows)


def test_group_from_table_name_count_must_match():
    with pytest.raises(ValidationError, match="got 3 names for 2"):
        cf.group_from_table([[0, 1], [1, 0]], names=["e", "x", "y"])


def test_group_equality_ignores_names():
    plain = cf.group_from_table([[0, 1], [1, 0]])
    named = cf.group_from_table([[0, 1], [1, 0]], names=["e", "t"])
    assert plain == named


def test_subgroup_validates_closure():
    g6 = cf.make_cyclic(6)
    h = cf.subgroup(g6, [0, 2, 4])
    assert h.members == (0, 2, 4)
    assert 4 in h and 3 not in h
    with pytest.raises(ValidationError, match="closed under product"):
        cf.subgroup(cf.make_cyclic(4), [0, 1, 3])
    with pytest.raises(ValidationError, match="closed under inverse"):
        cf.subgroup(cf.make_cyclic(3), [0, 1])
    with pytest.raises(ValidationError, match="contain the identity"):
        cf.Subgroup(group=g6, members=(2, 4))
    with pytest.raises(ValidationError, match="out of range"):
        cf.subgroup(g6, [0, 9])


def test_double_cosets_partition_group():
    g = cf.make_dihedral(3)
    h = cf.subgroup(g, [0, 3])  # {e, b}
    classes = cf.double_cosets(g, h)
    # H e H = {e, b}; H a H = {a, a2, ab, a2b} since b a = a2 b
    assert classes == ((0, 3), (1, 2, 4, 5))
    seen = sorted(s for cls in classes for s in cls)
    assert seen == list(range(6))


def test_double_cosets_trivial_subgroup_gives_singletons():
    g = cf.make_cyclic(5)
    h = cf.subgroup(g, [0])
    assert cf.double_cosets(g, h) == tuple((s,) for s in range(5))


def test_double_cosets_rejects_foreign_subgroup():
    g = cf.make_cyclic(4)
    h = cf.subgroup(cf.make_cyclic(5), [0])
    with pytest.raises(ValidationError, match="invalid-subgroup"):
        cf.double_cosets(g, h)


@pytest.mark.parametrize(
    "group, count",
    [(cf.make_cyclic(4), 3), (cf.make_cyclic(6), 4), (cf.make_dihedral(3), 6), (cf.make_dihedral(4), 10)],
    ids=["C4", "C6", "D3", "D4"],
)
def test_double_cosets_match_brute_force_for_every_subset(group, count):
    # a fresh group: every mask below is its first sight on the memo
    group = cf.group_from_table(group.table)
    n = group.order
    subgroups = 0
    for mask in range(1 << n):
        members = [s for s in range(n) if mask >> s & 1]
        closed = 0 in members and all(group.mul(a, b) in members for a in members for b in members)
        if not closed:
            for _ in range(2):  # a raise is never memoised
                with pytest.raises(ValidationError):
                    groups._double_coset_masks(group, mask)
            assert mask not in group._double_coset_masks
            continue
        subgroups += 1
        brute = {
            frozenset(group.mul(group.mul(h1, s), h2) for h1 in members for h2 in members)
            for s in range(n)
        }
        expected = tuple(sorted((tuple(sorted(cls)) for cls in brute), key=lambda cls: cls[0]))
        classes = cf.double_cosets(group, cf.subgroup(group, members))
        assert classes == expected
        masks = groups._double_coset_masks(group, mask)
        assert classes == tuple(tuple(s for s in range(n) if m >> s & 1) for m in masks)
    assert subgroups == count
