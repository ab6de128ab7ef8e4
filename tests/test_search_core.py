"""The shared depth-first core, the census and the realization search on it,
and the double cosets of the inertial group, each against a brute-force
oracle."""

from __future__ import annotations

import itertools
import random

import cocycle_forge as cf
from cocycle_forge import cli
from cocycle_forge.cocycles import _closing_schedule, _depth_first, _filtered

SMALL_GROUPS = {
    "C2": cf.make_cyclic(2),
    "C3": cf.make_cyclic(3),
    "C4": cf.make_cyclic(4),
    "C5": cf.make_cyclic(5),
    "C6": cf.make_cyclic(6),
    "D3": cf.make_dihedral(3),
}

_CENSUS = {}


def _census(name):
    if name not in _CENSUS:
        group = SMALL_GROUPS[name]
        _CENSUS[name] = cf.enumerate_cocycles(cf.CensusConfig(group=group)).cocycles
    return _CENSUS[name]


def _is_simple(cocycle):
    return all(v == 1 for row in cocycle.values for v in row)


def test_depth_first_matches_filtered_product():
    rng = random.Random(3)
    for _ in range(60):
        size = rng.randint(1, 5)
        domains = [tuple(sorted(rng.sample(range(4), rng.randint(1, 3)))) for _ in range(size)]
        constraints = [
            tuple(rng.sample(range(size), rng.randint(1, min(3, size))))
            for _ in range(rng.randint(0, 6))
        ]
        modulus = rng.randint(2, 4)

        def holds(c, vals):
            return sum(vals[p] for p in c) % modulus != 0

        expected = [
            vals
            for vals in itertools.product(*domains)
            if all(holds(c, vals) for c in constraints)
        ]
        schedule = _closing_schedule(size, constraints)
        steps = []
        tried = []

        def step(cs, vals):
            steps.append(cs)
            i = next(k for k, checks in enumerate(schedule) if checks is cs)
            tried.append(tuple(vals[: i + 1]))
            return all(holds(c, vals) for c in cs)

        def depth_first_trials(prefix):
            # each prefix the search tries, in order: a value's subtree
            # before the next value
            for v in domains[len(prefix)]:
                vals = prefix + (v,)
                yield vals
                if len(vals) < size and all(holds(c, vals) for c in schedule[len(prefix)]):
                    yield from depth_first_trials(vals)

        assert list(_depth_first(_filtered(domains, schedule, step))) == expected
        assert sum(cs is schedule[0] for cs in steps) == len(domains[0])
        assert tried == list(depth_first_trials(()))


def test_enumeration_is_in_flattened_bits_order():
    for name in ("C4", "D3"):
        bits = ["".join(row[1:] for row in c.rows()[1:]) for c in _census(name)]
        assert bits == sorted(bits)
        assert len(set(bits)) == len(bits)


def test_truncation_returns_a_prefix_at_every_cut():
    for name, cuts in (("C4", range(1, 17)), ("D3", (1, 2, 3, 50, 131, 261, 262, 263, 500))):
        group = SMALL_GROUPS[name]
        full = [c.masks for c in _census(name)]
        for k in cuts:
            stream = cf.enumerate_cocycles(cf.CensusConfig(group=group, max_candidates=k))
            assert [c.masks for c in stream.cocycles] == full[:k], (name, k)
            assert stream.truncated == (k < len(full)), (name, k)


def test_census_lines_are_a_prefix_then_the_trailer_at_every_cut():
    for name, cuts in (("C4", range(1, 17)), ("D3", (1, 2, 3, 50, 131, 261, 262, 263, 500))):
        group = SMALL_GROUPS[name]
        full = list(cli._census_lines(cf.CensusConfig(group=group)))
        assert len(full) == len(_census(name))
        for k in cuts:
            lines = list(cli._census_lines(cf.CensusConfig(group=group, max_candidates=k)))
            trailer = ["truncated=true\n"] if k < len(full) else []
            assert lines == full[:k] + trailer, (name, k)


def test_search_realization_node_counts_d3(d3_ctx):
    for bound, nodes in ((1, 2), (3, 24), (20, 4620)):
        result = cf.search_realization(d3_ctx, bound=bound)
        assert result == cf.ExhaustionCertificate(bound=bound, nodes_explored=nodes)


def _least_realization(cocycle, bound):
    """The lexicographically least r in [1, bound]^G* (0 on the inertial
    group) that is subadditive and tight exactly where f is 1."""
    group = cocycle.group
    n = group.order
    inertial = cf.inertial_group(cocycle).members
    gstar = [s for s in range(n) if s not in inertial]
    rows = cocycle.values
    for choice in itertools.product(range(1, bound + 1), repeat=len(gstar)):
        r = [0] * n
        for s, v in zip(gstar, choice):
            r[s] = v
        if all(
            r[group.mul(s, t)] <= r[s] + r[t]
            and (r[group.mul(s, t)] == r[s] + r[t]) == (rows[s][t] == 1)
            for s in range(n)
            for t in range(n)
        ):
            return tuple(r)
    return None


def test_search_realization_matches_brute_force():
    bound = 3
    for name in ("C2", "C3", "C4", "C5", "D3"):
        for cocycle in _census(name):
            if _is_simple(cocycle):
                continue
            result = cf.search_realization(cf.AlgebraContext(cocycle), bound=bound)
            expected = _least_realization(cocycle, bound)
            if expected is None:
                assert isinstance(result, cf.ExhaustionCertificate), cocycle.rows()
                assert result.bound == bound
            else:
                assert isinstance(result, cf.SemilinearMap), cocycle.rows()
                assert result.values == expected, cocycle.rows()


def _brute_double_cosets(group, members):
    classes = {
        frozenset(group.mul(group.mul(h1, s), h2) for h1 in members for h2 in members)
        for s in range(group.order)
    }
    return tuple(sorted(tuple(sorted(c)) for c in classes))


def test_double_cosets_match_brute_force_over_census():
    for name in ("C4", "C6", "D3"):
        group = SMALL_GROUPS[name]
        for cocycle in _census(name):
            inertial = cf.inertial_group(cocycle)
            expected = _brute_double_cosets(group, inertial.members)
            assert cf.double_cosets(group, inertial) == expected
            # a second call reads the memo and must give the same partition
            assert cf.double_cosets(group, inertial) == expected


def _annihilator_class_count(cocycle):
    """Double cosets of the inertial group meeting the two-sided
    annihilators of J, with J = G* and s t = 0 exactly where f(s,t) = 0."""
    group = cocycle.group
    inertial = cf.inertial_group(cocycle).members
    if len(inertial) == group.order:
        return 0
    gstar = [s for s in range(group.order) if s not in inertial]
    rows = cocycle.values
    ann = {s for s in gstar if all(rows[s][t] == 0 and rows[t][s] == 0 for t in gstar)}
    classes = _brute_double_cosets(group, inertial)
    return sum(1 for c in classes if ann & set(c))


def test_census_annihilator_classes_match_brute_force():
    for name in ("C2", "C3", "C4", "C5", "C6", "D3"):
        stream = cf.CensusStream(cocycles=_census(name), truncated=False)
        records = cf.census_records(stream)
        expected = [_annihilator_class_count(c) for c in stream.cocycles]
        assert [r.annihilator_classes for r in records] == expected, name


def test_double_cosets_ignore_names():
    d3 = cf.make_dihedral(3)
    rows = [list(row) for row in d3.table]
    plain = cf.group_from_table(rows)
    named = cf.group_from_table(rows, names=["e", "r", "rr", "s", "rs", "rrs"])
    for members in ((0,), (0, 3), (0, 1, 2)):
        a = cf.double_cosets(plain, cf.subgroup(plain, members))
        b = cf.double_cosets(named, cf.subgroup(named, members))
        assert a == b == _brute_double_cosets(d3, members)
    assert plain.names == ("0", "1", "2", "3", "4", "5")
    assert named.names == ("e", "r", "rr", "s", "rs", "rrs")


def test_products_agree_is_the_triple_identity_per_step():
    from cocycle_forge.census import _products_agree, _triple_constraints

    rng = random.Random(7)
    for name in ("C5", "D3"):
        group = SMALL_GROUPS[name]
        n = group.order
        m = n - 1
        size = m * m + 1
        schedule = _closing_schedule(size, _triple_constraints(group))
        # every non-identity triple, filed under the last cell position it reads
        closing = [[] for _ in range(size)]
        for s, t, r in itertools.product(range(1, n), repeat=3):
            cells = [(s, t), (group.mul(s, t), r), (t, r), (s, group.mul(t, r))]
            last = max((a - 1) * m + b if a and b else 0 for a, b in cells)
            closing[last].append((s, t, r))
        for _ in range(200):
            vals = [1] + [rng.randint(0, 1) for _ in range(size - 1)]

            def f(s, t):
                return 1 if s == 0 or t == 0 else vals[(s - 1) * m + t]

            for i in range(size):
                expected = all(
                    f(s, t) * f(group.mul(s, t), r) == f(t, r) * f(s, group.mul(t, r))
                    for s, t, r in closing[i]
                )
                assert _products_agree(((), schedule[i]), vals) == expected, (name, i)


def _constraint_key(c):
    left, right = tuple(sorted(c[:2])), tuple(sorted(c[2:]))
    return min(left, right), max(left, right)


def test_triple_constraints_drop_tautologies_and_twins():
    from cocycle_forge.census import _triple_constraints

    groups = dict(SMALL_GROUPS, D4=cf.make_dihedral(4), C8=cf.make_cyclic(8))
    distinct = {"D3": 101, "D4": 292, "C8": 330}
    for name, group in groups.items():
        n = group.order
        m = n - 1

        def pos(s, t):
            return (s - 1) * m + t if s and t else 0

        every = [
            (pos(s, t), pos(group.mul(s, t), r), pos(t, r), pos(s, group.mul(t, r)))
            for s, t, r in itertools.product(range(1, n), repeat=3)
        ]
        kept = _triple_constraints(group)
        keys = [_constraint_key(c) for c in kept]
        assert len(set(keys)) == len(keys), name
        assert all(left != right for left, right in keys), name
        # each kept triple is the first of its twins, in the order of (s, t, r)
        firsts = {}
        for c in every:
            key = _constraint_key(c)
            if key[0] != key[1]:
                firsts.setdefault(key, c)
        assert kept == list(firsts.values()), name
        if name in distinct:
            assert (len(every), len(kept)) == ((n - 1) ** 3, distinct[name]), name
