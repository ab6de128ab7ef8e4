"""Self-tests of the benchmark's oracles, percentiles and failure accounting.

Not part of the package's test suite (``testpaths`` names ``tests/`` only).
Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import subprocess
import sys

import pytest

import golden
import oracles
import stats
import workloads
from stats import Outcome, Tally, percentile

Z9 = [[(a + b) % 9 for b in range(9)] for a in range(9)]
C8 = [[(a + b) % 8 for b in range(8)] for a in range(8)]
ROWS = [tuple(int(c) for c in row) for row in golden.Z9_ROWS]


def flipped(rows, s, t):
    out = [list(row) for row in rows]
    out[s][t] ^= 1
    return out


def test_first_violation_names_the_validators_witness():
    assert oracles.first_violation(ROWS, Z9) is None
    # README: flipping f(4,4) of the golden table fails at (1, 3, 4)
    assert oracles.first_violation(flipped(ROWS, 4, 4), Z9) == ("identity", (1, 3, 4))
    assert oracles.first_violation(flipped(ROWS, 0, 2), Z9) == ("normalization", (2,))
    assert oracles.first_violation(flipped(ROWS, 3, 0), Z9) == ("normalization", (3,))


def test_oracles_reproduce_the_golden_outputs():
    assert oracles.inertial(ROWS, Z9) == (0,)
    assert oracles.layers(ROWS, Z9) == [{1, 5, 8}, {2, 6}, {3, 7}, {4}]
    assert workloads._powers_text(ROWS, Z9) == golden.Z9_OUTPUTS["radical-powers"][1]
    assert workloads._annihilators_text(ROWS, Z9) == golden.Z9_OUTPUTS["annihilators"][1]
    assert oracles.word_catalog(ROWS, Z9)[4] == {(5, 8), (8, 5), (1, 1, 1, 1)}
    chain = [frozenset(range(1, 9)), frozenset({6, 7})]
    table = "".join("".join(map(str, row)) + "\n" for row in oracles.chain_rows(ROWS, Z9, chain))
    assert table == golden.Z9_OUTPUTS["chain-cocycle"][1]
    assert oracles.realizes(golden.Z9_R, ROWS, Z9)
    assert oracles.induced_rows(golden.Z9_R, Z9) == tuple(ROWS)


def test_ideal_count_by_hand():
    # Z/2 with f = 1110: G* = {1} and both {} and {1} are ideals
    c2 = [[0, 1], [1, 0]]
    assert oracles.ideal_count([[1, 1], [1, 0]], c2) == 2
    # the Waterhouse table of Z/3 with H = {0}: every subset of {1, 2} is closed
    c3 = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    assert oracles.ideal_count([[1, 1, 1], [1, 0, 0], [1, 0, 0]], c3) == 4


def test_seeded_generators_are_deterministic_and_valid():
    first = [oracles.random_cocycle(C8, random.Random(5)) for _ in range(2)]
    assert first[0] == first[1]
    rng = random.Random(7)
    for _ in range(20):
        assert oracles.first_violation(oracles.random_cocycle(C8, rng), C8) is None


def test_spread_order_is_an_even_permutation():
    order = workloads.spread_order(64, 0.3)
    assert sorted(order) == list(range(64))
    assert sorted(i // 8 for i in order[:8]) == list(range(8))
    assert workloads.spread_order(64, 0.3) == order != workloads.spread_order(64, 0.7)


def test_sweep_spreads_the_maps_among_the_cocycles():
    class Cocycle:
        def __init__(self, i):
            self.values = [[1, 1], [1, i % 2]]
            self.group = type("Group", (), {"table": [[0, 1], [1, 0]], "order": 2})

    class Map:
        def __init__(self, i):
            self.values = (0, i)

    population = [("C2", Cocycle(i)) for i in range(10)]
    units = workloads.Sweep._order(population, [("C2", Map(k)) for k in range(3)], 0.5)
    kinds = "".join(unit[0][0] for unit in units)
    assert kinds == "l" + "c" * 3 + "l" + "c" * 3 + "l" + "c" * 4


def test_unresolved_layer_names_are_reported_not_zeroed(monkeypatch):
    import layers
    module = type(sys)("fakepkg.cocycles")

    def validate_cocycle():
        pass

    module.validate_cocycle = validate_cocycle
    module.__file__ = "fakepkg/cocycles.py"
    monkeypatch.setitem(sys.modules, "fakepkg.cocycles", module)
    code = validate_cocycle.__code__
    label = (code.co_filename, code.co_firstlineno, code.co_name)
    metrics, missing = layers.layer_metrics({label: (4, 4, 0.1, 0.2, {})}, "fakepkg")
    assert metrics["cocycles.validate_cocycle.calls"] == 4
    assert "cocycles.vee.calls" not in metrics and "cocycles.vee" in missing
    assert "decomposition.chain_cache_hit_ratio" not in metrics
    assert "decomposition._finish" in missing and "groups" in missing
    assert "cocycles.self_share" in metrics and "groups.self_share" not in metrics


def test_percentile():
    values = list(range(1, 102))
    assert percentile(values, 50) == statistics.median(values) == 51
    assert percentile(values, 90) == 91
    assert percentile([4.0], 90) == 4.0
    assert percentile([1, 2, 3, 4], 99) <= 4
    with pytest.raises(ValueError):
        percentile(values, 100)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tally_counts_failed_ops():
    tally = Tally()
    tally.add(Outcome(1, 0.5))
    tally.add(Outcome(1, 0.5, 0, ["wrong output"]))  # a message is a failure
    tally.add(Outcome(100, 2.0, 250, ["census count differs"]))  # capped at ops
    assert (tally.attempted, tally.failed) == (102, 101)
    assert tally.failed_frac == pytest.approx(101 / 102)
    for i in range(30):
        tally.fail(f"extra {i}")
    assert tally.failed == 131 and len(tally.messages) == Tally.KEEP


def test_reference_clock_scales_calls_to_the_machine_at_rest(monkeypatch):
    readings = iter([0.008, 0.008, 0.004])
    monkeypatch.setattr(stats, "reference_seconds", lambda at_least=0.0: next(readings))
    clock = stats.ReferenceClock()
    first = [Outcome(1, 0.06), Outcome(1, 0.06)]
    for outcome in first:
        clock.add(outcome)
    # twice as slow as at rest on both sides, so the calls count half
    assert [o.seconds for o in first] == pytest.approx([0.03, 0.03])
    last = Outcome(1, 0.01)
    clock.add(last)
    assert last.seconds == 0.01  # not yet calibrated
    clock.flush()
    assert last.seconds == pytest.approx(0.01 * stats.REFERENCE_S / 0.006)


def test_checks_flag_wrong_outputs():
    assert workloads._exact(0, "valid\n")(0, "valid\n", "") is None
    assert workloads._exact(0, "valid\n")(1, "", "error: x") is not None
    reject = workloads._rejects("identity", (1, 3, 4))
    assert reject(1, "", "error: identity violated at (1, 3, 4): detail\n") is None
    assert reject(1, "", "error: identity violated at (1, 3, 5): detail\n") is not None
    search = workloads._search_check(ROWS, Z9, 4, golden.Z9_R)
    assert search(0, "".join(f"{v}\n" for v in golden.Z9_R), "") is None
    # a known realization fits the bound, so exhaustion is wrong
    assert search(1, "exhausted bound=4 nodes=10\n", "") is not None
    lift = workloads._lift_check(golden.Z9_R, Z9, padded=False)
    assert lift(0, golden.Z9_OUTPUTS["lift-r"][1], "") is None
    assert lift(0, golden.Z9_OUTPUTS["lift-r"][1].replace("(4,4,0)", "(5,4,0)"), "") is not None


def test_refuses_to_run_without_the_package(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "query", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0 and result.stdout == ""
