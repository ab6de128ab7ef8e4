"""The node budget of search_realization and search-r --max-nodes.

Without a budget the search is unchanged.  With one, it stops before the
node past the budget and says so: a truncated certificate from the library
and a ``truncated=true`` line with exit 1 from the CLI.
"""

from __future__ import annotations

import pytest

import cocycle_forge as cf
from cocycle_forge.cli import run_command
from cocycle_forge.errors import ValidationError

from conftest import GOLDEN_R_VALUES


def _contexts(group):
    out = []
    for c in cf.enumerate_cocycles(cf.CensusConfig(group=group)).cocycles:
        try:
            out.append(cf.AlgebraContext(c))
        except ValidationError:
            continue
    return out


@pytest.mark.parametrize(
    "group", [cf.make_cyclic(4), cf.make_cyclic(5), cf.make_dihedral(3)], ids=["C4", "C5", "D3"]
)
def test_budget_stops_exactly_at_max_nodes(group):
    exhausted = found = 0
    for ctx in _contexts(group):
        free = cf.search_realization(ctx, 3)
        assert cf.search_realization(ctx, 3, max_nodes=10**9) == free
        if isinstance(free, cf.ExhaustionCertificate):
            exhausted += 1
            nodes = free.nodes_explored
            assert not free.truncated
            assert cf.search_realization(ctx, 3, max_nodes=nodes) == free
            if nodes > 1:
                assert cf.search_realization(ctx, 3, max_nodes=nodes - 1) == (
                    cf.ExhaustionCertificate(bound=3, nodes_explored=nodes - 1, truncated=True)
                )
            continue
        found += 1
        # a budget either finds the same least map or stops at max_nodes,
        # and once a budget finds it every larger one does
        seen = False
        for budget in (1, 2, 3, 5, 8, 13, 50, 500):
            result = cf.search_realization(ctx, 3, max_nodes=budget)
            if isinstance(result, cf.SemilinearMap):
                assert result.values == free.values
                seen = True
            else:
                assert not seen
                assert result == cf.ExhaustionCertificate(
                    bound=3, nodes_explored=budget, truncated=True
                )
    assert exhausted and found


def test_budget_must_be_positive(d3_ctx):
    for bad in (0, -1):
        with pytest.raises(ValidationError, match="max_nodes must be at least 1"):
            cf.search_realization(d3_ctx, 3, max_nodes=bad)


def test_cli_max_nodes(tmp_path, golden, d3_cocycle, capsys):
    c9 = tmp_path / "c9.group"
    c9.write_text(cf.emit_group(cf.make_cyclic(9)))
    golden_file = tmp_path / "f.cocycle"
    golden_file.write_text(cf.emit_cocycle(golden))
    d3_file = tmp_path / "d3.cocycle"
    d3_file.write_text(cf.emit_cocycle(d3_cocycle))
    d3 = ["--group", "d3", "--cocycle", str(d3_file)]
    z9 = ["--group", str(c9), "--cocycle", str(golden_file)]

    def run(*argv):
        rc = run_command(list(argv))
        return rc, capsys.readouterr().out

    assert run("search-r", "--bound", "3", *d3) == (1, "exhausted bound=3 nodes=24\n")
    assert run("search-r", "--bound", "3", "--max-nodes", "24", *d3) == (
        1, "exhausted bound=3 nodes=24\n"
    )
    assert run("search-r", "--bound", "3", "--max-nodes", "5", *d3) == (
        1, "stopped bound=3 nodes=5\ntruncated=true\n"
    )
    witness = "".join(f"{v}\n" for v in GOLDEN_R_VALUES)
    assert run("search-r", "--bound", "4", *z9) == (0, witness)
    assert run("search-r", "--bound", "4", "--max-nodes", "100000", *z9) == (0, witness)
    assert run("search-r", "--bound", "4", "--max-nodes", "3", *z9) == (
        1, "stopped bound=4 nodes=3\ntruncated=true\n"
    )
    assert run("search-r", "--bound", "3", "--max-nodes", "0", *d3) == (1, "")
