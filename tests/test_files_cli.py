from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import cocycle_forge as cf
from cocycle_forge import census, cli
from cocycle_forge.cli import run_command
from cocycle_forge.errors import InternalInvariantError, ParseError, ValidationError

from conftest import D3_ROWS, GOLDEN_R_VALUES, GOLDEN_ROWS, int_rows

GROUP_C3 = "3\n0 1 2\n1 2 0\n2 0 1\n"


def _ideal(ctx, *members):
    return cf.MonomialIdeal.from_members(ctx, frozenset(members))


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- files


def test_group_round_trip(z9, d3):
    for g in (z9, d3, cf.make_cyclic(1)):
        assert cf.parse_group(cf.emit_group(g)) == g


def test_parse_group_golden_text():
    g = cf.parse_group(GROUP_C3)
    assert g == cf.make_cyclic(3)


def test_parse_group_errors():
    with pytest.raises(ParseError, match="line 1: expected an integer order"):
        cf.parse_group("x\n")
    with pytest.raises(ParseError, match="line 3: expected 3 entries, got 2"):
        cf.parse_group("3\n0 1 2\n1 2\n2 0 1\n")
    with pytest.raises(ParseError, match="line 2: table entries must be integers"):
        cf.parse_group("2\n0 one\n1 0\n")
    with pytest.raises(ParseError, match="expected 2 table rows"):
        cf.parse_group("2\n0 1\n")


def test_cocycle_round_trip(golden, z9):
    text = cf.emit_cocycle(golden)
    assert text == "\n".join(GOLDEN_ROWS) + "\n"
    assert cf.parse_cocycle(text, z9).values == golden.values


def test_parse_cocycle_errors(z9):
    with pytest.raises(ParseError, match="expected 9 rows"):
        cf.parse_cocycle("11\n10\n", z9)
    with pytest.raises(ParseError, match="line 2"):
        cf.parse_cocycle("111111111\n12311\n" + "1\n" * 7, z9)
    bad = list(GOLDEN_ROWS)
    bad[4] = "100200000"
    with pytest.raises(ParseError, match="line 5"):
        cf.parse_cocycle("\n".join(bad) + "\n", z9)


def test_parse_cocycle_rejects_invalid_table(z9):
    rows = [list(r) for r in int_rows(GOLDEN_ROWS)]
    rows[4][4] = 1
    text = "\n".join("".join(str(v) for v in r) for r in rows) + "\n"
    with pytest.raises(ValidationError, match="identity"):
        cf.parse_cocycle(text, z9)


def test_chain_round_trip(golden_ctx):
    chain = cf.DescendingChain(ideals=(
        _ideal(golden_ctx, *range(1, 9)),
        _ideal(golden_ctx, 6, 7),
        _ideal(golden_ctx),
    ))
    text = cf.emit_chain(chain)
    assert text == "1 2 3 4 5 6 7 8\n6 7\n\n"
    parsed = cf.parse_chain(text, golden_ctx)
    assert [i.members for i in parsed.ideals] == [i.members for i in chain.ideals]


def test_parse_chain_errors(golden_ctx):
    with pytest.raises(ParseError, match="line 2"):
        cf.parse_chain("1 2 3 4 5 6 7 8\nsix seven\n", golden_ctx)
    with pytest.raises(ValidationError, match="line 2"):
        cf.parse_chain("1 2 3 4 5 6 7 8\n5\n", golden_ctx)  # {5} is not closed
    with pytest.raises(ValidationError, match="chain-too-short"):
        cf.parse_chain("1 2 3 4 5 6 7 8\n", golden_ctx)
    with pytest.raises(ValidationError, match=r"line 2: not-in-gstar: \[-1\]"):
        cf.parse_chain("1 2 3 4 5 6 7 8\n-1\n", golden_ctx)


def test_rmap_round_trip(golden_r, z9):
    text = cf.emit_rmap(golden_r)
    assert text == "0\n1\n2\n3\n4\n1\n2\n3\n3\n"
    parsed = cf.parse_rmap(text, z9)
    assert parsed.values == GOLDEN_R_VALUES
    assert parsed.monoid == cf.AdditiveNaturals()


def test_rmap_tuple_round_trip(golden_r, golden_ctx, z9):
    chain = cf.DescendingChain(ideals=(
        _ideal(golden_ctx, *range(1, 9)),
        _ideal(golden_ctx, 6, 7),
        _ideal(golden_ctx),
    ))
    lifted = cf.chain_lift(golden_r, chain)
    text = cf.emit_rmap(lifted)
    assert text.splitlines()[0] == "(0,0,0,0)"
    parsed = cf.parse_rmap(text, z9)
    assert parsed.values == lifted.values
    assert parsed.monoid == lifted.monoid


def test_parse_rmap_errors(z9):
    with pytest.raises(ParseError, match="mixed integer and tuple"):
        cf.parse_rmap("0\n(1,2)\n2\n3\n4\n1\n2\n3\n3\n", z9)
    with pytest.raises(ParseError, match="line 2"):
        cf.parse_rmap("(0,0)\n(1,2,3)\n" + "(0,0)\n" * 7, z9)
    with pytest.raises(ParseError, match="line 1"):
        cf.parse_rmap("(0,0\n" + "(0,0)\n" * 8, z9)
    with pytest.raises(ParseError, match="expected 9 lines, got 3"):
        cf.parse_rmap("0\n1\n2\n", z9)


def test_emit_decomposition_golden(golden_ctx):
    report = cf.decompose_by_classes(golden_ctx)
    assert cf.emit_decomposition(report) == (
        "rho=2 ideal=3,4,5,6,7,8 strict=true\n"
        "rho=3 ideal=4,5,6,7,8 strict=true\n"
        "rho=4 ideal=6,7 strict=true\n"
        "rho=6 ideal=2,3,4,7,8 strict=true\n"
        "rho=7 ideal=3,4,8 strict=true\n"
        "recombines=true\n"
    )


def test_emit_decomposition_verdict(golden_ctx):
    sub = cf.AlgebraContext(cf.cocycle_mod_ideal(golden_ctx, _ideal(golden_ctx, 6, 7)))
    verdict = cf.decompose_by_classes(sub)
    assert cf.emit_decomposition(verdict) == (
        "unique non-trivial annihilator class: 4\n"
    )


def test_emit_census_records():
    stream = cf.enumerate_cocycles(cf.CensusConfig(group=cf.make_cyclic(3)))
    text = cf.emit_census(cf.census_records(stream))
    assert text == (
        "n=3 bits=111100100 H=0 max_power=1 layers=2 classes=2\n"
        "n=3 bits=111100101 H=0 max_power=2 layers=1,1 classes=1\n"
        "n=3 bits=111110100 H=0 max_power=2 layers=1,1 classes=1\n"
        "n=3 bits=111111111 H=0,1,2 max_power=0 layers= classes=0\n"
    )


def test_emit_census_of_no_records_is_empty():
    assert cf.emit_census([]) == ""


def test_resolve_group_shorthands(tmp_path):
    assert cf.resolve_group("cyclic9") == cf.make_cyclic(9)
    assert cf.resolve_group("d4") == cf.make_dihedral(4)
    path = _write(tmp_path, "c3.group", GROUP_C3)
    assert cf.resolve_group(path) == cf.make_cyclic(3)
    with pytest.raises(ParseError, match="cannot read group"):
        cf.resolve_group(str(tmp_path / "missing.group"))


def test_workspace_requires_consistent_r_and_cocycle(tmp_path, golden):
    group = _write(tmp_path, "g.group", cf.emit_group(cf.make_cyclic(9)))
    cocycle = _write(tmp_path, "f.cocycle", cf.emit_cocycle(golden))
    rfile = _write(tmp_path, "r.r", "0\n1\n2\n3\n4\n1\n2\n3\n3\n")
    _, parsed_cocycle, parsed_r, _ = cf.parse_artifacts(group, cocycle, rfile)
    assert parsed_cocycle.values == golden.values
    assert parsed_r.values == GOLDEN_R_VALUES

    bad_r = _write(tmp_path, "bad.r", "0\n1\n2\n3\n4\n1\n2\n3\n4\n")
    with pytest.raises(ValidationError, match="inconsistent input"):
        cf.parse_artifacts(group, cocycle, bad_r)


def test_workspace_chain_needs_cocycle(tmp_path):
    group = _write(tmp_path, "g.group", cf.emit_group(cf.make_cyclic(9)))
    chain = _write(tmp_path, "c.chain", "1 2 3 4 5 6 7 8\n6 7\n")
    with pytest.raises(ValidationError, match="needs a cocycle"):
        cf.parse_artifacts(group, chain_path=chain)


# ---------------------------------------------------------------- CLI


@pytest.fixture()
def golden_files(tmp_path, golden, golden_r):
    return {
        "group": _write(tmp_path, "c9.group", cf.emit_group(cf.make_cyclic(9))),
        "cocycle": _write(tmp_path, "f.cocycle", cf.emit_cocycle(golden)),
        "r": _write(tmp_path, "r.r", cf.emit_rmap(golden_r)),
        "chain": _write(tmp_path, "i3.chain", "1 2 3 4 5 6 7 8\n6 7\n"),
        "dir": tmp_path,
    }


def test_cli_validate(golden_files, capsys):
    rc = run_command(["validate", "--group", golden_files["group"],
                      "--cocycle", golden_files["cocycle"]])
    assert rc == 0
    assert capsys.readouterr().out == "valid\n"


def test_cli_validate_rejects_broken_table(golden_files, tmp_path, capsys):
    rows = [list(r) for r in int_rows(GOLDEN_ROWS)]
    rows[4][4] = 1
    bad = _write(tmp_path, "bad.cocycle",
                 "\n".join("".join(str(v) for v in r) for r in rows) + "\n")
    rc = run_command(["validate", "--group", golden_files["group"], "--cocycle", bad])
    assert rc == 1
    err = capsys.readouterr().err
    assert "identity" in err


def test_cli_malformed_file_is_parse_error(golden_files, tmp_path, capsys):
    bad = _write(tmp_path, "bad.cocycle", "11\n10\n")
    rc = run_command(["validate", "--group", golden_files["group"], "--cocycle", bad])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_unknown_subcommand(capsys):
    assert run_command(["transmogrify"]) == 2
    capsys.readouterr()


def test_cli_missing_required_input(golden_files, capsys):
    rc = run_command(["validate", "--cocycle", golden_files["cocycle"]])
    assert rc == 2
    assert "--group is required" in capsys.readouterr().err


def test_cli_inertial_and_nk(golden_files, capsys):
    rc = run_command(["inertial", "--group", golden_files["group"],
                      "--cocycle", golden_files["cocycle"]])
    assert rc == 0 and capsys.readouterr().out == "0\n"
    rc = run_command(["nk", "--group", golden_files["group"],
                      "--cocycle", golden_files["cocycle"]])
    assert rc == 0
    assert capsys.readouterr().out == "N1=1,5,8\nN2=2,6\nN3=3,7\nN4=4\n"


def test_cli_radical_powers(golden_files, capsys):
    rc = run_command(["radical-powers", "--group", golden_files["group"],
                      "--cocycle", golden_files["cocycle"]])
    assert rc == 0
    assert capsys.readouterr().out == (
        "1 2 3 4 5 6 7 8\n2 3 4 6 7\n3 4 7\n4\nnilpotency=5\n"
    )


def test_cli_generators(golden_files, capsys):
    rc = run_command(["generators", "--group", golden_files["group"],
                      "--cocycle", golden_files["cocycle"]])
    assert rc == 0
    assert capsys.readouterr().out == (
        "1: (1)\n"
        "2: (1,1)\n"
        "3: (1,1,1)\n"
        "4: (5,8) (8,5) (1,1,1,1)\n"
        "5: (5)\n"
        "6: (1,5) (5,1)\n"
        "7: (1,1,5) (1,5,1) (5,1,1)\n"
        "8: (8)\n"
    )


def test_cli_annihilators(golden_files, capsys):
    rc = run_command(["annihilators", "--group", golden_files["group"],
                      "--cocycle", golden_files["cocycle"]])
    assert rc == 0
    assert capsys.readouterr().out == "trivial=\nnontrivial=4,7\n"


def test_cli_graph_generator_named_group(tmp_path, d3_cocycle, capsys):
    cocycle = _write(tmp_path, "d3.cocycle", cf.emit_cocycle(d3_cocycle))
    rc = run_command(["graph", "--kind", "generator", "--group", "d3",
                      "--cocycle", cocycle])
    assert rc == 0
    out = capsys.readouterr().out
    assert '"(b,a)" -- "(b,a,a)";' in out
    assert out.startswith("graph {\n")


def test_cli_chain_cocycle(golden_files, capsys):
    rc = run_command(["chain-cocycle", "--group", golden_files["group"],
                      "--cocycle", golden_files["cocycle"],
                      "--chain", golden_files["chain"]])
    assert rc == 0
    assert capsys.readouterr().out == (
        "111111111\n111100000\n111000000\n110000000\n100000000\n"
        "100000001\n100000000\n100000000\n100001000\n"
    )


def test_cli_chain_requires_chain_file(golden_files, capsys):
    rc = run_command(["chain-cocycle", "--group", golden_files["group"],
                      "--cocycle", golden_files["cocycle"]])
    assert rc == 2
    assert "chain" in capsys.readouterr().err


def test_cli_decompose_classes(golden_files, capsys):
    rc = run_command(["decompose", "--by", "classes",
                      "--group", golden_files["group"],
                      "--cocycle", golden_files["cocycle"]])
    assert rc == 0
    assert capsys.readouterr().out == (
        "rho=2 ideal=3,4,5,6,7,8 strict=true\n"
        "rho=3 ideal=4,5,6,7,8 strict=true\n"
        "rho=4 ideal=6,7 strict=true\n"
        "rho=6 ideal=2,3,4,7,8 strict=true\n"
        "rho=7 ideal=3,4,8 strict=true\n"
        "recombines=true\n"
    )


def test_cli_decompose_bstar_from_r(golden_files, capsys):
    rc = run_command(["decompose", "--by", "bstar",
                      "--group", golden_files["group"], "--r", golden_files["r"]])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("gamma=(5,8) ideal=4,5,6,7,8\n")
    assert out.endswith("recombines=true\n")
    assert "gamma=(1,1,1,1) ideal=1,2,3,4,6,7\n" in out


def test_cli_identity(golden_files, capsys):
    rc = run_command(["identity", "--name", "fI_eq_f", "--ideal", "6,7",
                      "--group", golden_files["group"],
                      "--cocycle", golden_files["cocycle"]])
    assert rc == 0
    assert capsys.readouterr().out == "fI_eq_f ok=true\n"


def test_cli_identity_precondition_failure(golden_files, capsys):
    rc = run_command(["identity", "--name", "cap_zero",
                      "--ideal", "4,5,6,7", "--ideal", "4,8",
                      "--group", golden_files["group"],
                      "--cocycle", golden_files["cocycle"]])
    assert rc == 1
    assert "intersect" in capsys.readouterr().err


def test_cli_split_applies_only_to_chain_break(golden_files, capsys):
    rc = run_command(["identity", "--name", "leq_f", "--split", "2",
                      "--group", golden_files["group"],
                      "--cocycle", golden_files["cocycle"],
                      "--chain", golden_files["chain"]])
    assert rc == 2
    assert capsys.readouterr().err == "error: --split applies only to chain_break\n"


def test_cli_chain_identity_rejects_an_ideal(golden_files, tmp_path, capsys):
    files = ["--group", golden_files["group"], "--cocycle", golden_files["cocycle"],
             "--chain", golden_files["chain"]]
    missing = ["--group", str(tmp_path / "missing.group"), "--chain", "missing.chain"]
    for name in ("chain_break", "waterhouse_iff", "leq_f"):
        for inputs in (files, missing):  # refused before any file is read
            rc = run_command(["identity", "--name", name, "--ideal", "6,7"] + inputs)
            assert rc == 2, (name, inputs)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: identity {name} reads --chain, not --ideal\n"


def test_cli_ideal_identity_rejects_a_chain(golden_files, tmp_path, capsys):
    files = ["--group", golden_files["group"], "--cocycle", golden_files["cocycle"]]
    missing = ["--group", str(tmp_path / "missing.group")]
    for name in ("fI_eq_f", "sum_product", "intersection_vee", "cap_zero",
                 "trivial_annih_replace"):
        for inputs in (files, missing):  # refused before any file is read
            rc = run_command(["identity", "--name", name, "--ideal", "6,7",
                              "--chain", golden_files["chain"]] + inputs)
            assert rc == 2, (name, inputs)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: identity {name} reads --ideal, not --chain\n"


def test_cli_chain_identity(golden_files, capsys):
    rc = run_command(["identity", "--name", "leq_f", "--chain", golden_files["chain"],
                      "--group", golden_files["group"],
                      "--cocycle", golden_files["cocycle"]])
    assert rc == 0
    assert capsys.readouterr().out == "leq_f ok=true\n"


def test_cli_negative_ideal_member_is_an_error(golden_files, tmp_path, capsys):
    files = ["--group", golden_files["group"], "--cocycle", golden_files["cocycle"]]
    bad_chain = _write(tmp_path, "bad.chain", "1 2 3 4 5 6 7 8\n-1\n")
    for argv, message in (
        (["identity", "--name", "fI_eq_f", "--ideal", "-1"], "not-in-gstar: [-1]"),
        (["morphism", "--ideal", "-3"], "not-in-gstar: [-3]"),
        (["chain-cocycle", "--chain", bad_chain], "line 2: not-in-gstar: [-1]"),
    ):
        assert run_command(argv + files) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n", argv


def test_cli_morphism(golden_files, capsys):
    rc = run_command(["morphism", "--ideal", "6,7",
                      "--group", golden_files["group"],
                      "--cocycle", golden_files["cocycle"]])
    assert rc == 0
    assert capsys.readouterr().out == (
        "ok=true\nscaling_ok=true\nkernel=6,7\npsi_ok=true\n"
        "dims=9,7,2\nsection_ok=true\n"
    )


def test_cli_lift_and_pad(golden_files, capsys):
    rc = run_command(["lift-r", "--group", golden_files["group"],
                      "--r", golden_files["r"], "--chain", golden_files["chain"]])
    assert rc == 0
    assert capsys.readouterr().out == (
        "(0,0,0)\n(1,1,0)\n(2,2,0)\n(3,3,0)\n(4,4,0)\n"
        "(1,1,0)\n(2,0,0)\n(3,0,0)\n(3,3,0)\n"
    )
    rc = run_command(["pad-lift", "--group", golden_files["group"],
                      "--r", golden_files["r"], "--chain", golden_files["chain"]])
    assert rc == 0
    assert capsys.readouterr().out == (
        "(0,0,0,0)\n(1,1,1,0)\n(2,2,2,0)\n(3,3,3,0)\n(4,4,4,0)\n"
        "(1,1,1,0)\n(2,2,0,0)\n(3,3,0,0)\n(3,3,3,0)\ncertified=true\n"
    )


def test_cli_search_r(golden_files, tmp_path, d3_cocycle, capsys):
    rc = run_command(["search-r", "--bound", "4",
                      "--group", golden_files["group"],
                      "--cocycle", golden_files["cocycle"]])
    assert rc == 0
    assert capsys.readouterr().out == "0\n1\n2\n3\n4\n1\n2\n3\n3\n"
    d3file = _write(tmp_path, "d3.cocycle", cf.emit_cocycle(d3_cocycle))
    rc = run_command(["search-r", "--bound", "3", "--group", "d3",
                      "--cocycle", d3file])
    assert rc == 1
    out = capsys.readouterr().out
    assert out.startswith("exhausted bound=3 nodes=")


def test_cli_census(capsys):
    rc = run_command(["census", "--order", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == (
        "n=3 bits=111100100 H=0 max_power=1 layers=2 classes=2\n"
        "n=3 bits=111100101 H=0 max_power=2 layers=1,1 classes=1\n"
        "n=3 bits=111110100 H=0 max_power=2 layers=1,1 classes=1\n"
        "n=3 bits=111111111 H=0,1,2 max_power=0 layers= classes=0\n"
    )


def test_cli_census_from_group_flag(golden_files, capsys):
    rc = run_command(["census", "--group", "cyclic2"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "n=2 bits=1110 H=0 max_power=1 layers=1 classes=1\n"
        "n=2 bits=1111 H=0,1 max_power=0 layers= classes=0\n"
    )


def test_cli_census_refuses_order_with_group(capsys, monkeypatch):
    def no_enumeration(cfg):
        raise AssertionError("census enumerated before checking its input")

    monkeypatch.setattr(cli, "_census", no_enumeration)
    assert run_command(["census", "--order", "2", "--group", "d3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: census takes --order or --group, not both\n"


def test_cli_census_refuses_the_inputs_it_does_not_read(capsys, monkeypatch):
    def no_enumeration(cfg):
        raise AssertionError("census enumerated before checking its input")

    monkeypatch.setattr(cli, "_census", no_enumeration)
    cases = [
        (["--cocycle", "/nonexistent"], "--cocycle"),
        (["--r", "/nope", "--chain", "/nada"], "--r, --chain"),
        (["--cocycle", "/nonexistent", "--r", "/nope", "--chain", "/nada"], "--cocycle, --r, --chain"),
    ]
    for extra, named in cases:
        assert run_command(["census", "--order", "3"] + extra) == 2, extra
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: census reads --order or --group, not {named}\n"


def test_cli_census_keeps_the_lines_written_before_an_internal_error(capsys, monkeypatch):
    real = census._census_record
    seen = []

    def third_raises(cocycle):
        seen.append(cocycle)
        if len(seen) == 3:
            raise InternalInvariantError("injected on the third cocycle")
        return real(cocycle)

    monkeypatch.setattr(census, "_census_record", third_raises)
    monkeypatch.setattr(census, "_block_records", lambda group, cocycles: None)  # refuse: report
    assert run_command(["census", "--order", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "n=3 bits=111100100 H=0 max_power=1 layers=2 classes=2\n"
        "n=3 bits=111100101 H=0 max_power=2 layers=1,1 classes=1\n"
    )
    assert captured.err == "internal error: injected on the third cocycle\n"


def test_cli_census_streams_in_bounded_memory(tmp_path):
    # the 2,084 records of C7 and their text, held at once, take about 2 MB
    argv = ["census", "--order", "7", "--out", str(tmp_path / "c7.txt")]
    assert run_command(argv) == 0  # warm-up: imports and per-group caches
    tracemalloc.start()
    try:
        assert run_command(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_cli_out_file(golden_files, tmp_path, capsys):
    target = tmp_path / "out.txt"
    rc = run_command(["inertial", "--group", golden_files["group"],
                      "--cocycle", golden_files["cocycle"], "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == "0\n"


@pytest.mark.parametrize("command", ["validate", "census"])
def test_cli_unwritable_out_file_is_an_error(golden_files, tmp_path, capsys, command):
    target = tmp_path / "missing" / "out.txt"
    inputs = {
        "validate": ["--group", golden_files["group"], "--cocycle", golden_files["cocycle"]],
        "census": ["--order", "3"],
    }[command]
    assert run_command([command, *inputs, "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write output file {str(target)!r}: ")
    assert not target.parent.exists()


def test_cli_r_only_derives_cocycle(golden_files, capsys):
    rc = run_command(["nk", "--group", golden_files["group"], "--r", golden_files["r"]])
    assert rc == 0
    assert capsys.readouterr().out == "N1=1,5,8\nN2=2,6\nN3=3,7\nN4=4\n"


def test_cli_inconsistent_r_and_cocycle(golden_files, tmp_path, capsys):
    bad_r = _write(tmp_path, "bad.r", "0\n1\n2\n3\n4\n1\n2\n3\n4\n")
    rc = run_command(["validate", "--group", golden_files["group"],
                      "--cocycle", golden_files["cocycle"], "--r", bad_r])
    assert rc == 1
    assert "inconsistent" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    src = str(Path(cf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "cocycle_forge", "census", "--order", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "n=3 bits=111100100 H=0 max_power=1 layers=2 classes=2\n"
        "n=3 bits=111100101 H=0 max_power=2 layers=1,1 classes=1\n"
        "n=3 bits=111110100 H=0 max_power=2 layers=1,1 classes=1\n"
        "n=3 bits=111111111 H=0,1,2 max_power=0 layers= classes=0\n"
    )
