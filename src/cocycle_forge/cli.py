"""The cocycle-forge command line.

Exit codes: 0 on success, 1 when validation or a checked identity fails,
2 for parse and usage errors.  All output is deterministic; --out - streams
to standard output.  ``census`` writes the records of each block of
cocycles as they are made, so the lines written before an internal error
stay written.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Iterator, Sequence, Tuple, Union

from .algebra import (
    AlgebraContext,
    MonomialIdeal,
    classify_annihilators,
    nk_partition,
    radical_powers,
)
from .census import CensusConfig, _census, _fingerprints
from .cocycles import inertial_group
from .decomposition import (
    CHAIN_CHECKS,
    IDENTITY_NAMES,
    check_identity,
    cocycle_from_chain,
    decompose_by_bstar,
    decompose_by_classes,
    morphism_check,
)
from .errors import InternalInvariantError, ParseError, PreconditionError, ValidationError
from .files import (
    _census_line,
    emit_cocycle,
    emit_decomposition,
    emit_rmap,
    parse_artifacts,
    resolve_group,
)
from .generators import (
    GeneratorSet,
    all_generators,
    graphs_dot,
    ideal_of_word,
    word_label,
)
from .groups import make_cyclic
from .semilinear import SemilinearMap, chain_lift, padded_lift, search_realization

__all__ = ["run_command", "main"]


def _write(out: str, text: Union[str, Iterable[str]]) -> None:
    """Write a text, or each string of an iterable as it comes."""
    lines = (text,) if isinstance(text, str) else text
    if out == "-":
        sys.stdout.writelines(lines)
        return
    try:
        fh = open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write output file {out!r}: {exc}") from exc
    with fh:
        fh.writelines(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocycle-forge",
        description="Idempotent 2-cocycles, their ideal chains, and decompositions.",
    )
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--group", help="cyclicN, dN, or a group table file")
    common.add_argument("--cocycle", help="cocycle table file")
    common.add_argument("--r", dest="rmap", help="subadditive map file")
    common.add_argument("--chain", help="descending ideal chain file")
    common.add_argument("--out", default="-", help="output path, - for stdout")

    sub.add_parser("validate", parents=[common])
    sub.add_parser("inertial", parents=[common])
    sub.add_parser("radical-powers", parents=[common])
    sub.add_parser("nk", parents=[common])
    sub.add_parser("generators", parents=[common])
    sub.add_parser("annihilators", parents=[common])

    graph = sub.add_parser("graph", parents=[common])
    graph.add_argument("--kind", required=True, choices=("element", "generator"))

    sub.add_parser("chain-cocycle", parents=[common])

    decompose = sub.add_parser("decompose", parents=[common])
    decompose.add_argument("--by", required=True, choices=("classes", "bstar"))

    identity = sub.add_parser("identity", parents=[common])
    identity.add_argument("--name", required=True, choices=IDENTITY_NAMES)
    identity.add_argument(
        "--ideal",
        action="append",
        default=[],
        help="comma-separated members; repeatable; empty string for the zero ideal",
    )
    identity.add_argument("--split", type=int, help="split position for chain_break")

    morphism = sub.add_parser("morphism", parents=[common])
    morphism.add_argument("--ideal", required=True, help="comma-separated members")

    sub.add_parser("lift-r", parents=[common])
    sub.add_parser("pad-lift", parents=[common])

    search = sub.add_parser("search-r", parents=[common])
    search.add_argument("--bound", required=True, type=int)
    search.add_argument("--max-nodes", type=int, help="stop after this many search nodes")

    census = sub.add_parser("census", parents=[common])
    census.add_argument("--order", type=int, help="shorthand for --group cyclicN")

    return parser


def _load(args, need_chain=False, need_r=False):
    if not args.group:
        raise ParseError("--group is required")
    group, cocycle, rmap, chain = parse_artifacts(args.group, args.cocycle, args.rmap, args.chain)
    if cocycle is None:
        raise ParseError("this command needs --cocycle or --r")
    if need_chain and chain is None:
        raise ParseError("this command needs --chain")
    if need_r and rmap is None:
        raise ParseError("this command needs --r")
    return group, cocycle, rmap, chain


def _ideal_from_arg(ctx: AlgebraContext, raw: str) -> MonomialIdeal:
    raw = raw.strip()
    try:
        members = [int(p) for p in raw.replace(",", " ").split()]
    except ValueError:
        raise ParseError(f"--ideal {raw!r}: members must be integers")
    return MonomialIdeal.from_members(ctx, members)


def _catalog_notation(gens: GeneratorSet) -> str:
    """The whole catalog as nested sets of words, ascending element order."""
    groups = []
    for s in sorted(gens.catalog):
        words = ",".join(word_label(w) for w in gens.words_for(s))
        groups.append("{" + words + "}")
    return "{" + ",".join(groups) + "}"


def _cmd_validate(args) -> Tuple[str, int]:
    _load(args)
    return "valid\n", 0


def _cmd_inertial(args) -> Tuple[str, int]:
    _, cocycle, _, _ = _load(args)
    members = inertial_group(cocycle).members
    return ",".join(str(s) for s in members) + "\n", 0


def _cmd_radical_powers(args) -> Tuple[str, int]:
    _, cocycle, _, _ = _load(args)
    powers, nilpotency = radical_powers(AlgebraContext(cocycle))
    lines = [" ".join(str(s) for s in p.sorted_members) for p in powers]
    lines.append(f"nilpotency={nilpotency}")
    return "\n".join(lines) + "\n", 0


def _cmd_nk(args) -> Tuple[str, int]:
    _, cocycle, _, _ = _load(args)
    layers = nk_partition(AlgebraContext(cocycle))
    lines = [
        f"N{k}=" + ",".join(str(s) for s in sorted(layer))
        for k, layer in enumerate(layers, start=1)
    ]
    return "\n".join(lines) + "\n", 0


def _cmd_generators(args) -> Tuple[str, int]:
    _, cocycle, _, _ = _load(args)
    ctx = AlgebraContext(cocycle)
    gens = all_generators(ctx)
    names = ctx.group.names
    lines = [
        f"{names[s]}: " + " ".join(word_label(w) for w in gens.words_for(s))
        for s in sorted(gens.catalog)
    ]
    return "\n".join(lines) + "\n", 0


def _cmd_annihilators(args) -> Tuple[str, int]:
    _, cocycle, _, _ = _load(args)
    trivial, nontrivial = classify_annihilators(AlgebraContext(cocycle))
    return (
        "trivial=" + ",".join(str(s) for s in sorted(trivial)) + "\n"
        "nontrivial=" + ",".join(str(s) for s in sorted(nontrivial)) + "\n",
        0,
    )


def _cmd_graph(args) -> Tuple[str, int]:
    _, cocycle, _, _ = _load(args)
    return graphs_dot(AlgebraContext(cocycle), args.kind), 0


def _cmd_chain_cocycle(args) -> Tuple[str, int]:
    _, cocycle, _, chain = _load(args, need_chain=True)
    return emit_cocycle(cocycle_from_chain(AlgebraContext(cocycle), chain)), 0


def _cmd_decompose(args) -> Tuple[str, int]:
    _, cocycle, _, _ = _load(args)
    ctx = AlgebraContext(cocycle)
    if args.by == "classes":
        return emit_decomposition(decompose_by_classes(ctx)), 0
    parts = decompose_by_bstar(ctx)
    lines = []
    for word, part in parts:
        ideal = ideal_of_word(word)
        members = ",".join(str(s) for s in ideal.sorted_members)
        lines.append(f"gamma={word_label(word)} ideal={members}")
        lines.append(_catalog_notation(all_generators(AlgebraContext(part))))
    lines.append("recombines=true")
    return "\n".join(lines) + "\n", 0


def _cmd_identity(args) -> Tuple[str, int]:
    name = args.name
    if args.split is not None and name != "chain_break":
        raise ParseError("--split applies only to chain_break")
    if name in CHAIN_CHECKS and args.ideal:
        raise ParseError(f"identity {name} reads --chain, not --ideal")
    if name not in CHAIN_CHECKS and args.chain is not None:
        raise ParseError(f"identity {name} reads --ideal, not --chain")
    _, cocycle, _, chain = _load(args)
    ctx = AlgebraContext(cocycle)
    ideals = [_ideal_from_arg(ctx, raw) for raw in args.ideal]
    kwargs = {}
    if name in CHAIN_CHECKS:
        if chain is None:
            raise ParseError(f"identity {name} needs --chain")
        kwargs["chain"] = chain
        if name == "chain_break" and args.split is not None:
            kwargs["split"] = args.split
    elif name == "fI_eq_f":
        if len(ideals) != 1:
            raise ParseError(f"identity {name} needs exactly one --ideal")
        kwargs["ideal"] = ideals[0]
    elif name in ("sum_product", "intersection_vee"):
        if len(ideals) < 2:
            raise ParseError(f"identity {name} needs the outer --ideal then the inner ones")
        kwargs["outer"] = ideals[0]
        kwargs["inner"] = ideals[1:]
    elif name == "cap_zero":
        if not ideals:
            raise ParseError(f"identity {name} needs at least one --ideal")
        kwargs["ideals"] = ideals
    elif name == "trivial_annih_replace":
        if len(ideals) != 2:
            raise ParseError(f"identity {name} needs exactly two --ideal")
        kwargs["first"] = ideals[0]
        kwargs["second"] = ideals[1]
    result = check_identity(name, ctx, **kwargs)
    text = f"{name} ok={str(result.ok).lower()}\n"
    if not result.ok:
        text += f"counterexample={result.counterexample}\n"
    return text, 0 if result.ok else 1


def _cmd_morphism(args) -> Tuple[str, int]:
    _, cocycle, _, _ = _load(args)
    ctx = AlgebraContext(cocycle)
    report = morphism_check(ctx, _ideal_from_arg(ctx, args.ideal))
    dims = ",".join(str(d) for d in report.dims)
    kernel = ",".join(str(s) for s in report.phi_kernel)
    lines = [
        f"ok={str(report.ok).lower()}",
        f"scaling_ok={str(report.scaling_ok).lower()}",
        f"kernel={kernel}",
        f"psi_ok={str(report.psi_ok).lower()}",
        f"dims={dims}",
        f"section_ok={str(report.section_ok).lower()}",
    ]
    return "\n".join(lines) + "\n", 0 if report.ok else 1


def _cmd_lift_r(args) -> Tuple[str, int]:
    _, _, rmap, chain = _load(args, need_chain=True, need_r=True)
    return emit_rmap(chain_lift(rmap, chain)), 0


def _cmd_pad_lift(args) -> Tuple[str, int]:
    _, _, rmap, chain = _load(args, need_chain=True, need_r=True)
    result = padded_lift(rmap, chain)
    text = emit_rmap(result.lifted) + f"certified={str(result.certified).lower()}\n"
    return text, 0 if result.certified else 1


def _cmd_search_r(args) -> Tuple[str, int]:
    _, cocycle, _, _ = _load(args)
    ctx = AlgebraContext(cocycle)
    result = search_realization(ctx, args.bound, args.max_nodes)
    if isinstance(result, SemilinearMap):
        return emit_rmap(result), 0
    verdict = "stopped" if result.truncated else "exhausted"
    text = f"{verdict} bound={result.bound} nodes={result.nodes_explored}\n"
    if result.truncated:
        text += "truncated=true\n"
    return text, 1


# The most cocycles the census command fingerprints at once: a C7 census
# peaks at about 0.4 MB of tracemalloc with blocks of 256, 0.8 MB with 1,024.
_LINE_BLOCK = 256


def _census_lines(cfg: CensusConfig) -> Iterator[str]:
    """One line per cocycle, made a block of at most _LINE_BLOCK at a time
    by ``census._fingerprints`` as the search finds them, then the
    truncated=true trailer if the search stopped early; when the search
    raises, the lines of the cocycles found before are written first."""
    for records in _fingerprints(cfg.group, _census(cfg), _LINE_BLOCK):
        if records is None:
            yield "truncated=true\n"
        else:
            yield from map(_census_line, records)


def _cmd_census(args) -> Tuple[Iterator[str], int]:
    unread = [flag for flag, value in (("--cocycle", args.cocycle), ("--r", args.rmap),
                                       ("--chain", args.chain)) if value is not None]
    if unread:
        raise ParseError(f"census reads --order or --group, not {', '.join(unread)}")
    if args.order is not None and args.group:
        raise ParseError("census takes --order or --group, not both")
    if args.order is not None:
        group = make_cyclic(args.order)
    elif args.group:
        group = resolve_group(args.group)
    else:
        raise ParseError("census needs --order or --group")
    return _census_lines(CensusConfig(group=group)), 0


_COMMANDS = {
    "validate": _cmd_validate,
    "inertial": _cmd_inertial,
    "radical-powers": _cmd_radical_powers,
    "nk": _cmd_nk,
    "generators": _cmd_generators,
    "annihilators": _cmd_annihilators,
    "graph": _cmd_graph,
    "chain-cocycle": _cmd_chain_cocycle,
    "decompose": _cmd_decompose,
    "identity": _cmd_identity,
    "morphism": _cmd_morphism,
    "lift-r": _cmd_lift_r,
    "pad-lift": _cmd_pad_lift,
    "search-r": _cmd_search_r,
    "census": _cmd_census,
}


def run_command(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        text, code = _COMMANDS[args.command](args)
        _write(args.out, text)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
