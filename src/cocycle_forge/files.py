"""Plain-text formats for groups, cocycles, ideal chains, subadditive maps,
and the reports the command line prints.

Every format is line oriented so golden files diff cleanly.  Parsers name
the offending 1-based line; emitters are deterministic and round-trip
through their parsers.  Malformed text raises ParseError, well-formed text
describing an invalid object raises ValidationError; the CLI maps these to
exit codes 2 and 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .algebra import AlgebraContext, DescendingChain, MonomialIdeal
from .census import CensusRecord
from .cocycles import BinaryTable, Cocycle, as_cocycle
from .decomposition import DecompositionReport, UniqueClassVerdict
from .errors import ParseError, ValidationError
from .generators import GeneratorSet, graphs_dot
from .groups import Group, group_from_table, make_cyclic, make_dihedral
from .semilinear import (
    AdditiveNaturals,
    LexProduct,
    SemilinearMap,
    as_semilinear,
    cocycle_from_r,
)

__all__ = [
    "parse_group",
    "parse_cocycle",
    "parse_chain",
    "parse_rmap",
    "emit_group",
    "emit_cocycle",
    "emit_chain",
    "emit_rmap",
    "emit_decomposition",
    "emit_census",
    "emit_artifacts",
    "Workspace",
    "parse_artifacts",
    "resolve_group",
]


def _lines(text: str) -> List[str]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def parse_group(text: str) -> Group:
    """Group file: first line n, then n rows of n space-separated indices."""
    lines = _lines(text)
    if not lines:
        raise ParseError("line 1: expected the group order")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ParseError(f"line 1: expected an integer order, got {lines[0]!r}")
    if n < 1:
        raise ParseError(f"line 1: the order must be positive, got {n}")
    if len(lines) != n + 1:
        raise ParseError(
            f"expected {n} table rows after the order line, got {len(lines) - 1}"
        )
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        try:
            row = [int(p) for p in line.split()]
        except ValueError:
            raise ParseError(f"line {i}: table entries must be integers")
        if len(row) != n:
            raise ParseError(f"line {i}: expected {n} entries, got {len(row)}")
        rows.append(row)
    return group_from_table(rows)


def emit_group(group: Group) -> str:
    lines = [str(group.order)]
    lines.extend(" ".join(str(v) for v in row) for row in group.table)
    return "\n".join(lines) + "\n"


def parse_cocycle(text: str, group: Group) -> Cocycle:
    """Cocycle file: n lines of n characters from {0,1}, row = first argument."""
    lines = _lines(text)
    n = group.order
    if len(lines) != n:
        raise ParseError(f"expected {n} rows, got {len(lines)}")
    rows = []
    for i, line in enumerate(lines, start=1):
        if len(line) != n or any(c not in "01" for c in line):
            raise ParseError(
                f"line {i}: expected {n} characters from 0/1, got {line!r}"
            )
        rows.append(tuple(int(c) for c in line))
    return as_cocycle(rows, group)


def emit_cocycle(table: BinaryTable) -> str:
    return "\n".join(table.rows()) + "\n"


def parse_chain(text: str, ctx: AlgebraContext) -> DescendingChain:
    """Chain file: one ideal per line as space-separated sorted members.

    A blank line is the zero ideal.  Closure and weak descent are validated
    by the ideal and chain constructors.
    """
    lines = _lines(text)
    ideals = []
    for i, line in enumerate(lines, start=1):
        try:
            members = [int(p) for p in line.split()]
        except ValueError:
            raise ParseError(f"line {i}: member indices must be integers")
        try:
            ideals.append(MonomialIdeal.from_members(ctx, members))
        except ValidationError as exc:
            raise ValidationError(f"line {i}: {exc}") from exc
    return DescendingChain(ideals=tuple(ideals))


def emit_chain(chain: DescendingChain) -> str:
    return (
        "\n".join(
            " ".join(str(s) for s in ideal.sorted_members) for ideal in chain.ideals
        )
        + "\n"
    )


def _parse_r_value(line: str, i: int) -> Union[int, tuple]:
    token = line.strip()
    if token.startswith("("):
        if not token.endswith(")"):
            raise ParseError(f"line {i}: unterminated tuple {token!r}")
        inner = token[1:-1].strip()
        if not inner:
            raise ParseError(f"line {i}: empty tuple")
        try:
            return tuple(int(p) for p in inner.split(","))
        except ValueError:
            raise ParseError(f"line {i}: tuple entries must be integers")
    try:
        return int(token)
    except ValueError:
        raise ParseError(
            f"line {i}: expected an integer or a parenthesized tuple, got {token!r}"
        )


def parse_rmap(text: str, group: Group) -> SemilinearMap:
    """r file: n lines, each one integer or one tuple like (3,3,0,0).

    Integer lines give a map into the naturals; tuple lines (all of the
    same width) give a map into the lexicographic power.
    """
    lines = _lines(text)
    if len(lines) != group.order:
        raise ParseError(f"expected {group.order} lines, got {len(lines)}")
    values = [_parse_r_value(line, i) for i, line in enumerate(lines, start=1)]
    tupled = [isinstance(v, tuple) for v in values]
    if any(tupled):
        if not all(tupled):
            bad = tupled.index(False) + 1
            raise ParseError(f"line {bad}: mixed integer and tuple values")
        width = len(values[0])
        for i, v in enumerate(values, start=1):
            if len(v) != width:
                raise ParseError(f"line {i}: expected a {width}-tuple, got {v}")
        monoid: object = LexProduct((AdditiveNaturals(),) * width)
    else:
        monoid = AdditiveNaturals()
    return as_semilinear(group, monoid, tuple(values))


def emit_rmap(r: SemilinearMap) -> str:
    lines = []
    for v in r.values:
        if isinstance(v, tuple):
            lines.append("(" + ",".join(str(x) for x in v) + ")")
        else:
            lines.append(str(v))
    return "\n".join(lines) + "\n"


def emit_decomposition(
    report: Union[DecompositionReport, UniqueClassVerdict]
) -> str:
    """One part per line, rho=<idx> ideal=<members> strict=<bool>, then the
    recombines trailer; a verdict prints its single class instead."""
    if isinstance(report, UniqueClassVerdict):
        members = ",".join(str(s) for s in report.class_members)
        return f"unique non-trivial annihilator class: {members}\n"
    lines = []
    for part in report.parts:
        members = ",".join(str(s) for s in part.ideal.sorted_members)
        lines.append(
            f"rho={part.representative} ideal={members}"
            f" strict={str(part.strict).lower()}"
        )
    lines.append(f"recombines={str(report.recombines).lower()}")
    return "\n".join(lines) + "\n"


def emit_census(records: Sequence[CensusRecord]) -> str:
    lines = []
    for rec in records:
        h = ",".join(str(s) for s in rec.inertial)
        nk = ",".join(str(v) for v in rec.nk_sizes)
        lines.append(
            f"n={rec.order} bits={rec.bits} H={h} max_power={rec.max_power}"
            f" layers={nk} classes={rec.annihilator_classes}"
        )
    return "\n".join(lines) + "\n"


def emit_artifacts(obj, format: str) -> str:
    """Serialize one object in one of the formats table, dot, report, rfile."""
    if format == "table":
        if isinstance(obj, Group):
            return emit_group(obj)
        if isinstance(obj, BinaryTable):
            return emit_cocycle(obj)
        if isinstance(obj, DescendingChain):
            return emit_chain(obj)
        if isinstance(obj, MonomialIdeal):
            return " ".join(str(s) for s in obj.sorted_members) + "\n"
    elif format == "rfile":
        if isinstance(obj, SemilinearMap):
            return emit_rmap(obj)
    elif format == "report":
        if isinstance(obj, (DecompositionReport, UniqueClassVerdict)):
            return emit_decomposition(obj)
        if isinstance(obj, (list, tuple)) and all(
            isinstance(x, CensusRecord) for x in obj
        ):
            return emit_census(obj)
    elif format == "dot":
        if isinstance(obj, AlgebraContext):
            return graphs_dot(obj, "element")
        if isinstance(obj, GeneratorSet):
            return graphs_dot(obj.ctx, "generator")
    else:
        raise ValidationError(f"format-error: unknown format {format!r}")
    raise ValidationError(
        f"format-error: cannot emit {type(obj).__name__} as {format}"
    )


def resolve_group(spec: str) -> Group:
    """A group from the shorthand cyclicN / dN, or from a table file path."""
    match = re.fullmatch(r"cyclic(\d+)", spec)
    if match:
        return make_cyclic(int(match.group(1)))
    match = re.fullmatch(r"d(\d+)", spec)
    if match:
        return make_dihedral(int(match.group(1)))
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read group file {spec!r}: {exc}") from exc
    return parse_group(text)


@dataclass(frozen=True)
class Workspace:
    """The file arguments of one CLI invocation.

    The group is always required; the cocycle may be given directly, derived
    from r, or both (in which case they must agree).
    """

    group_path: str
    cocycle_path: Optional[str] = None
    r_path: Optional[str] = None
    chain_path: Optional[str] = None


def _read(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {what} file {path!r}: {exc}") from exc


def parse_artifacts(
    ws: Workspace,
) -> Tuple[Group, Optional[Cocycle], Optional[SemilinearMap], Optional[DescendingChain]]:
    """Load and cross-validate everything a Workspace names.

    When both a cocycle and an r map are supplied the induced cocycle must
    match the explicit one.  A chain needs a cocycle (possibly derived) for
    its context.
    """
    group = resolve_group(ws.group_path)
    cocycle = None
    if ws.cocycle_path is not None:
        cocycle = parse_cocycle(_read(ws.cocycle_path, "cocycle"), group)
    rmap = None
    if ws.r_path is not None:
        rmap = parse_rmap(_read(ws.r_path, "r"), group)
        induced = cocycle_from_r(rmap)
        if cocycle is not None and induced.masks != cocycle.masks:
            raise ValidationError(
                "inconsistent input: the r file does not induce the given cocycle"
            )
        cocycle = induced if cocycle is None else cocycle
    chain = None
    if ws.chain_path is not None:
        if cocycle is None:
            raise ValidationError("a chain file needs a cocycle or an r file")
        ctx = AlgebraContext(cocycle)
        chain = parse_chain(_read(ws.chain_path, "chain"), ctx)
    return group, cocycle, rmap, chain
