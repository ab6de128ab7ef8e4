"""Words in the degree-one generators of the radical.

Every non-inertial basis element is a nonzero product of elements of N_1,
the generators of J.  This module builds the full catalog of such words,
the maximal words under the contiguous subword order, the two graphs drawn
from them, and the generator-side description of principal ideals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as cartesian
from typing import Dict, FrozenSet, List, Optional, Tuple

from .algebra import (
    AlgebraContext,
    MonomialIdeal,
    _members_of,
    _n1_mask,
    classify_annihilators,
    ideal_closure,
    nk_partition,
    principal_ideal,
)
from .errors import InternalInvariantError, ValidationError

__all__ = [
    "Word",
    "GeneratorSet",
    "all_generators",
    "n1_set",
    "is_ordered_part",
    "bstar",
    "ideal_of_word",
    "principal_via_generators",
    "element_graph_edges",
    "generator_cover_edges",
    "word_label",
    "graphs_dot",
]


def _evaluate(
    ctx: AlgebraContext, letters: Tuple[int, ...], value: int = 0
) -> Tuple[int, int]:
    """Multiply value by letters left to right, and report where it stops.

    Returns (product, len(letters)) when no step vanishes, else the product
    so far and the first position i with f(product so far, letters[i]) = 0.
    From the identity, whose row is all ones, the first letter never
    vanishes and the empty word evaluates to the identity.
    """
    masks, table = ctx._masks, ctx.group.table
    for i, letter in enumerate(letters):
        if not masks[value] >> letter & 1:
            return value, i
        value = table[value][letter]
    return value, len(letters)


@dataclass(frozen=True)
class Word:
    """A sequence of N_1 letters whose left-to-right product never vanishes.

    The empty word is allowed and evaluates to the identity; it only appears
    as the root of the generator graph, never in the catalog.
    """

    ctx: AlgebraContext
    letters: Tuple[int, ...]
    _value: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        n1 = _n1_mask(self.ctx)
        for letter in self.letters:
            if not (0 <= letter < self.ctx.group.order and n1 >> letter & 1):
                raise ValidationError(f"letter {letter} is not in N_1")
        value, stop = _evaluate(self.ctx, self.letters)
        if stop < len(self.letters):
            raise ValidationError(f"word {self.letters} vanishes at position {stop}")
        object.__setattr__(self, "_value", value)

    @property
    def evaluation(self) -> int:
        return self._value

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return f"Word({self.letters})"


def is_ordered_part(inner: Word, outer: Word) -> bool:
    """Whether inner occurs as a contiguous subword of outer."""
    a, b = inner.letters, outer.letters
    if len(a) > len(b):
        return False
    if not a:
        return True
    return any(b[i : i + len(a)] == a for i in range(len(b) - len(a) + 1))


class GeneratorSet:
    """The catalog mapping each non-inertial element to all its words.

    Invariants checked on construction: every element of G* owns at least
    one word, and every contiguous subword of a catalog word is again in
    the catalog (under its own evaluation).
    """

    def __init__(self, ctx: AlgebraContext, catalog: Dict[int, Tuple[Word, ...]]):
        self.ctx = ctx
        self.catalog: Dict[int, Tuple[Word, ...]] = {
            s: tuple(sorted(words, key=lambda w: (len(w), w.letters)))
            for s, words in sorted(catalog.items())
        }
        for s in ctx.gstar:
            if not self.catalog.get(s):
                raise InternalInvariantError(f"element {s} of G* has no word")
        known = {w.letters for words in self.catalog.values() for w in words}
        for words in self.catalog.values():
            for w in words:
                for i in range(len(w)):
                    for j in range(i + 1, len(w) + 1):
                        if w.letters[i:j] not in known:
                            raise InternalInvariantError(
                                f"subword {w.letters[i:j]} of {w.letters} missing"
                            )

    def words_for(self, s: int) -> Tuple[Word, ...]:
        if s not in self.catalog:
            raise ValidationError(f"element {s} is not in G*")
        return self.catalog[s]

    def all_words(self) -> Tuple[Word, ...]:
        out = [w for words in self.catalog.values() for w in words]
        out.sort(key=lambda w: (len(w), w.letters))
        return tuple(out)

    def __repr__(self) -> str:
        total = sum(len(v) for v in self.catalog.values())
        return f"GeneratorSet({total} words over {len(self.catalog)} elements)"


def n1_set(ctx: AlgebraContext) -> FrozenSet[int]:
    """The generators N_1: the first layer of ``nk_partition``, which checks
    it against the no-factorization characterization on every call."""
    return nk_partition(ctx)[0]


def all_generators(ctx: AlgebraContext) -> GeneratorSet:
    """Depth-first enumeration of every nonvanishing word of N_1 letters."""
    n1 = sorted(_members_of(_n1_mask(ctx)))
    bound = len(ctx.gstar)
    catalog: Dict[int, List[Word]] = {}
    stack: List[Tuple[Tuple[int, ...], int]] = [((g,), g) for g in reversed(n1)]
    while stack:
        letters, value = stack.pop()
        if len(letters) > bound:
            raise InternalInvariantError("word length exceeded the size of G*")
        catalog.setdefault(value, []).append(Word(ctx=ctx, letters=letters))
        for g in reversed(n1):
            if ctx.f(value, g) == 1:
                stack.append((letters + (g,), ctx.mul(value, g)))
    return GeneratorSet(ctx, {s: tuple(ws) for s, ws in catalog.items()})


def bstar(gens: GeneratorSet) -> Tuple[Word, ...]:
    """Words of non-trivial annihilators, maximal under the subword order.

    A word is maximal exactly when its evaluation annihilates the radical on
    both sides, so the maximal set is cross-checked against the annihilator
    classification before the non-trivial part is returned.  For the
    Waterhouse idempotent every annihilator is trivial and the result is
    empty.
    """
    words = gens.all_words()
    maximal = tuple(
        w
        for w in words
        if not any(
            v.letters != w.letters and is_ordered_part(w, v) for v in words
        )
    )
    for w in words:
        if not any(is_ordered_part(w, m) for m in maximal):
            raise InternalInvariantError(f"word {w.letters} is below no maximal word")
    trivial, nontrivial = classify_annihilators(gens.ctx)
    if {w.evaluation for w in maximal} != trivial | nontrivial:
        raise InternalInvariantError(
            "maximal words do not evaluate to exactly the annihilators"
        )
    return tuple(w for w in maximal if w.evaluation in nontrivial)


def ideal_of_word(word: Word) -> MonomialIdeal:
    """The sum of the principal ideals of the word's letters."""
    return ideal_closure(word.ctx, set(word.letters))


def principal_via_generators(
    ctx: AlgebraContext, s: int, gens: Optional[GeneratorSet] = None
) -> MonomialIdeal:
    """The principal ideal of s assembled from words instead of closure.

    Members are evaluations of u + c + v where c is a word of s with an
    inertial element absorbed into each end and u, v range over catalog
    words or the empty word.  The result is asserted equal to the
    breadth-first closure, so the two descriptions keep each other honest.
    """
    by_closure = principal_ideal(ctx, s)  # checks s as well
    if gens is None:
        gens = all_generators(ctx)
    hs = ctx.inertial.members
    centers = set()
    for w in gens.words_for(s):
        for h1, h2 in cartesian(hs, hs):
            if len(w) == 1:
                centers.add((ctx.mul(ctx.mul(h1, s), h2),))
            else:
                centers.add(
                    (ctx.mul(h1, w.letters[0]),)
                    + w.letters[1:-1]
                    + (ctx.mul(w.letters[-1], h2),)
                )
    flanks: Tuple[Tuple[int, ...], ...] = ((),) + tuple(
        w.letters for w in gens.all_words()
    )
    members = set()
    for u in flanks:
        start, _ = _evaluate(ctx, u)  # a catalog word never vanishes
        for c in centers:
            middle, stop = _evaluate(ctx, c, start)
            if stop < len(c):
                continue
            for v in flanks:
                value, stop = _evaluate(ctx, v, middle)
                if stop == len(v):
                    members.add(value)
    result = MonomialIdeal.from_members(ctx, members)
    if result.mask != by_closure.mask:
        raise InternalInvariantError(
            f"generator and closure descriptions of the ideal of {s} disagree"
        )
    return result


def element_graph_edges(ctx: AlgebraContext) -> Tuple[Tuple[int, int], ...]:
    """Edges {r, gr} and {r, rg} for g in N_1 whenever the product survives."""
    n1 = sorted(_members_of(_n1_mask(ctx)))
    edges = set()
    for g in n1:
        for r in range(ctx.group.order):
            if ctx.f(g, r) == 1:
                edges.add(frozenset((r, ctx.mul(g, r))))
            if ctx.f(r, g) == 1:
                edges.add(frozenset((r, ctx.mul(r, g))))
    return tuple(sorted(tuple(sorted(e)) for e in edges))


def generator_cover_edges(gens: GeneratorSet) -> Tuple[Tuple[Word, Word], ...]:
    """Covering pairs of the subword order on the catalog plus the empty word."""
    nodes = (Word(ctx=gens.ctx, letters=()),) + gens.all_words()
    below: Dict[Tuple[int, ...], set] = {w.letters: set() for w in nodes}
    for u in nodes:
        for v in nodes:
            if len(u) < len(v) and is_ordered_part(u, v):
                below[v.letters].add(u.letters)
    edges = []
    for v in nodes:
        strict = below[v.letters]
        for u_letters in strict:
            if not any(u_letters in below[w_letters] for w_letters in strict):
                u = next(w for w in nodes if w.letters == u_letters)
                edges.append((u, v))
    edges.sort(key=lambda e: (len(e[0]), e[0].letters, len(e[1]), e[1].letters))
    return tuple(edges)


def word_label(word: Word) -> str:
    """A word as (name,name,...) using the group's element names."""
    names = word.ctx.group.names
    return "(" + ",".join(names[s] for s in word.letters) + ")"


def graphs_dot(ctx: AlgebraContext, kind: str) -> str:
    """Render the element graph or the generator Hasse diagram as DOT text.

    The element graph has one vertex per group element; the generator graph
    has one vertex per catalog word plus the empty word, with covering edges
    of the contiguous subword order.  Output is deterministic.
    """
    names = ctx.group.names
    lines = ["graph {"]
    if kind == "element":
        for s in range(ctx.group.order):
            lines.append(f'  "{names[s]}";')
        for a, b in element_graph_edges(ctx):
            lines.append(f'  "{names[a]}" -- "{names[b]}";')
    elif kind == "generator":
        gens = all_generators(ctx)
        nodes = (Word(ctx=ctx, letters=()),) + gens.all_words()
        for w in sorted(nodes, key=lambda w: (len(w), w.letters)):
            lines.append(f'  "{word_label(w)}";')
        for u, v in generator_cover_edges(gens):
            lines.append(f'  "{word_label(u)}" -- "{word_label(v)}";')
    else:
        raise ValidationError(
            f"unknown graph kind {kind!r}; choose element or generator"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
