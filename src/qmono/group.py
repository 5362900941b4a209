"""Exact arithmetic in the group G = <a, b, k | k a = b k, k^2 = 1>.

G is the semidirect product F2 x| Z/2, where the order-2 generator `k`
acts on the free group F2 = <a, b> by swapping the two free generators.
Every element therefore has a unique normal form: a freely reduced word
in a, b followed by k^0 or k^1.  Elements are represented by
:class:`GroupWord` and all operations below are pure functions on
immutable values.

Per-letter work is one lookup per letter or token, in tables built once
at import, giving the pushed letter and its inverse.  A letter or token
the tables miss (a list, a bad generator or exponent, a spelling like
`a^+1`) goes through the full checks, so a malformed one is refused with
the same `MalformedWord` message as by a letter-by-letter check.

`normalize`, `parse_word`, `multiply` and `invert` build their results
with `GroupWord._from_reduced`, which skips the reduction check of the
public constructor.  That is sound because each result is reduced by
construction: the reduction stack never holds a letter next to its
inverse; two reduced words can cancel only at their junction, so
stripping the junction leaves a reduced word; and the inverse of a
reduced word, with or without sigma applied, is reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence, Tuple

from .errors import MalformedWord

ALPHA = "a"
BETA = "b"
KAPPA = "k"

# A letter is (generator, exponent) with generator in {"a", "b"} and
# exponent +1 or -1.  "k" appears only in raw input to normalize().
Letter = Tuple[str, int]
FreeWord = Tuple[Letter, ...]

_SWAP = {ALPHA: BETA, BETA: ALPHA}
_FREE = {(gen, exp): (gen, exp) for gen in (ALPHA, BETA) for exp in (1, -1)}
_INVERSE = {letter: _FREE[gen, -exp] for letter, (gen, exp) in _FREE.items()}
_SIGMA = {letter: _FREE[_SWAP[gen], exp] for letter, (gen, exp) in _FREE.items()}
# The inverse of each letter, followed by sigma at odd k-parity.
_INVERT = (_INVERSE, {letter: _SIGMA[inv] for letter, inv in _INVERSE.items()})
# What a reduction pushes for each letter read, by the parity of the k's
# read before it (k g = sigma(g) k): the pushed letter and its inverse;
# None marks a k letter.
_PAIRS = tuple({letter: (out, _INVERSE[out]) for letter, out in table.items()}
               for table in (_FREE, _SIGMA))
_KAPPAS = {(KAPPA, 1): None, (KAPPA, -1): None}
_PUSH = tuple({**pairs, **_KAPPAS} for pairs in _PAIRS)
_TEXT = {(gen, exp): gen if exp == 1 else f"{gen}^-1"
         for gen in (ALPHA, BETA, KAPPA) for exp in (1, -1)}
# The same tables keyed by the six plain spellings.
_TEXT_PUSH = tuple({_TEXT[letter]: entry for letter, entry in push.items()} for push in _PUSH)


def _checked(letter: Letter, kappa_ok: bool) -> Letter:
    """The canonical form of a letter the tables missed, or MalformedWord."""
    try:
        gen, exp = letter
    except (TypeError, ValueError):
        raise MalformedWord(f"not a (generator, exponent) pair: {letter!r}") from None
    if kappa_ok and gen == KAPPA:
        if exp not in (1, -1):
            raise MalformedWord(f"k exponent must be +1 or -1, got {exp!r}")
    elif gen not in (ALPHA, BETA):
        raise MalformedWord(f"not a free generator: {gen!r}")
    elif exp not in (1, -1):
        raise MalformedWord(f"exponent must be +1 or -1, got {exp!r}")
    return gen, 1 if exp == 1 else -1


def _reduce(items: Iterable, tables, canonical: Callable) -> Tuple[FreeWord, int]:
    """One pass: each item read through tables[k-parity] onto a stack that
    cancels inverse pairs; an item the tables miss is read as
    canonical(item).  Returns the reduced word and the parity."""
    # The stack holds only canonical letters, so `is` tests equality; its
    # None floor matches no letter and spares an emptiness test.
    bit, table, stack = 0, tables[0], [None]
    push, pop = stack.append, stack.pop
    for item in items:
        try:
            entry = table[item]
        except (KeyError, TypeError):
            entry = table[canonical(item)]
        if entry is None:
            bit ^= 1
            table = tables[bit]
        elif stack[-1] is entry[1]:
            pop()
        else:
            push(entry[0])
    return tuple(stack[1:]), bit


def free_reduce(letters: Iterable[Letter]) -> FreeWord:
    """Freely reduce a word over a, b (cancel adjacent inverse pairs)."""
    return _reduce(letters, _PAIRS[:1], partial(_checked, kappa_ok=False))[0]


def sigma(word: Iterable[Letter]) -> FreeWord:
    """The swap automorphism of F2: a <-> b, letterwise.  Involution."""
    return tuple(map(_SIGMA.__getitem__, word))


@dataclass(frozen=True)
class GroupWord:
    """Normal form of an element of G: reduced free word times k^kappa_bit."""

    free_part: FreeWord = ()
    kappa_bit: int = 0

    def __post_init__(self) -> None:
        if self.kappa_bit not in (0, 1):
            raise MalformedWord(f"kappa_bit must be 0 or 1, got {self.kappa_bit!r}")
        given = tuple(self.free_part)
        reduced = free_reduce(given)
        if len(reduced) != len(given):
            raise MalformedWord("free_part is not freely reduced")
        # The canonical values checked, so that equal words compare and
        # hash alike whatever sequence or letter objects were passed.
        object.__setattr__(self, "free_part", reduced)
        object.__setattr__(self, "kappa_bit", int(self.kappa_bit))

    @classmethod
    def _from_reduced(cls, free_part: FreeWord, kappa_bit: int) -> "GroupWord":
        """A GroupWord without the check of __post_init__, for a free part
        that is a freely reduced tuple and a kappa bit of 0 or 1."""
        g = object.__new__(cls)
        object.__setattr__(g, "free_part", free_part)
        object.__setattr__(g, "kappa_bit", kappa_bit)
        return g

    def is_identity(self) -> bool:
        return not self.free_part and self.kappa_bit == 0

    def letters(self) -> FreeWord:
        """The letters of the normal form, k included when present."""
        extra = ((KAPPA, 1),) if self.kappa_bit else ()
        return tuple(self.free_part) + extra

    def __str__(self) -> str:
        return format_word(self)


IDENTITY = GroupWord()


def normalize(raw: Sequence[Letter]) -> GroupWord:
    """Normal form of a product of generator letters, read left to right.

    Each k is pushed to the right end using k g = sigma(g) k, so a letter
    read after an odd number of k's is pushed swapped; pairs of k cancel;
    the free part is reduced in the same pass.
    """
    return GroupWord._from_reduced(*_reduce(raw, _PUSH, partial(_checked, kappa_ok=True)))


def multiply(g: GroupWord, h: GroupWord) -> GroupWord:
    """Normal form of g*h via the semidirect product law.

    Both free parts are reduced, so they cancel only at the junction: the
    longest suffix of g that is the inverse of a prefix of sigma^e(h) is
    stripped, and the rest concatenated.
    """
    first = tuple(g.free_part)
    second = sigma(h.free_part) if g.kappa_bit else tuple(h.free_part)
    cut = 0
    for last, letter in zip(reversed(first), second):
        if last != _INVERSE[letter]:
            break
        cut += 1
    return GroupWord._from_reduced(first[:len(first) - cut] + second[cut:],
                                   g.kappa_bit ^ h.kappa_bit)


def invert(g: GroupWord) -> GroupWord:
    """Normal form of g^-1.  (w k^e)^-1 = sigma^e(w^-1) k^e."""
    table = _INVERT[g.kappa_bit]
    return GroupWord._from_reduced(tuple(map(table.__getitem__, reversed(g.free_part))),
                                   g.kappa_bit)


def _plain_spelling(token: str) -> str:
    """The plain spelling of a token outside the six (`a^+1`, `a^01`, ...),
    or MalformedWord."""
    base, _, exp_text = token.partition("^")
    if base not in (ALPHA, BETA, KAPPA):
        raise MalformedWord(f"unknown token: {token!r}")
    # A token outside the six with one of the three bases has a caret.
    if not exp_text:
        raise MalformedWord(f"missing exponent in token: {token!r}")
    try:
        exp = int(exp_text)
    except ValueError:
        raise MalformedWord(f"bad exponent in token: {token!r}") from None
    if exp not in (1, -1):
        raise MalformedWord(f"exponent must be +1 or -1 in {token!r}")
    return _TEXT[base, exp]


def parse_word(text: str) -> GroupWord:
    """Parse whitespace-separated tokens `a`, `b`, `k`, optionally `^-1`,
    reducing them as they are read."""
    return GroupWord._from_reduced(*_reduce(text.split(), _TEXT_PUSH, _plain_spelling))


def format_word(g: GroupWord) -> str:
    """Inverse of parse_word on normal forms; identity formats as ''."""
    return " ".join(map(_TEXT.__getitem__, g.letters()))
