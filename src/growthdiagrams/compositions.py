"""
Compositions of integers, their binary-word encoding, and the cover
relations of the two graded graphs on compositions.

A composition is a tuple of positive parts; () is the unique composition of
0, written e in labels.  A composition of n encodes as an n-letter word
over {0,1}: reading the ribbon diagram cell by cell, a cell gets 1 exactly
when it starts a new part.  Under this encoding:

  * the lifted binary tree covers c by appending a letter to its word
    (last part + 1, or a new part 1 at the end);
  * Binword covers c by inserting one letter anywhere except in front of
    the first, counted without multiplicity.
"""
from __future__ import annotations

from functools import lru_cache

Composition = tuple[int, ...]
BinaryWord = str


class WordEncodingError(ValueError):
    """Raised for strings over {0,1} that encode no composition."""


def composition_to_word(c: Composition) -> BinaryWord:
    """
    Encode a composition as a {0,1}-word with a 1 in each cell that starts
    a part.

    >>> composition_to_word((3, 2, 1))
    '100101'
    >>> composition_to_word(())
    ''
    >>> composition_to_word((1, 1, 1))
    '111'
    """
    return "".join("1" + "0" * (part - 1) for part in c)


def word_to_composition(w: BinaryWord) -> Composition:
    """
    Decode a {0,1}-word; inverse of :func:`composition_to_word`.

    >>> word_to_composition("100101")
    (3, 2, 1)
    >>> word_to_composition("1010")
    (2, 2)
    """
    if w == "":
        return ()
    if any(ch not in "01" for ch in w):
        raise WordEncodingError(f"invalid letter in word {w!r}")
    if w[0] != "1":
        raise WordEncodingError(f"word {w!r} has a leading 0 and encodes no composition")
    starts = [i for i, ch in enumerate(w) if ch == "1"]
    bounds = starts + [len(w)]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


@lru_cache(maxsize=None)
def compositions_of(n: int) -> tuple[Composition, ...]:
    """
    All 2^(n-1) compositions of n, ordered by their word read as a binary
    number, from 2^(n-1) up (the order the graphs are drawn in).

    >>> compositions_of(3)
    ((3,), (2, 1), (1, 2), (1, 1, 1))
    """
    if n < 0:
        raise ValueError("rank must be >= 0")
    if n == 0:
        return ((),)
    return tuple(word_to_composition(format(w, "b")) for w in range(1 << (n - 1), 1 << n))


def increment_last(c: Composition) -> Composition:
    """Last part + 1; on the empty composition this yields (1,)."""
    return (1,) if not c else c[:-1] + (c[-1] + 1,)


@lru_cache(maxsize=None)
def lifted_covers(c: Composition) -> frozenset[Composition]:
    """
    Up-neighbours in the lifted binary tree: last part increased, and a new
    part 1 appended.  The empty composition is covered by (1,) alone.

    >>> sorted(lifted_covers((2, 1)))
    [(2, 1, 1), (2, 2)]
    >>> sorted(lifted_covers(()))
    [(1,)]
    """
    return frozenset({increment_last(c), c + (1,)})


@lru_cache(maxsize=None)
def binword_covers(c: Composition) -> frozenset[Composition]:
    """
    Up-neighbours in Binword: all compositions whose word is obtained from
    word(c) by inserting a single letter anywhere but the front.  A word
    reachable through several insertions still counts once (simple edges).

    >>> sorted(binword_covers((3,)))
    [(1, 3), (2, 2), (3, 1), (4,)]
    >>> sorted(binword_covers((1, 1)))
    [(1, 1, 1), (1, 2), (2, 1)]
    """
    if not c:
        return frozenset({(1,)})
    w = composition_to_word(c)
    words = {w[:i] + b + w[i:] for i in range(1, len(w) + 1) for b in "01"}
    return frozenset(word_to_composition(v) for v in words)


def is_lifted_cover(c: Composition, d: Composition) -> bool:
    """
    Whether d covers c in the lifted binary tree, i.e. ``d in
    lifted_covers(c)``: deleting the last letter of word(d) gives word(c).
    """
    if not d:
        return False
    if d[-1] == 1:
        return d[:-1] == c
    return len(d) == len(c) and d[-1] == c[-1] + 1 and d[:-1] == c[:-1]


def word_value(c: Composition) -> int:
    """
    word(c) read as a binary number, first letter highest; its bit length
    is the rank of c.  Appending letter a to the word makes 2 * value + a.

    >>> word_value((3, 2, 1)), word_value(())
    (37, 0)
    """
    bits = 0
    for part in c:
        bits = (bits << part) | (1 << (part - 1))
    return bits


def is_binword_value_cover(u: int, v: int) -> bool:
    """
    :func:`is_binword_cover` on the word values of the two compositions:
    word(d) must have one letter more than word(c), and deleting from
    word(d) the first letter at which its prefix departs from word(c) must
    give word(c).  (Inserting a 1 in front of a word that starts with 1
    gives the same word as inserting it second, so the excluded front
    position needs no separate test.)
    """
    prefix = v >> 1  # word(d) without its last letter
    departed = prefix ^ u  # top bit: where word(d) departs from word(c)
    mismatch = v ^ u
    # prefix and u share their top bit (word(d) is one letter longer), and
    # the lowest bit where v and u differ lies above the departure point
    return departed <= prefix & u and mismatch & -mismatch > departed


def is_binword_cover(c: Composition, d: Composition) -> bool:
    """
    Whether d covers c in Binword, i.e. ``d in binword_covers(c)``, read
    off their word values.

    >>> is_binword_cover((3,), (1, 3)), is_binword_cover((3,), (1, 2))
    (True, False)
    """
    return is_binword_value_cover(word_value(c), word_value(d))
