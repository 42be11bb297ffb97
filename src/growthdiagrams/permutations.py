"""
Permutations in one-line notation: parsing, validation, the inverse, the
permutation matrix and enumeration.

A permutation of size n is a tuple rearranging the values 1..n.  The empty
tuple is the (legal) permutation of size 0; it maps to the empty tableau,
the empty tree and the trivial growth diagram.

Every command line run loads this module, so it also holds the few names
the command line needs before it knows which modules a command runs: the
two error types that pick an exit code, the bound of the exhaustive
checks, and the names of the four graphs and of their dual pairs.  The
modules ``graphs`` and ``growth`` re-export them.
"""
from __future__ import annotations

import itertools
from typing import Iterator, Sequence

Permutation = tuple[int, ...]


class PermutationParseError(ValueError):
    """Raised when a string or word is not a rearrangement of 1..n."""


class RankGuardError(ValueError):
    """Raised when an enumeration would exceed the supported rank."""


class GrowthRuleError(RuntimeError):
    """An internal invariant of the growth rules failed.

    This cannot happen while the two graph pairs are dual; it is the
    channel through which a falsified duality would surface at runtime.
    """


# exhaustive checks over all n! permutations of each size n up to this
# bound finish within minutes; one size more takes ten times as long
MAX_N = 9

DUAL_PAIRS = {
    "compositions": ("lifted-binary-tree", "binword"),
    "trees": ("tree-lattice", "reflected-bracket-tree"),
}

GRAPH_NAMES = tuple(itertools.chain.from_iterable(DUAL_PAIRS.values()))


def validate_permutation(word: Sequence[int]) -> Permutation:
    """
    Check that word is a rearrangement of 1..n and return it as a tuple.

    >>> validate_permutation([4, 1, 5, 3, 6, 2])
    (4, 1, 5, 3, 6, 2)
    """
    word = tuple(word)
    n = len(word)
    seen = set()
    for v in word:
        if not isinstance(v, int) or v < 1 or v > n:
            raise PermutationParseError(f"value {v!r} out of range 1..{n}")
        if v in seen:
            raise PermutationParseError(f"duplicate value {v}")
        seen.add(v)
    return word


def parse_permutation(text: str) -> Permutation:
    """
    Parse a permutation from a string of ASCII digits (n <= 9) or a
    comma-separated list of ASCII-digit numbers.  The empty string parses
    to the empty permutation.

    >>> parse_permutation("415362")
    (4, 1, 5, 3, 6, 2)
    >>> parse_permutation("4,1,5,3,6,2")
    (4, 1, 5, 3, 6, 2)
    >>> parse_permutation("1")
    (1,)
    """
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        tokens = [tok.strip() for tok in text.split(",")]
        word = []
        for tok in tokens:
            if not tok:
                raise PermutationParseError("empty token in comma-separated permutation")
            # int() would also take signs, underscores and non-ASCII digits
            if not (tok.isascii() and tok.isdigit()):
                raise PermutationParseError(f"invalid token {tok!r}")
            word.append(int(tok))
    else:
        for ch in text:
            if ch not in "0123456789":
                raise PermutationParseError(f"invalid character {ch!r} (use commas for values > 9)")
        word = [int(ch) for ch in text]
    return validate_permutation(word)


def inverse(p: Permutation) -> Permutation:
    """
    The inverse permutation: inverse(p)[v-1] is the position of the value v.

    >>> inverse((4, 1, 5, 3, 6, 2))
    (2, 6, 4, 1, 3, 5)
    """
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def permutation_matrix(p: Permutation) -> frozenset[tuple[int, int]]:
    """
    Cells (column=position, row=value) of the permutation matrix, one mark
    per column and per row.
    """
    return frozenset((i + 1, v) for i, v in enumerate(p))


def all_permutations(n: int) -> Iterator[Permutation]:
    """All permutations of 1..n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))
