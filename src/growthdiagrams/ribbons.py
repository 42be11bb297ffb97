"""
Quasi-ribbon and ribbon tableaux and the hypoplactic insertion.

A tableau is a ribbon-shaped filling: row i+1 physically starts in the
column of the last cell of row i, so the layout is determined by the row
lengths alone and only the labels are stored.  Rows increase strictly left
to right in both kinds; in the shared overlap column a quasi-ribbon
increases downwards and a ribbon increases upwards.

Hypoplactic insertion reads a word of distinct letters left to right.
Rows increase and the overlap column of a quasi-ribbon tableau increases
downwards, so the reading word of the insertion tableau P is always the
sorted list of the letters read so far (Krob-Thibon, Novelli), and P is
that word cut at the cells where a row ends.  To insert a, place it in
its sorted position, just after y, the last entry <= a; then a row ends
right after a and no row ends between y and a.  When a exceeds every
entry this appends a to the last row; when no entry is <= a, a becomes a
one-cell first row above the rest.  The recording tableau Q puts the step
number at the reading position a took.

So a tableau is known by its reading word and its row ends (Krob-Thibon):
a quasi-ribbon tableau is a strictly increasing reading word cut into
rows, and a ribbon tableau a word of distinct letters that rises inside
each row and falls at each row end.  The exhaustive walks compare those
two forms and build no tableau; every tableau built here is cut from
them into its rows, which are all it stores, and checked row by row.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import chain, compress, islice, permutations
from operator import gt
from typing import Iterable, Sequence

from .permutations import Permutation, inverse, validate_permutation

Composition = tuple[int, ...]


class RibbonShapedTableau:
    """
    Common layout and checks; use the two concrete subclasses.  A tableau
    is an immutable value, stored as its rows, each a tuple of labels, and
    validated on construction.  Two tableaux are equal when they are of
    the same kind and have the same rows.
    """

    __slots__ = ("rows",)

    #: True when the overlap column must increase downwards (quasi-ribbon).
    increases_down_columns = True

    def __init__(self, rows: Sequence[Sequence[int]]):
        object.__setattr__(self, "rows", tuple(tuple(row) for row in rows))
        self.validate()

    @classmethod
    def _from_reading(cls, reading: Iterable[int], ends: Iterable[bool]):
        """
        The tableau with this reading word, where a row ends after cell i
        exactly when ends[i] is true, for each cell but the last.
        """
        reading = tuple(reading)
        cuts = [*compress(range(1, len(reading)), ends), len(reading)] if reading else []
        return cls(map(reading.__getitem__, map(slice, [0, *cuts], cuts)))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"{type(self).__name__}(rows={self.rows!r})"

    def __reduce__(self):
        return type(self), (self.rows,)

    @property
    def shape(self) -> Composition:
        return tuple(len(row) for row in self.rows)

    def reading(self) -> tuple[int, ...]:
        """Labels left to right, top to bottom."""
        return tuple(chain.from_iterable(self.rows))

    def column_offsets(self) -> tuple[int, ...]:
        offsets = [0]
        for row in self.rows[:-1]:
            offsets.append(offsets[-1] + len(row) - 1)
        return tuple(offsets) if self.rows else ()

    def validate(self) -> None:
        """Raise for the first fault, row by row."""
        seen = set()
        for row in self.rows:
            if not row:
                raise ValueError("empty row in tableau")
            for v in row:
                if not isinstance(v, int) or v < 1:
                    raise ValueError(f"labels must be positive integers, got {v!r}")
                if v in seen:
                    raise ValueError(f"duplicate label {v}")
                seen.add(v)
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ValueError(f"row {row} is not strictly increasing")
        for upper, lower in zip(self.rows, self.rows[1:]):
            # shared column: last cell of the upper row sits above the
            # first cell of the lower row
            if self.increases_down_columns and not lower[0] > upper[-1]:
                raise ValueError(f"column must increase downwards: {upper[-1]} above {lower[0]}")
            if not self.increases_down_columns and not lower[0] < upper[-1]:
                raise ValueError(f"column must increase upwards: {upper[-1]} above {lower[0]}")

    def to_json_obj(self) -> dict:
        return {"shape": list(self.shape), "rows": [list(row) for row in self.rows]}


class QuasiRibbonTableau(RibbonShapedTableau):
    __slots__ = ()
    increases_down_columns = True


class RibbonTableau(RibbonShapedTableau):
    __slots__ = ()
    increases_down_columns = False


def _insertion_forms(word: Sequence[int]) -> tuple[list[int], tuple[bool, ...], list[int]]:
    """
    The hypoplactic insertion of a word of distinct letters, as the
    module docstring gives it, in the forms its tableaux are cut from:
    P's reading word, not yet relabeled, the row-end flags of P and Q,
    and Q's reading word.  Each letter takes its sorted position k in P's
    reading word, a row ends right after it and no longer right before
    it, and Q's reading word takes the step number at position k.
    """
    reading: list[int] = []
    ends: list[bool] = []  # whether a row ends after cell i; true for the last
    q_reading: list[int] = []
    for step, a in enumerate(word, 1):
        k = bisect_right(reading, a)
        reading.insert(k, a)
        ends.insert(k, True)
        if k:
            ends[k - 1] = False
        q_reading.insert(k, step)
    return reading, tuple(ends[:-1]), q_reading


def _hypoplactic_leaf(p: Permutation, p_forms: tuple, q_forms: tuple) -> bool:
    """
    Whether a (P, Q) pair, each tableau given by its reading word (a
    list) and row ends, which fix its rows, equals the hypoplactic
    insertion of the permutation p, P not relabeled, and Q is a ribbon
    tableau.  Both walks give P the reading word 1..n, and the insertion
    gives Q the steps 1..n once each, which pass the rest of both kinds'
    checks; so only Q's descents are read against its row ends.
    """
    reading, ends, q = _insertion_forms(p)
    return p_forms == (reading, ends) and q_forms == (q, ends) and tuple(map(gt, q, islice(q, 1, None))) == ends


def hypoplactic_insert(word: Sequence[int]) -> tuple[QuasiRibbonTableau, RibbonTableau]:
    """
    Insert a word of distinct letters; return the insertion tableau P,
    relabeled canonically so that its reading word is 1..n, and the
    recording tableau Q of the same shape.

    >>> p, q = hypoplactic_insert((4, 1, 5, 3, 6, 2))
    >>> p.rows
    ((1, 2), (3,), (4, 5, 6))
    >>> q.rows
    ((2, 6), (4,), (1, 3, 5))
    """
    word = tuple(word)
    if len(set(word)) != len(word):
        raise ValueError("letters must be distinct")
    for a in word:  # before any comparison, with validate's message
        if not isinstance(a, int) or a < 1:
            raise ValueError(f"labels must be positive integers, got {a!r}")
    reading, ends, q_reading = _insertion_forms(word)
    rank = dict(zip(sorted(word), range(1, len(word) + 1)))
    p = QuasiRibbonTableau._from_reading(map(rank.__getitem__, reading), ends)
    q = RibbonTableau._from_reading(q_reading, ends)
    return p, q


def _shadow_ends(inv: Sequence[int]) -> tuple[bool, ...]:
    """The row ends of the shadow-line pair of the permutation whose
    inverse is inv: a line breaks after v exactly when v + 1 lies to the
    left of v."""
    return tuple(map(gt, inv, islice(inv, 1, None)))


def shadow_lines(p: Permutation) -> tuple[QuasiRibbonTableau, RibbonTableau]:
    """
    Geometric construction of the same pair of tableaux.  Scan the rows of
    the permutation matrix bottom to top and join the mark of value v to
    the mark of v+1 whenever the latter lies strictly to the right; each
    broken line becomes one row (first line on top).  P reads the values
    on the lines, Q the positions.

    >>> p, q = shadow_lines((4, 1, 5, 3, 6, 2))
    >>> p.rows, q.rows
    (((1, 2), (3,), (4, 5, 6)), ((2, 6), (4,), (1, 3, 5)))
    """
    p = validate_permutation(p)
    inv = inverse(p)
    ends = _shadow_ends(inv)
    return (
        QuasiRibbonTableau._from_reading(range(1, len(p) + 1), ends),
        RibbonTableau._from_reading(inv, ends),
    )


def shadow_walk(n: int) -> tuple[int, list[Permutation]]:
    """
    Shadow lines against hypoplactic insertion on all n! permutations of
    size n, in lexicographic order, by the hypoplactic leaf test: the
    shadow lines' P has reading word 1..n and its Q has inverse(p), both
    cut where inverse(p) falls.  Return the number of permutations and
    those, in order, where the two differ or Q's reading word does not
    fall exactly at its row ends, for the public functions to judge.
    """
    identity = list(range(1, n + 1))
    suspects: list[Permutation] = []
    for count, p in enumerate(permutations(identity), 1):  # n! >= 1 rounds bind count
        inv = inverse(p)
        ends = _shadow_ends(inv)
        if not _hypoplactic_leaf(p, (identity, ends), (list(inv), ends)):
            suspects.append(p)
    return count, suspects


def render_tableau(t: RibbonShapedTableau) -> str:
    """ASCII picture with the ribbon offsets (row i+1 starts under the last
    cell of row i)."""
    if not t.rows:
        return "(empty)"
    width = max(len(str(v)) for row in t.rows for v in row)
    lines = []
    for offset, row in zip(t.column_offsets(), t.rows):
        cells = " ".join(f"{v:>{width}}" for v in row)
        lines.append(" " * (offset * (width + 1)) + cells)
    return "\n".join(lines)
