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

So a tableau is checked in one pass over its reading word and its row
ends (Krob-Thibon): a quasi-ribbon tableau is a strictly increasing
reading word cut into rows, and a ribbon tableau a word of distinct
letters that rises inside each row and falls at each row end.  Every
tableau built here is made from its reading word and row ends, checked
that way, and cut into rows only when they are asked for; the
row-by-row check runs only to explain a rejection.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain, compress, islice
from operator import gt, lt
from typing import Iterable, Sequence

from .permutations import Permutation, inverse, validate_permutation

Composition = tuple[int, ...]

_INT = frozenset((int,))


class RibbonShapedTableau:
    """
    Common layout and checks; use the two concrete subclasses.  A tableau
    is an immutable value, stored as its reading word and, for each cell
    but the last, whether a row ends there, and validated on
    construction; its rows are tuples cut from the reading word when first
    asked for.  Two tableaux are equal when they are of the same kind and
    have the same rows.
    """

    __slots__ = ("_reading", "_ends", "_rows")

    #: True when the overlap column must increase downwards (quasi-ribbon).
    increases_down_columns = True

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = tuple(tuple(row) for row in rows)
        reading = tuple(chain.from_iterable(rows))
        cuts = set(accumulate(map(len, rows)))
        object.__setattr__(self, "_reading", reading)
        object.__setattr__(self, "_ends", tuple(map(cuts.__contains__, range(1, len(reading)))))
        object.__setattr__(self, "_rows", rows)
        self.validate()

    @classmethod
    def _from_reading(cls, reading: Iterable[int], ends: Iterable[bool]):
        """
        The tableau with this reading word, where a row ends after cell i
        exactly when ends[i] is true, for each cell but the last.  The
        flags are kept for equality and hashing, so each must be a bool or
        0 or 1.  Checked like :meth:`validate`.
        """
        reading, ends = tuple(reading), tuple(ends)
        t = object.__new__(cls)
        object.__setattr__(t, "_reading", reading)
        object.__setattr__(t, "_ends", ends)
        object.__setattr__(t, "_rows", None)
        if not t._accepts(reading, ends):
            t._check_rows()
        return t

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        # rows are non-empty, so equal readings cut alike are equal rows
        if other.__class__ is self.__class__:
            return self._reading == other._reading and self._ends == other._ends
        return NotImplemented

    def __hash__(self):
        return hash((self._reading, self._ends))

    def __repr__(self):
        return f"{type(self).__name__}(rows={self.rows!r})"

    def __reduce__(self):
        return type(self), (self.rows,)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows, top to bottom, each a tuple of labels."""
        rows = self._rows
        if rows is None:
            reading = self._reading
            cuts = [*compress(range(1, len(reading)), self._ends), len(reading)] if reading else []
            rows = tuple(map(reading.__getitem__, map(slice, [0, *cuts], cuts)))
            object.__setattr__(self, "_rows", rows)
        return rows

    @property
    def shape(self) -> Composition:
        return tuple(len(row) for row in self.rows)

    @property
    def n(self) -> int:
        return len(self._reading)

    def reading(self) -> tuple[int, ...]:
        """Labels left to right, top to bottom."""
        return self._reading

    def column_offsets(self) -> tuple[int, ...]:
        offsets = [0]
        for row in self.rows[:-1]:
            offsets.append(offsets[-1] + len(row) - 1)
        return tuple(offsets) if self.rows else ()

    def is_standard(self) -> bool:
        return sorted(self.reading()) == list(range(1, self.n + 1))

    def validate(self) -> None:
        if not (all(self.rows) and self._accepts(self._reading, self._ends)):
            self._check_rows()

    def _accepts(self, reading: tuple, ends: tuple) -> bool:
        """
        Whether non-empty rows with this reading word, ending where
        ``ends`` says, form a valid tableau, in one pass of C-level calls.
        Labels must be positive ints.  A quasi-ribbon's reading word
        increases strictly; a ribbon's letters are distinct, and its
        reading word falls exactly where a row ends.  False only means
        that :meth:`_check_rows` must look.
        """
        if not _INT.issuperset(map(type, reading)):
            return False
        rest = islice(reading, 1, None)
        if self.increases_down_columns:
            return all(map(lt, reading, rest)) and (not reading or reading[0] > 0)
        n = len(reading)
        return (
            (not n or min(reading) > 0)
            and len(set(reading)) == n
            and tuple(map(gt, reading, rest)) == ends
        )

    def _check_rows(self) -> None:
        """Raise for the first fault, row by row; some rows that
        :meth:`_accepts` declines are valid (labels True or of an int
        subclass), and pass."""
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
    reading: list[int] = []
    ends: list[bool] = []
    q_reading: list[int] = []
    for step, a in enumerate(word, 1):
        # the step of the module docstring on P's reading word and, cell by
        # cell, whether a row ends there
        k = bisect_right(reading, a)
        reading.insert(k, a)
        ends.insert(k, True)
        if k:
            ends[k - 1] = False
        q_reading.insert(k, step)
    del ends[-1:]  # the last cell always ends a row
    rank = dict(zip(sorted(word), range(1, len(word) + 1)))
    p = QuasiRibbonTableau._from_reading(map(rank.__getitem__, reading), ends)
    q = RibbonTableau._from_reading(q_reading, ends)
    return p, q


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
    ends = tuple(map(gt, inv, islice(inv, 1, None)))  # v + 1 lies to the left of v
    return (
        QuasiRibbonTableau._from_reading(range(1, len(p) + 1), ends),
        RibbonTableau._from_reading(inv, ends),
    )


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
