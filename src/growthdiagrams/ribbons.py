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
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from .permutations import Permutation, inverse, validate_permutation

Composition = tuple[int, ...]


class RibbonShapedTableau:
    """
    Common layout and checks; use the two concrete subclasses.  A tableau
    is an immutable value: its rows are stored as tuples and validated on
    construction, and two tableaux are equal when they are of the same
    kind and have the same rows.
    """

    __slots__ = ("rows",)

    #: True when the overlap column must increase downwards (quasi-ribbon).
    increases_down_columns = True

    def __init__(self, rows: Sequence[Sequence[int]]):
        object.__setattr__(self, "rows", tuple(tuple(row) for row in rows))
        self.validate()

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

    @property
    def n(self) -> int:
        return sum(len(row) for row in self.rows)

    def reading(self) -> tuple[int, ...]:
        """Labels left to right, top to bottom."""
        return tuple(v for row in self.rows for v in row)

    def column_offsets(self) -> tuple[int, ...]:
        offsets = [0]
        for row in self.rows[:-1]:
            offsets.append(offsets[-1] + len(row) - 1)
        return tuple(offsets) if self.rows else ()

    def is_standard(self) -> bool:
        return sorted(self.reading()) == list(range(1, self.n + 1))

    def validate(self) -> None:
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


def _insert_step(reading: list[int], ends: list[bool], a: int) -> int:
    """
    One hypoplactic step (the rule in the module docstring) on a tableau
    given as its increasing reading word and, cell by cell, whether a row
    ends there.  Both lists are updated in place; the return value is a's
    0-based reading position.
    """
    k = bisect_right(reading, a)
    if k and reading[k - 1] == a:
        raise ValueError(f"letter {a} already present")
    reading.insert(k, a)
    ends.insert(k, True)
    if k:
        ends[k - 1] = False
    return k


def _shape(ends: Sequence[bool]) -> Composition:
    cuts = [i for i, end in enumerate(ends, 1) if end]
    return tuple(b - a for a, b in zip([0] + cuts, cuts))


def insert_letter(t: QuasiRibbonTableau, a: int) -> tuple[QuasiRibbonTableau, int]:
    """
    Hypoplactic insertion of one letter.  Returns the new tableau and the
    1-based reading position of the cell the letter created.

    >>> t, pos = insert_letter(QuasiRibbonTableau(((1, 3), (4, 5))), 6)
    >>> t.rows, pos
    (((1, 3), (4, 5, 6)), 5)
    >>> insert_letter(QuasiRibbonTableau(((2, 3),)), 1)[0].rows
    ((1,), (2, 3))
    """
    reading = list(t.reading())
    ends = [j == len(row) - 1 for row in t.rows for j in range(len(row))]
    k = _insert_step(reading, ends, a)
    return QuasiRibbonTableau(rows_from_reading(reading, _shape(ends))), k + 1


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
        q_reading.insert(_insert_step(reading, ends, a), step)
    shape = _shape(ends)
    rank = {v: i for i, v in enumerate(sorted(word), 1)}
    p = QuasiRibbonTableau(rows_from_reading([rank[v] for v in reading], shape))
    q = RibbonTableau(rows_from_reading(q_reading, shape))
    return p, q


def rows_from_reading(reading: Sequence[int], shape: Composition) -> tuple[tuple[int, ...], ...]:
    """Cut a reading sequence into rows of the given lengths."""
    if sum(shape) != len(reading):
        raise ValueError(f"shape {shape} does not hold {len(reading)} cells")
    rows = []
    pos = 0
    for part in shape:
        rows.append(tuple(reading[pos : pos + part]))
        pos += part
    return tuple(rows)


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
    lines: list[list[int]] = []
    for v in range(1, len(p) + 1):
        if lines and inv[v - 1] > inv[v - 2]:
            lines[-1].append(v)
        else:
            lines.append([v])
    p_rows = tuple(tuple(line) for line in lines)
    q_rows = tuple(tuple(inv[v - 1] for v in line) for line in lines)
    return QuasiRibbonTableau(p_rows), RibbonTableau(q_rows)


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
