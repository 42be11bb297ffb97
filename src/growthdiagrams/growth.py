"""
The growth diagram of a permutation: its fill, written once for both
dual graded graph pairs, and the :class:`GrowthGrid` it makes, with the
grid's writers and the conversion of its boundary labels to (P, Q).

A square of the diagram has corners t (bottom left), x (top left), y
(bottom right) and z (top right), plus a bit alpha that is 1 exactly on
the marked squares of the permutation matrix.  Vertical edges (t-x, y-z)
live in the lifted binary tree / reflected bracket tree; horizontal edges
(t-y, x-z) in Binword / the lattice of binary trees.  The local rule
computes z from (t, x, y, alpha):

  (a) t = x = y, alpha = 1: grow t in the one way common to both graphs
      that a marked square demands (last part + 1; right child of the
      rightmost node);
  (b) t = x = y, alpha = 0: z = t;
  (c) x = t != y: z = y;   (d) y = t != x: z = x;
  (e) x = y != t: take the other common cover of x (append a part 1; push
      the rightmost node down-left under a new node);
  (f) x != y: z is the unique common upper neighbour, given in closed
      form.  On compositions, x appended one letter to the word of t, and z
      is y with that letter appended: y + (1,) when x = t + (1,), else y
      with its last part + 1.  On trees, x inserted a new rightmost node at
      right-spine depth k = right_spine_length(x) - 1, and z is y with a
      new rightmost node inserted at the same depth k, taking the displaced
      right-spine suffix as its left subtree.  The completion is unique
      because the graphs are dual with r=1: for x != y, the number of z
      covering both equals the number of vertices both cover, and that is
      one, since t is the only down-neighbour of x in the vertical graph.

The same rule runs on edge labels, which say how an edge's upper vertex
grows from its lower one (Fomin states the local rules on edges):

  * a lifted-binary-tree edge: the letter a appended to the word, 0 or 1;
  * a Binword edge: h = 2q + b, for the letter b inserted at the first
    position q where the longer word departs from the shorter;
  * a reflected-bracket edge: the right-spine depth k of the new
    rightmost node;
  * a lattice edge: the 0-based in-order slot s of the new leaf.

A degenerate edge, whose ends are equal, has no label.  In cases (b)-(d)
the labels pass up or across unchanged, and so they do in case (f) of
both families and case (e) of trees.  Case (e) of compositions is the
square where h = 2(rank(t) + 1) + a; it gives letter 1 and
h = 2(rank(t) + 2) + 1.  A marked square gives letter 0 and
h = 2(rank(t) + 1), or letter 1 and h = 3 when t is empty, on
compositions, and (k, s) = (spine(t), rank(t)) on trees.  So the only
per-vertex state is the rank, plus the right-spine length for trees, and
a square costs O(1).

What the fill carries, and where each check lives:

  * The label fill checks that each label it makes fits the vertex it
    applies to (a letter 0 needs a non-empty word, q and k and s must
    exist), so a broken rule raises GrowthRuleError.  It keeps O(n)
    state; :func:`build_growth_diagram` runs it once, for the labels of
    the boundary that :meth:`GrowthGrid.pair` converts to (P, Q).
  * The text fill, :meth:`GrowthGrid.rows`, runs the label fill again and
    makes row i of vertex texts from row i - 1 as the labels of row i
    come: next to each vertex it carries its printed text and O(1)
    state (a tree's right-spine offsets and the offset of the leaf that
    its horizontal in-edge added; a composition's word value).  Every
    grown vertex z is checked to cover the vertex x to its left on that
    state: a tree's text must be x's with one "-" made "(-,-)", a
    composition's word value must be a Binword cover of x's, so a broken
    cover raises where a reader makes its row.  A writer keeps only the
    row below the one it makes, so the JSON of a grid streams in
    O(n * rank) memory.
  * The vertices themselves are rebuilt by the local rules of
    :mod:`growthdiagrams.growthcheck` when :attr:`GrowthGrid.vertices` is
    read, which no command does; ``growth_insert`` and
    ``equivalence_walk`` also run in verification only.

The fill and the checks are written once.  Everything in which the two
families differ is one :class:`DualPair` record, ``PAIR`` in the module
``compositiongrowth`` or ``treegrowth``, which :func:`_pair` loads on
the family's first use; for the checks, it also holds the direct
insertion that the family's diagrams reproduce and the leaf test of
``equivalence_walk``.  So a fill compiles its own family's code only:
with bytecode writing off (``PYTHONDONTWRITEBYTECODE``) each command
compiles every module it loads from source.
"""
from __future__ import annotations

from itertools import accumulate
from operator import itemgetter
from typing import Callable, Iterator, Literal, NamedTuple

from .permutations import GrowthRuleError, Permutation, inverse, permutation_matrix, validate_permutation

Family = Literal["composition", "tree"]


class DualPair(NamedTuple):
    """Everything in which the growth diagrams of the two families differ.
    Labels are (a, h) or (k, s); rank and spine are those of a square's t."""

    mark: Callable  # (rank, spine) -> the labels of a marked square
    join: Callable  # (a, h, rank) -> the labels of cases (e) and (f)
    fits: Callable  # (a, h, rank, spine) -> whether the labels exist
    spined: bool  # whether mark and fits read the right-spine length
    # what the text fill carries next to the rank-0 vertex: its text, then
    # the state the family grows and checks a vertex from
    start: tuple
    # (what is carried of row i - 1, one list per item of start; the mark's
    # column c, the vertical and the horizontal labels of row i) -> the
    # same of row i, each grown vertex checked to cover the one to its left
    step: Callable
    json_cells: Callable  # (a row's texts, their depth) -> its cells' JSON, comma-separated
    p_from_labels: Callable  # the right column's vertical labels -> P
    q_from_labels: Callable  # the top row's horizontal labels -> Q
    direct: Callable  # p -> the (P, Q) of the insertion that the diagrams reproduce
    # (this record, p, the right column's and the top row's labels) -> whether they
    leaf: Callable  # convert to direct(p), and a hypoplactic Q is a ribbon tableau


class GrowthGrid(NamedTuple):
    """
    The growth diagram of a permutation, as the (n+1) x (n+1) array of
    graph vertices over its permutation matrix: row i at height i (0 =
    bottom), offset j (0 = left) within a row.  marks hold the (column,
    row) cells of the permutation.  labels hold the labels of the vertical
    edges up the right boundary and of the horizontal edges along the top
    one, as the fill made them.  The rows are made again each time they
    are read, by :meth:`rows`.
    """

    n: int
    family: str
    marks: frozenset[tuple[int, int]]
    labels: tuple[tuple, tuple]

    def pair(self):
        """The (P, Q) pair of the boundary: the fill's labels converted as
        ``growthcheck.growth_insert`` converts them."""
        dual = _pair(self.family)
        return dual.p_from_labels(self.labels[0]), dual.q_from_labels(self.labels[1])

    def rows(self) -> Iterator[list[str]]:
        """
        The text of each vertex, a row at a time, bottom row first: a
        tree's "-" or "(L,R)", a composition's parts joined by commas or
        "e".  Each row is made from the one below as the label fill makes
        its labels, and only those two are held; a grown vertex that does
        not cover the vertex to its left raises GrowthRuleError when its
        row is made.
        """
        dual = _pair(self.family)
        carried = tuple([value] * (self.n + 1) for value in dual.start)
        yield carried[0]
        columns = [col for col, _ in sorted(self.marks, key=itemgetter(1))]
        for c, vertical, horizontal in _label_rows(columns, dual):
            carried = dual.step(carried, c, vertical, horizontal)
            yield carried[0]

    @property
    def vertices(self) -> tuple[tuple, ...]:
        """The vertices themselves, in the rows of :meth:`rows`, rebuilt
        square by square by the local rules each time this is read; no
        command reads them."""
        from .growthcheck import local_rule_grid
        return local_rule_grid(self.n, self.family, self.marks)

    def lines(self, labels: list[list[str]]) -> Iterator[str]:
        """
        The ASCII grid, top row first, a line at a time, from each
        vertex's label in ``labels`` (rows as :meth:`rows` makes them):
        each row of labels, each padded to its column's width, and under
        each row but the bottom one the "x" of its mark, between the two
        columns the mark lies between.  Columns are 2 spaces apart, and a
        permutation marks every gap once, so a label and the gap after it
        take its column's width plus 5; one pass over the labels finds
        the widths.
        """
        widths = [max(map(len, column)) for column in zip(*labels)]
        pads = [width + 5 for width in widths[:-1]] + [0]
        starts = [0, *accumulate(pads)]  # where each column's label starts
        columns = {row: col for col, row in self.marks}
        for i in range(self.n, -1, -1):
            yield "".join(map(str.ljust, labels[i], pads)) + "\n"
            if i:
                col = columns[i] - 1
                yield " " * (starts[col] + widths[col] + 2) + "x\n"

    def json_parts(self, depth: int) -> Iterator[str]:
        """
        The ``json.dumps(indent=2)`` text of the vertices, a list of rows
        of the cells that the family's ``json_cells`` writes, as a value
        at ``depth``, in the parts that ``jsontext.iterdumps`` writes:
        bottom row first, each row in one part as :meth:`rows` makes it,
        so only that row's text is held.
        """
        json_cells = _pair(self.family).json_cells
        row_break = "\n" + "  " * (depth + 1)
        cell_break = row_break + "  "
        sep = "["
        for texts in self.rows():
            yield f"{sep}{row_break}[{cell_break}{json_cells(texts, depth + 2)}{row_break}]"
            sep = ","
        yield "\n" + "  " * depth + "]"


# -- edge labels ---------------------------------------------------------------
#
# A label says how an edge's upper vertex grows from its lower one; None
# marks a degenerate edge whose ends are equal.  A family's ``join`` takes
# the labels of t -> x and t -> y (cases (e) and (f)), and its ``mark``
# the state of t (a marked square); each returns those of y -> z, x -> z.

def _label_row(dual: DualPair, c: int, i: int, below: list, spines: list[int]):
    """
    Row i of the fill on edge labels, with its mark in column c, from the
    horizontal labels ``below`` and right-spine lengths ``spines`` of row
    i - 1.  Return the labels of the vertical edges from row i - 1 up to
    row i, those of the horizontal edges within row i, and the right-spine
    lengths of row i (``spines`` itself unless the family is spined);
    entry j of a label list is the edge into column j, and entry 0 is None.
    """
    mark, join, fits = dual.mark, dual.join, dual.fits
    n = len(below) - 1
    # x = t left of the mark: z = y, and horizontal labels pass up
    row = below[:]
    vertical = [None] * (n + 1)
    rank = c - 1 - below[1:c].count(None)  # rank(t) = marks below and left
    a, h = mark(rank, spines[c - 1])
    if not fits(a, h, rank, spines[c - 1]):
        raise GrowthRuleError(f"labels ({a!r}, {h!r}) do not fit square ({c}, {i})")
    vertical[c], row[c] = a, h
    # square c + 1 has the same rank(t): the mark of column c is in row i
    for j in range(c + 1, n + 1):
        h = below[j]
        if h is not None:  # otherwise case (d): z = x, and a passes up
            a, h = join(a, h, rank)
            rank += 1  # now rank(x) = rank(y)
            if not fits(a, h, rank, spines[j]):
                raise GrowthRuleError(f"labels ({a!r}, {h!r}) do not fit square ({j}, {i})")
            row[j] = h
        vertical[j] = a
    if dual.spined:
        spines = spines[:c] + [k + 1 for k in vertical[c:]]
    return vertical, row, spines


def _label_rows(columns: list[int], dual: DualPair):
    """
    Fill the diagram on edge labels, row by row, for the permutation whose
    mark in row i is in column columns[i - 1], the inverse of p.  Yield,
    for each height i = 1..n, the column c of the mark in row i, the
    labels of the vertical edges from row i - 1 up to row i, and those of
    the horizontal edges within row i, as :func:`_label_row` gives them.
    """
    n = len(columns)
    row, spines = [None] * (n + 1), [0] * (n + 1)
    for i, c in enumerate(columns, 1):
        vertical, row, spines = _label_row(dual, c, i, row, spines)
        yield c, vertical, row


def build_growth_diagram(p: Permutation, family: Family) -> GrowthGrid:
    """
    Fill the growth diagram of a permutation on edge labels.  The
    boundaries are empty and alpha=1 exactly at the cells of the
    permutation matrix.  The grid keeps the labels of the right and top
    boundaries; its texts are made, and each grown vertex checked, when
    :meth:`GrowthGrid.rows` is read.
    """
    p = validate_permutation(p)
    dual = _pair(family)
    right = []  # vertical labels of column n, bottom to top
    horizontal = [None]  # horizontal labels of the last row filled
    for _, vertical, horizontal in _label_rows(inverse(p), dual):
        right.append(vertical[-1])
    return GrowthGrid(len(p), family, permutation_matrix(p), (tuple(right), tuple(horizontal[1:])))


def _pair(family: Family) -> DualPair:
    """The record of a family, from its module, which loads on first use."""
    if family not in ("composition", "tree"):
        raise ValueError(f"unknown family {family!r}")
    return __import__(f"{__package__}.{family}growth", fromlist=["PAIR"]).PAIR
