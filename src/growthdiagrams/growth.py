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

Where each check lives:

  * The label fill checks that each label it makes fits the vertex it
    applies to (a letter 0 needs a non-empty word, q and k and s must
    exist), so a broken rule raises GrowthRuleError.
  * :func:`build_growth_diagram` builds each vertex z from the vertex y
    below it and the label of y -> z, and checks that z covers x: a tree
    on its vertices, a composition on the word values the fill carries
    next to them, value(z) = 2 value(y) + a for the letter a of y -> z.
  * :meth:`GrowthGrid.pair` converts the labels that the fill keeps, the
    one route from a grid to its pair; the tests read the labels back off
    the grid's boundary vertices and check that they agree.
  * The local rules on vertices, ``growth_insert`` and ``equivalence_walk``
    run in verification only, from :mod:`growthdiagrams.growthcheck`.

The fill and the checks are written once.  Everything in which the two
families differ is one :class:`DualPair` record, ``PAIR`` in the module
``compositiongrowth`` or ``treegrowth``, which :func:`_pair` loads on
the family's first use.  So a fill compiles its own family's code only:
with bytecode writing off (``PYTHONDONTWRITEBYTECODE``) each command
compiles every module it loads from source.
"""
from __future__ import annotations

from functools import cache, partial
from itertools import accumulate
from typing import Callable, Iterator, Literal, NamedTuple, Optional

from .permutations import GrowthRuleError, Permutation, inverse, permutation_matrix, validate_permutation

Family = Literal["composition", "tree"]


class DualPair(NamedTuple):
    """Everything in which the growth diagrams of the two families differ.
    Labels are (a, h) or (k, s); rank and spine are those of a square's t."""

    empty: object  # the rank-0 vertex
    mark: Callable  # (rank, spine) -> the labels of a marked square
    join: Callable  # (a, h, rank) -> the labels of cases (e) and (f)
    fits: Callable  # (a, h, rank, spine) -> whether the labels exist
    spined: bool  # whether mark and fits read the right-spine length
    grow: Callable  # (y, vertical label of y -> z) -> z
    # what the fill carries next to each vertex: that of the rank-0 vertex,
    # and (that of y, vertical label of y -> z) -> that of z
    carried: object
    carry: Callable
    # (x, z, what is carried of x, of z) -> whether z covers x
    is_horizontal_cover: Callable
    # what is carried of a vertex -> its text; None for a family whose
    # vertex text the fill does not make
    text: Optional[Callable]
    p_from_labels: Callable  # the right column's vertical labels -> P
    q_from_labels: Callable  # the top row's horizontal labels -> Q


class GrowthGrid(NamedTuple):
    """
    The (n+1) x (n+1) array of graph vertices over a permutation matrix.
    vertices[i][j] is the corner at height i (0 = bottom) and offset j
    (0 = left); marks hold the (column, row) cells of the permutation.
    texts holds each vertex's text in the same rows in a tree grid, and is
    None in a composition grid, whose vertex texts the fill does not make.
    labels holds the labels of the vertical edges up the right boundary
    and of the horizontal edges along the top one, as the fill made them.
    """

    n: int
    family: str
    vertices: tuple[tuple, ...]
    marks: frozenset[tuple[int, int]]
    texts: Optional[tuple[tuple[str, ...], ...]]
    labels: tuple[tuple, tuple]

    def cells(self) -> list[list]:
        """Each vertex's text, bottom row first: a tree's from the fill, a
        composition's print name, made once per distinct vertex."""
        if self.texts is not None:
            return list(map(list, self.texts))
        from .compositions import composition_label
        form = cache(composition_label)
        return [list(map(form, row)) for row in self.vertices]

    def pair(self):
        """The (P, Q) pair of the boundary: the fill's labels converted as
        ``growthcheck.growth_insert`` converts them."""
        dual = _pair(self.family)
        return dual.p_from_labels(self.labels[0]), dual.q_from_labels(self.labels[1])

    def lines(self, labels: list[list[str]]) -> Iterator[str]:
        """
        The ASCII grid, top row first, a line at a time, from each
        vertex's label in ``labels`` (rows as in :meth:`cells`): each row
        of labels, each padded to its column's width, and under each row
        but the bottom one the "x" of its mark, between the two columns
        the mark lies between.  Columns are 2 spaces apart, and a
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
        whose cells are a tree's text or a composition's list of parts, as
        a value at ``depth``, in the parts that ``jsontext.iterdumps``
        writes: bottom row first, each row joined in one part.  A tree row
        is joined from its vertices' texts, which hold only "(", ")", ","
        and "-" and so need no escaping; a composition row from one text
        per distinct vertex, made once.
        """
        from .jsontext import _flat_list

        row_break = "\n" + "  " * (depth + 1)
        cell_break = row_break + "  "
        if self.texts is not None:
            quoted = '",' + cell_break + '"'
            rows = ('"' + quoted.join(texts) + '"' for texts in self.texts)
        else:
            cell = cache(partial(_flat_list, depth=depth + 2, strings=None))
            comma = "," + cell_break
            rows = (comma.join(map(cell, row)) for row in self.vertices)
        sep = "["
        for row in rows:
            yield f"{sep}{row_break}[{cell_break}{row}{row_break}]"
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


def _label_rows(p: Permutation, dual: DualPair):
    """
    Fill the diagram of a valid permutation on edge labels, row by row.
    Yield, for each height i = 1..n, the column c of the mark in row i,
    the labels of the vertical edges from row i - 1 up to row i, and those
    of the horizontal edges within row i, as :func:`_label_row` gives them.
    """
    n = len(p)
    row, spines = [None] * (n + 1), [0] * (n + 1)
    for i, c in enumerate(inverse(p), 1):
        vertical, row, spines = _label_row(dual, c, i, row, spines)
        yield c, vertical, row


def build_growth_diagram(p: Permutation, family: Family) -> GrowthGrid:
    """
    Fill the growth diagram of a permutation.  The boundaries are empty
    and alpha=1 exactly at the cells of the permutation matrix.  The fill
    runs on edge labels; each vertex z is then built from the vertex y
    below it and the label of y -> z, or is x or y itself when an edge
    into it is degenerate.  What the family carries next to z (a tree's
    text, a composition's word value) is made from y's in the same step,
    and every vertex built is checked to cover x.  The grid keeps the
    tree texts and the labels of its right and top boundaries.
    """
    p = validate_permutation(p)
    dual = _pair(family)
    grow, carry, is_horizontal_cover, text = dual.grow, dual.carry, dual.is_horizontal_cover, dual.text
    n = len(p)
    row = [dual.empty] * (n + 1)
    rows = [tuple(row)]
    carried = [dual.carried] * (n + 1)
    text_rows = [tuple(map(text, carried))] if text else None
    right = []  # vertical labels of column n, bottom to top
    horizontal = [None]  # horizontal labels of the last row filled
    for c, vertical, horizontal in _label_rows(p, dual):
        right.append(vertical[-1])
        # left of the mark, case (b) or (c): z = y
        below, row = row, row[:]
        carried_below, carried = carried, carried[:]
        for j in range(c, n + 1):
            if horizontal[j] is None:  # case (d): z = x
                row[j], carried[j] = row[j - 1], carried[j - 1]
                continue
            a = vertical[j]
            z, w = grow(below[j], a), carry(carried_below[j], a)
            if not is_horizontal_cover(row[j - 1], z, carried[j - 1], w):
                raise GrowthRuleError(f"z={z!r} does not cover x={row[j - 1]!r}")
            row[j], carried[j] = z, w
        rows.append(tuple(row))
        if text:
            text_rows.append(tuple(map(text, carried)))
    return GrowthGrid(
        n=n,
        family=family,
        vertices=tuple(rows),
        marks=permutation_matrix(p),
        texts=text_rows and tuple(text_rows),
        labels=(tuple(right), tuple(horizontal[1:])),
    )


def _pair(family: Family) -> DualPair:
    """The record of a family, from its module, which loads on first use."""
    if family not in ("composition", "tree"):
        raise ValueError(f"unknown family {family!r}")
    return __import__(f"{__package__}.{family}growth", fromlist=["PAIR"]).PAIR
