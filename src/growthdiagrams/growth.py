"""
Local growth rules for both dual graded graph pairs, growth-diagram
construction over a permutation matrix, and the conversions from its
boundary labels to the (P, Q) pair.

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

  * ``local_rule_*`` check their input squares (the given edges must be
    covers) and their output (z must cover x and y).  They are the
    reference the label rule is tested against: the tests replay every
    square of a grid through them.
  * The label fill checks that each label it makes fits the vertex it
    applies to (a letter 0 needs a non-empty word, q and k and s must
    exist), so a broken rule raises GrowthRuleError.
  * :func:`build_growth_diagram` builds each vertex z from the vertex y
    below it and the label of y -> z, and checks that z covers x: a tree
    on its vertices, a composition on the word values the fill carries
    next to them, value(z) = 2 value(y) + a for the letter a of y -> z.
  * :func:`growth_insert` builds no vertex: it converts the labels of the
    two boundary chains straight into (P, Q).  :meth:`GrowthGrid.pair`
    converts the labels that :func:`build_growth_diagram` keeps in the
    same way, so the labels are the one route from a grid to its pair.
    The tests read the labels back off the grid's boundary vertices and
    check that they agree.
  * :func:`equivalence_walk` runs the same row step, checks included, on
    the prefixes of inverse(p) of all permutations of one size.

Both output formats print a tree vertex as its text, "-" for the empty
tree and "(L,R)" for a node, and :func:`build_growth_diagram` carries
that text next to the vertex, made in the step that builds it.  A grown
z is ``insert_rightmost(y, k)``, so its text is y's text with one splice at
the spine node of depth k, whose offset y's text carries along
(:func:`~growthdiagrams.trees.insert_rightmost_text`); a z that is x or
y takes that vertex's text.  By induction from "-" each text equals
``trees_to_text`` of its vertex, at the cost of one string copy per grown
vertex instead of a walk over every node of every vertex.  Composition
vertices are printed from their parts.

The fill, the checks and the conversions are written once.  Everything in
which the two families differ is one :class:`DualPair` record in
``PAIRS``, and an unknown family is rejected by the one lookup of it.
"""
from __future__ import annotations

from functools import cache, partial
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Iterator, Literal, NamedTuple, Optional

from .compositions import (
    Composition,
    increment_last,
    is_binword_cover,
    is_binword_value_cover,
    is_lifted_cover,
)
from .permutations import GrowthRuleError, Permutation, inverse, permutation_matrix, validate_permutation
from .ribbons import QuasiRibbonTableau, RibbonTableau, _insertion_forms
from .trees import (
    LabeledTree,
    Tree,
    bst_insert,
    insert_rightmost,
    insert_rightmost_text,
    is_lattice_cover,
    is_reflected_bracket_cover,
    labeled_tree,
    right_spine_length,
)

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
    # (this record, size n) -> a test of (p, the labels of the two above)
    # for a permutation p of size n: whether their (P, Q) equals the direct
    # insertion of p, in the forms equality reads
    agrees: Callable


def _check_square_input(t, x, y, alpha, is_vertical_cover, is_horizontal_cover):
    if alpha not in (0, 1):
        raise ValueError(f"alpha must be 0 or 1, got {alpha!r}")
    if alpha == 1 and not (t == x == y):
        raise ValueError("alpha=1 requires t = x = y")
    if x != t and not is_vertical_cover(t, x):
        raise ValueError(f"{x!r} is not a vertical cover of {t!r}")
    if y != t and not is_horizontal_cover(t, y):
        raise ValueError(f"{y!r} is not a horizontal cover of {t!r}")


def _join_composition(t: Composition, x: Composition, y: Composition) -> Composition:
    """Case (f): y with the last word letter of x appended."""
    return y + (1,) if len(x) > len(t) else increment_last(y)


def _join_tree(t: Tree, x: Tree, y: Tree) -> Tree:
    """Case (f): y with a new rightmost node where x has its own."""
    return insert_rightmost(y, right_spine_length(x) - 1)


def local_rule_composition(t: Composition, x: Composition, y: Composition, alpha: int) -> Composition:
    """
    Square completion on compositions; x covers t in the lifted binary
    tree, y covers t in Binword, z covers y and x respectively.

    >>> local_rule_composition((2, 2), (2, 3), (2, 1, 2), 0)
    (2, 1, 3)
    >>> local_rule_composition((2, 2), (2, 2), (2, 2), 1)
    (2, 3)
    """
    _check_square_input(t, x, y, alpha, is_lifted_cover, is_binword_cover)
    if alpha == 1:
        z = increment_last(t)
    elif x == t and y == t:
        return t
    elif x == t:
        return y
    elif y == t:
        return x
    elif x == y:
        z = x + (1,)
    else:
        z = _join_composition(t, x, y)
    if not (is_binword_cover(x, z) and is_lifted_cover(y, z)):
        raise GrowthRuleError(f"z={z!r} does not cover x={x!r} and y={y!r}")
    return z


def local_rule_tree(t: Tree, x: Tree, y: Tree, alpha: int) -> Tree:
    """
    Square completion on binary trees; x covers t in the reflected bracket
    tree, y covers t in the lattice of binary trees.

    >>> local_rule_tree(None, None, None, 1)
    (None, None)
    """
    _check_square_input(t, x, y, alpha, is_reflected_bracket_cover, is_lattice_cover)
    if alpha == 1:
        z = insert_rightmost(t, right_spine_length(t))
    elif x == t and y == t:
        return t
    elif x == t:
        return y
    elif y == t:
        return x
    elif x == y:
        z = insert_rightmost(y, right_spine_length(y) - 1)
    else:
        z = _join_tree(t, x, y)
    if not (is_lattice_cover(x, z) and is_reflected_bracket_cover(y, z)):
        raise GrowthRuleError(f"z={z!r} does not cover x={x!r} and y={y!r}")
    return z


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

    def cells(self, form: Callable) -> list[list]:
        """Each vertex's text, bottom row first, or, in a composition
        grid, ``form`` of it, each distinct vertex rendered once."""
        if self.texts is not None:
            return list(map(list, self.texts))
        form = cache(form)
        return [list(map(form, row)) for row in self.vertices]

    def pair(self):
        """The (P, Q) pair of the boundary: the fill's labels converted as
        :func:`growth_insert` converts them."""
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
# marks a degenerate edge whose ends are equal.  Each rule below takes the
# labels of t -> x and t -> y (cases (e) and (f)) or the state of t (a
# marked square) and returns the labels of y -> z and x -> z.

def _mark_labels_composition(rank: int, spine: int) -> tuple[int, int]:
    """Case (a): the last part of t grows, or t = () becomes (1,)."""
    return (0, 2 * rank + 2) if rank else (1, 3)


def _join_labels_composition(a: int, h: int, rank: int) -> tuple[int, int]:
    """Cases (e) and (f); rank is rank(t)."""
    if h == 2 * rank + 2 + a:  # y inserted x's letter at the end, so x = y
        return 1, 2 * rank + 5
    return a, h


def _labels_fit_composition(a: int, h: int, rank: int, spine: int) -> bool:
    """Whether letter a can be appended to, and (q, b) = divmod(h, 2)
    inserted into, a composition of this rank."""
    return (a == 1 or a == 0 < rank) and (h == 3 if rank == 0 else 4 <= h <= 2 * rank + 3)


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


# -- conversions from labels ---------------------------------------------------

def _quasi_ribbon_forms(letters) -> tuple[list[int], tuple[int, ...]]:
    """Cell k opens a new row for letter 1 and ends the last row for 0;
    the first letter is always 1.  The reading word and row-end flags."""
    return list(range(1, len(letters) + 1)), tuple(letters[1:])


def _quasi_ribbon_from_letters(letters) -> QuasiRibbonTableau:
    return QuasiRibbonTableau._from_reading(*_quasi_ribbon_forms(letters))


def _ribbon_forms(labels) -> tuple[list[int], tuple[int, ...]]:
    """
    Step k inserts letter b at position q of the word, h = 2q + b, and
    puts k into the reading order: for a 0 at q - 1, the end of the run of
    0s it joins; for a 1 in front of the cell where its run of 1s starts
    (past the first cell), shifting that suffix down.  A row ends before
    each cell whose letter is 1.  The reading word and row-end flags.
    """
    word = bytearray()  # letters 0 and 1
    reading: list[int] = []
    for k, h in enumerate(labels, 1):
        q, b = divmod(h, 2)
        word.insert(q - 1, b)
        if b:
            start = word.rfind(0, 0, q - 1) + 1  # 0-based start of the run
            reading.insert(max(start, 1) - 1, k)
        else:
            reading.insert(q - 1, k)
    return reading, tuple(word[1:])


def _ribbon_from_labels(labels) -> RibbonTableau:
    return RibbonTableau._from_reading(*_ribbon_forms(labels))


def _bst_from_depths(depths) -> LabeledTree:
    """Node i becomes the rightmost node at right-spine depth depths[i-1],
    taking the spine suffix it displaces as its left subtree.  A displaced
    suffix is final, so its nodes are built then, deepest first."""
    spine: list[int] = []  # node labels, root first
    lefts: list[LabeledTree] = [None] * (len(depths) + 1)  # each node's left subtree
    for i, k in enumerate(depths, 1):
        t = None
        for v in reversed(spine[k:]):
            t = (v, lefts[v], t)
        lefts[i] = t
        del spine[k:]
        spine.append(i)
    t = None
    for v in reversed(spine):
        t = (v, lefts[v], t)
    return t


def _increasing_tree_from_slots(slots) -> LabeledTree:
    """Node k hangs as a leaf in empty slot slots[k-1], counted in order.
    Between two nodes adjacent in order, the slot is the right child of
    the first when that is empty, and else the left child of the second."""
    n = len(slots)
    left = [0] * (n + 1)
    right = left[:]
    inorder: list[int] = []
    for k, s in enumerate(slots, 1):
        if s and not right[inorder[s - 1]]:
            right[inorder[s - 1]] = k
        elif inorder:
            left[inorder[s]] = k
        inorder.insert(s, k)
    # every node hangs below the smaller ones, so n, ..., 1 is a postorder
    return labeled_tree(range(n, 0, -1), left, right, range(n + 1))


def growth_insert(p: Permutation, family: Family):
    """
    Fill the growth diagram of p on edge labels and convert the labels of
    its two boundary chains; no vertex is built.  The result equals the
    direct insertion of the family: hypoplactic insertion for
    compositions, left-to-right binary search tree insertion for trees.

    >>> p_tab, q_tab = growth_insert((4, 1, 5, 3, 6, 2), "composition")
    >>> p_tab.rows, q_tab.rows
    (((1, 2), (3,), (4, 5, 6)), ((2, 6), (4,), (1, 3, 5)))
    """
    p = validate_permutation(p)
    dual = _pair(family)
    right = []  # vertical labels of column n, bottom to top
    top = [None]  # horizontal labels of the last row filled
    for _, vertical, top in _label_rows(p, dual):
        right.append(vertical[-1])
    return dual.p_from_labels(right), dual.q_from_labels(top[1:])


def _hypoplactic_agrees(dual: DualPair, n: int) -> Callable:
    """
    A test of whether the tableaux that the labels encode equal the
    hypoplactic insertion of a permutation p of size n, whose P needs no
    relabeling, and pass the checks of their kinds.  A quasi-ribbon
    tableau's check reads its reading word alone, which is 1..n wherever
    the two P agree, so it runs once per size, as in ``shadow_walk``.
    """
    p_accepted = QuasiRibbonTableau._accepts(list(range(1, n + 1)), ())

    def agrees(p: Permutation, letters, labels) -> bool:
        p_reading, p_ends = _quasi_ribbon_forms(letters)
        q_reading, q_ends = _ribbon_forms(labels)
        reading, ends, direct_q = _insertion_forms(p)
        return (
            p_accepted and p_reading == reading and p_ends == ends and q_reading == direct_q
            and q_ends == ends and RibbonTableau._accepts(direct_q, ends)
        )

    return agrees


def _bst_agrees(dual: DualPair, n: int) -> Callable:
    """A test of whether the trees that the labels encode equal the
    left-to-right BST insertion of p, as the nested tuples they are."""
    return lambda p, depths, slots: (dual.p_from_labels(depths), dual.q_from_labels(slots)) == bst_insert(p)


def equivalence_walk(n: int, family: Family) -> tuple[int, list[Permutation]]:
    """
    The growth diagram against the direct insertion of the family on all
    n! permutations of size n at once.  Row i of the label fill depends
    only on the first i entries of inverse(p), the columns of the marks
    in rows 1..i (Fomin 1995), so a depth-first walk over those prefixes
    fills each row once per prefix.  At a leaf, the labels of the right
    column and of the top row are compared with the direct insertion of
    p = inverse(path) by the family's ``agrees`` test for size n.  Return
    the number of permutations and those where the two differ or a check
    declines, for the public functions to judge; they come in the order
    of inverse(p), not of p.
    """
    dual = _pair(family)
    agrees = dual.agrees(dual, n)
    count = 0
    suspects: list[Permutation] = []

    def visit(path: Permutation, free: list[int], below: list, spines: list[int], right: list) -> None:
        nonlocal count
        if not free:
            count += 1
            p = inverse(path)
            if not agrees(p, right, below[1:]):
                suspects.append(p)
            return
        i = len(path) + 1
        for k, c in enumerate(free):
            vertical, row, row_spines = _label_row(dual, c, i, below, spines)
            visit(path + (c,), free[:k] + free[k + 1 :], row, row_spines, right + [vertical[-1]])

    visit((), list(range(1, n + 1)), [None] * (n + 1), [0] * (n + 1), [])
    return count, suspects


# -- the two dual pairs ---------------------------------------------------------

PAIRS = {
    "composition": DualPair(
        empty=(),
        mark=_mark_labels_composition, join=_join_labels_composition,
        fits=_labels_fit_composition, spined=False,
        grow=lambda c, a: c + (1,) if a else increment_last(c),
        # each vertex's word value, which grows as its word does
        carried=0, carry=lambda value, a: value << 1 | a,
        is_horizontal_cover=lambda x, z, u, v: is_binword_value_cover(u, v), text=None,
        p_from_labels=_quasi_ribbon_from_letters, q_from_labels=_ribbon_from_labels,
        agrees=_hypoplactic_agrees,
    ),
    "tree": DualPair(
        empty=None,
        # case (a): a new node below the rightmost one, in the last slot;
        # cases (e) and (f) pass both labels on; spine depth k and in-order
        # slot s must exist in t
        mark=lambda rank, spine: (spine, rank), join=lambda k, s, rank: (k, s),
        fits=lambda k, s, rank, spine: 0 <= k <= spine and 0 <= s <= rank, spined=True,
        grow=insert_rightmost,
        # each vertex's text, and the offsets of its right-spine nodes
        carried=("-", ()), carry=insert_rightmost_text,
        is_horizontal_cover=lambda x, z, u, v: is_lattice_cover(x, z), text=itemgetter(0),
        p_from_labels=_bst_from_depths, q_from_labels=_increasing_tree_from_slots,
        agrees=_bst_agrees,
    ),
}

FAMILIES = tuple(PAIRS)


def _pair(family: Family) -> DualPair:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return PAIRS[family]
