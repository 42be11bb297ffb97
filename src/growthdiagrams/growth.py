"""
Local growth rules for both dual graded graph pairs, growth-diagram
construction over a permutation matrix, and the conversions from boundary
chains back to tableaux and trees.

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
    covers) and their output (z must cover x and y); ``GrowthGrid.validate``
    replays every square through them.  They are the reference the label
    rule is tested against.
  * The label fill checks that each label it makes fits the vertex it
    applies to (a letter 0 needs a non-empty word, q and k and s must
    exist), so a broken rule raises GrowthRuleError.
  * :func:`build_growth_diagram` builds each vertex z from the vertex y
    below it and the label of y -> z, and checks that z covers x.
  * :func:`growth_insert` builds no vertex: it converts the labels of the
    two boundary chains straight into (P, Q).  The public ``chain_to_*``
    read the labels off a vertex chain, checking that it is saturated,
    and run the same conversions.

The fill, the checks and the conversions are written once.  Everything in
which the two families differ is one :class:`DualPair` record in
``PAIRS``, and an unknown family is rejected by the one lookup of it.
"""
from __future__ import annotations

from functools import partial
from typing import Callable, Literal, NamedTuple

from .compositions import (
    Composition,
    composition_to_word,
    increment_last,
    is_binword_cover,
    is_lifted_cover,
)
from .graphs import GrowthRuleError, vertex_json
from .jsontext import dumps
from .permutations import Permutation, inverse, permutation_matrix, validate_permutation
from .ribbons import QuasiRibbonTableau, RibbonTableau
from .trees import (
    LabeledTree,
    Tree,
    insert_rightmost,
    is_lattice_cover,
    is_reflected_bracket_cover,
    labeled_tree,
    labeled_tree_to_json_obj,
    right_spine_length,
)

Family = Literal["composition", "tree"]


class DualPair(NamedTuple):
    """Everything in which the growth diagrams of the two families differ.
    Labels are (a, h) or (k, s); rank and spine are those of a square's t."""

    empty: object  # the rank-0 vertex
    local_rule: Callable  # (t, x, y, alpha) -> z, the reference on vertices
    mark: Callable  # (rank, spine) -> the labels of a marked square
    join: Callable  # (a, h, rank) -> the labels of cases (e) and (f)
    fits: Callable  # (a, h, rank, spine) -> whether the labels exist
    spined: bool  # whether mark and fits read the right-spine length
    grow: Callable  # (y, vertical label of y -> z) -> z
    is_horizontal_cover: Callable  # (x, z) -> whether z covers x
    p_from_labels: Callable  # the right column's vertical labels -> P
    q_from_labels: Callable  # the top row's horizontal labels -> Q
    chain_to_p: Callable  # the right boundary chain -> P
    chain_to_q: Callable  # the top boundary chain -> Q
    json_obj: Callable  # P or Q -> its JSON form


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


class BoundaryChains(NamedTuple):
    """Saturated boundary chains of a growth diagram, sharing the corner."""

    top: tuple    # left to right, in Binword / the tree lattice
    right: tuple  # bottom to top, in the lifted binary tree / reflected bracket tree


class GrowthGrid(NamedTuple):
    """
    The (n+1) x (n+1) array of graph vertices over a permutation matrix.
    vertices[i][j] is the corner at height i (0 = bottom) and offset j
    (0 = left); marks hold the (column, row) cells of the permutation.
    """

    n: int
    family: str
    vertices: tuple[tuple, ...]
    marks: frozenset[tuple[int, int]]

    def boundary_chains(self) -> BoundaryChains:
        return BoundaryChains(
            top=tuple(self.vertices[self.n]),
            right=tuple(self.vertices[i][self.n] for i in range(self.n + 1)),
        )

    def validate(self) -> None:
        """Recheck every boundary value and every square against the rule."""
        dual = _pair(self.family)
        empty, rule = dual.empty, dual.local_rule
        n = self.n
        if len(self.vertices) != n + 1 or any(len(row) != n + 1 for row in self.vertices):
            raise ValueError("grid is not (n+1) x (n+1)")
        if any(self.vertices[0][j] != empty for j in range(n + 1)):
            raise ValueError("bottom boundary must be empty")
        if any(self.vertices[i][0] != empty for i in range(n + 1)):
            raise ValueError("left boundary must be empty")
        if len(self.marks) != n or len({c for c, _ in self.marks}) != n or len({r for _, r in self.marks}) != n:
            raise ValueError("marks are not a permutation matrix")
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                alpha = 1 if (j, i) in self.marks else 0
                z = rule(self.vertices[i - 1][j - 1], self.vertices[i][j - 1], self.vertices[i - 1][j], alpha)
                if z != self.vertices[i][j]:
                    raise ValueError(f"square ({j}, {i}) disagrees with the local rule")

    def render_rows(self, render: Callable[[list], list]) -> list[list]:
        """Apply ``render`` to all vertices at once, bottom row first, and
        split its results back into rows."""
        k = self.n + 1
        flat = render([v for row in self.vertices for v in row])
        return [flat[i : i + k] for i in range(0, len(flat), k)]

    def to_json_obj(self, pair=None) -> dict:
        """
        The JSON form of the grid and of its (P, Q) pair; ``pair`` is the
        result of :func:`convert_chains` when the caller already has it.
        The vertices take the form :func:`vertex_json` gives them, each
        distinct one rendered once.
        """
        dual = _pair(self.family)
        p, q = convert_chains(self.boundary_chains(), self.family) if pair is None else pair
        return {
            "n": self.n,
            "family": self.family,
            "grid": self.render_rows(partial(vertex_json, self.family)),
            "marks": [list(cell) for cell in sorted(self.marks)],
            "P": dual.json_obj(p),
            "Q": dual.json_obj(q),
        }

    def to_json(self) -> str:
        return dumps(self.to_json_obj())


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


def _label_rows(p: Permutation, dual: DualPair):
    """
    Fill the diagram of a valid permutation on edge labels, row by row.
    Yield, for each height i = 1..n, the column c of the mark in row i,
    the labels of the vertical edges from row i - 1 up to row i, and those
    of the horizontal edges within row i; entry j is the edge into column
    j, and entry 0 is None.
    """
    mark, join, fits, spined = dual.mark, dual.join, dual.fits, dual.spined
    n = len(p)
    below = [None] * (n + 1)  # horizontal labels of row i - 1
    spines = [0] * (n + 1)  # right-spine lengths of row i - 1, when spined
    for i, c in enumerate(inverse(p), 1):
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
        if spined:
            spines[c:] = [k + 1 for k in vertical[c:]]
        yield c, vertical, row
        below = row


def build_growth_diagram(p: Permutation, family: Family) -> GrowthGrid:
    """
    Fill the growth diagram of a permutation.  The boundaries are empty
    and alpha=1 exactly at the cells of the permutation matrix.  The fill
    runs on edge labels; each vertex z is then built from the vertex y
    below it and the label of y -> z, or is x or y itself when an edge
    into it is degenerate, and every vertex built is checked to cover x.
    """
    p = validate_permutation(p)
    dual = _pair(family)
    grow, is_horizontal_cover = dual.grow, dual.is_horizontal_cover
    n = len(p)
    row = [dual.empty] * (n + 1)
    rows = [tuple(row)]
    for c, vertical, horizontal in _label_rows(p, dual):
        below, row = row, row[:]  # left of the mark, case (b) or (c): z = y
        for j in range(c, n + 1):
            x = row[j - 1]
            if horizontal[j] is None:  # case (d)
                row[j] = x
                continue
            z = grow(below[j], vertical[j])
            if not is_horizontal_cover(x, z):
                raise GrowthRuleError(f"z={z!r} does not cover x={x!r}")
            row[j] = z
        rows.append(tuple(row))
    return GrowthGrid(
        n=n,
        family=family,
        vertices=tuple(rows),
        marks=permutation_matrix(p),
    )


# -- conversions from labels ---------------------------------------------------

def _quasi_ribbon_from_letters(letters) -> QuasiRibbonTableau:
    """Cell k opens a new row for letter 1 and ends the last row for 0;
    the first letter is always 1."""
    return QuasiRibbonTableau._from_reading(range(1, len(letters) + 1), letters[1:])


def _ribbon_from_labels(labels) -> RibbonTableau:
    """
    Step k inserts letter b at position q of the word, h = 2q + b, and
    puts k into the reading order: for a 0 at q - 1, the end of the run of
    0s it joins; for a 1 in front of the cell where its run of 1s starts
    (past the first cell), shifting that suffix down.  A row ends before
    each cell whose letter is 1.
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
    return RibbonTableau._from_reading(reading, word[1:])


def _bst_from_depths(depths) -> LabeledTree:
    """Node i becomes the rightmost node at right-spine depth depths[i-1],
    taking the spine suffix it displaces as its left subtree."""
    left = [0] * (len(depths) + 1)
    right = left[:]
    spine: list[int] = []  # node labels, root first
    postorder: list[int] = []  # a displaced suffix is final, deepest node first
    for i, k in enumerate(depths, 1):
        if k < len(spine):
            left[i] = spine[k]
        if k:
            right[spine[k - 1]] = i
        postorder += reversed(spine[k:])
        del spine[k:]
        spine.append(i)
    postorder += reversed(spine)
    return labeled_tree(postorder, left, right, range(len(left)))


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


# -- chain conversions -------------------------------------------------------
#
# Each reads the labels of a saturated vertex chain off consecutive
# vertices, in time linear in their size, and converts them as above.

def _require(condition: bool, chain, graph_name: str):
    if not condition:
        raise ValueError(f"chain {chain!r} is not saturated in the {graph_name}")


def chain_to_quasi_ribbon(chain) -> QuasiRibbonTableau:
    """
    Label the cells of a saturated chain in the lifted binary tree in the
    order they appear: a grown last part appends to the last row, an
    appended part opens a new row.  The result is automatically canonical.

    >>> chain_to_quasi_ribbon([(), (1,), (1, 1), (1, 1, 1)]).rows
    ((1,), (2,), (3,))
    """
    chain = [tuple(c) for c in chain]
    _require(bool(chain) and chain[0] == (), chain, "lifted binary tree")
    letters = []
    for prev, cur in zip(chain, chain[1:]):
        if prev and cur == increment_last(prev):
            letters.append(0)
        else:
            _require(cur == prev + (1,), chain, "lifted binary tree")
            letters.append(1)
    return _quasi_ribbon_from_letters(letters)


def chain_to_ribbon(chain) -> RibbonTableau:
    """
    Convert a saturated Binword chain to a ribbon tableau.  At step k the
    words of the two compositions differ by one inserted letter, at the
    first position q where the longer word departs from the shorter; when
    that letter is a 0 the new cell enters the reading order at q - 1
    (appended to its row, lower rows shifting right), when it is a 1 the
    cell enters just before the smallest position where deleting a letter
    gives the shorter word, and the displaced suffix shifts down.

    >>> chain_to_ribbon([(), (1,), (2,), (3,), (2, 2)]).rows
    ((1, 4), (2, 3))
    """
    chain = [tuple(c) for c in chain]
    _require(bool(chain) and chain[0] == (), chain, "Binword")
    labels = []
    u = ""  # the word of the composition before cur
    for cur in chain[1:]:
        v = composition_to_word(cur)
        q = next((q for q, (a, b) in enumerate(zip(u, v), 1) if a != b), len(u) + 1)
        _require(len(v) == len(u) + 1 and v[: q - 1] + v[q:] == u, chain, "Binword")
        labels.append(2 * q + int(v[q - 1]))
        u = v
    return _ribbon_from_labels(labels)


def _preorder_bits(t: Tree) -> bytes:
    """1 for each node and 0 for each empty subtree, in preorder; the 0s
    come in the in-order order of the empty slots."""
    bits = bytearray()
    stack = [t]
    while stack:
        t = stack.pop()
        if t is None:
            bits.append(0)
        else:
            bits.append(1)
            stack += (t[1], t[0])
    return bytes(bits)


def chain_to_increasing_tree(chain) -> LabeledTree:
    """
    Label a saturated chain in the lattice of binary trees by the order in
    which the nodes appear: the tree at step k hangs a leaf k in one empty
    slot of the tree before it.

    >>> chain_to_increasing_tree([None, (None, None), ((None, None), None)])
    (1, (2, None, None), None)
    """
    chain = list(chain)
    _require(bool(chain) and chain[0] is None, chain, "lattice of binary trees")
    slots = []
    u = _preorder_bits(None)
    for cur in chain[1:]:
        t, u = u, _preorder_bits(cur)
        # u is t with one 0 (an empty slot) replaced by 100 (a leaf)
        m = next((m for m, (a, b) in enumerate(zip(t, u)) if a != b), len(t))
        _require(u == t[:m] + b"\1\0\0" + t[m + 1 :], chain, "lattice of binary trees")
        slots.append(t.count(0, 0, m))
    return _increasing_tree_from_slots(slots)


def chain_to_bst(chain) -> LabeledTree:
    """
    Convert a saturated chain in the reflected bracket tree into a binary
    search tree: element i differs from its predecessor by the node whose
    rightmost deletion gives the predecessor back; that node gets label i
    and the displaced nodes keep the labels set before.
    """
    chain = list(chain)
    _require(bool(chain) and chain[0] is None, chain, "reflected bracket tree")
    depths = []
    for prev, cur in zip(chain, chain[1:]):
        _require(is_reflected_bracket_cover(prev, cur), chain, "reflected bracket tree")
        depths.append(right_spine_length(cur) - 1)
    return _bst_from_depths(depths)


def convert_chains(chains: BoundaryChains, family: Family):
    """The (P, Q) pair encoded by the two boundary chains."""
    dual = _pair(family)
    return dual.chain_to_p(chains.right), dual.chain_to_q(chains.top)


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


# -- the two dual pairs ---------------------------------------------------------

PAIRS = {
    "composition": DualPair(
        empty=(), local_rule=local_rule_composition,
        mark=_mark_labels_composition, join=_join_labels_composition,
        fits=_labels_fit_composition, spined=False,
        grow=lambda c, a: c + (1,) if a else increment_last(c),
        is_horizontal_cover=is_binword_cover,
        p_from_labels=_quasi_ribbon_from_letters, q_from_labels=_ribbon_from_labels,
        chain_to_p=chain_to_quasi_ribbon, chain_to_q=chain_to_ribbon,
        json_obj=lambda tableau: tableau.to_json_obj(),
    ),
    "tree": DualPair(
        empty=None, local_rule=local_rule_tree,
        # case (a): a new node below the rightmost one, in the last slot;
        # cases (e) and (f) pass both labels on; spine depth k and in-order
        # slot s must exist in t
        mark=lambda rank, spine: (spine, rank), join=lambda k, s, rank: (k, s),
        fits=lambda k, s, rank, spine: 0 <= k <= spine and 0 <= s <= rank, spined=True,
        grow=insert_rightmost, is_horizontal_cover=is_lattice_cover,
        p_from_labels=_bst_from_depths, q_from_labels=_increasing_tree_from_slots,
        chain_to_p=chain_to_bst, chain_to_q=chain_to_increasing_tree,
        # the module's name is read at each call, as every other call here
        # reads it, so a wrapper put on the name sees this call too
        json_obj=lambda tree: labeled_tree_to_json_obj(tree),
    ),
}

FAMILIES = tuple(PAIRS)


def _pair(family: Family) -> DualPair:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return PAIRS[family]
