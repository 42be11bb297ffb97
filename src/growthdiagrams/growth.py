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

The rules are validated on entry (the given edges must be covers) and on
exit (z must cover x and y in the right graphs); the checks are O(size)
cover predicates, and a failed exit check is an internal invariant breach.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Literal

from .compositions import (
    Composition,
    binword_deletion_positions,
    composition_to_word,
    increment_last,
    is_binword_cover,
    is_lifted_cover,
)
from .jsontext import dumps
from .permutations import Permutation, permutation_matrix, validate_permutation
from .ribbons import (
    QuasiRibbonTableau,
    RibbonTableau,
    rows_from_reading,
)
from .trees import (
    LabeledTree,
    Tree,
    extend_right_spine,
    insert_rightmost,
    is_lattice_cover,
    is_reflected_bracket_cover,
    labeled_tree_to_json_obj,
    node_count,
    push_down_rightmost,
    right_spine_length,
    shape,
    trees_to_text,
)

Family = Literal["composition", "tree"]
FAMILIES = ("composition", "tree")


class GrowthRuleError(RuntimeError):
    """An internal invariant of the growth rules failed.

    This cannot happen while the two graph pairs are dual; it is the
    channel through which a falsified duality would surface at runtime.
    """


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
        z = extend_right_spine(t)
    elif x == t and y == t:
        return t
    elif x == t:
        return y
    elif y == t:
        return x
    elif x == y:
        z = push_down_rightmost(y)
    else:
        z = _join_tree(t, x, y)
    if not (is_lattice_cover(x, z) and is_reflected_bracket_cover(y, z)):
        raise GrowthRuleError(f"z={z!r} does not cover x={x!r} and y={y!r}")
    return z


_FAMILY_RULES: dict[str, tuple[object, Callable]] = {
    "composition": ((), local_rule_composition),
    "tree": (None, local_rule_tree),
}


@dataclass(frozen=True)
class BoundaryChains:
    """Saturated boundary chains of a growth diagram, sharing the corner."""

    top: tuple    # left to right, in Binword / the tree lattice
    right: tuple  # bottom to top, in the lifted binary tree / reflected bracket tree


@dataclass(frozen=True)
class GrowthGrid:
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
        empty, rule = _FAMILY_RULES[self.family]
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
        Each distinct vertex is rendered once: equal compositions share
        one list, and tree nodes shared between vertices one text.
        """
        p, q = convert_chains(self.boundary_chains(), self.family) if pair is None else pair
        if self.family == "composition":
            grid = self.render_rows(lambda vertices: list(map(cache(list), vertices)))
            p_obj, q_obj = p.to_json_obj(), q.to_json_obj()
        else:
            grid = self.render_rows(trees_to_text)
            p_obj, q_obj = labeled_tree_to_json_obj(p), labeled_tree_to_json_obj(q)
        return {
            "n": self.n,
            "family": self.family,
            "grid": grid,
            "marks": [list(cell) for cell in sorted(self.marks)],
            "P": p_obj,
            "Q": q_obj,
        }

    def to_json(self) -> str:
        return dumps(self.to_json_obj())


def build_growth_diagram(p: Permutation, family: Family, *, order: str = "antidiagonal") -> GrowthGrid:
    """
    Fill the growth diagram of a permutation.  The boundaries are empty
    and each square is completed by the family's local rule, with alpha=1
    exactly at the cells of the permutation matrix.  Any topological fill
    order gives the same grid; both the anti-diagonal sweep and a
    row-major sweep are provided.
    """
    p = validate_permutation(p)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    empty, rule = _FAMILY_RULES[family]
    n = len(p)
    grid: list[list] = [[empty] * (n + 1) for _ in range(n + 1)]

    if order == "antidiagonal":
        cells = (
            (i, s - i) for s in range(2, 2 * n + 1) for i in range(max(1, s - n), min(n, s - 1) + 1)
        )
    elif order == "row-major":
        cells = ((i, j) for i in range(1, n + 1) for j in range(1, n + 1))
    else:
        raise ValueError(f"unknown fill order {order!r}")
    for i, j in cells:
        below, row = grid[i - 1], grid[i]
        row[j] = rule(below[j - 1], row[j - 1], below[j], 1 if p[j - 1] == i else 0)
    return GrowthGrid(
        n=n,
        family=family,
        vertices=tuple(tuple(row) for row in grid),
        marks=permutation_matrix(p),
    )


# -- chain conversions -------------------------------------------------------

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
    rows: list[list[int]] = []
    for k, (prev, cur) in enumerate(zip(chain, chain[1:]), 1):
        if prev and cur == increment_last(prev):
            rows[-1].append(k)
        elif cur == prev + (1,):
            rows.append([k])
        else:
            _require(False, chain, "lifted binary tree")
    return QuasiRibbonTableau(tuple(tuple(row) for row in rows))


def chain_to_ribbon(chain) -> RibbonTableau:
    """
    Convert a saturated Binword chain to a ribbon tableau.  At step k the
    words of the two compositions differ by one inserted letter; when that
    letter is a 0 the new cell enters the reading order at the largest
    deletable position (appended to its row, lower rows shifting right),
    when it is a 1 the cell enters just before the smallest deletable
    position and the displaced suffix shifts down.

    >>> chain_to_ribbon([(), (1,), (2,), (3,), (2, 2)]).rows
    ((1, 4), (2, 3))
    """
    chain = [tuple(c) for c in chain]
    _require(bool(chain) and chain[0] == (), chain, "Binword")
    reading: list[int] = []
    for k, (prev, cur) in enumerate(zip(chain, chain[1:]), 1):
        if k == 1:
            _require(cur == (1,), chain, "Binword")
            reading = [1]
            continue
        w, w2 = composition_to_word(prev), composition_to_word(cur)
        _require(len(w2) == len(w) + 1, chain, "Binword")
        positions = binword_deletion_positions(w, w2)
        _require(bool(positions), chain, "Binword")
        letters = {w2[q - 1] for q in positions}
        if len(letters) != 1:
            # deletable positions always form one run of equal letters
            raise GrowthRuleError(f"deletion positions {sorted(positions)} span different letters")
        if letters == {"0"}:
            reading.insert(max(positions) - 1, k)
        else:
            reading.insert(min(positions) - 2, k)
    return RibbonTableau(rows_from_reading(reading, chain[-1]))


def chain_to_increasing_tree(chain) -> LabeledTree:
    """
    Label a saturated chain in the lattice of binary trees by the order in
    which the nodes appear.
    """
    chain = list(chain)
    _require(bool(chain) and chain[0] is None, chain, "lattice of binary trees")
    labeled: LabeledTree = None
    for k, cur in enumerate(chain[1:], 1):
        _require(node_count(cur) == k, chain, "lattice of binary trees")
        labeled = _add_new_node(labeled, cur, k, chain)
    return labeled


def _add_new_node(labeled: LabeledTree, target: Tree, k: int, chain) -> LabeledTree:
    if labeled is None:
        _require(target == (None, None), chain, "lattice of binary trees")
        return (k, None, None)
    _require(target is not None, chain, "lattice of binary trees")
    label, left, right = labeled
    t_left, t_right = target
    if shape(left) != t_left:
        _require(shape(right) == t_right, chain, "lattice of binary trees")
        return (label, _add_new_node(left, t_left, k, chain), right)
    _require(shape(right) != t_right, chain, "lattice of binary trees")
    return (label, left, _add_new_node(right, t_right, k, chain))


def chain_to_bst(chain) -> LabeledTree:
    """
    Convert a saturated chain in the reflected bracket tree into a binary
    search tree: element i differs from its predecessor by the node whose
    rightmost deletion gives the predecessor back; that node gets label i
    and the displaced nodes keep the labels set before.
    """
    chain = list(chain)
    _require(bool(chain) and chain[0] is None, chain, "reflected bracket tree")
    labeled: LabeledTree = None
    for i, cur in enumerate(chain[1:], 1):
        depth = right_spine_length(cur) - 1
        labeled = _splice_new_rightmost(labeled, depth, i, chain)
        _require(shape(labeled) == cur, chain, "reflected bracket tree")
    return labeled


def _splice_new_rightmost(labeled: LabeledTree, depth: int, i: int, chain) -> LabeledTree:
    if depth == 0:
        return (i, labeled, None)
    _require(labeled is not None, chain, "reflected bracket tree")
    label, left, right = labeled
    return (label, left, _splice_new_rightmost(right, depth - 1, i, chain))


def convert_chains(chains: BoundaryChains, family: Family):
    """The (P, Q) pair encoded by the two boundary chains."""
    if family == "composition":
        return chain_to_quasi_ribbon(chains.right), chain_to_ribbon(chains.top)
    if family == "tree":
        return chain_to_bst(chains.right), chain_to_increasing_tree(chains.top)
    raise ValueError(f"unknown family {family!r}")


def growth_insert(p: Permutation, family: Family):
    """
    Run the growth diagram of p and convert its boundary chains.  The
    result equals the direct insertion of the family: hypoplactic
    insertion for compositions, left-to-right binary search tree insertion
    for trees.

    >>> p_tab, q_tab = growth_insert((4, 1, 5, 3, 6, 2), "composition")
    >>> p_tab.rows, q_tab.rows
    (((1, 2), (3,), (4, 5, 6)), ((2, 6), (4,), (1, 3, 5)))
    """
    grid = build_growth_diagram(p, family)
    return convert_chains(grid.boundary_chains(), family)
