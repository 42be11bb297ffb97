"""
The checks of the growth fill (:mod:`growthdiagrams.growth`), which no
``growth`` command loads.  ``local_rule_*`` complete a square on
vertices, case by case, check their input squares (the given edges must
be covers) and their output (z must cover x and y); they rebuild a
grid's vertices (:func:`local_rule_grid`) for library callers and the
tests.  :func:`growth_insert` fills the labels alone, and
:func:`equivalence_walk` runs the fill's row step on the prefixes of
inverse(p) of all permutations of one size.  Each family's vertex code,
``compositions`` or ``trees`` and ``bst``, loads on first use, so a
check of one family compiles none of the other's.
"""
from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Callable

from .growth import DualPair, Family, _label_row, _pair, build_growth_diagram
from .permutations import GrowthRuleError, Permutation, inverse

if TYPE_CHECKING:
    from .compositions import Composition
    from .trees import Tree


@cache
def _composition_code() -> tuple[Callable, ...]:
    """increment_last and the two cover checks of compositions, imported on
    the first use of a composition rule."""
    from .compositions import increment_last, is_binword_cover, is_lifted_cover
    return increment_last, is_binword_cover, is_lifted_cover


@cache
def _tree_code() -> tuple[Callable, ...]:
    """insert_rightmost, right_spine_length and the two cover checks of
    trees, imported on the first use of a tree rule."""
    from .trees import insert_rightmost, is_lattice_cover, is_reflected_bracket_cover, right_spine_length
    return insert_rightmost, right_spine_length, is_lattice_cover, is_reflected_bracket_cover


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
    increment_last = _composition_code()[0]
    return y + (1,) if len(x) > len(t) else increment_last(y)


def _join_tree(t: Tree, x: Tree, y: Tree) -> Tree:
    """Case (f): y with a new rightmost node where x has its own."""
    insert_rightmost, right_spine_length = _tree_code()[:2]
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
    increment_last, is_binword_cover, is_lifted_cover = _composition_code()
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
    insert_rightmost, right_spine_length, is_lattice_cover, is_reflected_bracket_cover = _tree_code()
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


# per family, its rank-0 vertex and its local rule
_LOCAL_RULES = {"composition": ((), local_rule_composition), "tree": (None, local_rule_tree)}


def local_rule_grid(n: int, family: Family, marks) -> tuple[tuple, ...]:
    """
    The vertices of the growth diagram whose marks are the (column, row)
    cells ``marks``, rows bottom first, each square completed by the
    family's local rule in turn, left to right and bottom to top.

    >>> local_rule_grid(2, "composition", {(1, 2), (2, 1)})
    (((), (), ()), ((), (), (1,)), ((), (1,), (1, 1)))
    """
    empty, rule = _LOCAL_RULES[family]
    columns = {row: col for col, row in marks}
    row = (empty,) * (n + 1)
    rows = [row]
    for i in range(1, n + 1):
        below, row = row, [empty]
        for j in range(1, n + 1):
            row.append(rule(below[j - 1], row[j - 1], below[j], int(columns[i] == j)))
        row = tuple(row)
        rows.append(row)
    return tuple(rows)


def growth_insert(p: Permutation, family: Family):
    """
    Fill the growth diagram of p on edge labels and convert the labels of
    its two boundary chains; no vertex and no text is made, so only the
    label fill's checks run.  The result equals the
    direct insertion of the family: hypoplactic insertion for
    compositions, left-to-right binary search tree insertion for trees.

    >>> p_tab, q_tab = growth_insert((4, 1, 5, 3, 6, 2), "composition")
    >>> p_tab.rows, q_tab.rows
    (((1, 2), (3,), (4, 5, 6)), ((2, 6), (4,), (1, 3, 5)))
    """
    return build_growth_diagram(p, family).pair()


def _hypoplactic_agrees(dual: DualPair, n: int) -> Callable:
    """
    A test of whether the tableaux that the labels encode equal the
    hypoplactic insertion of a permutation p of size n, whose P needs no
    relabeling, and pass the checks of their kinds.  A quasi-ribbon
    tableau's check reads its reading word alone, which is 1..n wherever
    the two P agree, so it runs once per size, as in ``shadow_walk``.
    """
    from .compositiongrowth import _quasi_ribbon_forms, _ribbon_forms
    from .ribbons import QuasiRibbonTableau, RibbonTableau, _insertion_forms

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
    from .bst import bst_insert
    return lambda p, depths, slots: (dual.p_from_labels(depths), dual.q_from_labels(slots)) == bst_insert(p)


# per family, (its record, size n) -> a test of (p, the labels of the
# right column, those of the top row) for a permutation p of size n:
# whether their (P, Q) equals the direct insertion of p, in the forms
# equality reads
_AGREES = {"composition": _hypoplactic_agrees, "tree": _bst_agrees}


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
    agrees = _AGREES[family](dual, n)
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


