"""
The checks of the growth fill (:mod:`growthdiagrams.growth`), which no
``growth`` command loads.  ``local_rule_*`` complete a square on
vertices by one case analysis, :func:`_complete_square`, which checks
its input square (the given edges must be covers) and its output (z
must cover x and y); :func:`local_rule_grid` rebuilds a grid's vertices
with it for library callers and the tests.  :func:`growth_insert` fills
the labels alone, and :func:`equivalence_walk` runs the fill's row step
on the prefixes of inverse(p) of all permutations of one size.  Each
family's vertex code loads with its record :func:`_square` on first use,
so a check of one family compiles none of the other's.
"""
from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Callable, NamedTuple

from .growth import Family, _label_row, _pair, build_growth_diagram
from .permutations import GrowthRuleError, Permutation, inverse

if TYPE_CHECKING:
    from .compositions import Composition
    from .trees import Tree


class _Square(NamedTuple):
    """What completes a square on the vertices of one family."""

    empty: object  # the rank-0 vertex
    mark: Callable  # t -> z of a marked square, case (a)
    grow: Callable  # x -> z where x = y covers t, case (e)
    join: Callable  # (t, x, y) -> z where x and y differ and cover t, case (f)
    is_vertical_cover: Callable  # (t, x) -> whether x covers t in the first graph of the pair
    is_horizontal_cover: Callable  # (t, y) -> whether y covers t in the second


@cache
def _square(family: Family) -> _Square:
    """The family's record, its vertex code imported on first use."""
    if family == "composition":
        from .compositions import increment_last, is_binword_cover, is_lifted_cover
        return _Square(
            (), increment_last, lambda x: x + (1,),
            # y with the last word letter of x appended
            lambda t, x, y: y + (1,) if len(x) > len(t) else increment_last(y),
            is_lifted_cover, is_binword_cover,
        )
    if family == "tree":
        from .trees import insert_rightmost, is_lattice_cover, is_reflected_bracket_cover, right_spine_length
        return _Square(
            None, lambda t: insert_rightmost(t, right_spine_length(t)),
            lambda x: insert_rightmost(x, right_spine_length(x) - 1),
            # y with a new rightmost node where x has its own
            lambda t, x, y: insert_rightmost(y, right_spine_length(x) - 1),
            is_reflected_bracket_cover, is_lattice_cover,
        )
    raise KeyError(family)


def _complete_square(family: Family, t, x, y, alpha: int):
    """The local rule of the family: z from the square's t, x (above t)
    and y (right of t), and whether the square is marked."""
    _, mark, grow, join, is_vertical_cover, is_horizontal_cover = _square(family)
    if alpha not in (0, 1):
        raise ValueError(f"alpha must be 0 or 1, got {alpha!r}")
    if alpha == 1 and not (t == x == y):
        raise ValueError("alpha=1 requires t = x = y")
    if x != t and not is_vertical_cover(t, x):
        raise ValueError(f"{x!r} is not a vertical cover of {t!r}")
    if y != t and not is_horizontal_cover(t, y):
        raise ValueError(f"{y!r} is not a horizontal cover of {t!r}")
    if alpha == 1:
        z = mark(t)
    elif x == t and y == t:
        return t
    elif x == t:
        return y
    elif y == t:
        return x
    elif x == y:
        z = grow(x)
    else:
        z = join(t, x, y)
    if not (is_horizontal_cover(x, z) and is_vertical_cover(y, z)):
        raise GrowthRuleError(f"z={z!r} does not cover x={x!r} and y={y!r}")
    return z


def local_rule_composition(t: Composition, x: Composition, y: Composition, alpha: int) -> Composition:
    """
    Square completion on compositions; x covers t in the lifted binary
    tree, y covers t in Binword, z covers y and x respectively.

    >>> local_rule_composition((2, 2), (2, 3), (2, 1, 2), 0)
    (2, 1, 3)
    >>> local_rule_composition((2, 2), (2, 2), (2, 2), 1)
    (2, 3)
    """
    return _complete_square("composition", t, x, y, alpha)


def local_rule_tree(t: Tree, x: Tree, y: Tree, alpha: int) -> Tree:
    """
    Square completion on binary trees; x covers t in the reflected bracket
    tree, y covers t in the lattice of binary trees.

    >>> local_rule_tree(None, None, None, 1)
    (None, None)
    """
    return _complete_square("tree", t, x, y, alpha)


def local_rule_grid(n: int, family: Family, marks) -> tuple[tuple, ...]:
    """
    The vertices of the growth diagram whose marks are the (column, row)
    cells ``marks``, rows bottom first, each square completed by the
    family's local rule in turn, left to right and bottom to top.

    >>> local_rule_grid(2, "composition", {(1, 2), (2, 1)})
    (((), (), ()), ((), (), (1,)), ((), (1,), (1, 1)))
    """
    empty = _square(family).empty
    columns = {row: col for col, row in marks}
    row = (empty,) * (n + 1)
    rows = [row]
    for i in range(1, n + 1):
        below, row = row, [empty]
        for j in range(1, n + 1):
            row.append(_complete_square(family, below[j - 1], row[j - 1], below[j], int(columns[i] == j)))
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


def equivalence_walk(n: int, family: Family) -> tuple[int, list[Permutation]]:
    """
    The growth diagram against the direct insertion of the family on all
    n! permutations of size n at once.  Row i of the label fill depends
    only on the first i entries of inverse(p), the columns of the marks
    in rows 1..i (Fomin 1995), so a depth-first walk over those prefixes
    fills each row once per prefix.  At a leaf, the labels of the right
    column and of the top row go to the family's leaf test with
    p = inverse(path).  Return the number of permutations and those where
    the test saw the labels differ from the direct insertion of p or give
    a hypoplactic Q that is not a ribbon tableau, for the public
    functions to judge; they come in the order of inverse(p), not of p.
    """
    dual = _pair(family)
    leaf = dual.leaf
    count = 0
    suspects: list[Permutation] = []

    def visit(path: Permutation, free: list[int], below: list, spines: list[int], right: list) -> None:
        nonlocal count
        if not free:
            count += 1
            p = inverse(path)
            if not leaf(dual, p, right, below[1:]):
                suspects.append(p)
            return
        i = len(path) + 1
        for k, c in enumerate(free):
            vertical, row, row_spines = _label_row(dual, c, i, below, spines)
            visit(path + (c,), free[:k] + free[k + 1 :], row, row_spines, right + [vertical[-1]])

    visit((), list(range(1, n + 1)), [None] * (n + 1), [0] * (n + 1), [])
    return count, suspects
