"""
The tree family of the growth fill (:mod:`growthdiagrams.growth`), as the
record ``PAIR``: label rules, vertex growth, and the conversions of the
boundary labels to the BST (P, Q) pair.

Both output formats print a tree vertex as its text, "-" for the empty
tree and "(L,R)" for a node, and the fill carries that text next to the
vertex, made in the step that builds it.  A grown z is
``insert_rightmost(y, k)``, so its text is y's text with one splice at
the spine node of depth k, whose offset y's text carries along
(:func:`~growthdiagrams.bst.insert_rightmost_text`); a z that is x or y
takes that vertex's text.  By induction from "-" each text equals
``trees_to_text`` of its vertex, at the cost of one string copy per grown
vertex instead of a walk over every node of every vertex.
"""
from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING

from .bst import insert_rightmost, insert_rightmost_text, is_lattice_cover, labeled_tree
from .growth import DualPair

if TYPE_CHECKING:
    from .trees import LabeledTree


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


PAIR = DualPair(
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
)
