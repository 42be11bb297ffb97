"""
The tree family of the growth fill (:mod:`growthdiagrams.growth`), as the
record ``PAIR``: label rules, the step of the text fill, and the
conversions of the boundary labels to the BST (P, Q) pair.

Both output formats print a tree vertex as its text, "-" for the empty
tree and "(L,R)" for a node, and the text fill makes each text from the
one below it.  A grown z inserts a new rightmost node into y at spine
depth k, the label of y -> z, so its text is y's with one splice at the
spine node of depth k, whose offset y's text carries along; a z that is
x or y takes that vertex's text.  By induction from "-" each text is that
of its vertex, at the cost of one string copy per grown vertex.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .bst import bst_insert, labeled_tree
from .growth import DualPair
from .permutations import GrowthRuleError

if TYPE_CHECKING:
    from .trees import LabeledTree


def _text_row(below: tuple[list, list, list], c: int, vertical: list, horizontal: list):
    """
    Row i of the text fill from row i - 1, ``below``: each vertex's text,
    the offsets at which its right-spine nodes start, and the offset of
    the leaf that its horizontal in-edge added.  Down the right spine, a
    text is "(" + left + "," + the next spine node's text + ")", so the
    subtree at spine depth k starts at spine[k] (at the last "-" when k is
    the spine length) and ends k closing brackets before the end; the new
    node wraps it as "(" + subtree + ",-)", and the spine nodes above it
    keep their offsets.  z must be x with one "-" made "(-,-)": in a
    marked square at the offset where the splice starts, and else where
    the splice moves the leaf that t -> y added, since z adds to x what y
    added to t; a z that is not so at that offset raises GrowthRuleError.
    """
    below_texts, below_spines, below_leaves = below
    # left of the mark, case (b) or (c): z = y
    texts, spines, leaves = below_texts[:], below_spines[:], below_leaves[:]
    x = texts[c - 1]
    for j in range(c, len(texts)):
        if horizontal[j] is None:  # case (d): z = x
            texts[j], spines[j] = x, spines[j - 1]
            continue
        k = vertical[j]
        y, spine = below_texts[j], below_spines[j]
        end = len(y) - k
        start = spine[k] if k < len(spine) else end - 1
        z = f"{y[:start]}({y[start:end]},-){y[end:]}"
        if j == c:
            leaf = start
        else:
            leaf = below_leaves[j]
            # y[end:] is the k closing brackets of the spine, so the leaf,
            # a "-" of y, is before end, and past start it moves by the "("
            leaf += leaf >= start
        if x[leaf : leaf + 1] != "-" or z != f"{x[:leaf]}(-,-){x[leaf + 1:]}":
            raise GrowthRuleError(f"z={z} does not cover x={x}")
        texts[j], spines[j], leaves[j] = z, spine[:k] + (start,), leaf
        x = z
    return texts, spines, leaves


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
    # case (a): a new node below the rightmost one, in the last slot;
    # cases (e) and (f) pass both labels on; spine depth k and in-order
    # slot s must exist in t
    mark=lambda rank, spine: (spine, rank), join=lambda k, s, rank: (k, s),
    fits=lambda k, s, rank, spine: 0 <= k <= spine and 0 <= s <= rank, spined=True,
    start=("-", (), 0), step=_text_row,
    # a text holds only "(", ")", "," and "-", so it needs no escaping
    json_cells=lambda texts, depth: '"' + ('",\n' + "  " * depth + '"').join(texts) + '"',
    p_from_labels=_bst_from_depths, q_from_labels=_increasing_tree_from_slots,
    direct=bst_insert,  # the leaf reads all three from the record it is given
    leaf=lambda dual, p, depths, slots: (dual.p_from_labels(depths), dual.q_from_labels(slots)) == dual.direct(p),
)
