"""
Binary search tree insertion and the text and JSON forms of the labeled
trees it makes, and the steps of the tree growth fill: what ``insert``
and ``growth tree`` run.  Trees are as in :mod:`growthdiagrams.trees`,
whose graphs these commands never load.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    from .trees import LabeledTree, Tree


# -- insertion -------------------------------------------------------------

def labeled_tree(postorder: Sequence[int], left: Sequence[int], right: Sequence[int], labels) -> LabeledTree:
    """
    Nested (label, left, right) triples from child tables: node v has
    children left[v] and right[v], 0 standing for the empty tree, and label
    labels[v].  ``postorder`` lists every node after both of its children,
    so the root comes last; building in that order needs no recursion.

    >>> labeled_tree([2, 1], [0, 0, 0], [0, 2, 0], "-ab")
    ('a', None, ('b', None, None))
    """
    nodes: list[LabeledTree] = [None] * len(left)
    for v in postorder:
        nodes[v] = (labels[v], nodes[left[v]], nodes[right[v]])
    return nodes[postorder[-1]] if postorder else None


def bst_insert(word: Sequence[int], reading: str = "left-to-right") -> tuple[LabeledTree, LabeledTree]:
    """
    Insert the letters of a word (distinct integers) as leaves of a binary
    search tree, reading either left to right (classical) or right to left
    (sylvester).  Returns the insertion tree and the recording tree, which
    carries at each node the position in the word of the letter whose
    insertion created it.  Left-to-right recording trees are increasing,
    right-to-left ones decreasing.

    A letter inserted later never lies above one inserted earlier, so the
    insertion tree is the Cartesian tree of the letters in value order with
    the insertion time as priority (Vuillemin 1980).  One stack pass over
    the letters in value order builds it, in O(n log n) for the sort and
    O(n) after, at any depth.

    >>> p, q = bst_insert((1, 2, 3))
    >>> labeled_tree_to_text(p)
    '(- 1 (- 2 (- 3 -)))'
    >>> p == q
    True
    """
    word = tuple(word)
    n = len(word)
    if len(set(word)) != n:
        raise ValueError("letters must be distinct")
    # node v is the letter inserted v-th; positions[v] is its place in word
    if reading == "left-to-right":
        letters, positions = (None, *word), range(n + 1)
    elif reading == "right-to-left":
        letters, positions = (None, *word[::-1]), range(n + 1, 0, -1)
    else:
        raise ValueError(f"unknown reading {reading!r}")
    left = [0] * (n + 1)
    right = left[:]
    postorder: list[int] = []
    # the right spine of the tree built so far, root first, under node 0,
    # which is inserted before every node and so is never popped
    spine = [0]
    for v in sorted(range(1, n + 1), key=letters.__getitem__):
        # the spine nodes inserted after v move into its left subtree,
        # whose nodes are then all final
        last = 0
        while spine[-1] > v:
            last = spine.pop()
            postorder.append(last)
        left[v] = last
        right[spine[-1]] = v
        spine.append(v)
    postorder += reversed(spine[1:])
    return (
        labeled_tree(postorder, left, right, letters),
        labeled_tree(postorder, left, right, positions),
    )

# -- the tree growth fill --------------------------------------------------

def insert_rightmost(t: Tree, depth: int) -> Tree:
    """
    Insert a new rightmost node at right-spine depth ``depth`` (0 = the
    root); it takes the right-spine suffix it displaces as its left
    subtree.  Inverse of :func:`delete_rightmost` for every depth from 0 to
    ``right_spine_length(t)``.

    >>> insert_rightmost((None, None), 0)
    ((None, None), None)
    >>> insert_rightmost((None, None), 1)
    (None, (None, None))
    """
    lefts = []
    for _ in range(depth):
        if t is None:
            raise ValueError(f"right spine is shorter than depth {depth}")
        lefts.append(t[0])
        t = t[1]
    z: Tree = (t, None)
    for left in reversed(lefts):
        z = (left, z)
    return z
def insert_rightmost_text(carried: tuple[str, tuple[int, ...]], depth: int) -> tuple[str, tuple[int, ...]]:
    """
    The text (:func:`trees_to_text`) of ``insert_rightmost(t, depth)`` and
    the offsets at which its right-spine nodes start, from the ``carried``
    pair of those two of t, in one splice.  Down the right spine, t's text
    is "(" + left + "," + the next spine node's text + ")", so the subtree
    at spine depth ``depth`` starts at ``spine[depth]`` (at the last "-"
    when ``depth`` is the spine length) and ends ``depth`` closing
    brackets before the end.  The new node wraps that subtree as "(" +
    subtree + ",-)", and the spine nodes above it keep their offsets.

    >>> insert_rightmost_text(("(-,-)", (0,)), 1)
    ('(-,(-,-))', (0, 3))
    """
    text, spine = carried
    end = len(text) - depth
    start = spine[depth] if depth < len(spine) else end - 1
    return f"{text[:start]}({text[start:end]},-){text[end:]}", spine[:depth] + (start,)
def is_lattice_cover(t: Tree, u: Tree) -> bool:
    """
    Whether u covers t in the lattice of binary trees, i.e. ``u in
    lattice_covers(t)``, walking the one path on which they differ.
    Subtrees are compared by identity first, because trees built from one
    another share them.
    """
    while t is not None:
        if u is None:
            return False
        (t_left, t_right), (u_left, u_right) = t, u
        if t_left is u_left or (t_right is not u_right and t_left == u_left):
            t, u = t_right, u_right
        elif t_right is u_right or t_right == u_right:
            t, u = t_left, u_left
        else:
            return False
    return u == (None, None)
# -- text and JSON forms ---------------------------------------------------

def labeled_tree_to_text(t: LabeledTree) -> str:
    """
    "-" for the empty tree, "(L a R)" for a node labeled a; built with an
    explicit stack, so depth is unbounded.

    >>> labeled_tree_to_text((3, (1, None, None), None))
    '((- 1 -) 3 -)'
    """
    parts = []
    stack = [t]  # subtrees still to render, and the text that follows them
    while stack:
        item = stack.pop()
        if item is None:
            parts.append("-")
        elif isinstance(item, str):
            parts.append(item)
        else:
            label, left, right = item
            parts.append("(")
            stack += (")", right, f" {label} ", left)
    return "".join(parts)


def labeled_tree_json_parts(t: LabeledTree, depth: int = 0) -> Iterator[str]:
    """
    The text of ``json.dumps(labeled_tree_to_json_obj(t), indent=2)`` as a
    value at nesting ``depth``, for int labels, in the parts that
    ``jsontext.iterdumps`` writes: each key with its indentation and the
    start of its value, and each closing brace.  The walk's stack holds
    depths and right subtrees only, and the indentation of the first 64
    depths below ``depth`` alone is kept, so depth is unbounded and
    memory linear in it.

    >>> list(labeled_tree_json_parts((1, None, None)))
    ['{\\n  "label": 1', ',\\n  "left": null', ',\\n  "right": null', '\\n}']
    """
    if t is None:
        yield "null"
        return
    top = depth + 65
    indents = ["  " * d for d in range(top)]
    # per open node: its depth, then its right subtree until that is begun
    stack: list = []
    while True:
        # open t, at depth, and the nodes below it, going to the left
        # subtree or else to the right one, down to a leaf, which is closed
        while True:
            label, left, right = t
            pad = indents[depth + 1] if depth + 1 < top else "  " * (depth + 1)
            yield f'{{\n{pad}"label": {label}'
            if left is not None:
                stack += (depth, right)
                yield f',\n{pad}"left": '
                t, depth = left, depth + 1
                continue
            yield f',\n{pad}"left": null'
            if right is not None:
                stack.append(depth)
                yield f',\n{pad}"right": '
                t, depth = right, depth + 1
                continue
            yield f',\n{pad}"right": null'
            pad = indents[depth] if depth < top else "  " * depth
            yield f"\n{pad}}}"
            break
        # close each node whose subtrees are both written, up to the next
        # right subtree to begin
        while stack:
            t = stack.pop()
            if t.__class__ is int:
                pad = indents[t] if t < top else "  " * t
                yield f"\n{pad}}}"
                continue
            depth = stack[-1]
            pad = indents[depth + 1] if depth + 1 < top else "  " * (depth + 1)
            if t is None:
                yield f',\n{pad}"right": null'
                continue
            yield f',\n{pad}"right": '
            depth += 1
            break
        else:
            return
