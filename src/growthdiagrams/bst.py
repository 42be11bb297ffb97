"""
Binary search tree insertion and the text and JSON forms of the labeled
trees it makes: what ``insert`` runs, and ``growth tree`` for its (P, Q)
pair.  Trees are as in :mod:`growthdiagrams.trees`, which these commands
never load.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    from .trees import LabeledTree


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
    start of its value, and each closing brace.  One stack walk down each
    left path keeps the depth and right subtree of each node it opens, so
    depth is unbounded and memory linear in it.

    >>> list(labeled_tree_json_parts((1, None, None)))
    ['{\\n  "label": 1', ',\\n  "left": null', ',\\n  "right": null', '\\n}']
    """
    if t is None:
        yield "null"
        return
    top, stack = depth, []
    while t is not None or stack:
        # open t and the nodes down its left path
        while t is not None:
            label, t, right = t
            pad = "  " * (depth + 1)
            yield f'{{\n{pad}"label": {label}'
            yield f',\n{pad}"left": ' if t is not None else f',\n{pad}"left": null'
            stack.append((depth, right))
            depth += 1
        # the left subtree of the last node opened is written: begin its
        # right one, or close it and each node whose right subtree it ends
        depth, t = stack.pop()
        pad = "  " * (depth + 1)
        if t is not None:
            yield f',\n{pad}"right": '
            depth += 1
            continue
        yield f',\n{pad}"right": null'
        for d in range(depth, stack[-1][0] if stack else top - 1, -1):
            yield f"\n{'  ' * d}}}"
