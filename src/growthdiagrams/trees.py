"""
Binary trees, binary search tree insertion, and the cover relations of the
two graded graphs on trees.

Unlabeled trees are nested pairs: None is the empty tree, (left, right) a
node.  Labeled trees are triples (label, left, right).  Both are immutable
and hashable, so subtrees can be shared freely.

The "rightmost node" of a tree is the end of the path root -> right ->
right -> ...; when the root has no right child the root itself is
rightmost.  Deleting it splices its left subtree into its place, which is
the single down-edge of the reflected bracket tree.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import count
from typing import Iterable, Iterator, Optional, Sequence

Tree = Optional[tuple]          # None | (Tree, Tree)
LabeledTree = Optional[tuple]   # None | (int, Tree, Tree)


@lru_cache(maxsize=None)
def trees_of(n: int) -> tuple[Tree, ...]:
    """
    All Catalan(n) trees with n nodes, in the canonical drawing order:
    left subtree size descending, then recursively.

    >>> trees_of(2)
    (((None, None), None), (None, (None, None)))
    """
    if n < 0:
        raise ValueError("rank must be >= 0")
    if n == 0:
        return (None,)
    out = []
    for k in range(n - 1, -1, -1):
        for left in trees_of(k):
            for right in trees_of(n - 1 - k):
                out.append((left, right))
    return tuple(out)


@lru_cache(maxsize=None)
def lattice_covers(t: Tree) -> frozenset[Tree]:
    """
    Up-neighbours in the lattice of binary trees: one node attached at any
    of the rank+1 empty child slots.

    >>> lattice_covers(None) == frozenset({(None, None)})
    True
    >>> len(lattice_covers(((None, None), None)))
    3
    """
    if t is None:
        return frozenset({(None, None)})
    left, right = t
    grown = {(lc, right) for lc in lattice_covers(left)}
    grown |= {(left, rc) for rc in lattice_covers(right)}
    return frozenset(grown)


@lru_cache(maxsize=None)
def delete_rightmost(t: Tree) -> Tree:
    """
    Remove the rightmost node and splice its left subtree into its place.

    >>> delete_rightmost((None, None)) is None
    True
    >>> delete_rightmost(((None, None), None))
    (None, None)
    """
    if t is None:
        raise ValueError("the empty tree has no node to delete")
    left, right = t
    return left if right is None else (left, delete_rightmost(right))


def right_spine_length(t: Tree) -> int:
    k = 0
    while t is not None:
        k += 1
        t = t[1]
    return k


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


@lru_cache(maxsize=None)
def reflected_bracket_covers(t: Tree) -> frozenset[Tree]:
    """
    Up-neighbours in the reflected bracket tree: every tree whose rightmost
    deletion gives back t.  A new node is inserted at one of the positions
    along the right spine, taking the subtree it displaces (a right-spine
    suffix) as its left subtree.

    >>> reflected_bracket_covers(None) == frozenset({(None, None)})
    True
    >>> reflected_bracket_covers((None, None)) == frozenset(trees_of(2))
    True
    """
    spine = []
    cur = t
    while cur is not None:
        spine.append(cur)
        cur = cur[1]
    covers = []
    for k in range(len(spine) + 1):
        displaced = spine[k] if k < len(spine) else None
        z: Tree = (displaced, None)
        for j in range(k - 1, -1, -1):
            z = (spine[j][0], z)
        covers.append(z)
    return frozenset(covers)


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


def is_reflected_bracket_cover(t: Tree, u: Tree) -> bool:
    """
    Whether u covers t in the reflected bracket tree, i.e. deleting the
    rightmost node of u gives t, walking the right spine of u once.
    """
    while u is not None and u[1] is not None:
        if t is None or (t[0] is not u[0] and t[0] != u[0]):
            return False
        t, u = t[1], u[1]
    return u is not None and (t is u[0] or t == u[0])


# -- text and JSON forms ---------------------------------------------------

def trees_to_text(trees: Iterable[Tree]) -> list[str]:
    """
    The text of each tree, "-" for the empty tree and "(L,R)" for a node,
    built bottom up without recursion.  Trees built from one another share
    subtrees, so the text of each node object is built once and reused
    wherever it recurs.

    >>> leaf = (None, None)
    >>> trees_to_text([None, leaf, (leaf, leaf)])
    ['-', '(-,-)', '((-,-),(-,-))']
    """
    trees = list(trees)  # keeps every node alive while its id keys the memo
    memo = {id(None): "-"}
    for t in trees:
        # a node is pushed only while its text is missing, and a stack is
        # one root-to-node path, so no node is on it twice
        stack = [] if id(t) in memo else [t]
        while stack:
            left, right = node = stack[-1]
            left_text = memo.get(id(left))
            if left_text is None:
                stack.append(left)
                continue
            right_text = memo.get(id(right))
            if right_text is None:
                stack.append(right)
                continue
            stack.pop()
            memo[id(node)] = f"({left_text},{right_text})"
    return [memo[id(t)] for t in trees]


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


def labeled_tree_to_json_obj(t: LabeledTree):
    """
    Nested {"label", "left", "right"} dicts, None for the empty tree; built
    top down without recursion.

    >>> labeled_tree_to_json_obj((2, (1, None, None), None))
    {'label': 2, 'left': {'label': 1, 'left': None, 'right': None}, 'right': None}
    """
    if t is None:
        return None
    root = {"label": t[0], "left": t[1], "right": t[2]}
    stack = [root]
    while stack:
        obj = stack.pop()
        # obj still holds its children as tuples; replace them by dicts
        for side in ("left", "right"):
            node = obj[side]
            if node is not None:
                obj[side] = child = {"label": node[0], "left": node[1], "right": node[2]}
                stack.append(child)
    return root


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


# -- bracketed expressions -------------------------------------------------

def tree_to_bracketed_expression(t: Tree) -> str:
    """
    The fully parenthesized non-associative product encoding a tree.  The
    tree is completed with leaves, the n+1 leaves are numbered in
    right-to-left infix order, and each internal node multiplies its right
    operand by its left one; composite operands get brackets, the outermost
    product does not.

    >>> tree_to_bracketed_expression(None)
    'x1'
    >>> tree_to_bracketed_expression((None, None))
    'x1x2'
    """
    counter = count(1)

    def go(node: Tree) -> tuple[str, bool]:
        if node is None:
            return f"x{next(counter)}", True
        left, right = node
        rs, r_atom = go(right)
        ls, l_atom = go(left)
        return (rs if r_atom else f"({rs})") + (ls if l_atom else f"({ls})"), False

    return go(t)[0]
