"""
Binary trees and the cover relations of the two graded graphs on them.
Binary search tree insertion, and the steps of the tree growth fill, are
in :mod:`growthdiagrams.bst`, which the graphs never load.

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
from typing import Iterable, Optional

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
