import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from growthdiagrams.permutations import all_permutations, inverse
from growthdiagrams.bst import bst_insert, insert_rightmost, is_lattice_cover, labeled_tree_to_text
from growthdiagrams.trees import (
    delete_rightmost,
    is_reflected_bracket_cover,
    labeled_tree_to_json_obj,
    lattice_covers,
    reflected_bracket_covers,
    right_spine_length,
    tree_to_bracketed_expression,
    trees_of,
    trees_to_text,
)
from oracles import (
    is_decreasing_tree,
    is_increasing_tree,
    is_search_tree,
    labeled_tree_from_json_obj,
    tree_from_text,
)

B1 = (None, None)
L2 = (B1, None)
R2 = (None, B1)

perms = st.integers(0, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


def shape(t):
    """Oracle: the unlabeled tree of a labeled tree."""
    if t is None:
        return None
    _, left, right = t
    return (shape(left), shape(right))


def node_count(t):
    return 0 if t is None else 1 + node_count(t[0]) + node_count(t[1])


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def path_copying_bst_insert(word, reading="left-to-right"):
    """Reference: insert each letter as a leaf, copying the root-to-leaf
    path of both trees (recursive, so only for shallow trees)."""
    if len(set(word)) != len(word):
        raise ValueError("letters must be distinct")
    if reading == "left-to-right":
        items = list(enumerate(word, 1))
    elif reading == "right-to-left":
        items = [(i, word[i - 1]) for i in range(len(word), 0, -1)]
    else:
        raise ValueError(f"unknown reading {reading!r}")

    def graft(p, q, a, pos):
        if p is None:
            return (a, None, None), (pos, None, None)
        if a > p[0]:
            right_p, right_q = graft(p[2], q[2], a, pos)
            return (p[0], p[1], right_p), (q[0], q[1], right_q)
        left_p, left_q = graft(p[1], q[1], a, pos)
        return (p[0], left_p, p[2]), (q[0], left_q, q[2])

    insertion = recording = None
    for pos, a in items:
        insertion, recording = graft(insertion, recording, a, pos)
    return insertion, recording


READINGS = ("left-to-right", "right-to-left")


def test_bst_insert_equals_path_copying_insertion():
    for reading in READINGS:
        for n in range(8):
            for w in all_permutations(n):
                assert bst_insert(w, reading) == path_copying_bst_insert(w, reading), (w, reading)
    # distinct letters with gaps, negatives and any order of magnitude
    rng = random.Random(2024)
    for _ in range(300):
        word = rng.sample(range(-10**6, 10**6), rng.randint(0, 60))
        for reading in READINGS:
            assert bst_insert(word, reading) == path_copying_bst_insert(word, reading), (word, reading)


@pytest.mark.parametrize("reading", READINGS)
def test_bst_insert_of_long_chains(reading):
    n = 100_000
    positions = range(1, n + 1) if reading == "left-to-right" else range(n, 0, -1)
    for word in (range(1, n + 1), range(n, 0, -1)):
        p, q = bst_insert(word, reading)
        # letters inserted in increasing order make a right chain, in
        # decreasing order a left one; P and Q count them off along it
        inserted = [word[k - 1] for k in positions]
        side = 2 if inserted[0] < inserted[1] else 1
        letters, labels = [], []
        while p is not None:
            assert p[3 - side] is None and q[3 - side] is None
            letters.append(p[0])
            labels.append(q[0])
            p, q = p[side], q[side]
        assert q is None
        assert letters == inserted
        assert labels == list(positions)


def test_bst_insert_errors():
    # distinctness is checked before the reading
    for reading in (*READINGS, "sideways"):
        with pytest.raises(ValueError, match="letters must be distinct"):
            bst_insert((2, 1, 2), reading)
    with pytest.raises(ValueError, match="unknown reading 'sideways'"):
        bst_insert((2, 1), "sideways")
    with pytest.raises(ValueError, match="unknown reading"):
        bst_insert((), "sideways")


def test_bst_insert_351426():
    p, q = bst_insert((3, 5, 1, 4, 2, 6))
    assert p == (3, (1, None, (2, None, None)), (5, (4, None, None), (6, None, None)))
    assert q == (1, (3, None, (5, None, None)), (2, (4, None, None), (6, None, None)))


def test_bst_insert_increasing_word():
    p, q = bst_insert((1, 2, 3))
    assert p == (1, None, (2, None, (3, None, None)))
    assert q == p
    assert bst_insert(()) == (None, None)


def test_sylvester_reading():
    word = (3, 5, 1, 4, 2, 6)
    p, q = bst_insert(word, "right-to-left")
    # oracle: the insertion tree is the BST of the reversed word
    p_rev, _ = bst_insert(tuple(reversed(word)))
    assert p == p_rev
    assert is_decreasing_tree(q)
    assert shape(p) == shape(q)
    with pytest.raises(ValueError):
        bst_insert(word, "sideways")


def test_insertion_invariants_exhaustive():
    for n in range(8):
        for w in all_permutations(n):
            p, q = bst_insert(w)
            assert is_search_tree(p)
            assert is_increasing_tree(q)
            assert shape(p) == shape(q)
            ps, qs = bst_insert(w, "right-to-left")
            assert is_search_tree(ps)
            assert is_decreasing_tree(qs)


def test_recording_tree_carries_positions():
    # the recording label of the node holding value v is the position of v
    for w in all_permutations(4):
        p, q = bst_insert(w, "right-to-left")
        inv = inverse(w)

        def walk(tp, tq):
            if tp is None:
                assert tq is None
                return
            assert tq[0] == inv[tp[0] - 1]
            walk(tp[1], tq[1])
            walk(tp[2], tq[2])

        walk(p, q)


def test_catalan_counts():
    for n in range(11):
        ts = trees_of(n)
        assert len(ts) == catalan(n)
        assert len(set(ts)) == len(ts)
        assert all(node_count(t) == n for t in ts)


def test_canonical_order_left_size_descending():
    sizes = [node_count(t[0]) for t in trees_of(4)]
    assert sizes == sorted(sizes, reverse=True)
    assert trees_of(2) == (L2, R2)


def test_lattice_covers():
    assert lattice_covers(None) == {B1}
    assert lattice_covers(B1) == {L2, R2}
    assert len(lattice_covers(L2)) == 3
    for n in range(8):
        for t in trees_of(n):
            covers = lattice_covers(t)
            assert len(covers) == n + 1
            assert all(node_count(c) == n + 1 for c in covers)


def test_delete_rightmost():
    assert delete_rightmost(B1) is None
    assert delete_rightmost(L2) == B1
    with pytest.raises(ValueError):
        delete_rightmost(None)
    # the shape of the insertion tree of 351426 loses its rightmost node
    # when the last letter (the maximum) is dropped
    p6 = shape(bst_insert((3, 5, 1, 4, 2, 6))[0])
    p5 = shape(bst_insert((3, 5, 1, 4, 2))[0])
    assert delete_rightmost(p6) == p5


def test_reflected_bracket_covers():
    assert reflected_bracket_covers(None) == {B1}
    assert reflected_bracket_covers(B1) == {L2, R2}
    for n in range(8):
        for t in trees_of(n):
            for y in reflected_bracket_covers(t):
                assert delete_rightmost(y) == t


def test_reflected_bracket_unique_parent():
    # every tree of rank n+1 appears exactly once among the covers of rank n
    for n in range(8):
        seen = []
        for t in trees_of(n):
            seen.extend(reflected_bracket_covers(t))
        assert sorted(trees_to_text(seen)) == sorted(trees_to_text(trees_of(n + 1)))


def test_spine_helpers():
    # the marked square of the tree rule extends the right spine, and its
    # case x = y pushes the rightmost node down as the new node's left child
    def extend(t):
        return insert_rightmost(t, right_spine_length(t))

    def push_down(t):
        return insert_rightmost(t, right_spine_length(t) - 1)

    assert extend(None) == B1
    assert extend(L2) == (B1, B1)
    assert push_down(B1) == L2
    assert push_down(R2) == (None, L2)
    # a left chain grows at the bottom: the pushed-down node keeps its chain
    chain3 = ((B1, None), None)
    assert push_down(chain3) == (chain3, None)


def test_insert_rightmost():
    assert insert_rightmost(None, 0) == B1
    assert insert_rightmost(R2, 0) == (R2, None)
    assert insert_rightmost(R2, 1) == (None, L2)
    assert insert_rightmost(R2, 2) == (None, R2)
    with pytest.raises(ValueError):
        insert_rightmost(B1, 2)
    for n in range(6):
        for t in trees_of(n):
            for k in range(right_spine_length(t) + 1):
                assert delete_rightmost(insert_rightmost(t, k)) == t


@pytest.mark.parametrize(
    "is_cover, covers",
    [(is_lattice_cover, lattice_covers), (is_reflected_bracket_cover, reflected_bracket_covers)],
)
def test_cover_predicates_match_cover_sets(is_cover, covers):
    for n in range(7):
        for t in trees_of(n):
            expected = covers(t)
            for u in trees_of(n + 1):
                # a rebuilt copy shares no subtree with t, so every
                # comparison runs by value, not by identity
                rebuilt = tree_from_text(trees_to_text((u,))[0])
                assert is_cover(t, u) == is_cover(t, rebuilt) == (u in expected), (t, u)
            assert not any(is_cover(t, u) for u in trees_of(n))
        assert not any(is_cover(t, u) for t in trees_of(n) for u in trees_of(n + 2))


def test_bracketed_expression_examples():
    lemma_tree = ((None, B1), B1)
    assert tree_to_bracketed_expression(lemma_tree) == "(x1x2)((x3x4)x5)"
    assert tree_to_bracketed_expression(None) == "x1"
    assert tree_to_bracketed_expression(B1) == "x1x2"


def test_bracketed_expression_shape():
    # a rank-n tree multiplies n+1 atoms with n-1 visible bracket pairs
    for n in range(7):
        for t in trees_of(n):
            expr = tree_to_bracketed_expression(t)
            assert expr.count("x") == n + 1
            assert expr.count("(") == expr.count(")") == max(n - 1, 0)


def test_bracketed_expression_injective():
    seen = set()
    total = 0
    for n in range(9):
        for t in trees_of(n):
            seen.add(tree_to_bracketed_expression(t))
            total += 1
    assert len(seen) == total


def test_text_round_trip():
    for n in range(7):
        for t in trees_of(n):
            assert tree_from_text(trees_to_text((t,))[0]) == t
    assert trees_to_text((L2,)) == ["((-,-),-)"]
    with pytest.raises(ValueError):
        tree_from_text("((-,-)")
    with pytest.raises(ValueError):
        tree_from_text("-x")


def _recursive_text(t):
    return "-" if t is None else f"({_recursive_text(t[0])},{_recursive_text(t[1])})"


def test_trees_to_text_matches_the_recursive_form():
    all_trees = [t for n in range(7) for t in trees_of(n)]
    # trees_of shares subtrees between trees; parsed copies share none
    copies = [tree_from_text(_recursive_text(t)) for t in all_trees]
    expected = [_recursive_text(t) for t in all_trees]
    assert trees_to_text(all_trees + copies + all_trees) == expected * 3
    assert [trees_to_text((t,))[0] for t in copies] == expected


def test_labeled_text_and_json():
    p, _ = bst_insert((3, 5, 1, 4, 2, 6))
    assert labeled_tree_to_text(p) == "((- 1 (- 2 -)) 3 ((- 4 -) 5 (- 6 -)))"
    assert labeled_tree_from_json_obj(labeled_tree_to_json_obj(p)) == p
    assert labeled_tree_to_json_obj(None) is None


@given(perms)
def test_bst_shapes_agree_random(w):
    p, q = bst_insert(w)
    assert shape(p) == shape(q)
    assert is_search_tree(p) and is_increasing_tree(q)
