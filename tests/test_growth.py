import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthdiagrams import cli, compositiongrowth, growth, growthcheck, treegrowth
from growthdiagrams.bst import bst_insert
from growthdiagrams.compositions import binword_covers, increment_last, lifted_covers
from growthdiagrams.growth import GrowthRuleError, build_growth_diagram
from growthdiagrams.growthcheck import growth_insert, local_rule_composition, local_rule_tree
from growthdiagrams.permutations import all_permutations, inverse
from growthdiagrams.ribbons import hypoplactic_insert
from growthdiagrams.trees import (
    delete_rightmost,
    insert_rightmost,
    labeled_tree_to_json_obj,
    lattice_covers,
    reflected_bracket_covers,
    right_spine_length,
)
from oracles import (
    boundary_chains,
    chain_pair,
    chain_to_bst,
    chain_to_increasing_tree,
    chain_to_quasi_ribbon,
    chain_to_ribbon,
    composition_label,
    trees_to_text,
    validate_grid,
)
from test_trees import shape

B1 = (None, None)
L2 = (B1, None)
R2 = (None, B1)
B3 = (B1, B1)
M3 = (R2, None)
S4 = (R2, B1)
T4 = (B1, L2)
T5 = (R2, L2)
P6 = (R2, B3)

# growth diagram of 415362 on compositions, rows bottom to top
GRID_415362 = (
    ((), (), (), (), (), (), ()),
    ((), (), (1,), (1,), (1,), (1,), (1,)),
    ((), (), (1,), (1,), (1,), (1,), (2,)),
    ((), (), (1,), (1,), (2,), (2,), (2, 1)),
    ((), (1,), (1, 1), (1, 1), (2, 1), (2, 1), (2, 1, 1)),
    ((), (1,), (1, 1), (1, 2), (2, 2), (2, 2), (2, 1, 2)),
    ((), (1,), (1, 1), (1, 2), (2, 2), (2, 3), (2, 1, 3)),
)

# growth diagram of 351426 on binary trees, rows bottom to top
GRID_351426 = (
    (None, None, None, None, None, None, None),
    (None, None, None, B1, B1, B1, B1),
    (None, None, None, B1, B1, R2, R2),
    (None, B1, B1, L2, L2, M3, M3),
    (None, B1, B1, L2, B3, S4, S4),
    (None, B1, R2, B3, T4, T5, T5),
    (None, B1, R2, B3, T4, T5, P6),
)

perms = st.integers(0, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


def test_local_rule_composition_cases():
    assert local_rule_composition((2, 2), (2, 3), (2, 1, 2), 0) == (2, 1, 3)
    assert local_rule_composition((2, 2), (2, 2), (2, 2), 1) == (2, 3)
    assert local_rule_composition((1,), (2,), (2,), 0) == (2, 1)
    assert local_rule_composition((2, 1), (2, 2), (2, 1, 1), 0) == (2, 1, 2)
    # degenerate cases
    assert local_rule_composition((), (), (), 1) == (1,)
    assert local_rule_composition((2,), (2,), (2,), 0) == (2,)
    assert local_rule_composition((2,), (2,), (2, 1), 0) == (2, 1)
    assert local_rule_composition((2,), (3,), (2,), 0) == (3,)


def test_local_rule_composition_rejects_bad_squares():
    with pytest.raises(ValueError, match=r"^alpha=1 requires t = x = y$"):
        local_rule_composition((2,), (3,), (2,), 1)
    with pytest.raises(ValueError, match=r"^\(1, 2\) is not a vertical cover of \(2,\)$"):
        local_rule_composition((2,), (1, 2), (2, 1), 0)
    with pytest.raises(ValueError, match=r"^\(4,\) is not a horizontal cover of \(2,\)$"):
        local_rule_composition((2,), (3,), (4,), 0)
    with pytest.raises(ValueError, match=r"^alpha must be 0 or 1, got 2$"):
        local_rule_composition((2,), (3,), (2, 1), 2)


def test_local_rule_tree_cases():
    assert local_rule_tree(None, None, None, 1) == B1
    assert local_rule_tree(B1, R2, R2, 0) == (None, L2)
    assert local_rule_tree(B1, L2, R2, 0) == M3
    # the pushed-down case when the rightmost node carries a left chain
    chain2, chain3, chain4 = L2, (L2, None), ((L2, None), None)
    assert local_rule_tree(chain2, chain3, chain3, 0) == chain4
    assert local_rule_tree(None, B1, B1, 0) == L2
    assert local_rule_tree(B1, B1, B1, 1) == R2
    assert local_rule_tree(B1, B1, L2, 0) == L2
    assert local_rule_tree(B1, R2, B1, 0) == R2


def test_local_rule_tree_rejects_bad_squares():
    # B3 and M3 do not cover B1 in the reflected graph, nor B3 in the lattice
    with pytest.raises(ValueError, match=r"is not a vertical cover of \(None, None\)$"):
        local_rule_tree(B1, B3, B1, 0)
    with pytest.raises(ValueError, match=r"is not a vertical cover of \(None, None\)$"):
        local_rule_tree(B1, M3, R2, 0)
    with pytest.raises(ValueError, match=r"^alpha=1 requires t = x = y$"):
        local_rule_tree(B1, R2, R2, 1)
    with pytest.raises(ValueError, match=r"is not a horizontal cover of \(None, None\)$"):
        local_rule_tree(B1, R2, B3, 0)
    with pytest.raises(ValueError, match=r"^alpha must be 0 or 1, got 2$"):
        local_rule_tree(B1, R2, L2, 2)


def test_growth_grid_415362():
    grid = build_growth_diagram((4, 1, 5, 3, 6, 2), "composition")
    assert grid.vertices == GRID_415362
    assert list(grid.rows()) == [list(map(composition_label, row)) for row in GRID_415362]
    top, right = boundary_chains(grid)
    assert right == ((), (1,), (2,), (2, 1), (2, 1, 1), (2, 1, 2), (2, 1, 3))
    assert top == ((), (1,), (1, 1), (1, 2), (2, 2), (2, 3), (2, 1, 3))
    validate_grid(grid)


def test_growth_grid_351426():
    grid = build_growth_diagram((3, 5, 1, 4, 2, 6), "tree")
    assert grid.vertices == GRID_351426
    assert list(grid.rows()) == [trees_to_text(row) for row in GRID_351426]
    top, right = boundary_chains(grid)
    assert right == (None, B1, R2, M3, S4, T5, P6)
    assert top == (None, B1, R2, B3, T4, T5, P6)
    validate_grid(grid)


def random_avoid231(n, rng):
    """A random 231-avoiding permutation: 1..n pushed in order through a
    stack and popped at random times gives a 312-avoiding sequence, whose
    inverse avoids 231."""
    stack, popped = [], []
    for v in range(1, n + 1):
        stack.append(v)
        while stack and rng.random() < 0.5:
            popped.append(stack.pop())
    popped += reversed(stack)
    return inverse(tuple(popped))


def vertex_fill(p, family, order):
    """The growth diagram filled square by square through the public vertex
    rules, in anti-diagonal or row-major order."""
    empty, rule = {"composition": ((), local_rule_composition), "tree": (None, local_rule_tree)}[family]
    n = len(p)
    grid = [[empty] * (n + 1) for _ in range(n + 1)]
    if order == "antidiagonal":
        cells = [(i, s - i) for s in range(2, 2 * n + 1) for i in range(max(1, s - n), min(n, s - 1) + 1)]
    else:
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for i, j in cells:
        grid[i][j] = rule(grid[i - 1][j - 1], grid[i][j - 1], grid[i - 1][j], 1 if p[j - 1] == i else 0)
    return tuple(map(tuple, grid))


def seeded_inputs(n, seed):
    rng = random.Random(seed)
    return {
        "random": tuple(rng.sample(range(1, n + 1), n)),
        "identity": tuple(range(1, n + 1)),
        "reverse": tuple(range(n, 0, -1)),
        "avoid231": random_avoid231(n, rng),
    }


def test_fill_orders_agree():
    # the fill's texts against the vertex rules, in two fill orders
    perms = [p for n in range(8) for p in all_permutations(n)]
    perms += seeded_inputs(150, "fill-orders").values()
    for family in ("composition", "tree"):
        for p in perms:
            texts = list(build_growth_diagram(p, family).rows())
            antidiagonal = vertex_fill(p, family, "antidiagonal")
            assert texts == label_rows(family, antidiagonal), (family, p)
            assert antidiagonal == vertex_fill(p, family, "row-major"), (family, p)
    with pytest.raises(ValueError):
        build_growth_diagram((1,), "matrix")


def test_empty_permutation():
    grid = build_growth_diagram((), "composition")
    assert grid.vertices == (((),),)
    p_tab, q_tab = growth_insert((), "composition")
    assert p_tab.rows == () and q_tab.rows == ()
    assert growth_insert((), "tree") == (None, None)


def test_chain_to_quasi_ribbon():
    chain = ((), (1,), (2,), (2, 1), (2, 1, 1), (2, 1, 2), (2, 1, 3))
    assert chain_to_quasi_ribbon(chain).rows == ((1, 2), (3,), (4, 5, 6))
    assert chain_to_quasi_ribbon(((), (1,))).rows == ((1,),)
    assert chain_to_quasi_ribbon(((), (1,), (1, 1), (1, 1, 1))).rows == ((1,), (2,), (3,))
    with pytest.raises(ValueError):
        chain_to_quasi_ribbon(((), (2,)))
    with pytest.raises(ValueError):
        chain_to_quasi_ribbon(((), (1,), (1, 2)))  # not a lifted cover


def test_chain_to_ribbon():
    chain = ((), (1,), (1, 1), (1, 2), (2, 2), (2, 3), (2, 1, 3))
    assert chain_to_ribbon(chain).rows == ((2, 6), (4,), (1, 3, 5))
    assert chain_to_ribbon(((), (1,))).rows == ((1,),)
    # the split-a-part step: matches the recording tableau of 2463
    chain = ((), (1,), (2,), (3,), (2, 2))
    assert chain_to_ribbon(chain) == hypoplactic_insert((2, 4, 6, 3))[1]
    assert chain_to_ribbon(chain).rows == ((1, 4), (2, 3))
    with pytest.raises(ValueError):
        chain_to_ribbon(((), (1,), (3,)))


def test_chain_to_increasing_tree():
    grid = build_growth_diagram((3, 5, 1, 4, 2, 6), "tree")
    q = chain_to_increasing_tree(boundary_chains(grid)[0])
    assert q == bst_insert((3, 5, 1, 4, 2, 6))[1]
    assert chain_to_increasing_tree((None, B1)) == (1, None, None)
    assert chain_to_increasing_tree((None, B1, L2)) == (1, (2, None, None), None)
    spine_chain = (None, B1, R2, (None, R2))
    assert chain_to_increasing_tree(spine_chain) == bst_insert((1, 2, 3))[1]
    with pytest.raises(ValueError):
        chain_to_increasing_tree((None, B1, (L2, None)))  # skips a rank
    with pytest.raises(ValueError):
        chain_to_increasing_tree((None, L2))


def test_chain_to_bst():
    grid = build_growth_diagram((3, 5, 1, 4, 2, 6), "tree")
    p = chain_to_bst(boundary_chains(grid)[1])
    assert p == bst_insert((3, 5, 1, 4, 2, 6))[0]
    assert chain_to_bst((None, B1)) == (1, None, None)
    # a left comb arises from the decreasing word
    comb_chain = (None, B1, L2, (L2, None))
    assert chain_to_bst(comb_chain) == bst_insert((3, 2, 1))[0]
    with pytest.raises(ValueError):
        chain_to_bst((None, B1, B3))  # skips a rank
    with pytest.raises(ValueError):
        chain_to_bst((None, B1, L2, M3))  # rightmost deletion of M3 gives R2, not L2


def test_growth_insert_matches_insertions_small():
    for n in range(6):
        for p in all_permutations(n):
            assert growth_insert(p, "composition") == hypoplactic_insert(p)
            assert growth_insert(p, "tree") == bst_insert(p, "left-to-right")


@settings(max_examples=30, deadline=None)
@given(perms)
def test_growth_insert_matches_insertions_random(p):
    assert growth_insert(p, "composition") == hypoplactic_insert(p)
    assert growth_insert(p, "tree") == bst_insert(p, "left-to-right")


def test_boundary_shape_laws():
    # interior rows and columns of the grid are shapes of restricted words
    for n in range(7):
        for p in all_permutations(n):
            comp_grid = build_growth_diagram(p, "composition")
            tree_grid = build_growth_diagram(p, "tree")
            top_c, right_c = boundary_chains(comp_grid)
            top_t, right_t = boundary_chains(tree_grid)
            for k in range(n + 1):
                prefix, values = p[:k], tuple(v for v in p if v <= k)
                assert top_c[k] == hypoplactic_insert(prefix)[0].shape
                assert right_c[k] == hypoplactic_insert(values)[0].shape
                assert top_t[k] == shape(bst_insert(prefix)[0])
                assert right_t[k] == shape(bst_insert(values)[0])


def test_interior_vertices_are_insertion_shapes():
    # vertex (i, j) is the shape of the letters <= i among the first j
    for n in range(7):
        for p in all_permutations(n):
            comp_grid = build_growth_diagram(p, "composition").vertices
            tree_grid = build_growth_diagram(p, "tree").vertices
            for i in range(n + 1):
                for j in range(n + 1):
                    word = tuple(v for v in p[:j] if v <= i)
                    assert comp_grid[i][j] == hypoplactic_insert(word)[0].shape, (p, i, j)
                    assert tree_grid[i][j] == shape(bst_insert(word)[0]), (p, i, j)


def preorder(t):
    """Labels of a labeled tree in preorder, None for each empty subtree:
    a flat encoding, compared without recursing into the tree."""
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        out.append(None if t is None else t[0])
        if t is not None:
            stack += (t[2], t[1])
    return out


def flat_bst_insert(p):
    """Left-to-right binary search tree insertion on child tables; returns
    the preorder encodings of the insertion and recording trees."""
    left, right, position = {}, {}, {}
    for k, a in enumerate(p, 1):
        position[a] = k
        cur = p[0]
        while cur != a:
            side = right if a > cur else left
            cur = side.setdefault(cur, a)
    insertion, recording = [], []
    stack = [p[0]] if p else [None]
    while stack:
        v = stack.pop()
        insertion.append(v)
        recording.append(None if v is None else position[v])
        if v is not None:
            stack += (right.get(v), left.get(v))
    return insertion, recording


LARGE_INPUTS = [
    ("identity", tuple(range(1, 2001))),
    ("reverse", tuple(range(2000, 0, -1))),
    *((kind, p) for kind, p in seeded_inputs(1000, "large").items() if kind in ("random", "avoid231")),
]


@pytest.mark.parametrize("family", ["composition", "tree"])
@pytest.mark.parametrize("kind, p", LARGE_INPUTS, ids=[kind for kind, _ in LARGE_INPUTS])
def test_growth_insert_large_n(family, kind, p):
    result = growth_insert(p, family)
    if family == "composition":
        assert result == hypoplactic_insert(p)
    else:
        assert list(map(preorder, result)) == list(flat_bst_insert(p))


def test_flat_bst_insert_matches_bst_insert():
    for n in range(7):
        for p in all_permutations(n):
            assert flat_bst_insert(p) == tuple(map(preorder, bst_insert(p)))


def test_chain_conversions_of_deep_combs():
    # right combs grow at the end of the right spine and in the last slot,
    # left combs at the root and in the first slot
    n = 1000
    right_combs, left_combs = [None], [None]
    for k in range(n):
        right_combs.append(insert_rightmost(right_combs[-1], k))
        left_combs.append(insert_rightmost(left_combs[-1], 0))
    identity, reverse = flat_bst_insert(tuple(range(1, n + 1))), flat_bst_insert(tuple(range(n, 0, -1)))
    assert preorder(chain_to_bst(right_combs)) == identity[0]
    assert preorder(chain_to_increasing_tree(right_combs)) == identity[1]
    assert preorder(chain_to_bst(left_combs)) == reverse[0]
    assert preorder(chain_to_increasing_tree(left_combs)) == reverse[1]


def test_injectivity():
    for family in ("composition", "tree"):
        for n in range(7):
            images = {growth_insert(p, family) for p in all_permutations(n)}
            assert len(images) == len(list(all_permutations(n)))


def test_grid_well_formedness_small():
    for family in ("composition", "tree"):
        for n in range(5):
            for p in all_permutations(n):
                validate_grid(build_growth_diagram(p, family))


def test_grid_validate_catches_corruption():
    grid = build_growth_diagram((2, 1, 3), "composition")
    vertices = [list(row) for row in grid.vertices]
    vertices[2][2] = (2,)
    corrupted = SimpleNamespace(**grid._asdict(), vertices=tuple(tuple(row) for row in vertices))
    with pytest.raises(ValueError):
        validate_grid(corrupted)


def growth_json(capsys, family, p):
    """The JSON that ``growthdiag growth`` writes for p, parsed."""
    assert cli.main(["growth", family, ",".join(map(str, p)), "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_grid_json_schema(capsys):
    obj = growth_json(capsys, "composition", (2, 1))
    assert obj["n"] == 2
    assert obj["family"] == "composition"
    assert obj["grid"][0] == [[], [], []]
    assert obj["marks"] == [[1, 2], [2, 1]]
    assert obj["P"] == {"shape": [1, 1], "rows": [[1], [2]]}
    assert obj["Q"] == {"shape": [1, 1], "rows": [[2], [1]]}
    tree_obj = growth_json(capsys, "tree", (2, 1))
    assert tree_obj["grid"][2][2] == "((-,-),-)"
    assert tree_obj["P"]["label"] == 2


@pytest.mark.parametrize("family", ["composition", "tree"])
def test_grid_json_takes_the_converted_pair(capsys, family):
    # the pair written is the one that the grid's boundary chains encode
    p = (3, 1, 4, 2)
    to_json = {"composition": lambda tableau: tableau.to_json_obj(), "tree": labeled_tree_to_json_obj}[family]
    obj = growth_json(capsys, family, p)
    assert [obj["P"], obj["Q"]] == list(map(to_json, chain_pair(build_growth_diagram(p, family))))


@pytest.mark.parametrize("family", ["composition", "tree"])
def test_grid_pair_from_the_fill_labels_equals_the_chain_conversion(family):
    rng = random.Random(18)
    for n in (0, 1, 2, 5, 40):
        p = list(range(1, n + 1))
        rng.shuffle(p)
        grid = build_growth_diagram(p, family)
        assert grid.pair() == chain_pair(grid) == growth_insert(p, family)


def test_composition_grid_json_is_the_rows_lists_of_parts():
    # each row's part is the JSON of that row's lists of parts, "[]" for
    # the empty composition, made from the row's texts at once
    p = list(range(1, 31))
    random.Random(5).shuffle(p)
    grid = build_growth_diagram(p, "composition")
    parts = list(grid.json_parts(0))
    assert len(parts) == grid.n + 2
    lists = [[list(v) for v in row] for row in grid.vertices]
    assert [json.loads(part[1:]) for part in parts[:-1]] == lists
    assert json.loads("".join(parts)) == lists


# -- vertex texts ---------------------------------------------------------------

def label_rows(family, vertices):
    """The print name of each vertex of a grid, the trees' rendered at
    once, so that they share the texts of shared nodes."""
    k = len(vertices)
    cells = [v for row in vertices for v in row]
    labels = trees_to_text(cells) if family == "tree" else list(map(composition_label, cells))
    return [labels[i : i + k] for i in range(0, len(labels), k)]


def assert_texts_are_vertex_labels(p, family):
    """Each text the fill carries is the print name of its vertex, which
    the local rules rebuild square by square."""
    grid = build_growth_diagram(p, family)
    assert list(grid.rows()) == label_rows(family, grid.vertices), p


def test_tree_texts_are_vertex_texts_exhaustive():
    for n in range(8):
        for p in all_permutations(n):
            assert_texts_are_vertex_labels(p, "tree")


@pytest.mark.parametrize("kind", ["random", "identity", "reverse", "avoid231"])
def test_tree_texts_are_vertex_texts_seeded(kind):
    assert_texts_are_vertex_labels(seeded_inputs(300, f"texts-{kind}")[kind], "tree")


def test_composition_texts_are_vertex_labels_exhaustive():
    for n in range(8):
        for p in all_permutations(n):
            assert_texts_are_vertex_labels(p, "composition")


@pytest.mark.parametrize("kind", ["random", "identity", "reverse", "avoid231"])
def test_composition_texts_are_vertex_labels_seeded(kind):
    assert_texts_are_vertex_labels(seeded_inputs(300, f"texts-{kind}")[kind], "composition")


def test_degenerate_edges_pass_texts_on():
    assert list(build_growth_diagram((2, 3, 1), "composition").rows()) == [
        ["e", "e", "e", "e"], ["e", "e", "e", "1"], ["e", "1", "1", "1,1"], ["e", "1", "2", "1,2"],
    ]
    grid = build_growth_diagram((2, 1), "tree")
    assert list(grid.rows()) == [["-", "-", "-"], ["-", "-", "(-,-)"], ["-", "(-,-)", "((-,-),-)"]]
    # a vertex passed across (case (d)) or up (case (c)) shares its text
    texts = list(build_growth_diagram((1, 2), "tree").rows())
    assert texts[1][2] is texts[1][1] is texts[2][1]


def _patch_step(monkeypatch, family, change):
    """Make the text fill's step read its carried state through change."""
    step = growth._pair(family).step
    _patch_pair(monkeypatch, family, step=lambda below, *labels: step(change(*below), *labels))


def test_a_wrong_splice_offset_is_caught(monkeypatch):
    p = seeded_inputs(30, "wrong-splice")["random"]
    assert_texts_are_vertex_labels(p, "tree")
    # wraps the subtree one character late whenever the spine node exists:
    # the spliced text no longer covers the vertex to its left
    _patch_step(
        monkeypatch, "tree",
        lambda texts, spines, leaves: (texts, [tuple(offset + 1 for offset in spine) for spine in spines], leaves),
    )
    grid = build_growth_diagram(p, "tree")
    with pytest.raises(GrowthRuleError, match="does not cover"):
        list(grid.rows())


@pytest.mark.parametrize("family", ["composition", "tree"])
def test_only_the_rows_run_the_text_fill(monkeypatch, capsys, family):
    # the grid holds labels only: its texts are made, one step per row
    # above the bottom one, by the reader that makes its rows
    p = seeded_inputs(20, "text-steps")["random"]
    step = growth._pair(family).step
    rows = []

    def counted(below, c, *labels):
        rows.append(c)
        return step(below, c, *labels)

    _patch_pair(monkeypatch, family, step=counted)
    build_growth_diagram(p, family)
    assert rows == []
    assert cli.main(["growth", family, ",".join(map(str, p)), "--format", "json"]) == 0
    capsys.readouterr()
    assert rows == list(inverse(p))


@pytest.mark.parametrize("shift", [-3, 1, 10**6])
def test_a_wrong_leaf_offset_is_caught(monkeypatch, shift):
    # the leaf that each grown vertex adds is looked for only where the
    # splice moves the one below: a carried offset that is off is caught
    p = seeded_inputs(40, "wrong-leaf")["random"]
    assert_texts_are_vertex_labels(p, "tree")
    _patch_step(monkeypatch, "tree", lambda texts, spines, leaves: (texts, spines, [o + shift for o in leaves]))
    with pytest.raises(GrowthRuleError, match="does not cover"):
        list(build_growth_diagram(p, "tree").rows())


# -- the search-based local rules, kept as an oracle for the closed forms -----

def search_rule_composition(t, x, y, alpha):
    """Square completion with case (f) found by searching the cover sets."""
    assert x == t or x in lifted_covers(t)
    assert y == t or y in binword_covers(t)
    if alpha == 1:
        return increment_last(t)
    if x == t:
        return y
    if y == t:
        return x
    if x == y:
        return x + (1,)
    matches = [c for c in lifted_covers(y) if c in binword_covers(x)]
    assert len(matches) == 1, (t, x, y, matches)
    return matches[0]


def search_rule_tree(t, x, y, alpha):
    """Square completion with case (f) found by searching the cover sets."""
    assert x == t or x in reflected_bracket_covers(t)
    assert y == t or y in lattice_covers(t)
    if alpha == 1:
        return insert_rightmost(t, right_spine_length(t))
    if x == t:
        return y
    if y == t:
        return x
    if x == y:
        return insert_rightmost(y, right_spine_length(y) - 1)
    matches = [c for c in lattice_covers(x) if delete_rightmost(c) == y]
    assert len(matches) == 1, (t, x, y, matches)
    return matches[0]


SEARCH_RULES = {"composition": search_rule_composition, "tree": search_rule_tree}


def assert_squares_match_search(p, family):
    """Every square of the closed-form grid is the search rule's completion."""
    v = build_growth_diagram(p, family).vertices
    rule = SEARCH_RULES[family]
    for i in range(1, len(p) + 1):
        for j in range(1, len(p) + 1):
            alpha = 1 if p[j - 1] == i else 0
            assert v[i][j] == rule(v[i - 1][j - 1], v[i][j - 1], v[i - 1][j], alpha), (p, i, j)


@pytest.mark.parametrize("family", ["composition", "tree"])
def test_closed_form_matches_search_exhaustive(family):
    for n in range(8):
        for p in all_permutations(n):
            assert_squares_match_search(p, family)


@pytest.mark.parametrize("family", ["composition", "tree"])
@pytest.mark.parametrize("kind", ["random", "identity", "reverse", "avoid231"])
def test_closed_form_matches_search_seeded(family, kind):
    n = 60
    p = seeded_inputs(n, f"{family}-{kind}")[kind]
    assert sorted(p) == list(range(1, n + 1))
    assert_squares_match_search(p, family)


def test_random_avoid231_avoids_231():
    rng = random.Random(0)
    for n in range(8):
        for _ in range(20):
            p = random_avoid231(n, rng)
            assert not any(
                p[k] < p[i] < p[j] for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)
            )


def _plant_join(monkeypatch, family, join):
    """Replace the case (f) join of a family's square record for one test."""
    square = growthcheck._square(family)
    monkeypatch.setattr(growthcheck, "_square", lambda name: square._replace(join=join))


def test_exit_check_catches_a_wrong_composition_join(monkeypatch):
    t, x, y = (2, 2), (2, 3), (2, 1, 2)
    assert local_rule_composition(t, x, y, 0) == (2, 1, 3)
    # append the other letter: z still covers y in the lifted binary tree,
    # but no longer covers x in Binword
    _plant_join(monkeypatch, "composition", lambda t, x, y: y + (1,) if len(x) == len(t) else increment_last(y))
    with pytest.raises(GrowthRuleError, match=r"^z=\(2, 1, 2, 1\) does not cover x=\(2, 3\) and y=\(2, 1, 2\)$"):
        local_rule_composition(t, x, y, 0)


def test_exit_check_catches_a_wrong_tree_join(monkeypatch):
    t, x, y = B1, R2, L2
    assert local_rule_tree(t, x, y, 0) == B3
    # insert at the root instead: z still covers y in the reflected bracket
    # tree, but no longer covers x in the lattice
    _plant_join(monkeypatch, "tree", lambda t, x, y: insert_rightmost(y, 0))
    with pytest.raises(GrowthRuleError, match=r"^z=.* does not cover x=.* and y=.*$"):
        local_rule_tree(t, x, y, 0)


def _patch_pair(monkeypatch, family, **fields):
    """Replace fields of a family's DualPair record for one test."""
    module = {"composition": compositiongrowth, "tree": treegrowth}[family]
    monkeypatch.setattr(module, "PAIR", module.PAIR._replace(**fields))


def test_a_wrong_composition_label_rule_is_caught(monkeypatch):
    p = (4, 1, 5, 3, 6, 2)
    assert build_growth_diagram(p, "composition").vertices == GRID_415362
    # case (f) appends the other letter: z still covers y in the lifted
    # binary tree, but no longer covers x in Binword
    join = growth._pair("composition").join

    def wrong_join(a, h, rank):
        labels = join(a, h, rank)
        return labels if labels != (a, h) else (1 - a, h)

    _patch_pair(monkeypatch, "composition", join=wrong_join)
    grid = build_growth_diagram(p, "composition")
    with pytest.raises(GrowthRuleError):
        list(grid.rows())
    monkeypatch.undo()
    # a marked square appending a 0 to the empty word: growth_insert builds
    # no vertex, and the label fill rejects the label
    _patch_pair(monkeypatch, "composition", mark=lambda rank, spine: (0, 2 * rank + 2))
    with pytest.raises(GrowthRuleError):
        growth_insert(p, "composition")
    monkeypatch.undo()
    # case (f) inserting a letter past the end of x's word
    _patch_pair(monkeypatch, "composition", join=lambda a, h, rank: (a, 2 * rank + 6))
    with pytest.raises(GrowthRuleError):
        growth_insert(p, "composition")


def test_a_wrong_tree_label_rule_is_caught(monkeypatch):
    p = (3, 5, 1, 4, 2, 6)
    assert build_growth_diagram(p, "tree").vertices == GRID_351426
    # cases (e) and (f) insert at the root instead: z still covers y in the
    # reflected bracket tree, but no longer covers x in the lattice
    _patch_pair(monkeypatch, "tree", join=lambda k, s, rank: (0, s))
    grid = build_growth_diagram(p, "tree")
    with pytest.raises(GrowthRuleError):
        list(grid.rows())
    monkeypatch.undo()
    # a marked square one level below the right spine
    _patch_pair(monkeypatch, "tree", mark=lambda rank, spine: (spine + 1, rank))
    with pytest.raises(GrowthRuleError):
        growth_insert(p, "tree")
    monkeypatch.undo()
    # cases (e) and (f) hanging a leaf past the last slot of x
    _patch_pair(monkeypatch, "tree", join=lambda k, s, rank: (k, rank + 2))
    with pytest.raises(GrowthRuleError):
        growth_insert(p, "tree")


@pytest.mark.parametrize(
    "call",
    [
        lambda family: build_growth_diagram((2, 1), family),
        lambda family: growth_insert((2, 1), family),
        lambda family: build_growth_diagram((2, 1), "tree")._replace(family=family).pair(),
    ],
    ids=["build_growth_diagram", "growth_insert", "pair"],
)
def test_an_unknown_family_is_one_value_error(call):
    with pytest.raises(ValueError) as excinfo:
        call("forest")
    assert str(excinfo.value) == "unknown family 'forest'"
    assert type(excinfo.value) is ValueError
