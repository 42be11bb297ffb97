import itertools
import json
import math
from dataclasses import dataclass

import pytest

from growthdiagrams import compositions, graphs, trees
from growthdiagrams.graphs import (
    DUAL_PAIRS,
    GRAPH_NAMES,
    DualityCounterexample,
    DualityReport,
    GradedGraph,
    RankGuardError,
    chain_counts,
    check_duality,
    export_dot,
    export_graph,
    export_json,
    make_graph,
    path_count_identity,
    vertex_labels,
)

# edge sets of the two composition graphs up to rank 4, straight from the
# drawings (compositions written as digit strings)
LIFTED_EDGES_4 = {
    ("e", "1"),
    ("1", "2"), ("1", "11"),
    ("2", "3"), ("2", "21"), ("11", "12"), ("11", "111"),
    ("3", "4"), ("3", "31"), ("21", "22"), ("21", "211"),
    ("12", "13"), ("12", "121"), ("111", "112"), ("111", "1111"),
}
BINWORD_EDGES_4 = {
    ("e", "1"),
    ("1", "2"), ("1", "11"),
    ("2", "3"), ("2", "21"), ("2", "12"),
    ("11", "12"), ("11", "111"), ("11", "21"),
    ("3", "4"), ("3", "31"), ("3", "13"), ("3", "22"),
    ("21", "31"), ("21", "22"), ("21", "211"), ("21", "121"),
    ("12", "22"), ("12", "13"), ("12", "121"), ("12", "112"),
    ("111", "211"), ("111", "121"), ("111", "112"), ("111", "1111"),
}


def up_edges(g, n):
    """(v, u) for each edge from rank n up to rank n+1, read from the up-table."""
    above = g.vertices_at(n + 1)
    return [(v, above[i]) for v, row in zip(g.vertices_at(n), g.up_table(n)) for i in row]


def edge_set(graph_name, max_rank):
    g = make_graph(graph_name)
    label = lambda v: _recursive_label(g.family, v).replace(",", "")
    return {(label(v), label(u)) for n in range(max_rank) for v, u in up_edges(g, n)}


def test_make_graph_vertices():
    assert make_graph("lifted-binary-tree").vertices_at(3) == ((3,), (2, 1), (1, 2), (1, 1, 1))
    lattice = make_graph("tree-lattice")
    assert [len(lattice.vertices_at(n)) for n in range(5)] == [1, 1, 2, 5, 14]
    binword = make_graph("binword")
    ups = {u for v, u in up_edges(binword, 2) if v == (2,)}
    assert ups == {(3,), (2, 1), (1, 2)}


def test_make_graph_rejects_unknown():
    with pytest.raises(ValueError):
        make_graph("young-lattice")


def test_graph_edges_match_the_drawings():
    assert edge_set("lifted-binary-tree", 4) == LIFTED_EDGES_4
    assert edge_set("binword", 4) == BINWORD_EDGES_4


# -- oracle: the duality check through exact integer operator matrices -------

@dataclass(frozen=True)
class OperatorMatrix:
    """Sparse integer matrix {(i, j): weight}; rows and columns are vertex
    tuples in canonical order."""

    row_vertices: tuple
    col_vertices: tuple
    entries: dict

    def transpose(self):
        return OperatorMatrix(
            row_vertices=self.col_vertices,
            col_vertices=self.row_vertices,
            entries={(j, i): w for (i, j), w in self.entries.items()},
        )

    def to_dense(self):
        dense = [[0] * len(self.col_vertices) for _ in self.row_vertices]
        for (i, j), w in self.entries.items():
            dense[i][j] = w
        return dense


def up_matrix(g, n):
    """U_n: entry (y, x) is 1 for each up edge x -> y of the up-table."""
    entries = {(i, j): 1 for j, row in enumerate(g.up_table(n)) for i in row}
    return OperatorMatrix(row_vertices=g.vertices_at(n + 1), col_vertices=g.vertices_at(n), entries=entries)


def down_matrix(g, n):
    """D_n, the transpose of U_{n-1}."""
    if n < 1:
        raise ValueError("down_matrix is defined for n >= 1")
    return up_matrix(g, n - 1).transpose()


def matmul(a, b):
    if a.col_vertices != b.row_vertices:
        raise ValueError("matrix shapes do not compose")
    by_row = {}
    for (k, j), w in b.entries.items():
        by_row.setdefault(k, []).append((j, w))
    out = {}
    for (i, k), aw in a.entries.items():
        for j, bw in by_row.get(k, ()):
            out[(i, j)] = out.get((i, j), 0) + aw * bw
    return OperatorMatrix(
        row_vertices=a.row_vertices,
        col_vertices=b.col_vertices,
        entries={k: w for k, w in out.items() if w},
    )


def oracle_check_duality(g1, g2, max_rank):
    """D_{n+1} U_n - U_{n-1} D_n - I_n, multiplied out rank by rank."""
    for n in range(max_rank + 2):
        if g1.vertices_at(n) != g2.vertices_at(n):
            raise ValueError(f"{g1.name} and {g2.name} do not share the rank-{n} vertex set")
    verdicts = []
    counterexample = None
    for n in range(max_rank + 1):
        lhs = matmul(down_matrix(g2, n + 1), up_matrix(g1, n))
        diff = dict(lhs.entries)
        if n >= 1:
            rhs = matmul(up_matrix(g1, n - 1), down_matrix(g2, n))
            for key, w in rhs.entries.items():
                diff[key] = diff.get(key, 0) - w
        for i in range(len(lhs.row_vertices)):
            diff[(i, i)] = diff.get((i, i), 0) - 1
        bad = sorted(key for key, w in diff.items() if w)
        verdicts.append(not bad)
        if bad and counterexample is None:
            i, j = bad[0]
            expected = 1 if i == j else 0
            counterexample = DualityCounterexample(
                rank=n,
                row_label=_recursive_label(g1.family, lhs.row_vertices[i]),
                col_label=_recursive_label(g1.family, lhs.col_vertices[j]),
                got=diff[(i, j)] + expected,
                expected=expected,
            )
    return DualityReport(
        pair=f"({g1.name}, {g2.name})",
        max_rank=max_rank,
        rank_verdicts=tuple(verdicts),
        counterexample=counterexample,
    )


def test_up_matrix_examples():
    lifted = make_graph("lifted-binary-tree")
    assert up_matrix(lifted, 0).to_dense() == [[1]]
    u1 = up_matrix(lifted, 1)
    assert u1.to_dense() == [[1], [1]]
    assert u1.row_vertices == ((2,), (1, 1))
    binword = make_graph("binword")
    u2 = up_matrix(binword, 2)
    assert all(w in (0, 1) for row in u2.to_dense() for w in row)
    # row sums count how many rank-2 vertices each rank-3 vertex covers
    in_degrees = [sum(row) for row in u2.to_dense()]
    assert in_degrees == [
        sum(1 for c in binword.vertices_at(2) if v in compositions.binword_covers(c))
        for v in binword.vertices_at(3)
    ]
    # column x of U_n holds the value-level covers of x
    for name in GRAPH_NAMES:
        g = make_graph(name)
        for n in range(5):
            u = up_matrix(g, n)
            for j, v in enumerate(g.vertices_at(n)):
                assert {u.row_vertices[i] for (i, jj) in u.entries if jj == j} == VALUE_COVERS[name](v)


def test_down_matrix_is_transpose_of_up():
    for name in GRAPH_NAMES:
        g = make_graph(name)
        for n in range(4):
            down = down_matrix(g, n + 1)
            assert down.to_dense() == [list(col) for col in zip(*up_matrix(g, n).to_dense())]
            # row x of D_{n+1} holds the rank-(n+1) vertices that cover x
            for i, x in enumerate(g.vertices_at(n)):
                above = {down.col_vertices[j] for (ii, j) in down.entries if ii == i}
                assert above == VALUE_COVERS[name](x)
    with pytest.raises(ValueError):
        down_matrix(make_graph("binword"), 0)


def test_matmul_rejects_mismatched_shapes():
    lifted = make_graph("lifted-binary-tree")
    with pytest.raises(ValueError):
        matmul(up_matrix(lifted, 3), up_matrix(lifted, 1))


@pytest.mark.parametrize(
    "family, top_rank", [("composition", 8), ("tree", 7)]
)
def test_duality_matches_matrix_oracle(family, top_rank):
    names = [name for name in GRAPH_NAMES if make_graph(name).family == family]
    seen_failures = 0
    for name1, name2 in itertools.product(names, repeat=2):
        g1, g2 = make_graph(name1), make_graph(name2)
        for max_rank in range(top_rank + 1):
            report = check_duality(g1, g2, max_rank)
            assert report == oracle_check_duality(g1, g2, max_rank)
            seen_failures += report.counterexample is not None
    # the comparison covers failing reports, from the pairs that are not dual
    assert seen_failures > 0


# -- the up-tables against the value-level cover functions -------------------

VALUE_COVERS = {
    "lifted-binary-tree": compositions.lifted_covers,
    "binword": compositions.binword_covers,
    "tree-lattice": trees.lattice_covers,
    "reflected-bracket-tree": trees.reflected_bracket_covers,
}


@pytest.mark.parametrize("name", GRAPH_NAMES)
def test_up_tables_match_value_level_covers(name):
    """Every table row, up to the rank guard, holds the sorted canonical
    indices of the covers that the value-level function computes."""
    g = make_graph(name)
    top = graphs.MAX_RANK[g.family]
    for n in range(top):
        index = {v: i for i, v in enumerate(g.vertices_at(n + 1))}
        table = g.up_table(n)
        assert len(table) == len(g.vertices_at(n))
        for row, v in zip(table, g.vertices_at(n)):
            assert row == tuple(sorted(index[u] for u in VALUE_COVERS[name](v)))
    with pytest.raises(RankGuardError):
        g.up_table(top)


@pytest.mark.parametrize("name", GRAPH_NAMES)
@pytest.mark.parametrize("wrong", ["edge-dropped", "edge-added", "edge-moved"])
def test_one_wrong_table_entry_is_caught(monkeypatch, name, wrong):
    family, table = graphs._GRAPHS[name]
    rank, vertex = 3, 1

    def mutated(n):
        rows = table(n)
        if n != rank:
            return rows
        row = rows[vertex]
        stranger = next(z for z in range(len(table(n + 1))) if z not in row)
        bad = {
            "edge-dropped": row[:-1],
            "edge-added": tuple(sorted(row + (stranger,))),
            "edge-moved": tuple(sorted(row[:-1] + (stranger,))),
        }[wrong]
        return rows[:vertex] + (bad,) + rows[vertex + 1:]

    monkeypatch.setitem(graphs._GRAPHS, name, (family, mutated))
    pair = next(pair for pair in DUAL_PAIRS.values() if name in pair)
    g1, g2 = (make_graph(n) for n in pair)
    report = check_duality(g1, g2, 5)
    assert not report.is_dual
    assert not report.rank_verdicts[rank] and all(report.rank_verdicts[:rank])
    assert report == oracle_check_duality(g1, g2, 5)
    lhs, rhs = path_count_identity(g1, g2, 6)
    # every vertex lies on a chain in both graphs, so a lost edge loses
    # chain pairs and an extra one adds some; a moved edge may keep the sum
    if wrong == "edge-dropped":
        assert lhs < rhs
    elif wrong == "edge-added":
        assert lhs > rhs


def test_duality_composition_pair():
    report = check_duality(make_graph("lifted-binary-tree"), make_graph("binword"), 6)
    assert report.is_dual
    assert report.rank_verdicts == (True,) * 7
    assert report.counterexample is None


def test_duality_tree_pair():
    report = check_duality(
        make_graph("tree-lattice"), make_graph("reflected-bracket-tree"), 6
    )
    assert report.is_dual


def test_duality_order_does_not_matter():
    assert check_duality(make_graph("binword"), make_graph("lifted-binary-tree"), 5).is_dual
    assert check_duality(
        make_graph("reflected-bracket-tree"), make_graph("tree-lattice"), 5
    ).is_dual


def test_lifted_is_not_self_dual():
    report = check_duality(
        make_graph("lifted-binary-tree"), make_graph("lifted-binary-tree"), 3
    )
    assert not report.is_dual
    ce = report.counterexample
    assert ce is not None
    assert ce.got != ce.expected
    assert ce.rank == 2 and ce.row_label != ce.col_label


def test_duality_rejects_mismatched_vertex_sets():
    with pytest.raises(ValueError):
        check_duality(make_graph("lifted-binary-tree"), make_graph("tree-lattice"), 2)
    # chain counts pair up by canonical index, which names a vertex only
    # within one family; at rank 2 the two index-wise products sum to 2!
    with pytest.raises(ValueError, match="do not share the rank-2 vertex set"):
        path_count_identity(make_graph("lifted-binary-tree"), make_graph("tree-lattice"), 2)


def test_duality_checks_vertex_sets_before_any_work():
    def counted(g, calls):
        def up_table(n):
            calls.append(n)
            return g.up_table(n)
        return g._replace(up_table=up_table)

    calls = []
    lattice, bracket = (counted(make_graph(name), calls) for name in DUAL_PAIRS["trees"])
    with pytest.raises(RankGuardError):
        check_duality(lattice, bracket, 10)
    lifted = counted(make_graph("lifted-binary-tree"), calls)
    with pytest.raises(ValueError, match="do not share the rank-0 vertex set"):
        check_duality(lifted, lattice, 2)
    assert calls == []
    assert check_duality(lattice, bracket, 3).is_dual
    assert calls


def test_chain_counts_and_paths():
    lifted = make_graph("lifted-binary-tree")
    counts = chain_counts(lifted, 3)
    # the lifted binary tree is a tree: one chain to every vertex
    assert counts == [1] * len(lifted.vertices_at(3))
    pair = [make_graph(name) for name in DUAL_PAIRS["compositions"]]
    assert path_count_identity(*pair, 3) == (6, 6)
    assert path_count_identity(*pair, 0) == (1, 1)
    tree_pair = [make_graph(name) for name in DUAL_PAIRS["trees"]]
    assert path_count_identity(*tree_pair, 6) == (720, 720)
    for n in range(7):
        assert path_count_identity(*pair, n) == (math.factorial(n),) * 2


def test_export_dot_lifted_rank2():
    expected = (
        'digraph "lifted-binary-tree" {\n'
        "  rankdir=BT;\n"
        "  node [shape=box];\n"
        '  { rank=same; "e"; }\n'
        '  { rank=same; "1"; }\n'
        '  { rank=same; "2"; "1,1"; }\n'
        '  "e" -> "1";\n'
        '  "1" -> "2";\n'
        '  "1" -> "1,1";\n'
        "}\n"
    )
    assert export_dot(make_graph("lifted-binary-tree"), 2) == expected


def test_export_dot_rank0():
    text = export_dot(make_graph("tree-lattice"), 0)
    assert '"-"' in text and "->" not in text


def test_export_json_counts():
    payload = json.loads(export_json(make_graph("reflected-bracket-tree"), 4))
    assert [len(level["vertices"]) for level in payload["ranks"]] == [1, 1, 2, 5, 14]
    assert payload["ranks"][-1]["edges"] == []
    # every vertex of rank n+1 has exactly one incoming edge
    for level in payload["ranks"][:-1]:
        targets = [edge[1] for edge in level["edges"]]
        assert sorted(targets) == sorted(set(targets))
    with pytest.raises(ValueError):
        export_graph(make_graph("binword"), 2, "svg")


def test_export_is_deterministic():
    a = export_json(make_graph("binword"), 4)
    b = export_json(make_graph("binword"), 4)
    assert a == b
    assert export_dot(make_graph("tree-lattice"), 3) == export_dot(make_graph("tree-lattice"), 3)


def test_rank_guard():
    with pytest.raises(RankGuardError):
        make_graph("lifted-binary-tree").vertices_at(13)
    with pytest.raises(RankGuardError):
        make_graph("tree-lattice").vertices_at(11)
    # the up-tables stop at the guard too: (11,) is the first composition
    # of 11, and its 12 covers are the last rank below the guard
    assert len(make_graph("binword").up_table(11)[0]) == 12
    with pytest.raises(RankGuardError):
        make_graph("binword").up_table(12)
    with pytest.raises(RankGuardError):
        make_graph("tree-lattice").up_table(10)
    # the guard caps the duality check as well
    with pytest.raises(RankGuardError):
        check_duality(make_graph("tree-lattice"), make_graph("reflected-bracket-tree"), 10)


def _recursive_label(family, v):
    if family == "composition":
        return ",".join(map(str, v)) if v else "e"
    if v is None:
        return "-"
    return f"({_recursive_label(family, v[0])},{_recursive_label(family, v[1])})"


@pytest.mark.parametrize("family", ["composition", "tree"])
def test_vertex_labels_render_each_vertex(family):
    vertices = [v for n in range(7) for v in graphs._vertices_at(family, n)]
    vertices += vertices[::-1]
    assert vertex_labels(family, vertices) == [_recursive_label(family, v) for v in vertices]
