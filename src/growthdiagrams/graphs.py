"""
Generic graded-graph machinery: per-rank vertex enumeration, the duality
check DU - UD = rI, saturated-chain counting, and deterministic DOT/JSON
export.

Each of the four graphs is given by per-rank up-tables on canonical
indices: ``up_table(n)[i]`` is the sorted tuple of the indices, within
rank n+1, of the vertices that cover vertex i of rank n, where a vertex's
index is its position in ``vertices_at(n)``.  A table is built once per
rank with integer arithmetic alone, from the two index encodings:

* compositions: a composition of n >= 1 has index word - 2^(n-1), its
  {0,1}-word read as a binary number (the order of ``compositions_of``).
  Appending a letter (the lifted binary tree) maps index i to 2i and
  2i+1; Binword inserts one bit anywhere but in front.
* trees: ``trees_of`` lists the trees (L, R) of rank n by left size k
  descending, then L, then R, so (L, R) has index
  base(n, k) + index(L) * Cat(n-1-k) + index(R), with base(n, k) the
  number of rank-n trees whose left subtree is larger than k.  The
  lattice row of (L, R) follows from the rows of L and R; the reflected
  bracket row is the index of (t, None), which equals that of t, followed
  by (L, each cover of R).

The duality check, the chain counts and the export read these tables
only; no vertex is hashed or compared on those paths, and ``compositions``
and ``trees`` load only to enumerate or name vertices.  The value-level
cover functions (``lifted_covers`` and the others) stay in those modules
as an independent coding of the same graphs.

The four graphs all share the empty object as their single rank-0 vertex
and have unit edge weights.  So entry (y, x) of DU - UD is the number of
common neighbours of x and y one rank up minus the number one rank down,
and the duality check counts these vertex by vertex instead of
multiplying operator matrices.  All arithmetic is exact (Python
integers); a verdict never depends on a tolerance.
"""
from __future__ import annotations

import math
from collections import Counter
from functools import cache, lru_cache, partial
from operator import mul
from typing import Callable, NamedTuple, Optional

# defined where every command finds them, and re-exported here
from .permutations import DUAL_PAIRS, GRAPH_NAMES, MAX_N, GrowthRuleError, RankGuardError  # noqa: F401

# dense per-rank vertex lists stay small below these ranks
MAX_RANK = {"composition": 12, "tree": 10}


def _check_rank(family: str, n: int) -> None:
    if n > MAX_RANK[family]:
        raise RankGuardError(
            f"rank {n} exceeds the supported maximum {MAX_RANK[family]} for {family} graphs"
        )


def vertex_labels(family: str, vertices) -> list[str]:
    """
    The print name of each vertex: comma-joined parts or tree text, "e"/"-"
    empty.  Each distinct vertex is rendered once: equal compositions share
    one label, and tree nodes shared between vertices one text.
    """
    if family == "composition":
        from .compositions import composition_label
        return list(map(cache(composition_label), vertices))
    from .trees import trees_to_text
    return trees_to_text(vertices)


def vertex_json(family: str, vertices) -> list:
    """The JSON form of each vertex, each distinct one rendered once: a
    composition's list of parts, a tree's text."""
    if family == "composition":
        return list(map(cache(list), vertices))
    from .trees import trees_to_text
    return trees_to_text(vertices)


@lru_cache(maxsize=None)
def _vertices_at(family: str, n: int) -> tuple:
    _check_rank(family, n)
    if family == "composition":
        from .compositions import compositions_of
        return compositions_of(n)
    from .trees import trees_of
    return trees_of(n)


# -- canonical indices and up-tables ------------------------------------------

@cache
def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _rank_size(family: str, n: int) -> int:
    """The number of vertices of rank n: 2^(n-1) compositions of n >= 1,
    Cat(n) trees."""
    if family == "tree":
        return _catalan(n)
    return 1 << (n - 1) if n else 1


@cache
def _tree_bases(n: int) -> tuple[int, ...]:
    """base(n, k) for k = 0..n-1: the rank-n trees with left size above k."""
    bases = [0] * n
    for k in range(n - 2, -1, -1):
        bases[k] = bases[k + 1] + _catalan(k + 1) * _catalan(n - 2 - k)
    return tuple(bases)


@cache
def _lifted_table(n: int) -> tuple:
    """Lifted binary tree: append a letter, so index i is covered by 2i and 2i+1."""
    _check_rank("composition", n + 1)
    if n == 0:
        return ((0,),)
    return tuple((2 * i, 2 * i + 1) for i in range(1 << (n - 1)))


@cache
def _binword_table(n: int) -> tuple:
    """Binword: insert one letter into the word anywhere but in front."""
    _check_rank("composition", n + 1)
    if n == 0:
        return ((0,),)
    top = 1 << n
    rows = []
    for word in range(top >> 1, top):
        # at the bottom either letter goes; above the p lowest letters
        # only the one unlike the letter below, as the other would give
        # the word that inserting it below that letter gave
        shifted = word << 1
        covers = [shifted - top, shifted + 1 - top]
        covers += [
            (word >> p << (p + 1) | word & ((1 << p) - 1) | (~word >> (p - 1) & 1) << p) - top
            for p in range(1, n)
        ]
        rows.append(tuple(sorted(covers)))
    return tuple(rows)


@cache
def _lattice_table(n: int) -> tuple:
    """Lattice of binary trees: grow L, then grow R, of each (L, R)."""
    _check_rank("tree", n + 1)
    if n == 0:
        return ((0,),)
    bases = _tree_bases(n + 1)
    rows = []
    for k in range(n - 1, -1, -1):
        m = n - 1 - k
        grow_left, grow_right = bases[k + 1], bases[k]
        stride_left, stride_right = _catalan(m), _catalan(m + 1)
        right_rows = _lattice_table(m)
        for i_left, left_row in enumerate(_lattice_table(k)):
            lefts = [grow_left + a * stride_left for a in left_row]
            at = grow_right + i_left * stride_right
            for i_right, right_row in enumerate(right_rows):
                rows.append(tuple([a + i_right for a in lefts] + [at + b for b in right_row]))
    return tuple(rows)


@cache
def _reflected_bracket_table(n: int) -> tuple:
    """Reflected bracket tree: (t, None), then (L, each cover of R), of t = (L, R)."""
    _check_rank("tree", n + 1)
    if n == 0:
        return ((0,),)
    bases = _tree_bases(n + 1)
    rows = []
    for k in range(n - 1, -1, -1):
        m = n - 1 - k
        right_rows = _reflected_bracket_table(m)
        for i_left in range(_catalan(k)):
            at = bases[k] + i_left * _catalan(m + 1)
            for right_row in right_rows:
                rows.append((len(rows), *[at + b for b in right_row]))
    return tuple(rows)


class GradedGraph(NamedTuple):
    """A graded graph given by its name, vertex family and per-rank up-tables."""

    name: str
    family: str
    up_table: Callable

    def vertices_at(self, n: int) -> tuple:
        return _vertices_at(self.family, n)


# the family and up-table of each graph, in the order of GRAPH_NAMES
_GRAPHS = dict(zip(GRAPH_NAMES, (
    ("composition", _lifted_table),
    ("composition", _binword_table),
    ("tree", _lattice_table),
    ("tree", _reflected_bracket_table),
)))


def make_graph(name: str) -> GradedGraph:
    """
    One of the four concrete graphs: lifted-binary-tree, binword,
    tree-lattice, reflected-bracket-tree.

    >>> make_graph("lifted-binary-tree").vertices_at(3)
    ((3,), (2, 1), (1, 2), (1, 1, 1))
    >>> make_graph("lifted-binary-tree").up_table(2)
    ((0, 1), (2, 3))
    """
    try:
        family, up_table = _GRAPHS[name]
    except KeyError:
        raise ValueError(f"unknown graph {name!r}, expected one of {', '.join(_GRAPHS)}") from None
    return GradedGraph(name=name, family=family, up_table=up_table)


# -- duality -----------------------------------------------------------------

class DualityCounterexample(NamedTuple):
    rank: int
    row_label: str
    col_label: str
    got: int
    expected: int


class DualityReport(NamedTuple):
    """Outcome of the commutation check D_{n+1} U_n - U_{n-1} D_n = I_n."""

    pair: str
    max_rank: int
    rank_verdicts: tuple[bool, ...]
    counterexample: Optional[DualityCounterexample]

    @property
    def is_dual(self) -> bool:
        return all(self.rank_verdicts)


def check_duality(g1: GradedGraph, g2: GradedGraph, max_rank: int) -> DualityReport:
    """
    Verify D_{n+1} U_n = U_{n-1} D_n + I_n exactly at every rank up to
    max_rank, with U taken from g1 (edges read upwards) and D from g2
    (edges read downwards).

    Every edge has weight 1, so entry (y, x) of D_{n+1} U_n counts the
    rank-(n+1) vertices z with x -> z in g1 and y -> z in g2, and entry
    (y, x) of U_{n-1} D_n counts the rank-(n-1) vertices w with w -> x in
    g2 and w -> y in g1.  Both are read column by column from the two
    graphs' up-tables on canonical indices: for each x, the vertices y
    reached up in g1 then down in g2 must equal, as a multiset, those
    reached down in g2 then up in g1 plus x once.  Where they differ, an
    entry of DU - UD - I is non-zero and breaks the identity.  The
    counterexample is the first such entry in canonical (row, column)
    order.

    An index names a vertex only within one family's order, and the graphs
    of one family share every rank's vertices, so the two graphs must be
    of one family; that check runs first, and the rank guard is raised
    before any table is built.  Vertex values are enumerated only for the
    labels of a counterexample.

    >>> check_duality(make_graph("lifted-binary-tree"), make_graph("binword"), 4).is_dual
    True
    """
    if g1.family != g2.family:
        raise ValueError(f"{g1.name} and {g2.name} do not share the rank-0 vertex set")
    _check_rank(g1.family, max_rank + 1)
    verdicts = []
    counterexample = None
    up1_below: tuple = ()  # g1 up-neighbours of each rank-(n-1) vertex
    down2: list[list[int]] = [[]]  # g2 down-neighbours of each rank-n vertex
    for n in range(max_rank + 1):
        up1 = g1.up_table(n)
        down2_above: list[list[int]] = [[] for _ in range(_rank_size(g1.family, n + 1))]
        for j, row in enumerate(g2.up_table(n)):
            for z in row:
                down2_above[z].append(j)
        bad = []
        for j, row in enumerate(up1):
            # column j of D U and of U D + I as sorted lists of row indices
            du = [i for z in row for i in down2_above[z]]
            ud = [i for w in down2[j] for i in up1_below[w]]
            ud.append(j)
            du.sort()
            ud.sort()
            if du != ud:
                diff = Counter(du)
                diff.subtract(ud)
                bad.extend((i, j, d) for i, d in diff.items() if d)
        verdicts.append(not bad)
        if bad and counterexample is None:
            i, j, d = min(bad)
            expected = 1 if i == j else 0
            vertices = g1.vertices_at(n)
            row_label, col_label = vertex_labels(g1.family, (vertices[i], vertices[j]))
            counterexample = DualityCounterexample(
                rank=n,
                row_label=row_label,
                col_label=col_label,
                got=d + expected,
                expected=expected,
            )
        up1_below, down2 = up1, down2_above
    return DualityReport(
        pair=f"({g1.name}, {g2.name})",
        max_rank=max_rank,
        rank_verdicts=tuple(verdicts),
        counterexample=counterexample,
    )


# -- chain counting ----------------------------------------------------------

def chain_counts(g: GradedGraph, n: int) -> list[int]:
    """Number of saturated chains from the rank-0 vertex to each rank-n
    vertex, by canonical index (unit edge weights).  Ranks are sized by
    count, and no vertex is enumerated."""
    _check_rank(g.family, n)
    counts = [1]
    for m in range(n):
        above = [0] * _rank_size(g.family, m + 1)
        for c, row in zip(counts, g.up_table(m)):
            for j in row:
                above[j] += c
        counts = above
    return counts


def path_count_identity(g1: GradedGraph, g2: GradedGraph, n: int) -> tuple[int, int]:
    """
    Sum over rank-n vertices of (chains in g1) x (chains in g2), paired
    with n!.  For a dual pair the two numbers agree.  Counts are paired
    by canonical index, so the two graphs must be of one family.

    >>> pair = DUAL_PAIRS["compositions"]
    >>> path_count_identity(make_graph(pair[0]), make_graph(pair[1]), 3)
    (6, 6)
    """
    g1.vertices_at(n)  # raises RankGuardError before any counting
    if g1.family != g2.family:
        raise ValueError(f"{g1.name} and {g2.name} do not share the rank-{n} vertex set")
    lhs = sum(map(mul, chain_counts(g1, n), chain_counts(g2, n)))
    return lhs, math.factorial(n)


# -- export ------------------------------------------------------------------

def _rendered_ranks(g: GradedGraph, max_rank: int, render) -> list[tuple[list, list]]:
    """
    Per rank up to max_rank: ``render`` of the vertices in canonical order,
    and the up-edges to the next rank as (v, u) pairs of rendered
    vertices, in canonical order.  Each vertex is rendered once.
    """
    rendered = [render(g.vertices_at(n)) for n in range(max_rank + 1)]
    ranks = []
    for n, names in enumerate(rendered):
        edges = []
        if n < max_rank:
            above = rendered[n + 1]
            for name, row in zip(names, g.up_table(n)):
                edges.extend((name, above[j]) for j in row)
        ranks.append((names, edges))
    return ranks


def export_dot(g: GradedGraph, max_rank: int) -> str:
    """
    Deterministic DOT text: one rank=same cluster per level, vertices and
    edges in canonical order, edges directed upwards.
    """
    lines = [f'digraph "{g.name}" {{', "  rankdir=BT;", "  node [shape=box];"]
    ranks = _rendered_ranks(g, max_rank, lambda vs: [f'"{label}"' for label in vertex_labels(g.family, vs)])
    for names, _ in ranks:
        lines.append(f"  {{ rank=same; {' '.join(name + ';' for name in names)} }}")
    for _, edges in ranks:
        lines.extend(f"  {v} -> {u};" for v, u in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: GradedGraph, max_rank: int) -> str:
    """Rank-by-rank JSON: vertices plus the edges to the next rank."""
    from .jsontext import dumps  # here, so that the checks never load it

    render = partial(vertex_json, g.family)
    ranks = [
        {"n": n, "vertices": vertices, "edges": [[v, u] for v, u in edges]}
        for n, (vertices, edges) in enumerate(_rendered_ranks(g, max_rank, render))
    ]
    return dumps({"name": g.name, "max_rank": max_rank, "ranks": ranks}) + "\n"


def export_graph(g: GradedGraph, max_rank: int, fmt: str) -> str:
    if fmt == "dot":
        return export_dot(g, max_rank)
    if fmt == "json":
        return export_json(g, max_rank)
    raise ValueError(f"unknown graph export format {fmt!r}")
