"""
Generic graded-graph machinery: per-rank vertex enumeration, up/down
operators as exact integer matrices, the duality check DU - UD = rI,
saturated-chain counting, and deterministic DOT/JSON export.

The four concrete graphs all share the empty object as their single
rank-0 vertex and have unit edge weights; the operator matrices carry
integer weights anyway so that r- and r_n-duality can be checked in the
same way.  All arithmetic is exact (Python integers, sparse dicts); a
verdict never depends on a tolerance.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from . import compositions as comp
from . import trees as tr


class RankGuardError(ValueError):
    """Raised when an enumeration would exceed the supported rank."""


# dense per-rank vertex lists stay small below these ranks
MAX_RANK = {"composition": 12, "tree": 10}


def vertex_label(family: str, v) -> str:
    """Canonical print name: comma-joined parts or tree text, "e"/"-" empty."""
    if family == "composition":
        return ",".join(str(part) for part in v) if v else "e"
    return tr.tree_to_text(v)


@lru_cache(maxsize=None)
def _vertices_at(family: str, n: int) -> tuple:
    if n > MAX_RANK[family]:
        raise RankGuardError(
            f"rank {n} exceeds the supported maximum {MAX_RANK[family]} for {family} graphs"
        )
    return comp.compositions_of(n) if family == "composition" else tr.trees_of(n)


@lru_cache(maxsize=None)
def _index_at(family: str, n: int) -> dict:
    return {v: i for i, v in enumerate(_vertices_at(family, n))}


@dataclass(frozen=True)
class GradedGraph:
    """A graded graph given by its name, vertex family and cover map."""

    name: str
    family: str
    cover_fn: Callable

    def rank(self, v) -> int:
        return sum(v) if self.family == "composition" else tr.node_count(v)

    def vertices_at(self, n: int) -> tuple:
        return _vertices_at(self.family, n)

    def up_covers(self, v) -> frozenset:
        """Up-neighbours with their edge weights (all four graphs use 1)."""
        return frozenset((u, 1) for u in self.cover_fn(v))

    def up_edges(self, v) -> tuple:
        """Up-neighbours in canonical order, as (vertex, weight) pairs."""
        index = _index_at(self.family, self.rank(v) + 1)
        return tuple(sorted(self.up_covers(v), key=lambda uw: index[uw[0]]))

    def label(self, v) -> str:
        return vertex_label(self.family, v)

    def serialize(self, v):
        return list(v) if self.family == "composition" else tr.tree_to_text(v)


_GRAPHS = {
    "lifted-binary-tree": ("composition", comp.lifted_covers),
    "binword": ("composition", comp.binword_covers),
    "tree-lattice": ("tree", tr.lattice_covers),
    "reflected-bracket-tree": ("tree", tr.reflected_bracket_covers),
}

GRAPH_NAMES = tuple(_GRAPHS)

DUAL_PAIRS = {
    "compositions": ("lifted-binary-tree", "binword"),
    "trees": ("tree-lattice", "reflected-bracket-tree"),
}


def make_graph(name: str) -> GradedGraph:
    """
    One of the four concrete graphs: lifted-binary-tree, binword,
    tree-lattice, reflected-bracket-tree.

    >>> make_graph("lifted-binary-tree").vertices_at(3)
    ((3,), (2, 1), (1, 2), (1, 1, 1))
    """
    try:
        family, cover_fn = _GRAPHS[name]
    except KeyError:
        raise ValueError(f"unknown graph {name!r}, expected one of {', '.join(_GRAPHS)}") from None
    return GradedGraph(name=name, family=family, cover_fn=cover_fn)


# -- operator matrices -------------------------------------------------------

@dataclass(frozen=True)
class OperatorMatrix:
    """
    Integer matrix of a rank-restricted operator.  Rows and columns are
    vertex tuples in canonical order; entries is a sparse {(i, j): weight}
    with absent entries zero.
    """

    rank: int
    row_vertices: tuple
    col_vertices: tuple
    entries: dict

    def transpose(self) -> "OperatorMatrix":
        return OperatorMatrix(
            rank=self.rank,
            row_vertices=self.col_vertices,
            col_vertices=self.row_vertices,
            entries={(j, i): w for (i, j), w in self.entries.items()},
        )

    def to_dense(self) -> list[list[int]]:
        dense = [[0] * len(self.col_vertices) for _ in self.row_vertices]
        for (i, j), w in self.entries.items():
            dense[i][j] = w
        return dense


def up_matrix(g: GradedGraph, n: int) -> OperatorMatrix:
    """
    U_n: columns are the rank-n vertices, rows the rank-(n+1) vertices,
    entry (y, x) the weight of the up edge x -> y.

    >>> up_matrix(make_graph("lifted-binary-tree"), 0).to_dense()
    [[1]]
    """
    cols = g.vertices_at(n)
    rows_index = _index_at(g.family, n + 1)
    entries = {}
    for j, v in enumerate(cols):
        for u, w in g.up_covers(v):
            entries[(rows_index[u], j)] = w
    return OperatorMatrix(
        rank=n,
        row_vertices=g.vertices_at(n + 1),
        col_vertices=cols,
        entries=entries,
    )


def down_matrix(g: GradedGraph, n: int) -> OperatorMatrix:
    """D_n maps rank n to rank n-1; it is the transpose of U_{n-1}."""
    if n < 1:
        raise ValueError("down_matrix is defined for n >= 1")
    return up_matrix(g, n - 1).transpose()


def matmul(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Sparse exact-integer product a @ b."""
    if a.col_vertices != b.row_vertices:
        raise ValueError("matrix shapes do not compose")
    by_row: dict[int, list[tuple[int, int]]] = {}
    for (k, j), w in b.entries.items():
        by_row.setdefault(k, []).append((j, w))
    out: dict[tuple[int, int], int] = {}
    for (i, k), aw in a.entries.items():
        for j, bw in by_row.get(k, ()):
            key = (i, j)
            out[key] = out.get(key, 0) + aw * bw
    return OperatorMatrix(
        rank=b.rank,
        row_vertices=a.row_vertices,
        col_vertices=b.col_vertices,
        entries={k: w for k, w in out.items() if w},
    )


# -- duality -----------------------------------------------------------------

@dataclass(frozen=True)
class DualityCounterexample:
    rank: int
    row_label: str
    col_label: str
    got: int
    expected: int


@dataclass(frozen=True)
class DualityReport:
    """Outcome of the commutation check D_{n+1} U_n - U_{n-1} D_n = r_n I_n."""

    pair: str
    max_rank: int
    r_sequence: tuple[int, ...]
    rank_verdicts: tuple[bool, ...]
    counterexample: Optional[DualityCounterexample]

    @property
    def is_dual(self) -> bool:
        return all(self.rank_verdicts)


def check_duality(
    g1: GradedGraph,
    g2: GradedGraph,
    max_rank: int,
    r_sequence: Optional[tuple[int, ...]] = None,
) -> DualityReport:
    """
    Verify D_{n+1} U_n = U_{n-1} D_n + r_n I_n exactly at every rank up to
    max_rank, with U taken from g1 (edges read upwards) and D from g2
    (edges read downwards).  Default r_n = 1 for all n.

    >>> check_duality(make_graph("lifted-binary-tree"), make_graph("binword"), 4).is_dual
    True
    """
    if r_sequence is None:
        r_sequence = (1,) * (max_rank + 1)
    if len(r_sequence) < max_rank + 1:
        raise ValueError(f"r_sequence must carry max_rank+1 = {max_rank + 1} values")
    for n in range(max_rank + 2):
        if g1.vertices_at(n) != g2.vertices_at(n):
            raise ValueError(
                f"{g1.name} and {g2.name} do not share the rank-{n} vertex set"
            )
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
            diff[(i, i)] = diff.get((i, i), 0) - r_sequence[n]
        bad = sorted(key for key, w in diff.items() if w)
        verdicts.append(not bad)
        if bad and counterexample is None:
            i, j = bad[0]
            expected = r_sequence[n] if i == j else 0
            counterexample = DualityCounterexample(
                rank=n,
                row_label=g1.label(lhs.row_vertices[i]),
                col_label=g1.label(lhs.col_vertices[j]),
                got=diff[(i, j)] + expected,
                expected=expected,
            )
    return DualityReport(
        pair=f"({g1.name}, {g2.name})",
        max_rank=max_rank,
        r_sequence=tuple(r_sequence[: max_rank + 1]),
        rank_verdicts=tuple(verdicts),
        counterexample=counterexample,
    )


# -- chain counting ----------------------------------------------------------

def chain_counts(g: GradedGraph, n: int) -> dict:
    """Number of saturated chains from the rank-0 vertex to each rank-n
    vertex, counted with edge-weight multiplicity."""
    counts = {g.vertices_at(0)[0]: 1}
    for _ in range(n):
        nxt: dict = {}
        for v, c in counts.items():
            for u, w in g.up_covers(v):
                nxt[u] = nxt.get(u, 0) + c * w
        counts = nxt
    return counts


def path_count_identity(g1: GradedGraph, g2: GradedGraph, n: int) -> tuple[int, int]:
    """
    Sum over rank-n vertices of (chains in g1) x (chains in g2), paired
    with n!.  For a dual pair with r = 1 the two numbers agree.

    >>> pair = DUAL_PAIRS["compositions"]
    >>> path_count_identity(make_graph(pair[0]), make_graph(pair[1]), 3)
    (6, 6)
    """
    top = g1.vertices_at(n)  # raises RankGuardError before any counting
    e1 = chain_counts(g1, n)
    e2 = chain_counts(g2, n)
    lhs = sum(e1.get(v, 0) * e2.get(v, 0) for v in top)
    return lhs, math.factorial(n)


# -- export ------------------------------------------------------------------

def export_dot(g: GradedGraph, max_rank: int) -> str:
    """
    Deterministic DOT text: one rank=same cluster per level, vertices and
    edges in canonical order, edges directed upwards.
    """
    lines = [f'digraph "{g.name}" {{', "  rankdir=BT;", "  node [shape=box];"]
    for n in range(max_rank + 1):
        names = " ".join(f'"{g.label(v)}";' for v in g.vertices_at(n))
        lines.append(f"  {{ rank=same; {names} }}")
    for n in range(max_rank):
        for v in g.vertices_at(n):
            for u, w in g.up_edges(v):
                attr = "" if w == 1 else f' [label="{w}"]'
                lines.append(f'  "{g.label(v)}" -> "{g.label(u)}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: GradedGraph, max_rank: int) -> str:
    """Rank-by-rank JSON: vertices plus the edges to the next rank."""
    ranks = []
    for n in range(max_rank + 1):
        edges = []
        if n < max_rank:
            for v in g.vertices_at(n):
                for u, _ in g.up_edges(v):
                    edges.append([g.serialize(v), g.serialize(u)])
        ranks.append(
            {
                "n": n,
                "vertices": [g.serialize(v) for v in g.vertices_at(n)],
                "edges": edges,
            }
        )
    return json.dumps({"name": g.name, "max_rank": max_rank, "ranks": ranks}, indent=2) + "\n"


def export_graph(g: GradedGraph, max_rank: int, fmt: str) -> str:
    if fmt == "dot":
        return export_dot(g, max_rank)
    if fmt == "json":
        return export_json(g, max_rank)
    raise ValueError(f"unknown graph export format {fmt!r}")
