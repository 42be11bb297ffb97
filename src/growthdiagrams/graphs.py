"""
Generic graded-graph machinery: per-rank vertex enumeration, the duality
check DU - UD = rI, saturated-chain counting, and deterministic DOT/JSON
export.

The four concrete graphs all share the empty object as their single
rank-0 vertex and have unit edge weights.  So entry (y, x) of DU - UD is
the number of common neighbours of x and y one rank up minus the number
one rank down, and the duality check counts these vertex by vertex
instead of multiplying operator matrices; any r_n is checked the same
way.  All arithmetic is exact (Python integers); a verdict never depends
on a tolerance.
"""
from __future__ import annotations

import math
from functools import cache, lru_cache
from typing import Callable, NamedTuple, Optional

from . import compositions as comp
from . import trees as tr
from .jsontext import dumps


class RankGuardError(ValueError):
    """Raised when an enumeration would exceed the supported rank."""


class GrowthRuleError(RuntimeError):
    """An internal invariant of the growth rules failed.

    This cannot happen while the two graph pairs are dual; it is the
    channel through which a falsified duality would surface at runtime.
    """


# dense per-rank vertex lists stay small below these ranks
MAX_RANK = {"composition": 12, "tree": 10}

# exhaustive checks over all n! permutations of each size n up to this
# bound finish within minutes; one size more takes ten times as long
MAX_N = 9


def _composition_label(c) -> str:
    return ",".join(map(str, c)) if c else "e"


def vertex_label(family: str, v) -> str:
    """Canonical print name: comma-joined parts or tree text, "e"/"-" empty."""
    if family == "composition":
        return _composition_label(v)
    return tr.tree_to_text(v)


def vertex_labels(family: str, vertices) -> list[str]:
    """
    The :func:`vertex_label` of each vertex, rendering each distinct
    vertex once: equal compositions share one label, and tree nodes shared
    between vertices one text.
    """
    if family == "composition":
        return list(map(cache(_composition_label), vertices))
    return tr.trees_to_text(vertices)


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


class GradedGraph(NamedTuple):
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


# -- duality -----------------------------------------------------------------

class DualityCounterexample(NamedTuple):
    rank: int
    row_label: str
    col_label: str
    got: int
    expected: int


class DualityReport(NamedTuple):
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

    Every edge has weight 1, so entry (y, x) of D_{n+1} U_n counts the
    rank-(n+1) vertices z with x -> z in g1 and y -> z in g2, and entry
    (y, x) of U_{n-1} D_n counts the rank-(n-1) vertices w with w -> x in
    g2 and w -> y in g1.  Both are counted column by column: for each x,
    up in g1 then down in g2 adds 1 to y, down in g2 then up in g1
    subtracts 1, and x itself starts at -r_n.  An entry left non-zero
    breaks the identity.  The counterexample is the first such entry in
    canonical (row, column) order.

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
    # vertices are canonical indices within their rank from here on
    up1_below: list[list[int]] = []  # g1 up-neighbours of each rank-(n-1) vertex
    down2: list[list[int]] = [[]]  # g2 down-neighbours of each rank-n vertex
    for n in range(max_rank + 1):
        vertices = g1.vertices_at(n)
        index_above = _index_at(g1.family, n + 1)
        up1 = [[index_above[z] for z in g1.cover_fn(x)] for x in vertices]
        down2_above: list[list[int]] = [[] for _ in index_above]
        for j, x in enumerate(vertices):
            for z in g2.cover_fn(x):
                down2_above[index_above[z]].append(j)
        bad = []
        for j in range(len(vertices)):
            diff = {j: -r_sequence[n]}
            for z in up1[j]:
                for i in down2_above[z]:
                    diff[i] = diff.get(i, 0) + 1
            for w in down2[j]:
                for i in up1_below[w]:
                    diff[i] = diff.get(i, 0) - 1
            bad.extend((i, j, d) for i, d in diff.items() if d)
        verdicts.append(not bad)
        if bad and counterexample is None:
            i, j, d = min(bad)
            expected = r_sequence[n] if i == j else 0
            counterexample = DualityCounterexample(
                rank=n,
                row_label=g1.label(vertices[i]),
                col_label=g1.label(vertices[j]),
                got=d + expected,
                expected=expected,
            )
        up1_below, down2 = up1, down2_above
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

def _rendered_ranks(g: GradedGraph, max_rank: int, render) -> list[tuple[list, list]]:
    """
    Per rank up to max_rank: ``render`` of the vertices in canonical order,
    and the up-edges to the next rank as (v, u, weight) triples of rendered
    vertices, in canonical order.  Each vertex is rendered once.
    """
    rendered = [render(g.vertices_at(n)) for n in range(max_rank + 1)]
    ranks = []
    for n, names in enumerate(rendered):
        edges = []
        if n < max_rank:
            above = _index_at(g.family, n + 1)
            for v, name in zip(g.vertices_at(n), names):
                edges.extend((name, rendered[n + 1][above[u]], w) for u, w in g.up_edges(v))
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
        for v, u, w in edges:
            attr = "" if w == 1 else f' [label="{w}"]'
            lines.append(f"  {v} -> {u}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: GradedGraph, max_rank: int) -> str:
    """Rank-by-rank JSON: vertices plus the edges to the next rank."""
    render = (lambda vs: [list(v) for v in vs]) if g.family == "composition" else tr.trees_to_text
    ranks = [
        {"n": n, "vertices": vertices, "edges": [[v, u] for v, u, _ in edges]}
        for n, (vertices, edges) in enumerate(_rendered_ranks(g, max_rank, render))
    ]
    return dumps({"name": g.name, "max_rank": max_rank, "ranks": ranks}) + "\n"


def export_graph(g: GradedGraph, max_rank: int, fmt: str) -> str:
    if fmt == "dot":
        return export_dot(g, max_rank)
    if fmt == "json":
        return export_json(g, max_rank)
    raise ValueError(f"unknown graph export format {fmt!r}")
