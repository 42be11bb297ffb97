"""
The DOT and JSON export of a graded graph (:mod:`growthdiagrams.graphs`),
which only ``growthdiag graph`` loads and calls by its format.  Both
write every vertex by its rank's names, made by index, and every edge as
its rank's up-table row is made, so no vertex is built and the text is
written in chunks.  In JSON a composition is the list of its parts, in
the form ``jsontext.composition_texts`` gives ``growth`` as well.
"""
from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Iterable, Iterator

from .graphs import GradedGraph, _names


def _up_edges(g: GradedGraph, n: int, below: list, above: list) -> Iterator[tuple]:
    """The up-edges of rank n as (v, u) pairs of the texts that ``below``
    and ``above`` give rank n and rank n+1 by index, in canonical order,
    made as rank n's up-table rows are."""
    return ((v, above[j]) for v, row in zip(below, g.up_table(n)) for j in row)


def export_dot(g: GradedGraph, max_rank: int) -> Iterator[str]:
    """
    Deterministic DOT text in chunks: one rank=same cluster per level,
    then the edges, directed upwards, a line each as each rank's up-table
    rows are made; vertices and edges in canonical order.  Every rank's
    names are made before the first chunk, so the rank guard raises
    before any text.
    """
    names = [[f'"{name}"' for name in _names(g.family, n)] for n in range(max_rank + 1)]
    head = [f'digraph "{g.name}" {{', "  rankdir=BT;", "  node [shape=box];"]
    head += [f"  {{ rank=same; {' '.join(name + ';' for name in rank)} }}" for rank in names]
    edges = (f"  {v} -> {u};\n" for n in range(max_rank) for v, u in _up_edges(g, n, names[n], names[n + 1]))
    return chain(("\n".join(head) + "\n",), edges, ("}\n",))


def export_json(g: GradedGraph, max_rank: int) -> Iterator[str]:
    """Rank-by-rank JSON in chunks: vertices plus the edges to the next
    rank.  Each rank's vertex texts are made once at each depth where they
    appear, and its edges are one ``_Rendered`` that writes an edge a
    part as its up-table row is made.  Every rank's names are made before
    the first chunk, as in :func:`export_dot`."""
    from .jsontext import _join, _Rendered, composition_texts, iterdumps  # here, so that DOT never loads it

    names = [_names(g.family, n) for n in range(max_rank + 1)]

    def texts(n: int, depth: int) -> Iterable[str]:
        """Rank n's vertices at ``depth``: a tree's name as a string, which
        needs no escaping, and a composition's parts as a list."""
        if g.family == "tree":
            return [f'"{name}"' for name in names[n]]
        return composition_texts(names[n], depth)

    def vertices(n: int, depth: int) -> Iterator[str]:
        yield _join("[]", texts(n, depth + 1), depth)

    def edges(n: int, depth: int) -> Iterator[str]:
        item_break = "\n" + "  " * (depth + 1)
        end_break = item_break + "  "
        below = [f"[{end_break}{v}," for v in texts(n, depth + 2)]
        above = [f"{end_break}{u}{item_break}]" for u in texts(n + 1, depth + 2)]
        lead = "[" + item_break
        for v, u in _up_edges(g, n, below, above):
            yield f"{lead}{v}{u}"
            lead = "," + item_break
        yield "\n" + "  " * depth + "]"

    ranks = (
        {
            "n": n,
            "vertices": _Rendered(partial(vertices, n)),
            "edges": _Rendered(partial(edges, n)) if n < max_rank else [],
        }
        for n in range(max_rank + 1)
    )
    return chain(iterdumps({"name": g.name, "max_rank": max_rank, "ranks": ranks}), ("\n",))
