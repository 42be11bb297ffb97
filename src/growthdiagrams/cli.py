"""
Command-line front end: run insertions, build and render growth diagrams,
export the four graded graphs, and re-run the library's verification
suites from the shell.

Exit codes: 0 success, 1 verification failure, mismatch or a broken
internal invariant, 2 usage, parse and output errors.  Identical
invocations produce byte-identical output.

Each process runs one command, so start-up is part of every command's
cost.  The growth module is imported only by the two commands that run
it, ``growth`` and ``verify equivalence``; every other module is imported
here.
"""
from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from . import graphs
from .jsontext import iterdumps
from .permutations import (
    PermutationParseError,
    all_permutations,
    parse_permutation,
)
from .ribbons import hypoplactic_insert, render_tableau, shadow_lines
from .trees import (
    bst_insert,
    labeled_tree_to_json_obj,
    labeled_tree_to_text,
)

if TYPE_CHECKING:
    from .growth import GrowthGrid

# per algorithm, the kinds of its P and Q as the ASCII text names them
_PAIR_KINDS = {
    "hypoplactic": ("quasi-ribbon", "ribbon"),
    "bst-left": ("binary search tree", "increasing tree"),
    "bst-right": ("binary search tree", "decreasing tree"),
    "sylvester": ("binary search tree", "decreasing tree"),
}
_ALGORITHMS = tuple(_PAIR_KINDS)

# the direct insertion that the growth diagrams of each family reproduce
_FAMILY_ALGORITHMS = {"composition": "hypoplactic", "tree": "bst-left"}


class OutputError(Exception):
    """The --out file cannot be written."""


def _write_out(path: str, mode: str, chunks: Iterable[str]) -> None:
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise OutputError(f"cannot write --out {path}: {exc.strerror or exc}") from None


def _ended(chunks: Iterable[str]) -> Iterator[str]:
    """The chunks, then a newline unless their text ends with one."""
    last = ""
    for chunk in chunks:
        yield chunk
        last = chunk or last
    if not last.endswith("\n"):
        yield "\n"


def _emit(args, chunks: Iterable[str]) -> None:
    """Write a text given in chunks to --out or stdout as they come, so a
    long text is never held whole."""
    if args.out:
        _write_out(args.out, "w", _ended(chunks))
    else:
        sys.stdout.writelines(_ended(chunks))


# -- insert -------------------------------------------------------------------

def _insert(algorithm: str, p):
    """The (P, Q) pair of a direct insertion; sylvester insertion is BST
    insertion read right to left."""
    if algorithm == "hypoplactic":
        return hypoplactic_insert(p)
    return bst_insert(p, "left-to-right" if algorithm == "bst-left" else "right-to-left")


def _pair_text(algorithm: str, p, q) -> tuple[str, ...]:
    """The ASCII text of a (P, Q) pair, in chunks: a tableau goes below its
    heading, a tree on the heading's line."""
    p_kind, q_kind = _PAIR_KINDS[algorithm]
    if algorithm == "hypoplactic":
        render, sep = render_tableau, "\n"
    else:
        render, sep = labeled_tree_to_text, " "
    return f"P ({p_kind}):{sep}", render(p), f"\nQ ({q_kind}):{sep}", render(q)


def cmd_insert(args) -> int:
    p = parse_permutation(args.permutation)
    algorithm = args.algorithm
    pair = _insert(algorithm, p)
    if args.format == "ascii":
        _emit(args, _pair_text(algorithm, *pair))
        return 0
    if algorithm == "hypoplactic":
        p_obj, q_obj = pair[0].to_json_obj(), pair[1].to_json_obj()
    else:
        p_obj, q_obj = map(labeled_tree_to_json_obj, pair)
    payload = {
        "algorithm": "bst-right" if algorithm == "sylvester" else algorithm,
        "permutation": list(p),
        "P": p_obj,
        "Q": q_obj,
    }
    _emit(args, iterdumps(payload))
    return 0


# -- growth -------------------------------------------------------------------

def _render_grid(grid: GrowthGrid, labels: list[list[str]]) -> str:
    n = grid.n
    size = 2 * n + 1
    cells = [["" for _ in range(size)] for _ in range(size)]
    for i in range(n + 1):
        for j in range(n + 1):
            cells[2 * (n - i)][2 * j] = labels[i][j]
    for col, row in grid.marks:
        cells[2 * (n - row) + 1][2 * col - 1] = "x"
    widths = [max(len(r[c]) for r in cells) for c in range(size)]
    lines = []
    for r in cells:
        line = "  ".join(cell.ljust(width) for cell, width in zip(r, widths))
        lines.append(line.rstrip())
    return "\n".join(lines)


def cmd_growth(args) -> int:
    from . import growth

    p = parse_permutation(args.permutation)
    grid = growth.build_growth_diagram(p, args.family)
    pair = growth.convert_chains(grid.boundary_chains(), args.family)
    algorithm = _FAMILY_ALGORITHMS[args.family]
    matched = None
    if args.check:
        matched = pair == _insert(algorithm, p)
    if args.format == "json":
        payload = grid.to_json_obj(pair)
        if matched is not None:
            payload["check"] = "MATCH" if matched else "MISMATCH"
        _emit(args, iterdumps(payload))
    else:
        labels = grid.render_rows(partial(graphs.vertex_labels, args.family))
        parts = [
            _render_grid(grid, labels),
            "",
            "top chain:   " + " -> ".join(labels[grid.n]),
            "right chain: " + " -> ".join(row[grid.n] for row in labels),
            "".join(_pair_text(algorithm, *pair)),
        ]
        if matched is not None:
            parts.append("check against direct insertion: " + ("MATCH" if matched else "MISMATCH"))
        _emit(args, ("\n".join(parts),))
    return 0 if matched in (None, True) else 1


# -- graph --------------------------------------------------------------------

def cmd_graph(args) -> int:
    g = graphs.make_graph(args.name)
    _emit(args, (graphs.export_graph(g, args.max_rank, args.format),))
    return 0


# -- verify -------------------------------------------------------------------

def _verify_duality(args, lines: list[str]) -> bool:
    g1, g2 = (graphs.make_graph(name) for name in graphs.DUAL_PAIRS[args.pair])
    report = graphs.check_duality(g1, g2, args.max_rank)
    for n, ok in enumerate(report.rank_verdicts):
        lines.append(f"rank {n}: {'PASS' if ok else 'FAIL'}")
    if report.is_dual:
        lines.append(f"{report.pair} dual with r=1 up to rank {report.max_rank}")
        return True
    ce = report.counterexample
    lines.append(
        f"counterexample at rank {ce.rank}: (DU-UD)[{ce.row_label}, {ce.col_label}]"
        f" = {ce.got}, expected {ce.expected}"
    )
    return False


def _exhaustive_sizes(max_n: int) -> range:
    if max_n > graphs.MAX_N:
        raise graphs.RankGuardError(
            f"--max-n {max_n} exceeds the supported maximum {graphs.MAX_N} for exhaustive checks"
        )
    return range(max_n + 1)


def _verify_routes(args, lines: list[str], first, second, where: str, claim: str) -> bool:
    """
    Compare two routes to the same (P, Q) pair on every permutation of
    each size up to --max-n, guarded before any enumeration.  ``where``
    ends a mismatch line and ``claim`` states what the check showed.
    """
    for n in _exhaustive_sizes(args.max_n):
        for count, p in enumerate(all_permutations(n), 1):
            if first(p) != second(p):
                lines.append(f"MISMATCH at permutation {p}{where}")
                return False
        lines.append(f"n={n}: {count}/{count} PASS")
    lines.append(f"{claim} for all n <= {args.max_n}")
    return True


def _verify_equivalence(args, lines: list[str]) -> bool:
    from . import growth

    family = args.family
    return _verify_routes(
        args, lines, partial(_insert, _FAMILY_ALGORITHMS[family]),
        partial(growth.growth_insert, family=family),
        f" (family {family})", f"growth diagrams match direct {family} insertion",
    )


def _verify_shadow(args, lines: list[str]) -> bool:
    return _verify_routes(
        args, lines, shadow_lines, hypoplactic_insert,
        "", "shadow lines match hypoplactic insertion",
    )


def _verify_paths(args, lines: list[str]) -> bool:
    g1, g2 = (graphs.make_graph(name) for name in graphs.DUAL_PAIRS[args.pair])
    lhs, rhs = graphs.path_count_identity(g1, g2, args.n)
    ok = lhs == rhs
    lines.append(f"n={args.n}: chain-pair count {lhs}, n! = {rhs}: {'PASS' if ok else 'FAIL'}")
    return ok


def cmd_verify(args) -> int:
    runners = {
        "duality": _verify_duality,
        "equivalence": _verify_equivalence,
        "shadow": _verify_shadow,
        "paths": _verify_paths,
    }
    lines: list[str] = []
    ok = runners[args.mode](args, lines)
    _emit(args, ("\n".join(lines),))
    return 0 if ok else 1


# -- parser -------------------------------------------------------------------

def _non_negative_int(text: str) -> int:
    """argparse type for sizes and ranks: a negative bound would make the
    commands succeed vacuously."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthdiag",
        description=(
            "Hypoplactic and binary-search-tree insertion, growth diagrams on "
            "two dual graded graph pairs, and their verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_insert = sub.add_parser("insert", help="run an insertion algorithm on a permutation")
    p_insert.add_argument("algorithm", choices=_ALGORITHMS)
    p_insert.add_argument("permutation", help="digits (n <= 9) or comma-separated values")
    p_insert.add_argument("--format", choices=("ascii", "json"), default="ascii")
    p_insert.add_argument("--out", default=None, help="write output to a file instead of stdout")
    p_insert.set_defaults(func=cmd_insert)

    p_growth = sub.add_parser("growth", help="build and render a growth diagram")
    p_growth.add_argument("family", choices=tuple(_FAMILY_ALGORITHMS))
    p_growth.add_argument("permutation")
    p_growth.add_argument("--check", action="store_true", help="compare with the direct insertion")
    p_growth.add_argument("--format", choices=("ascii", "json"), default="ascii")
    p_growth.add_argument("--out", default=None)
    p_growth.set_defaults(func=cmd_growth)

    p_graph = sub.add_parser("graph", help="export one of the four graded graphs")
    p_graph.add_argument("name", choices=graphs.GRAPH_NAMES)
    p_graph.add_argument("--max-rank", type=_non_negative_int, default=4)
    p_graph.add_argument("--format", choices=("dot", "json"), default="dot")
    p_graph.add_argument("--out", default=None)
    p_graph.set_defaults(func=cmd_graph)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("mode", choices=("duality", "equivalence", "shadow", "paths"))
    p_verify.add_argument("--pair", choices=tuple(graphs.DUAL_PAIRS), default="compositions")
    p_verify.add_argument("--family", choices=tuple(_FAMILY_ALGORITHMS), default="composition")
    p_verify.add_argument("--max-rank", type=_non_negative_int, default=8)
    p_verify.add_argument("--max-n", type=_non_negative_int, default=5)
    p_verify.add_argument("--n", type=_non_negative_int, default=5)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out:
            # fail before any work; appending nothing leaves an existing file as it is
            _write_out(args.out, "a", ())
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here at the latest
        return code
    except BrokenPipeError as exc:
        # the reader went away: let the interpreter's last flush of the
        # text still buffered go nowhere instead of failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return 2
    except (PermutationParseError, graphs.RankGuardError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (graphs.GrowthRuleError, ValueError) as exc:
        # every input error above is raised as its own type; any other
        # ValueError comes from a library check on a computed result
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
