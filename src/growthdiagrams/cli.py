"""
Command-line front end: run insertions, build and render growth diagrams,
export the four graded graphs, and re-run the library's verification
suites from the shell.

Exit codes: 0 success, 1 verification failure, mismatch or a broken
internal invariant, 2 usage, parse and output errors.  Identical
invocations produce byte-identical output.

Each process runs one command, so start-up is part of every command's
cost, and with bytecode writing off (``PYTHONDONTWRITEBYTECODE``) it
compiles each module it loads from source; so a command loads only the
modules it runs.  Here only ``permutations`` is imported, which holds
every name that the parser and :func:`main` need.  ``insert`` loads
``bst`` for the BST algorithms, through :func:`bst_insert` and
:func:`labeled_tree_to_text`, bound here so that a profiler can wrap
them, or ``ribbons`` for the hypoplactic one, and ``jsontext`` for JSON;
``verify shadow`` loads ``ribbons``; ``graph`` and ``verify
duality|paths`` load ``graphs``, which loads ``compositions`` or
``trees`` only to enumerate or name vertices; ``growth`` loads
``growth`` and its family's module, ``treegrowth`` with ``bst`` or
``compositiongrowth`` with ``compositions`` and ``ribbons``; and
``verify equivalence`` also loads ``growthcheck``.

``verify shadow`` and ``verify equivalence`` compare two routes to the
same (P, Q) pair on every permutation of each size up to ``--max-n``.
Each size is one depth-first walk over a tree of prefixes, which runs a
step shared by many permutations once: ``ribbons.shadow_walk`` over the
prefixes of p, ``growthcheck.equivalence_walk`` over those of
inverse(p).  The public functions of the two routes then judge each
permutation a walk reports, smallest first, so a MISMATCH line names
the lexicographically first failing permutation of the first failing
size.
"""
from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import Iterable, Iterator, Optional

from .permutations import (
    DUAL_PAIRS,
    GRAPH_NAMES,
    MAX_N,
    GrowthRuleError,
    PermutationParseError,
    RankGuardError,
    parse_permutation,
)

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

def bst_insert(word, reading: str = "left-to-right"):
    from .bst import bst_insert
    return bst_insert(word, reading)


def labeled_tree_to_text(t) -> str:
    from .bst import labeled_tree_to_text
    return labeled_tree_to_text(t)


def _insertion(algorithm: str):
    """The direct insertion p -> (P, Q) of an algorithm; sylvester
    insertion is BST insertion read right to left."""
    if algorithm == "hypoplactic":
        from .ribbons import hypoplactic_insert
        return hypoplactic_insert
    return partial(bst_insert, reading="left-to-right" if algorithm == "bst-left" else "right-to-left")


def _pair_text(algorithm: str, p, q) -> tuple[str, ...]:
    """The ASCII text of a (P, Q) pair, in chunks: a tableau goes below its
    heading, a tree on the heading's line."""
    p_kind, q_kind = _PAIR_KINDS[algorithm]
    if algorithm == "hypoplactic":
        from .ribbons import render_tableau as render
        sep = "\n"
    else:
        render = labeled_tree_to_text
        sep = " "
    return f"P ({p_kind}):{sep}", render(p), f"\nQ ({q_kind}):{sep}", render(q)


def _pair_json(algorithm: str, p, q) -> tuple:
    """The JSON values of a (P, Q) pair: a tableau's dict, or a tree
    written from its tuples as it streams out."""
    if algorithm == "hypoplactic":
        return p.to_json_obj(), q.to_json_obj()
    from .bst import labeled_tree_json_parts
    from .jsontext import _Rendered
    return _Rendered(partial(labeled_tree_json_parts, p)), _Rendered(partial(labeled_tree_json_parts, q))


def cmd_insert(args) -> int:
    p = parse_permutation(args.permutation)
    algorithm = args.algorithm
    pair = _insertion(algorithm)(p)
    if args.format == "ascii":
        _emit(args, _pair_text(algorithm, *pair))
        return 0
    from .jsontext import iterdumps
    p_obj, q_obj = _pair_json(algorithm, *pair)
    payload = {
        "algorithm": "bst-right" if algorithm == "sylvester" else algorithm,
        "permutation": list(p),
        "P": p_obj,
        "Q": q_obj,
    }
    _emit(args, iterdumps(payload))
    return 0


# -- growth -------------------------------------------------------------------

def cmd_growth(args) -> int:
    from . import growth

    p = parse_permutation(args.permutation)
    grid = growth.build_growth_diagram(p, args.family)
    pair = grid.pair()
    algorithm = _FAMILY_ALGORITHMS[args.family]
    matched = None
    if args.check:
        matched = pair == _insertion(algorithm)(p)
    verdict = "MATCH" if matched else "MISMATCH"
    if args.format == "json":
        from .jsontext import _Rendered, iterdumps
        p_obj, q_obj = _pair_json(algorithm, *pair)
        payload = {
            "n": grid.n,
            "family": grid.family,
            "grid": _Rendered(grid.json_parts),
            "marks": [list(cell) for cell in sorted(grid.marks)],
            "P": p_obj,
            "Q": q_obj,
        }
        if matched is not None:
            payload["check"] = verdict
        _emit(args, iterdumps(payload))
    else:
        from itertools import chain

        labels = grid.cells()
        tail = [
            "\ntop chain:   " + " -> ".join(labels[grid.n]),
            "\nright chain: " + " -> ".join(row[grid.n] for row in labels),
            "\n", *_pair_text(algorithm, *pair),
        ]
        if matched is not None:
            tail.append("\ncheck against direct insertion: " + verdict)
        _emit(args, chain(grid.lines(labels), tail))
    return 0 if matched in (None, True) else 1


# -- graph --------------------------------------------------------------------

def cmd_graph(args) -> int:
    from . import graphs

    g = graphs.make_graph(args.name)
    _emit(args, (graphs.export_graph(g, args.max_rank, args.format),))
    return 0


# -- verify -------------------------------------------------------------------

def _verify_duality(args, lines: list[str]) -> bool:
    from . import graphs

    g1, g2 = (graphs.make_graph(name) for name in DUAL_PAIRS[args.pair])
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
    if max_n > MAX_N:
        raise RankGuardError(f"--max-n {max_n} exceeds the supported maximum {MAX_N} for exhaustive checks")
    return range(max_n + 1)


def _verify_routes(args, lines: list[str], walk, first, second, where: str, claim: str) -> bool:
    """
    Compare two routes to the same (P, Q) pair on every permutation of
    each size up to --max-n, guarded before any walk.  ``walk(n)`` runs
    both routes over all permutations of size n at once and returns their
    number and the permutations where it saw the two differ or a check
    decline.  The public functions ``first`` and ``second`` judge those,
    smallest first, so a mismatch names, and an invalid result raises
    for, the permutation that comparing them on each permutation in
    order would stop at.  ``where`` ends a mismatch line and ``claim``
    states what the check showed.
    """
    for n in _exhaustive_sizes(args.max_n):
        count, suspects = walk(n)
        for p in sorted(suspects):
            if first(p) != second(p):
                lines.append(f"MISMATCH at permutation {p}{where}")
                return False
        lines.append(f"n={n}: {count}/{count} PASS")
    lines.append(f"{claim} for all n <= {args.max_n}")
    return True


def _verify_equivalence(args, lines: list[str]) -> bool:
    from . import growthcheck

    family = args.family
    return _verify_routes(
        args, lines, partial(growthcheck.equivalence_walk, family=family),
        _insertion(_FAMILY_ALGORITHMS[family]), partial(growthcheck.growth_insert, family=family),
        f" (family {family})", f"growth diagrams match direct {family} insertion",
    )


def _verify_shadow(args, lines: list[str]) -> bool:
    from . import ribbons

    return _verify_routes(
        args, lines, ribbons.shadow_walk, ribbons.shadow_lines, ribbons.hypoplactic_insert,
        "", "shadow lines match hypoplactic insertion",
    )


def _verify_paths(args, lines: list[str]) -> bool:
    from . import graphs

    g1, g2 = (graphs.make_graph(name) for name in DUAL_PAIRS[args.pair])
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
    p_graph.add_argument("name", choices=GRAPH_NAMES)
    p_graph.add_argument("--max-rank", type=_non_negative_int, default=4)
    p_graph.add_argument("--format", choices=("dot", "json"), default="dot")
    p_graph.add_argument("--out", default=None)
    p_graph.set_defaults(func=cmd_graph)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("mode", choices=("duality", "equivalence", "shadow", "paths"))
    p_verify.add_argument("--pair", choices=tuple(DUAL_PAIRS), default="compositions")
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
    except (PermutationParseError, RankGuardError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GrowthRuleError, ValueError) as exc:
        # every input error above is raised as its own type; any other
        # ValueError comes from a library check on a computed result
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
