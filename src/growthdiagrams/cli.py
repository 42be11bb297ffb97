"""
Command-line front end: run insertions, build and render growth diagrams,
export the four graded graphs, and re-run the library's verification
suites from the shell.

Exit codes: 0 success, 1 verification failure, mismatch or a broken
internal invariant, 2 usage, parse, input and output errors.  Identical
invocations produce byte-identical output.  ``insert`` and ``growth``
read the permutation ``-`` from stdin.

Each process runs one command, so start-up is part of every command's
cost, and with bytecode writing off (``PYTHONDONTWRITEBYTECODE``) it
compiles each module it loads from source; so a command loads only the
modules it runs.  Here only ``permutations`` is imported, which holds
every name that the parser and :func:`main` need.  ``insert`` loads
``bst`` for the BST algorithms, through :func:`bst_insert`, bound here
so that a profiler can wrap it, or ``ribbons`` for the hypoplactic one,
and ``jsontext`` for JSON;
``growth`` loads ``growth`` and its family's module, ``treegrowth`` with
``bst`` or ``compositiongrowth`` with ``compositions`` and ``ribbons``;
``graph`` loads ``graphs``, which names every vertex by its index, its
writers ``graphexport``, and ``jsontext`` for JSON; and ``verify`` loads
its runners, ``verify``, which load what each check runs.

Each command ends its own text with a newline.  A JSON payload is one
dict for ``jsontext.iterdumps``, whose long values are written part by
part: a BST insertion's trees and the growth grid as ``_Rendered``
values, a graph's ranks as a generator and each rank's vertices and
edges as ``_Rendered`` values, each edge made as it is written; ``graph``
calls ``graphexport.export_json`` or ``export_dot``, a line at a time.

``growth`` writes its grid as the text fill makes it, a row at a time,
and every grown vertex is checked as its row is made; so in JSON, where
rows are written bottom first as they are made, a vertex that fails its
check ends the command with part of the grid already written.  ``verify``
writes and flushes each line of its report as it is made, so an interrupt
or a broken invariant leaves the lines of the sizes already checked.
"""
from __future__ import annotations

import argparse
import errno
import os
import sys
from functools import partial
from itertools import chain
from typing import Iterable, Iterator, Optional

from .permutations import (
    DUAL_PAIRS,
    GRAPH_NAMES,
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


class StreamError(Exception):
    """The --out file, stdout or stdin cannot be used."""


def _write(fh, chunks: Iterable[str], flush: bool) -> None:
    if not flush:
        fh.writelines(chunks)  # lets go of each chunk once written, unlike a loop
        return
    for chunk in chunks:
        fh.write(chunk)
        fh.flush()


def _write_out(path: str, mode: str, chunks: Iterable[str], flush: bool = False) -> None:
    try:
        with open(path, mode, encoding="utf-8") as fh:
            _write(fh, chunks, flush)
    except OSError as exc:
        raise StreamError(f"cannot write --out {path}: {exc.strerror or exc}") from None


def _stdout():
    """sys.stdout; where fd 1 was closed when the interpreter started it is
    None, and this raises the error that writing to it ends in."""
    if sys.stdout is None:
        raise StreamError(f"cannot write stdout: {os.strerror(errno.EBADF)}")
    return sys.stdout


def _emit(args, chunks: Iterable[str], flush: bool = False) -> None:
    """Write a text given in chunks to --out or stdout as they come, so a
    long text is never held whole; with flush, each chunk is flushed as it
    is written.  --out is opened at the first chunk, so a command that
    fails before it leaves the file as it was, or makes none."""
    chunks = iter(chunks)
    # chain keeps its arguments to the end: an iterator, unlike a tuple, lets go of the first chunk
    chunks = chain(iter((next(chunks),)), chunks)
    if args.out is not None:
        _write_out(args.out, "w", chunks, flush)
    else:
        _write(sys.stdout, chunks, flush)


def _permutation(text: str):
    """The permutation that an argument gives: its text, or for "-" the
    text on stdin, decoded as the interpreter decodes an argument, so that
    bytes that are no UTF-8 get the same message."""
    if text == "-":
        if sys.stdin is None:  # fd 0 was closed when the interpreter started
            raise StreamError(f"cannot read stdin: {os.strerror(errno.EBADF)}")
        try:
            text = os.fsdecode(sys.stdin.buffer.read())
        except OSError as exc:
            raise StreamError(f"cannot read stdin: {exc.strerror or exc}") from None
    return parse_permutation(text)


# -- insert -------------------------------------------------------------------

def bst_insert(word, reading: str = "left-to-right"):
    from .bst import bst_insert
    return bst_insert(word, reading)


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
        from .bst import labeled_tree_to_text as render
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
    p = _permutation(args.permutation)
    algorithm = args.algorithm
    pair = _insertion(algorithm)(p)
    if args.format == "ascii":
        _emit(args, (*_pair_text(algorithm, *pair), "\n"))
        return 0
    from .jsontext import iterdumps
    p_obj, q_obj = _pair_json(algorithm, *pair)
    payload = {
        "algorithm": "bst-right" if algorithm == "sylvester" else algorithm,
        "permutation": list(p),
        "P": p_obj,
        "Q": q_obj,
    }
    _emit(args, chain(iterdumps(payload), ("\n",)))
    return 0


# -- growth -------------------------------------------------------------------

def cmd_growth(args) -> int:
    from . import growth

    p = _permutation(args.permutation)
    # the writer below makes and checks the rows as it writes them
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
        _emit(args, chain(iterdumps(payload), ("\n",)))
    else:
        labels = list(grid.rows())
        tail = [
            "\ntop chain:   " + " -> ".join(labels[grid.n]),
            "\nright chain: " + " -> ".join(row[grid.n] for row in labels),
            "\n", *_pair_text(algorithm, *pair),
        ]
        if matched is not None:
            tail.append("\ncheck against direct insertion: " + verdict)
        _emit(args, chain(grid.lines(labels), tail, ("\n",)))
    return 0 if matched in (None, True) else 1


# -- graph --------------------------------------------------------------------

def cmd_graph(args) -> int:
    from .graphexport import export_dot, export_json
    from .graphs import make_graph

    export = export_dot if args.format == "dot" else export_json
    _emit(args, export(make_graph(args.name), args.max_rank))
    return 0


# -- verify -------------------------------------------------------------------

def cmd_verify(args) -> int:
    from . import verify

    passed = []  # the runner's verdict, which comes with its last line

    def report() -> Iterator[str]:
        passed.append((yield from getattr(verify, args.mode)(args)))

    _emit(args, report(), flush=True)
    return 0 if passed[0] else 1


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


class _Parser(argparse.ArgumentParser):
    """Writes help as the commands write their output: argparse drops the
    error of a stdout that takes no text, where this raises it for
    :func:`main` to report."""

    def print_help(self, file=None) -> None:
        file = file or _stdout()
        file.write(self.format_help())
        file.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="growthdiag",
        description=(
            "Hypoplactic and binary-search-tree insertion, growth diagrams on "
            "two dual graded graph pairs, and their verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_insert = sub.add_parser("insert", help="run an insertion algorithm on a permutation")
    p_insert.add_argument("algorithm", choices=_ALGORITHMS)
    p_insert.add_argument("permutation", help="digits (n <= 9) or comma-separated values; - reads stdin")
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
    try:
        args = parser.parse_args(argv)  # --help writes and exits here
        # fail before any work
        if args.out is not None:
            # appending nothing leaves an existing file as it is; a new one goes again
            made = not os.path.lexists(args.out)
            _write_out(args.out, "a", ())
            if made:
                os.remove(args.out)
        else:
            _stdout()
        code = args.func(args)
        if args.out is None:
            sys.stdout.flush()  # a stdout that takes no more text fails here at the latest
        return code
    except (OSError, KeyboardInterrupt) as exc:
        # --out and stdin failures are StreamError, so an OSError is stdout's: full,
        # or closed by its reader.  Let the interpreter's last flush of the
        # text still buffered go nowhere instead of failing again
        if sys.stdout is not None:  # None when fd 1 was closed at start
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if isinstance(exc, KeyboardInterrupt):
            print("error: interrupted", file=sys.stderr)
            return 130
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except (PermutationParseError, RankGuardError, StreamError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GrowthRuleError, ValueError) as exc:
        # every input error above is raised as its own type; any other
        # ValueError comes from a library check on a computed result
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
