"""
Per-op output checks, written from the definitions and independent of the
package: the expected pairs are recomputed here with shadow lines (for the
hypoplactic pair) and an iterative binary search tree (for trees).

check(op, stdout) returns None when the output is right and a one-line
reason otherwise.
"""
from __future__ import annotations

import json
import math
import re

from workloads import Op


def hypoplactic_pair(p: tuple[int, ...]) -> tuple[dict, dict]:
    """(P, Q) as the CLI prints them, from the shadow lines of p.

    Value v+1 continues the line of v when it sits further right in p, so
    the rows of P are runs of consecutive values; Q holds their positions.
    Its shape is the recoils composition of p.
    """
    pos = [0] * (len(p) + 1)
    for i, v in enumerate(p, 1):
        pos[v] = i
    lines: list[list[int]] = []
    for v in range(1, len(p) + 1):
        if lines and pos[v] > pos[v - 1]:
            lines[-1].append(v)
        else:
            lines.append([v])
    shape = [len(line) for line in lines]
    return (
        {"shape": shape, "rows": lines},
        {"shape": shape, "rows": [[pos[v] for v in line] for line in lines]},
    )


def search_tree(items: list[tuple[int, int]]):
    """Insert (position, value) items in order as leaves of a binary search
    tree.  Returns the root value, the child maps and each value's position."""
    root = None
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    position: dict[int, int] = {}
    for pos, a in items:
        position[a] = pos
        if root is None:
            root = a
            continue
        cur = root
        while True:
            side = right if a > cur else left
            if cur not in side:
                side[cur] = a
                break
            cur = side[cur]
    return root, left, right, position


def same_tree(obj, root, left, right, label) -> bool:
    """Compare a labeled-tree JSON object with a tree given by child maps,
    without recursion (the trees can be thousands of nodes deep)."""
    stack = [(obj, root)]
    while stack:
        node, v = stack.pop()
        if v is None:
            if node is not None:
                return False
            continue
        if not isinstance(node, dict) or node.get("label") != label(v):
            return False
        stack.append((node.get("left"), left.get(v)))
        stack.append((node.get("right"), right.get(v)))
    return True


def _tree_pair_ok(obj: dict, items: list[tuple[int, int]]) -> str | None:
    root, left, right, position = search_tree(items)
    if not same_tree(obj["P"], root, left, right, lambda v: v):
        return "P is not the binary search tree of the input"
    if not same_tree(obj["Q"], root, left, right, position.__getitem__):
        return "Q is not the recording tree of the input"
    return None


def _recoils(pos: list[int], i: int, j: int) -> list[int]:
    """The recoils composition of the subword of marks in [1, j] x [1, i]."""
    shape: list[int] = []
    last = 0
    for v in range(1, i + 1):
        if pos[v] > j:
            continue
        if shape and pos[v] > last:
            shape[-1] += 1
        else:
            shape.append(1)
        last = pos[v]
    return shape


def _tree_text(root, left: dict, right: dict) -> str:
    """The unlabeled shape of a tree in the CLI's text form: `-` for the
    empty tree and `(L,R)` for a node."""
    out = []
    stack = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item is None:
            out.append("-")
        else:
            out.append("(")
            stack.extend((")", right.get(item), ",", left.get(item)))
    return "".join(out)


def expected_grid(family: str, p: tuple[int, ...]) -> list[list]:
    """The growth diagram of p: the vertex at height i and offset j is the
    insertion shape of the subword of marks in [1, j] x [1, i], a recoils
    composition or the shape of a binary search tree.  A row changes only
    at the offsets of its marks, so each row is built left to right."""
    n = len(p)
    pos = [0] * (n + 1)
    for j, v in enumerate(p, 1):
        pos[v] = j
    grid = []
    for i in range(n + 1):
        root, left, right = None, {}, {}
        vertex = [] if family == "composition" else "-"
        row = [vertex]
        for j in range(1, n + 1):
            a = p[j - 1]
            if a <= i:
                if family == "composition":
                    vertex = _recoils(pos, i, j)
                else:
                    if root is None:
                        root = a
                    else:
                        cur = root
                        while True:
                            side = right if a > cur else left
                            if cur not in side:
                                side[cur] = a
                                break
                            cur = side[cur]
                    vertex = _tree_text(root, left, right)
            row.append(vertex)
        grid.append(row)
    return grid


def _check_growth(op: Op, obj: dict) -> str | None:
    family = op.args[1]
    p = op.perm
    n = len(p)
    if obj["check"] != "MATCH":
        return f"check is {obj['check']!r}"
    if obj["n"] != n or obj["family"] != family:
        return "wrong n or family"
    if obj["marks"] != [[j, p[j - 1]] for j in range(1, n + 1)]:
        return "marks are not the permutation matrix"
    grid = obj["grid"]
    if len(grid) != n + 1 or any(len(row) != n + 1 for row in grid):
        return "grid is not (n+1) x (n+1)"
    for i, (row, expected) in enumerate(zip(grid, expected_grid(family, p))):
        if row != expected:
            j = next(j for j, (got, want) in enumerate(zip(row, expected)) if got != want)
            return f"grid vertex ({i}, {j}) is not the insertion shape of its rectangle"
    if family == "composition":
        pair = hypoplactic_pair(p)
        if (obj["P"], obj["Q"]) != pair:
            return "P or Q differs from the shadow-line pair"
        return None
    return _tree_pair_ok(obj, list(enumerate(p, 1)))


def _check_insert(op: Op, obj: dict) -> str | None:
    algorithm = op.args[1]
    p = op.perm
    if obj["permutation"] != list(p):
        return "permutation echoed wrongly"
    if algorithm == "hypoplactic":
        if obj["algorithm"] != "hypoplactic":
            return "wrong algorithm name"
        if (obj["P"], obj["Q"]) != hypoplactic_pair(p):
            return "P or Q differs from the shadow-line pair"
        return None
    if algorithm == "bst-left":
        expected_name, items = "bst-left", list(enumerate(p, 1))
    else:
        expected_name, items = "bst-right", [(i, p[i - 1]) for i in range(len(p), 0, -1)]
    if obj["algorithm"] != expected_name:
        return "wrong algorithm name"
    return _tree_pair_ok(obj, items)


_RANK_LINE = re.compile(r"rank (\d+): (\w+)")
_COUNT_LINE = re.compile(r"n=(\d+): (\d+)/(\d+) (\w+)")
_PATHS_LINE = re.compile(r"n=(\d+): chain-pair count (\d+), n! = (\d+): (\w+)")


def _check_verify(op: Op, text: str) -> str | None:
    mode = op.args[1]
    lines = text.splitlines()
    if mode == "duality":
        top = int(op.args[op.args.index("--max-rank") + 1])
        ranks = [_RANK_LINE.fullmatch(line) for line in lines[:-1]]
        if [m and (int(m[1]), m[2]) for m in ranks] != [(k, "PASS") for k in range(top + 1)]:
            return "rank lines are not PASS for every rank"
        if not lines[-1].endswith(f"dual with r=1 up to rank {top}"):
            return "no final duality line"
        return None
    if mode in ("equivalence", "shadow"):
        top = int(op.args[op.args.index("--max-n") + 1])
        counts = [_COUNT_LINE.fullmatch(line) for line in lines[:-1]]
        expected = [(k, math.factorial(k), math.factorial(k), "PASS") for k in range(top + 1)]
        if [m and (int(m[1]), int(m[2]), int(m[3]), m[4]) for m in counts] != expected:
            return "per-n counts are not n!/n! PASS"
        if not (" match " in lines[-1] and lines[-1].endswith(f"for all n <= {top}")):
            return "no final match line"
        return None
    if mode == "paths":
        n = int(op.args[op.args.index("--n") + 1])
        m = _PATHS_LINE.fullmatch(lines[0]) if len(lines) == 1 else None
        if not m or (int(m[1]), int(m[2]), int(m[3]), m[4]) != (n, math.factorial(n), math.factorial(n), "PASS"):
            return "chain-pair count is not n!"
        return None
    return f"no check for verify mode {mode!r}"


def check(op: Op, stdout: str) -> str | None:
    """None when stdout is the right output of op, else the reason."""
    try:
        if op.args[0] == "verify":
            return _check_verify(op, stdout) if stdout.strip() else "empty output"
        obj = json.loads(stdout)
        if op.args[0] == "growth":
            return _check_growth(op, obj)
        if op.args[0] == "insert":
            return _check_insert(op, obj)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return f"no check for command {op.args[0]!r}"
