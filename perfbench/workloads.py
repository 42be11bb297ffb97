"""
Seeded op lists for the three benchmark workloads.

An op is one `growthdiag` command line.  A workload is an endless list of
ops made of cycles; cycle k is a pure function of (workload, seed, k), so
the same seed always yields the same ops in the same order.  Every cycle
holds the same mix of commands and input classes, which keeps that mix
fixed however many whole cycles a run gets through.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count
from typing import Iterator

GROWTH_N = 100
INSERT_N = 2000

# Input classes that every cycle holds once per family or algorithm.
# Identity and reverse give the deepest trees and the longest ribbons;
# 231-avoiding permutations are the canonical representatives of
# sylvester classes.  The rest of a cycle is uniform random input.
CLASSES = ("identity", "reverse", "avoid231")

# Uniform random inputs per cycle.  The counts put the median and the tail
# op of a run inside a dense cluster of ops, not in a gap between classes
# of very different cost, where which op falls on the quantile would
# decide the value.  In growth-fill that cluster is the random tree fills
# (0.8-1.9 s); a composition fill takes about 2 s, so with composition
# fills as the majority the quantiles would fall at the gap between the
# two, or the tail below the median for want of ops.  In insert-long the
# six ops that succeed and are not random BST insertions (hypoplactic
# ones take up to 4 s) are fewer than the ten beyond the tail, so the
# median and the tail fall among the random BST insertions (about 0.2 s
# each).
GROWTH_RANDOM = {"composition": 4, "tree": 14}
INSERT_RANDOM = {"hypoplactic": 1, "bst-left": 38, "sylvester": 38}

# Each verification and how often a cycle runs it.  Duality and path
# counts run at the largest ranks the graph guards allow (duality needs
# rank max_rank + 1).  Tree duality (about 0.8 s) and shadow (about 0.95 s)
# form the middle cluster, which holds both the median and the tail.
VERIFY_OPS = (
    (("verify", "duality", "--pair", "compositions", "--max-rank", "11"), 2),
    (("verify", "duality", "--pair", "trees", "--max-rank", "9"), 10),
    (("verify", "equivalence", "--family", "composition", "--max-n", "7"), 2),
    (("verify", "equivalence", "--family", "tree", "--max-n", "7"), 3),
    (("verify", "shadow", "--max-n", "7"), 10),
    (("verify", "paths", "--pair", "compositions", "--n", "12"), 2),
    (("verify", "paths", "--pair", "trees", "--n", "10"), 2),
)


def scaled(count: int, share: float) -> int:
    """A share of a count, at least one."""
    return max(1, round(count * share))


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its arguments and the permutation it was made from."""

    args: tuple[str, ...]
    perm: tuple[int, ...] = ()
    label: str = ""


def random_avoid231(n: int, rng: random.Random) -> tuple[int, ...]:
    """
    A uniform random 231-avoiding permutation of 1..n.

    A uniform Dyck path (cycle lemma) is read as stack pushes of 1..n and
    pops; the popped sequence avoids 312, so its inverse avoids 231.
    """
    steps = [1] * n + [-1] * (n + 1)
    rng.shuffle(steps)
    low, low_at, height = 0, 0, 0
    for i, step in enumerate(steps):
        height += step
        if height < low:
            low, low_at = height, i + 1
    path = steps[low_at:] + steps[:low_at]
    path.pop()
    stack: list[int] = []
    popped: list[int] = []
    nxt = 1
    for step in path:
        if step == 1:
            stack.append(nxt)
            nxt += 1
        else:
            popped.append(stack.pop())
    inverse = [0] * n
    for position, value in enumerate(popped, 1):
        inverse[value - 1] = position
    return tuple(inverse)


def permutation(klass: str, n: int, rng: random.Random) -> tuple[int, ...]:
    if klass == "random":
        p = list(range(1, n + 1))
        rng.shuffle(p)
        return tuple(p)
    if klass == "identity":
        return tuple(range(1, n + 1))
    if klass == "reverse":
        return tuple(range(n, 0, -1))
    if klass == "avoid231":
        return random_avoid231(n, rng)
    raise ValueError(f"unknown input class {klass!r}")


def _text(p: tuple[int, ...]) -> str:
    return ",".join(map(str, p))


def _growth_cycle(rng: random.Random, share: float) -> list[Op]:
    ops = []
    for family, randoms in GROWTH_RANDOM.items():
        for klass in CLASSES + ("random",) * scaled(randoms, share):
            p = permutation(klass, GROWTH_N, rng)
            args = ("growth", family, _text(p), "--check", "--format", "json")
            ops.append(Op(args, p, f"growth {family} {klass}"))
    rng.shuffle(ops)
    return ops


def _insert_cycle(rng: random.Random, share: float) -> list[Op]:
    ops = []
    for algorithm, randoms in INSERT_RANDOM.items():
        for klass in CLASSES + ("random",) * scaled(randoms, share):
            p = permutation(klass, INSERT_N, rng)
            if klass == "avoid231" and algorithm == "sylvester":
                # sylvester reads right to left, so its word is the reversal.
                # Unreversed, the tree depth is about n/2, right at the
                # interpreter's recursion limit, and whether the op fails
                # would depend on the seed.
                p = p[::-1]
            args = ("insert", algorithm, _text(p), "--format", "json")
            ops.append(Op(args, p, f"insert {algorithm} {klass}"))
    rng.shuffle(ops)
    return ops


def _verify_cycle(rng: random.Random, share: float) -> list[Op]:
    ops = [Op(args, label=" ".join(args[:4])) for args, times in VERIFY_OPS for _ in range(scaled(times, share))]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "growth-fill": _growth_cycle,
    "verify-suite": _verify_cycle,
    "insert-long": _insert_cycle,
}

# Seconds one cycle took when the benchmark was defined (2-vCPU VM,
# CPython 3.11).  They turn a time budget into a fixed number of cycles,
# so that every run of a seed runs the same ops, however fast the program.
NOMINAL_CYCLE_S = {"growth-fill": 29.0, "verify-suite": 27.0, "insert-long": 31.0}


def cycle_count(workload: str, seconds: float) -> int:
    """Whole cycles that take about `seconds` at the nominal cycle time."""
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def cycle(workload: str, seed: int, k: int, share: float = 1.0) -> list[Op]:
    """Cycle k of a workload, with `share` of its random inputs or repeats
    (a traced run takes a third); the same arguments always give the same ops."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}:{k}"), share)


def cycles(workload: str, seed: int, share: float = 1.0) -> Iterator[list[Op]]:
    """All cycles of a workload, in order."""
    for k in count():
        yield cycle(workload, seed, k, share)
