"""
The runners of ``growthdiag verify``, which only that command loads:
each mode is the function of its name.  A runner is a generator: it
yields the lines of its report, a size's line as soon as that size is
checked, and returns whether the check passed.

``verify shadow`` and ``verify equivalence`` compare two routes to the
same (P, Q) pair on every permutation of each size up to ``--max-n``,
one walk per size: ``ribbons.shadow_walk`` loops over the permutations,
``growthcheck.equivalence_walk`` walks the prefixes of inverse(p) depth
first, running a step shared by many permutations once.  The public
functions of the two routes then judge each permutation a walk reports,
smallest first, so a MISMATCH line names the lexicographically first
failing permutation of the first failing size.
"""
from __future__ import annotations

from functools import partial
from typing import Generator

from .permutations import DUAL_PAIRS, MAX_N, RankGuardError


def duality(args) -> Generator[str, None, bool]:
    from . import graphs

    g1, g2 = (graphs.make_graph(name) for name in DUAL_PAIRS[args.pair])
    report = graphs.check_duality(g1, g2, args.max_rank)
    for n, ok in enumerate(report.rank_verdicts):
        yield f"rank {n}: {'PASS' if ok else 'FAIL'}\n"
    if report.is_dual:
        yield f"{report.pair} dual with r=1 up to rank {report.max_rank}\n"
        return True
    ce = report.counterexample
    yield (
        f"counterexample at rank {ce.rank}: (DU-UD)[{ce.row_label}, {ce.col_label}]"
        f" = {ce.got}, expected {ce.expected}\n"
    )
    return False


def _verify_routes(args, walk, first, second, where: str, claim: str) -> Generator[str, None, bool]:
    """
    Compare two routes to the same (P, Q) pair on every permutation of
    each size up to --max-n, guarded before any walk.  ``walk(n)`` runs
    both routes over all permutations of size n at once and returns their
    number and the permutations where it saw the two differ or agree on
    an invalid result.  The public functions ``first`` and ``second``
    judge those, smallest first, so a mismatch names, and an invalid
    result raises for, the permutation that comparing them on each
    permutation in order would stop at.  ``where`` ends a mismatch line
    and ``claim`` states what the check showed.
    """
    if args.max_n > MAX_N:
        raise RankGuardError(f"--max-n {args.max_n} exceeds the supported maximum {MAX_N} for exhaustive checks")
    for n in range(args.max_n + 1):
        count, suspects = walk(n)
        for p in sorted(suspects):
            if first(p) != second(p):
                yield f"MISMATCH at permutation {p}{where}\n"
                return False
        yield f"n={n}: {count}/{count} PASS\n"
    yield f"{claim} for all n <= {args.max_n}\n"
    return True


def equivalence(args) -> Generator[str, None, bool]:
    from . import growthcheck
    from .growth import _pair

    family = args.family
    return _verify_routes(
        args, partial(growthcheck.equivalence_walk, family=family),
        _pair(family).direct, partial(growthcheck.growth_insert, family=family),
        f" (family {family})", f"growth diagrams match direct {family} insertion",
    )


def shadow(args) -> Generator[str, None, bool]:
    from . import ribbons

    return _verify_routes(
        args, ribbons.shadow_walk, ribbons.shadow_lines, ribbons.hypoplactic_insert,
        "", "shadow lines match hypoplactic insertion",
    )


def paths(args) -> Generator[str, None, bool]:
    from . import graphs

    g1, g2 = (graphs.make_graph(name) for name in DUAL_PAIRS[args.pair])
    lhs, rhs = graphs.path_count_identity(g1, g2, args.n)
    ok = lhs == rhs
    yield f"n={args.n}: chain-pair count {lhs}, n! = {rhs}: {'PASS' if ok else 'FAIL'}\n"
    return ok

