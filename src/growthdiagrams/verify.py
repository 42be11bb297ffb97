"""
The runners of ``growthdiag verify``, which only that command loads.

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

from .permutations import DUAL_PAIRS, MAX_N, RankGuardError


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
    number and the permutations where it saw the two differ or agree on
    an invalid result.  The public functions ``first`` and ``second``
    judge those, smallest first, so a mismatch names, and an invalid
    result raises for, the permutation that comparing them on each
    permutation in order would stop at.  ``where`` ends a mismatch line
    and ``claim`` states what the check showed.
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
    # the direct insertion that the family's growth diagrams reproduce
    if family == "composition":
        from .ribbons import hypoplactic_insert as direct
    else:
        from .bst import bst_insert as direct
    return _verify_routes(
        args, lines, partial(growthcheck.equivalence_walk, family=family),
        direct, partial(growthcheck.growth_insert, family=family),
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


_RUNNERS = {
    "duality": _verify_duality,
    "equivalence": _verify_equivalence,
    "shadow": _verify_shadow,
    "paths": _verify_paths,
}


def run(args) -> tuple[bool, list[str]]:
    """Run the verification that ``args.mode`` names: whether it passed,
    and the lines of its report."""
    lines: list[str] = []
    ok = _RUNNERS[args.mode](args, lines)
    return ok, lines
