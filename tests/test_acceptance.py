"""
Acceptance suite.  Each test covers one numbered criterion, prints one
PASS/FAIL line (run with -s to see them), and fails loudly otherwise.
"""
import json
import math
import time

from oracles import recoils_composition, trees_to_text

from growthdiagrams.cli import main
from growthdiagrams.compositions import (
    composition_to_word,
    compositions_of,
    lifted_covers,
    word_to_composition,
)
from growthdiagrams.graphs import DUAL_PAIRS, check_duality, make_graph, path_count_identity
from growthdiagrams.growthcheck import growth_insert
from growthdiagrams.permutations import all_permutations
from growthdiagrams.ribbons import hypoplactic_insert, shadow_lines
from growthdiagrams.bst import bst_insert
from growthdiagrams.trees import (
    reflected_bracket_covers,
    tree_to_bracketed_expression,
    trees_of,
)

P_415362 = {"shape": [2, 1, 3], "rows": [[1, 2], [3], [4, 5, 6]]}
Q_415362 = {"shape": [2, 1, 3], "rows": [[2, 6], [4], [1, 3, 5]]}

P_351426 = {
    "label": 3,
    "left": {"label": 1, "left": None,
             "right": {"label": 2, "left": None, "right": None}},
    "right": {"label": 5,
              "left": {"label": 4, "left": None, "right": None},
              "right": {"label": 6, "left": None, "right": None}},
}
Q_351426 = {
    "label": 1,
    "left": {"label": 3, "left": None,
             "right": {"label": 5, "left": None, "right": None}},
    "right": {"label": 2,
              "left": {"label": 4, "left": None, "right": None},
              "right": {"label": 6, "left": None, "right": None}},
}


def report(number: int, description: str, ok: bool):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def run_cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, f"CLI exited {code}"
    return json.loads(out)


def test_criterion_1_hypoplactic_worked_example(capsys):
    start = time.perf_counter()
    payload = run_cli_json(capsys, "insert", "hypoplactic", "415362", "--format", "json")
    elapsed = time.perf_counter() - start
    ok = payload["P"] == P_415362 and payload["Q"] == Q_415362 and elapsed < 1.0
    report(1, "insert hypoplactic 415362 gives the exact (P, Q) pair in < 1 s", ok)


def test_criterion_2_bst_worked_example(capsys):
    payload = run_cli_json(capsys, "insert", "bst-left", "351426", "--format", "json")
    ok = payload["P"] == P_351426 and payload["Q"] == Q_351426
    report(2, "insert bst-left 351426 gives the exact labeled tree pair", ok)


def test_criterion_3_growth_diagram_chains(capsys):
    payload = run_cli_json(capsys, "growth", "composition", "415362", "--format", "json")
    right = [row[6] for row in payload["grid"]]
    top = payload["grid"][6]
    ok = (
        right == [[], [1], [2], [2, 1], [2, 1, 1], [2, 1, 2], [2, 1, 3]]
        and top == [[], [1], [1, 1], [1, 2], [2, 2], [2, 3], [2, 1, 3]]
        and payload["P"] == P_415362
        and payload["Q"] == Q_415362
    )
    report(3, "growth composition 415362 reproduces both boundary chains and (P, Q)", ok)


def test_criterion_4_duality_rank_8():
    start = time.perf_counter()
    ok = True
    for pair in ("compositions", "trees"):
        g1, g2 = (make_graph(name) for name in DUAL_PAIRS[pair])
        result = check_duality(g1, g2, 8)
        ok = ok and result.is_dual and result.rank_verdicts == (True,) * 9
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(4, f"DU - UD = I holds exactly at every rank <= 8 for both pairs ({elapsed:.1f}s)", ok)


def test_criterion_5_growth_equals_insertion_n7():
    start = time.perf_counter()
    checked = 0
    ok = True
    for n in range(8):
        for p in all_permutations(n):
            if growth_insert(p, "composition") != hypoplactic_insert(p):
                ok = False
            if growth_insert(p, "tree") != bst_insert(p, "left-to-right"):
                ok = False
            checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and checked == sum(math.factorial(n) for n in range(8)) and elapsed < 120.0
    report(5, f"growth = direct insertion for both families, all n <= 7 ({elapsed:.1f}s)", ok)


def test_criterion_6_shadow_lines_n7():
    ok = all(
        shadow_lines(p) == hypoplactic_insert(p)
        for n in range(8)
        for p in all_permutations(n)
    )
    report(6, "shadow lines equal hypoplactic insertion for all n <= 7", ok)


def test_criterion_7_shape_law_n7():
    ok = all(
        hypoplactic_insert(p)[0].shape == recoils_composition(p)
        for n in range(8)
        for p in all_permutations(n)
    )
    report(7, "shape(P) is the recoils composition for all n <= 7", ok)


def test_criterion_8_structural_counts():
    ok = all(len(compositions_of(n)) == 2 ** (n - 1) for n in range(1, 11))
    catalan = lambda n: math.comb(2 * n, n) // (n + 1)
    ok = ok and all(len(trees_of(n)) == catalan(n) for n in range(11))
    ok = ok and all(
        len(lifted_covers(c)) == 2
        for n in range(1, 11)
        for c in compositions_of(n)
    )
    # every tree of positive rank is the cover of exactly one smaller tree
    for n in range(10):
        covered_from = trees_to_text(y for t in trees_of(n) for y in reflected_bracket_covers(t))
        ok = ok and sorted(covered_from) == sorted(trees_to_text(trees_of(n + 1)))
    report(8, "2^(n-1) and Catalan vertex counts, out-degree 2, unique parent", ok)


def test_criterion_9_path_count_identity():
    ok = True
    for pair in ("compositions", "trees"):
        g1, g2 = (make_graph(name) for name in DUAL_PAIRS[pair])
        for n in range(8):
            lhs, rhs = path_count_identity(g1, g2, n)
            ok = ok and lhs == rhs == math.factorial(n)
    report(9, "sum of chain-count products equals n! for n <= 7 on both pairs", ok)


def test_criterion_10_bijection_lemmas():
    ok = all(
        word_to_composition(composition_to_word(c)) == c
        for n in range(11)
        for c in compositions_of(n)
    )
    lemma_tree = ((None, (None, None)), (None, None))
    ok = ok and tree_to_bracketed_expression(lemma_tree) == "(x1x2)((x3x4)x5)"
    expressions = [tree_to_bracketed_expression(t) for n in range(9) for t in trees_of(n)]
    ok = ok and len(set(expressions)) == len(expressions)
    report(10, "composition/word and tree/bracketed-expression bijections", ok)
