import argparse
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from growthdiagrams import cli, compositions, graphexport, graphs, growth, growthcheck, jsontext, ribbons
from growthdiagrams.cli import main
from growthdiagrams.permutations import all_permutations
from oracles import boundary_chains, chain_pair, export_text
from test_growth import _patch_pair, flat_bst_insert
from test_walks import plant_unsorted_insertion, plant_wrong_recording_step, plant_wrong_recording_tree


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_insert_hypoplactic_ascii(capsys):
    code, out, _ = run(capsys, "insert", "hypoplactic", "415362")
    assert code == 0
    assert out == (
        "P (quasi-ribbon):\n"
        "1 2\n"
        "  3\n"
        "  4 5 6\n"
        "Q (ribbon):\n"
        "2 6\n"
        "  4\n"
        "  1 3 5\n"
    )


def test_insert_hypoplactic_json(capsys):
    code, out, _ = run(capsys, "insert", "hypoplactic", "415362", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["P"] == {"shape": [2, 1, 3], "rows": [[1, 2], [3], [4, 5, 6]]}
    assert payload["Q"] == {"shape": [2, 1, 3], "rows": [[2, 6], [4], [1, 3, 5]]}


def test_insert_singleton(capsys):
    code, out, _ = run(capsys, "insert", "hypoplactic", "1")
    assert code == 0
    assert "P (quasi-ribbon):\n1\n" in out


def test_insert_bst_left(capsys):
    code, out, _ = run(capsys, "insert", "bst-left", "351426")
    assert code == 0
    assert "P (binary search tree): ((- 1 (- 2 -)) 3 ((- 4 -) 5 (- 6 -)))" in out
    assert "Q (increasing tree): ((- 3 (- 5 -)) 1 ((- 4 -) 2 (- 6 -)))" in out


def test_insert_bst_right_alias_sylvester(capsys):
    _, out_right, _ = run(capsys, "insert", "bst-right", "351426", "--format", "json")
    _, out_sylv, _ = run(capsys, "insert", "sylvester", "351426", "--format", "json")
    assert out_right == out_sylv
    payload = json.loads(out_right)
    assert payload["algorithm"] == "bst-right"
    assert payload["P"]["label"] == 6  # root of the BST of the reversed word


def test_insert_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "insert", "hypoplactic", "1231")
    assert code == 2
    assert "duplicate" in err


def test_growth_check_match(capsys):
    code, out, _ = run(capsys, "growth", "composition", "415362", "--check")
    assert code == 0
    assert "top chain:   e -> 1 -> 1,1 -> 1,2 -> 2,2 -> 2,3 -> 2,1,3" in out
    assert "right chain: e -> 1 -> 2 -> 2,1 -> 2,1,1 -> 2,1,2 -> 2,1,3" in out
    assert "check against direct insertion: MATCH" in out


def test_growth_tree_check(capsys):
    code, out, _ = run(capsys, "growth", "tree", "351426", "--check")
    assert code == 0
    assert "MATCH" in out


def test_growth_empty_permutation(capsys):
    code, out, _ = run(capsys, "growth", "composition", "")
    assert code == 0
    assert "P (quasi-ribbon):\n(empty)" in out


def test_growth_json(capsys):
    code, out, _ = run(capsys, "growth", "composition", "415362", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 6
    assert payload["grid"][6] == [[], [1], [1, 1], [1, 2], [2, 2], [2, 3], [2, 1, 3]]
    assert [row[6] for row in payload["grid"]] == [
        [], [1], [2], [2, 1], [2, 1, 1], [2, 1, 2], [2, 1, 3]
    ]
    assert payload["marks"] == [[1, 4], [2, 1], [3, 5], [4, 3], [5, 6], [6, 2]]


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "lifted-binary-tree", "--max-rank", "2")
    assert code == 0
    assert out.startswith('digraph "lifted-binary-tree" {')
    assert '"1" -> "1,1";' in out


def test_graph_json_catalan(capsys):
    code, out, _ = run(
        capsys, "graph", "reflected-bracket-tree", "--max-rank", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [len(level["vertices"]) for level in payload["ranks"]] == [1, 1, 2, 5, 14]


def test_graph_rank_guard_exit_2(capsys):
    code, _, err = run(capsys, "graph", "tree-lattice", "--max-rank", "11")
    assert code == 2
    assert "exceeds" in err


def test_graph_rank_zero(capsys):
    code, out, _ = run(capsys, "graph", "tree-lattice", "--max-rank", "0")
    assert code == 0
    assert out.count("->") == 0


def test_verify_duality(capsys):
    code, out, _ = run(capsys, "verify", "duality", "--pair", "compositions", "--max-rank", "6")
    assert code == 0
    assert "rank 6: PASS" in out
    code, out, _ = run(capsys, "verify", "duality", "--pair", "trees", "--max-rank", "5")
    assert code == 0
    assert "dual with r=1" in out


def test_verify_equivalence(capsys):
    code, out, _ = run(capsys, "verify", "equivalence", "--family", "tree", "--max-n", "4")
    assert code == 0
    assert "n=4: 24/24 PASS" in out


def test_verify_shadow(capsys):
    code, out, _ = run(capsys, "verify", "shadow", "--max-n", "4")
    assert code == 0
    assert "shadow lines match hypoplactic insertion" in out


def test_verify_paths(capsys):
    code, out, _ = run(capsys, "verify", "paths", "--pair", "trees", "--n", "5")
    assert code == 0
    assert "chain-pair count 120, n! = 120: PASS" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "graph", "binword", "--max-rank", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith('digraph "binword"')


def test_byte_identical_output(capsys):
    first = run(capsys, "growth", "tree", "351426", "--format", "json")
    second = run(capsys, "growth", "tree", "351426", "--format", "json")
    assert first == second


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["insert", "plactic", "123"])
    capsys.readouterr()
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("\u00b2", "invalid character '\u00b2' (use commas for values > 9)"),
        ("\uff11\uff12", "invalid character '\uff11' (use commas for values > 9)"),
        ("\u0661,\u0662", "invalid token '\u0661'"),
        ("+2,1", "invalid token '+2'"),
        ("2,1_0,3,4,5,6,7,8,9,1", "invalid token '1_0'"),
    ],
    ids=["superscript", "full-width", "arabic-indic", "sign", "underscore"],
)
def test_a_permutation_of_other_than_ascii_digits_is_a_usage_error(capsys, text, message):
    code, out, err = run(capsys, "insert", "hypoplactic", text)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "equivalence", "--max-n", "-1"],
        ["verify", "shadow", "--max-n", "-2"],
        ["verify", "duality", "--max-rank", "-1"],
        ["verify", "paths", "--n", "-1"],
        ["graph", "binword", "--max-rank", "-3"],
    ],
)
def test_negative_bound_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    out, err = capsys.readouterr()
    assert excinfo.value.code == 2
    assert out == ""
    assert "must be >= 0" in err


def test_verify_counts_every_permutation(capsys):
    code, out, _ = run(capsys, "verify", "shadow", "--max-n", "3")
    assert code == 0
    assert out.splitlines()[:4] == ["n=0: 1/1 PASS", "n=1: 1/1 PASS", "n=2: 2/2 PASS", "n=3: 6/6 PASS"]
    code, out, _ = run(capsys, "verify", "equivalence", "--max-n", "0")
    assert code == 0
    assert out.splitlines()[0] == "n=0: 1/1 PASS"


@pytest.mark.parametrize("pair, n", [("trees", "12"), ("compositions", "30")])
def test_verify_paths_rank_guard_before_counting(monkeypatch, capsys, pair, n):
    def no_counting(g, rank):
        raise AssertionError("chains were counted past the rank guard")

    monkeypatch.setattr(graphs, "chain_counts", no_counting)
    code, out, err = run(capsys, "verify", "paths", "--pair", pair, "--n", n)
    assert code == 2
    assert out == ""
    assert err.startswith("error: rank ") and "exceeds the supported maximum" in err


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, where):
    target = tmp_path / "missing" / "x" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, "insert", "hypoplactic", "312", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write --out {target}: ")
    assert len(err.splitlines()) == 1


def test_failed_chain_conversion_is_an_invariant_breach(monkeypatch, capsys):
    # the chains are converted from the fill's boundary labels; here P's
    # conversion reverses its reading word
    def broken_convert(letters):
        return ribbons.QuasiRibbonTableau._from_reading(range(len(letters), 0, -1), letters[1:])

    _patch_pair(monkeypatch, "composition", p_from_labels=broken_convert)
    code, out, err = run(capsys, "growth", "composition", "312")
    assert code == 1
    assert out == ""
    assert err == "invariant violated: row (3, 2) is not strictly increasing\n"


def test_failed_insertion_validation_is_an_invariant_breach(monkeypatch, capsys):
    # a step that appends every letter leaves P's reading word unsorted,
    # which only the validation of the final P can notice
    monkeypatch.setattr(ribbons, "bisect_right", lambda reading, a: len(reading))
    code, out, err = run(capsys, "insert", "hypoplactic", "312")
    assert code == 1
    assert out == ""
    assert err.startswith("invariant violated: row ")


def test_escaped_word_encoding_error_is_an_invariant_breach(monkeypatch, capsys):
    # no parsed input reaches word decoding: the CLI decodes only words it
    # builds itself, so a rejected one is a broken invariant, not a usage error
    monkeypatch.setattr(ribbons, "hypoplactic_insert", lambda p: compositions.word_to_composition("01"))
    code, out, err = run(capsys, "insert", "hypoplactic", "312")
    assert code == 1
    assert out == ""
    assert err == "invariant violated: word '01' has a leading 0 and encodes no composition\n"


def _fail_if_reached(*args, **kwargs):
    raise AssertionError("the command computed before checking its bounds")


@pytest.mark.parametrize(
    "argv, owner, name",
    [
        # these two cases keep the ids they had when cli enumerated the
        # permutations itself; the exhaustive work now starts in the walks
        pytest.param(
            ["verify", "shadow", "--max-n", "7"], ribbons, "shadow_walk",
            id="argv0-growthdiagrams.cli-all_permutations",
        ),
        pytest.param(
            ["verify", "equivalence", "--family", "tree", "--max-n", "7"], growthcheck, "equivalence_walk",
            id="argv1-growthdiagrams.cli-all_permutations",
        ),
        (["verify", "duality", "--pair", "trees", "--max-rank", "9"], graphs, "check_duality"),
        (["verify", "paths", "--pair", "trees", "--n", "9"], graphs, "path_count_identity"),
        # and this one the id it had when the export was in graphs and
        # cmd_graph called it through a format dispatcher
        pytest.param(
            ["graph", "binword", "--max-rank", "8"], graphexport, "export_dot",
            id="argv4-growthdiagrams.graphs-export_graph",
        ),
        (["insert", "hypoplactic", "312"], cli, "parse_permutation"),
        (["growth", "tree", "312"], cli, "parse_permutation"),
    ],
)
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_is_reported_before_any_work(monkeypatch, tmp_path, capsys, argv, owner, name, where):
    monkeypatch.setattr(owner, name, _fail_if_reached)
    target = tmp_path / "missing" / "x" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write --out {target}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("graph", "tree-lattice", "--max-rank", "11"), "rank 11 exceeds the supported maximum 10 for tree graphs"),
        (
            ("graph", "binword", "--max-rank", "13", "--format", "json"),
            "rank 13 exceeds the supported maximum 12 for composition graphs",
        ),
    ],
    ids=["tree-lattice", "binword-json"],
)
def test_graph_rank_guard_leaves_out_alone(tmp_path, capsys, argv, message):
    # the guard is raised before --out is opened for writing
    existing = tmp_path / "existing.txt"
    existing.write_bytes(b"earlier output\n")
    assert run(capsys, *argv, "--out", str(existing)) == (2, "", f"error: {message}\n")
    assert existing.read_bytes() == b"earlier output\n"


def test_graph_rank_guard_names_the_first_rank_over_it(capsys):
    message = "error: rank 11 exceeds the supported maximum 10 for tree graphs\n"
    assert run(capsys, "graph", "tree-lattice", "--max-rank", "15") == (2, "", message)


def test_out_is_left_alone_when_the_command_fails(tmp_path, capsys):
    existing = tmp_path / "existing.txt"
    existing.write_text("earlier output\n")
    code, _, _ = run(capsys, "insert", "hypoplactic", "1,1", "--out", str(existing))
    assert code == 2
    assert existing.read_text() == "earlier output\n"
    # a file that did not exist is not left behind by the up-front check
    fresh = tmp_path / "fresh.txt"
    code, _, _ = run(capsys, "insert", "hypoplactic", "1,1", "--out", str(fresh))
    assert code == 2
    assert not fresh.exists()
    code, _, _ = run(capsys, "insert", "hypoplactic", "312", "--out", str(existing))
    assert code == 0
    assert existing.read_text() == "P (quasi-ribbon):\n1 2\n  3\nQ (ribbon):\n2 3\n  1\n"


# each exhaustive mode and the walk that runs it over one size
WALKS = {"equivalence": (growthcheck, "equivalence_walk"), "shadow": (ribbons, "shadow_walk")}


@pytest.mark.parametrize("mode", ["equivalence", "shadow"])
@pytest.mark.parametrize("max_n", [graphs.MAX_N + 1, 12])
def test_exhaustive_max_n_guard(monkeypatch, capsys, mode, max_n):
    monkeypatch.setattr(*WALKS[mode], _fail_if_reached)
    code, out, err = run(capsys, "verify", mode, "--max-n", str(max_n))
    assert code == 2
    assert out == ""
    assert err == (
        f"error: --max-n {max_n} exceeds the supported maximum {graphs.MAX_N} for exhaustive checks\n"
    )


@pytest.mark.parametrize("mode", ["equivalence", "shadow"])
def test_exhaustive_max_n_guard_admits_its_bound(monkeypatch, capsys, mode):
    # a walk that reports one passing permutation per size keeps the run
    # short; the guard sees only --max-n
    monkeypatch.setattr(*WALKS[mode], lambda n, **kwargs: (1, []))
    code, out, _ = run(capsys, "verify", mode, "--max-n", str(graphs.MAX_N))
    assert code == 0
    assert f"n={graphs.MAX_N}: 1/1 PASS" in out


def _first_mismatch(argv, max_n):
    """The output of comparing the two public routes on each permutation
    in lexicographic order, stopping at the first that differs."""
    if argv[1] == "shadow":
        first, second, where = ribbons.shadow_lines, ribbons.hypoplactic_insert, ""
    else:
        family = argv[argv.index("--family") + 1]
        first = cli._insertion(cli._FAMILY_ALGORITHMS[family])
        second, where = (lambda p: growthcheck.growth_insert(p, family)), f" (family {family})"
    lines = []
    for n in range(max_n + 1):
        failing = [p for p in all_permutations(n) if first(p) != second(p)]
        if failing:
            return "".join(lines) + f"MISMATCH at permutation {failing[0]}{where}\n"
        lines.append(f"n={n}: {math.factorial(n)}/{math.factorial(n)} PASS\n")
    raise AssertionError("the planted fault changed no result")


@pytest.mark.parametrize(
    "argv, plant, line",
    [
        (("verify", "shadow"), plant_wrong_recording_step, "(1, 3, 2)"),
        (("verify", "equivalence", "--family", "tree"), plant_wrong_recording_tree, "(2, 3, 1) (family tree)"),
        (
            ("verify", "equivalence", "--family", "composition"), plant_wrong_recording_step,
            "(1, 3, 2) (family composition)",
        ),
    ],
    ids=["shadow", "equivalence", "equivalence-composition"],
)
def test_exhaustive_mismatch_is_reported(monkeypatch, capsys, argv, plant, line):
    # the walk meets the fault where the public functions meet it, and the
    # line names the first permutation that comparing them one at a time
    # in lexicographic order stops at
    plant(monkeypatch)
    expected = _first_mismatch(argv, 4)
    assert expected.endswith(f"n=2: 2/2 PASS\nMISMATCH at permutation {line}\n")
    code, out, err = run(capsys, *argv, "--max-n", "4")
    assert (code, out, err) == (1, expected, "")


@pytest.mark.parametrize(
    "argv",
    [("verify", "shadow"), ("verify", "equivalence", "--family", "composition")],
    ids=["shadow", "equivalence-composition"],
)
def test_exhaustive_invalid_tableau_is_an_invariant_breach(monkeypatch, capsys, argv):
    # the report keeps the lines of the sizes checked before the breach
    plant_unsorted_insertion(monkeypatch)
    code, out, err = run(capsys, *argv, "--max-n", "3")
    assert (code, out, err) == (
        1, "n=0: 1/1 PASS\nn=1: 1/1 PASS\n", "invariant violated: row (2, 1) is not strictly increasing\n"
    )


@pytest.mark.parametrize(
    "family, fields, message",
    [
        ("composition", dict(join=lambda a, h, rank: (a, 2 * rank + 6)), "labels (1, 6) do not fit square (2, 2)"),
        ("tree", dict(join=lambda k, s, rank: (k, rank + 2)), "labels (0, 2) do not fit square (2, 2)"),
    ],
    ids=["composition", "tree"],
)
def test_exhaustive_broken_label_rule_is_an_invariant_breach(monkeypatch, capsys, family, fields, message):
    # the walk's label fill raises as growth_insert's does
    _patch_pair(monkeypatch, family, **fields)
    code, out, err = run(capsys, "verify", "equivalence", "--family", family, "--max-n", "5")
    assert (code, out, err) == (1, "n=0: 1/1 PASS\nn=1: 1/1 PASS\n", f"invariant violated: {message}\n")


# -- output bytes against json.dumps and the recursive renderers --------------

def _oracle_tree_text(t):
    return "-" if t is None else f"({_oracle_tree_text(t[0])},{_oracle_tree_text(t[1])})"


def _oracle_labeled_tree_text(t):
    return "-" if t is None else f"({_oracle_labeled_tree_text(t[1])} {t[0]} {_oracle_labeled_tree_text(t[2])})"


def _oracle_labeled_json(t):
    if t is None:
        return None
    return {"label": t[0], "left": _oracle_labeled_json(t[1]), "right": _oracle_labeled_json(t[2])}


def _oracle_label(family, v):
    if family == "composition":
        return ",".join(str(part) for part in v) if v else "e"
    return _oracle_tree_text(v)


def _oracle_render_grid(grid):
    """The grid renderer as it was before vertex labels were memoized."""
    n = grid.n
    size = 2 * n + 1
    cells = [["" for _ in range(size)] for _ in range(size)]
    vertices = grid.vertices
    for i in range(n + 1):
        for j in range(n + 1):
            cells[2 * (n - i)][2 * j] = _oracle_label(grid.family, vertices[i][j])
    for col, row in grid.marks:
        cells[2 * (n - row) + 1][2 * col - 1] = "x"
    widths = [max(len(r[c]) for r in cells) for c in range(size)]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells)


def _assert_output(result, expected_out):
    """Compare (code, stdout, stderr) with (0, expected_out, ""), reporting
    the first differing character instead of a diff of megabytes of text."""
    code, out, err = result
    assert (code, err) == (0, "")
    if out != expected_out:
        i = next((k for k, (a, b) in enumerate(zip(out, expected_out)) if a != b), min(len(out), len(expected_out)))
        pytest.fail(
            f"stdout differs from character {i} on: {out[i : i + 60]!r} instead of {expected_out[i : i + 60]!r}"
        )


def _avoid231(n, rng):
    """A random 231-avoiding permutation: 1..n pushed in order through a
    stack and popped at random times gives a 312-avoiding sequence, whose
    inverse avoids 231."""
    stack, popped = [], []
    for v in range(1, n + 1):
        stack.append(v)
        while stack and rng.random() < 0.5:
            popped.append(stack.pop())
    popped += reversed(stack)
    inverse = [0] * n
    for position, v in enumerate(popped, 1):
        inverse[v - 1] = position
    return tuple(inverse)


def _inputs(n, seed):
    rng = random.Random(seed)
    shuffled = list(range(1, n + 1))
    rng.shuffle(shuffled)
    return {
        "identity": tuple(range(1, n + 1)),
        "reverse": tuple(range(n, 0, -1)),
        "random": tuple(shuffled),
        "avoid231": _avoid231(n, rng),
    }


def test_avoid231_helper_avoids_231():
    for n in range(8):
        for seed in range(20):
            p = _avoid231(n, random.Random(seed))
            assert sorted(p) == list(range(1, n + 1))
            assert not any(
                p[k] < p[i] < p[j] for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)
            )


GROWTH_INPUTS = _inputs(100, 7)


@pytest.mark.parametrize("family", ["composition", "tree"])
@pytest.mark.parametrize("klass", sorted(GROWTH_INPUTS))
def test_growth_output_bytes(capsys, family, klass):
    p = GROWTH_INPUTS[klass]
    text = ",".join(map(str, p))
    grid = growth.build_growth_diagram(p, family)
    top, right = boundary_chains(grid)
    pair = chain_pair(grid)
    if family == "composition":
        serialize, to_json = list, lambda tableau: tableau.to_json_obj()
    else:
        serialize, to_json = _oracle_tree_text, _oracle_labeled_json
    payload = {
        "n": grid.n,
        "family": family,
        "grid": [[serialize(v) for v in row] for row in grid.vertices],
        "marks": [list(cell) for cell in sorted(grid.marks)],
        "P": to_json(pair[0]),
        "Q": to_json(pair[1]),
        "check": "MATCH",
    }
    _assert_output(
        run(capsys, "growth", family, text, "--check", "--format", "json"),
        json.dumps(payload, indent=2) + "\n",
    )
    if family == "composition":
        pair_text = (
            f"P (quasi-ribbon):\n{ribbons.render_tableau(pair[0])}\n"
            f"Q (ribbon):\n{ribbons.render_tableau(pair[1])}"
        )
    else:
        pair_text = (
            f"P (binary search tree): {_oracle_labeled_tree_text(pair[0])}\n"
            f"Q (increasing tree): {_oracle_labeled_tree_text(pair[1])}"
        )
    ascii_text = "\n".join([
        _oracle_render_grid(grid),
        "",
        "top chain:   " + " -> ".join(_oracle_label(family, v) for v in top),
        "right chain: " + " -> ".join(_oracle_label(family, v) for v in right),
        pair_text,
        "check against direct insertion: MATCH",
    ])
    _assert_output(run(capsys, "growth", family, text, "--check"), ascii_text + "\n")


INSERT_INPUTS = _inputs(2000, 11)
INSERT_CASES = [(algorithm, klass) for algorithm in cli._ALGORITHMS for klass in sorted(INSERT_INPUTS)]


def _oracle_bst(p, algorithm):
    """The preorder encodings of P and Q by path-walking insertion into
    child tables; right to left is the left-to-right insertion of the
    reversed word with positions k read as n + 1 - k."""
    if algorithm == "bst-left":
        return flat_bst_insert(p)
    insertion, recording = flat_bst_insert(p[::-1])
    return insertion, [None if k is None else len(p) + 1 - k for k in recording]


def _render_preorder(preorder, empty, start, between, end):
    """A labeled tree's text from its preorder encoding (None for an empty
    subtree) without recursion: an empty subtree is ``empty``; a node
    labeled a, k levels below the root, is ``start(a, k)``, its left
    subtree, ``between(a, k)``, its right subtree and ``end(k)``."""
    out, path = [], []  # per open node: its label and whether its left subtree is done
    for label in preorder:
        if label is not None:
            out.append(start(label, len(path)))
            path.append([label, False])
            continue
        out.append(empty)
        while path:
            node = path[-1]
            if not node[1]:
                node[1] = True
                out.append(between(node[0], len(path) - 1))
                break
            path.pop()
            out.append(end(len(path)))
    return "".join(out)


def _oracle_tree_json(preorder):
    """The json.dumps(indent=2) text of a labeled tree one level inside the
    insert payload; json.dumps itself recurses too deep for a comb."""
    pad = lambda k: "  " * (k + 2)  # noqa: E731
    return _render_preorder(
        preorder,
        "null",
        lambda a, k: f'{{\n{pad(k)}"label": {a},\n{pad(k)}"left": ',
        lambda a, k: f',\n{pad(k)}"right": ',
        lambda k: f"\n{pad(k - 1)}}}",
    )


def _oracle_labeled_text(preorder):
    return _render_preorder(preorder, "-", lambda a, k: "(", lambda a, k: f" {a} ", lambda k: ")")


@pytest.mark.parametrize("algorithm, klass", INSERT_CASES)
def test_insert_json_bytes(capsys, algorithm, klass):
    p = INSERT_INPUTS[klass]
    head = {"algorithm": "bst-right" if algorithm == "sylvester" else algorithm, "permutation": list(p)}
    if algorithm == "hypoplactic":
        tab_p, tab_q = ribbons.hypoplactic_insert(p)
        expected = json.dumps({**head, "P": tab_p.to_json_obj(), "Q": tab_q.to_json_obj()}, indent=2)
    else:
        tree_p, tree_q = map(_oracle_tree_json, _oracle_bst(p, algorithm))
        # the shallow head from json.dumps, the deep trees spliced in after it
        expected = json.dumps(head, indent=2)[: -len("\n}")] + f',\n  "P": {tree_p},\n  "Q": {tree_q}\n}}'
    argv = ("insert", algorithm, ",".join(map(str, p)), "--format", "json")
    _assert_output(run(capsys, *argv), expected + "\n")


@pytest.mark.parametrize("algorithm, klass", INSERT_CASES)
def test_insert_ascii_bytes(capsys, algorithm, klass):
    p = INSERT_INPUTS[klass]
    if algorithm == "hypoplactic":
        tab_p, tab_q = ribbons.hypoplactic_insert(p)
        expected = (
            f"P (quasi-ribbon):\n{ribbons.render_tableau(tab_p)}\n"
            f"Q (ribbon):\n{ribbons.render_tableau(tab_q)}\n"
        )
    else:
        tree_p, tree_q = map(_oracle_labeled_text, _oracle_bst(p, algorithm))
        q_kind = "increasing" if algorithm == "bst-left" else "decreasing"
        expected = f"P (binary search tree): {tree_p}\nQ ({q_kind} tree): {tree_q}\n"
    _assert_output(run(capsys, "insert", algorithm, ",".join(map(str, p))), expected)


class _Pieces:
    """A stdout that keeps each piece written to it."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)

    def writelines(self, texts):
        for text in texts:
            self.write(text)

    def flush(self):
        pass


def test_insert_json_is_written_in_bounded_pieces(monkeypatch):
    # the text of a comb is quadratic in its depth: 32 MB at n = 2000
    p = INSERT_INPUTS["identity"]
    out = _Pieces()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["insert", "bst-left", ",".join(map(str, p)), "--format", "json"]) == 0
    # at most one part beyond a chunk: the deepest indentation with a key
    deepest_part = ",\n" + "  " * (len(p) + 1) + '"right": '
    assert max(map(len, out.pieces)) < jsontext.CHUNK_SIZE + len(deepest_part)
    assert sum(map(len, out.pieces)) > 30_000_000
    assert "".join(out.pieces[-2:]).endswith("\n}\n")


@pytest.mark.parametrize("name", graphs.GRAPH_NAMES)
def test_graph_json_bytes(capsys, name):
    g = graphs.make_graph(name)
    for fmt in ("json", "dot"):
        argv = ("graph", name, "--max-rank", "6", "--format", fmt)
        _assert_output(run(capsys, *argv), export_text(g, 6, fmt))


def test_no_output_goes_through_json_dumps(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps reached")

    monkeypatch.setattr(json, "dumps", refuse)
    for argv in (
        ("insert", "hypoplactic", "2413", "--format", "json"),
        ("insert", "bst-left", "2413", "--format", "json"),
        ("growth", "tree", "2413", "--format", "json"),
        ("graph", "binword", "--max-rank", "3", "--format", "json"),
    ):
        assert run(capsys, *argv)[0] == 0
    grid = growth.build_growth_diagram((2, 1), "composition")
    "".join(jsontext.iterdumps({"n": grid.n, "grid": [[list(v) for v in row] for row in grid.vertices]}))


@pytest.mark.parametrize("fmt", ["json", "ascii"])
def test_growth_converts_the_chains_once(monkeypatch, capsys, fmt):
    # once each, from the fill's own boundary labels, not from the boundary
    # chains read back
    calls = []
    dual = growth._pair("tree")

    def counted(convert):
        def counting(labels):
            calls.append((convert.__name__, tuple(labels)))
            return convert(labels)
        return counting

    _patch_pair(
        monkeypatch, "tree", p_from_labels=counted(dual.p_from_labels), q_from_labels=counted(dual.q_from_labels)
    )
    assert run(capsys, "growth", "tree", "2413", "--check", "--format", fmt)[0] == 0
    assert calls == [("_bst_from_depths", (0, 0, 1, 1)), ("_increasing_tree_from_slots", (0, 1, 0, 2))]


def test_closed_stdout_is_one_error_line():
    # about 100 KB of JSON, more than a pipe holds, so the writer is
    # still writing when the reader closes its end
    word = ",".join(map(str, range(1, 3001)))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "growthdiagrams.cli", "insert", "hypoplactic", word, "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 2
    assert err.startswith("error: cannot write stdout: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("redirect", ["> /dev/full", ">&-"], ids=["full", "closed"])
@pytest.mark.parametrize(
    "argv",
    [
        ["insert", "hypoplactic", "2,1"],
        ["growth", "tree", "2413", "--check", "--format", "json"],
        ["graph", "binword", "--max-rank", "3"],
        ["verify", "shadow", "--max-n", "4"],
        ["--help"],
        ["insert", "--help"],
    ],
    ids=lambda argv: "-".join(arg.strip("-") for arg in argv) if "--help" in argv else argv[0],
)
def test_a_stdout_that_takes_no_text_is_one_error_line(argv, redirect):
    # a full device fails a write or the last flush, a closed fd 1 leaves
    # no stdout; argparse's own help writer would drop either error
    if redirect == "> /dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    # with stdout unbuffered and buffered, as a terminal and CI have it
    for unbuffered in ("1", ""):
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
            PYTHONUNBUFFERED=unbuffered,
        )
        proc = subprocess.run(
            ["sh", "-c", f'"$@" {redirect}', "sh", sys.executable, "-m", "growthdiagrams.cli", *argv],
            stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, (unbuffered, proc.stderr)
        assert proc.stderr.startswith("error: cannot write stdout: ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize(
    "argv", [["--help"], ["insert", "--help"], ["verify", "--help"]], ids=["help", "insert-help", "verify-help"]
)
def test_help_on_a_working_stdout_is_argparse_help(argv, capsys, monkeypatch):
    outputs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        outputs.append(capsys.readouterr())
        # then the same help through argparse's own writer
        monkeypatch.setattr(cli._Parser, "print_help", argparse.ArgumentParser.print_help)
    assert outputs[0] == outputs[1] and outputs[0].out.startswith("usage: growthdiag")
