import json

import pytest

from growthdiagrams import cli, graphs, growth, ribbons
from growthdiagrams.cli import main


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
    def broken_convert(chains, family):
        return growth.chain_to_quasi_ribbon([(), (2,)]), None

    monkeypatch.setattr(cli, "convert_chains", broken_convert)
    code, out, err = run(capsys, "growth", "composition", "312")
    assert code == 1
    assert out == ""
    assert err == "invariant violated: chain [(), (2,)] is not saturated in the lifted binary tree\n"


def test_failed_insertion_validation_is_an_invariant_breach(monkeypatch, capsys):
    # a step that appends every letter leaves P's reading word unsorted,
    # which only the validation of the final P can notice
    monkeypatch.setattr(ribbons, "bisect_right", lambda reading, a: len(reading))
    code, out, err = run(capsys, "insert", "hypoplactic", "312")
    assert code == 1
    assert out == ""
    assert err.startswith("invariant violated: row ")


def _fail_if_reached(*args, **kwargs):
    raise AssertionError("the command computed before checking its bounds")


@pytest.mark.parametrize(
    "argv, owner, name",
    [
        (["verify", "shadow", "--max-n", "7"], cli, "all_permutations"),
        (["verify", "equivalence", "--family", "tree", "--max-n", "7"], cli, "all_permutations"),
        (["verify", "duality", "--pair", "trees", "--max-rank", "9"], graphs, "check_duality"),
        (["verify", "paths", "--pair", "trees", "--n", "9"], graphs, "path_count_identity"),
        (["graph", "binword", "--max-rank", "8"], graphs, "export_graph"),
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


def test_out_is_left_alone_when_the_command_fails(tmp_path, capsys):
    existing = tmp_path / "existing.txt"
    existing.write_text("earlier output\n")
    code, _, _ = run(capsys, "insert", "hypoplactic", "1,1", "--out", str(existing))
    assert code == 2
    assert existing.read_text() == "earlier output\n"
    # a file that did not exist is created by the up-front check and stays empty
    fresh = tmp_path / "fresh.txt"
    code, _, _ = run(capsys, "insert", "hypoplactic", "1,1", "--out", str(fresh))
    assert code == 2
    assert fresh.read_text() == ""
    code, _, _ = run(capsys, "insert", "hypoplactic", "312", "--out", str(existing))
    assert code == 0
    assert existing.read_text() == "P (quasi-ribbon):\n1 2\n  3\nQ (ribbon):\n2 3\n  1\n"


@pytest.mark.parametrize("mode", ["equivalence", "shadow"])
@pytest.mark.parametrize("max_n", [graphs.MAX_N + 1, 12])
def test_exhaustive_max_n_guard(monkeypatch, capsys, mode, max_n):
    monkeypatch.setattr(cli, "all_permutations", _fail_if_reached)
    code, out, err = run(capsys, "verify", mode, "--max-n", str(max_n))
    assert code == 2
    assert out == ""
    assert err == (
        f"error: --max-n {max_n} exceeds the supported maximum {graphs.MAX_N} for exhaustive checks\n"
    )


@pytest.mark.parametrize("mode", ["equivalence", "shadow"])
def test_exhaustive_max_n_guard_admits_its_bound(monkeypatch, capsys, mode):
    # one permutation per size keeps the run short; the guard sees only --max-n
    monkeypatch.setattr(cli, "all_permutations", lambda n: iter([tuple(range(1, n + 1))]))
    code, out, _ = run(capsys, "verify", mode, "--max-n", str(graphs.MAX_N))
    assert code == 0
    assert f"n={graphs.MAX_N}: 1/1 PASS" in out
