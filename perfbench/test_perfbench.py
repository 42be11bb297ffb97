"""
Tests of the benchmark itself:  python3 -m pytest perfbench
"""
from __future__ import annotations

import itertools
import json
import random
import re
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads
from spans import self_times

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from growthdiagrams import cli, bst_insert, hypoplactic_insert  # noqa: E402
from growthdiagrams.trees import labeled_tree_to_json_obj  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_a_pure_function_of_seed_and_name(workload):
    first = [workloads.cycle(workload, 7, k) for k in range(3)]
    again = list(itertools.islice(workloads.cycles(workload, 7), 3))
    assert first == again
    assert [op.args for op in workloads.cycle(workload, 7, 0)] == [op.args for op in first[0]]
    assert workloads.cycle(workload, 7, 0, 1 / 3) == workloads.cycle(workload, 7, 0, 1 / 3)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_a_traced_cycle_keeps_every_command_and_class_with_fewer_repeats(workload):
    full, traced = workloads.cycle(workload, 7, 0), workloads.cycle(workload, 7, 0, 1 / 3)
    assert {op.label for op in traced} == {op.label for op in full}
    assert len(traced) < len(full)


@pytest.mark.parametrize("workload", ["growth-fill", "insert-long"])
def test_seeded_workloads_cover_every_input_class(workload):
    ops = workloads.cycle(workload, 1, 0)
    classes = {op.label.rsplit(" ", 1)[1] for op in ops}
    assert classes == {"random", "identity", "reverse", "avoid231"}
    assert ops != workloads.cycle(workload, 2, 0)
    n = workloads.GROWTH_N if workload == "growth-fill" else workloads.INSERT_N
    for op in ops:
        assert sorted(op.perm) == list(range(1, n + 1))
        assert op.args[2] == ",".join(map(str, op.perm))


def test_insert_long_median_and_tail_fall_among_random_bst_ops():
    """Fewer than ten ops that succeed are slower than a random BST op, and
    random BST ops are most of the rest, so both quantiles land in that
    one cluster whatever the seed."""
    ops = workloads.cycle("insert-long", 1, 0)
    fast = [op for op in ops if op.args[1] != "hypoplactic" and op.label.endswith("random")]
    deep = [op for op in ops if op.args[1] != "hypoplactic" and op.label.endswith(("identity", "reverse"))]
    slower = len(ops) - len(fast) - len(deep)
    assert slower < run.TAIL_BEYOND
    assert len(fast) > (len(ops) - len(deep)) / 2 + slower


def _has_231(p) -> bool:
    return any(p[k] < p[i] < p[j] for i, j, k in itertools.combinations(range(len(p)), 3))


def test_avoid231_permutations_avoid_231_and_are_varied():
    seen = set()
    for seed in range(400):
        p = workloads.random_avoid231(5, random.Random(seed))
        assert sorted(p) == [1, 2, 3, 4, 5]
        assert not _has_231(p)
        seen.add(p)
    assert len(seen) == 42  # Catalan(5): every 231-avoiding permutation occurs


def test_benchmark_json_follows_the_contract():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(s["paths"]) == {"perfbench"}
    assert [w["name"] for w in s["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    assert len(names) == len(set(names))
    for m in s["end_to_end"] + s["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    for m in s["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])


@pytest.mark.parametrize("seed", range(5))
def test_checks_agree_with_the_library(seed):
    rng = random.Random(seed)
    p = workloads.permutation("random", 40, rng)
    P, Q = hypoplactic_insert(p)
    assert checks.hypoplactic_pair(p) == (P.to_json_obj(), Q.to_json_obj())
    for reading, items in (
        ("left-to-right", list(enumerate(p, 1))),
        ("right-to-left", [(i, p[i - 1]) for i in range(len(p), 0, -1)]),
    ):
        tp, tq = bst_insert(p, reading)
        root, left, right, position = checks.search_tree(items)
        assert checks.same_tree(labeled_tree_to_json_obj(tp), root, left, right, lambda v: v)
        assert checks.same_tree(labeled_tree_to_json_obj(tq), root, left, right, position.__getitem__)
        assert not checks.same_tree(labeled_tree_to_json_obj(tq), root, left, right, lambda v: v)


P8 = (3, 7, 1, 8, 5, 2, 6, 4)


def _real_output(capsys, *args: str) -> tuple[workloads.Op, dict]:
    """An op on P8 and the CLI's own output for it, which must pass the checks."""
    args = tuple(a.replace("P8", ",".join(map(str, P8))) for a in args)
    op = workloads.Op(args, P8, " ".join(args[:2]) + " random")
    assert cli.main(list(args)) == 0
    out = capsys.readouterr().out
    assert checks.check(op, out) is None
    return op, json.loads(out)


def _other_vertex(family: str, vertex):
    """Another vertex of the same rank."""
    if family == "composition":
        k = sum(vertex)
        return [k] if vertex != [k] else [1] * k
    k = vertex.count("(")
    comb = "(-," * k + "-" + ")" * k
    return comb if vertex != comb else "(" * k + "-" + ",-)" * k


@pytest.mark.parametrize("family", ["composition", "tree"])
def test_checks_catch_an_altered_grid_vertex_of_the_right_rank(capsys, family):
    op, obj = _real_output(capsys, "growth", family, "P8", "--check", "--format", "json")
    i, j = 6, 5  # an interior vertex of rank 3
    assert len(obj["grid"][i][j]) > 1
    obj["grid"][i][j] = _other_vertex(family, obj["grid"][i][j])
    assert checks.check(op, json.dumps(obj)) == f"grid vertex ({i}, {j}) is not the insertion shape of its rectangle"


@pytest.mark.parametrize("args", [
    ("growth", "composition", "P8", "--check", "--format", "json"),
    ("growth", "tree", "P8", "--check", "--format", "json"),
    ("insert", "hypoplactic", "P8", "--format", "json"),
    ("insert", "bst-left", "P8", "--format", "json"),
    ("insert", "sylvester", "P8", "--format", "json"),
])
def test_checks_catch_p_swapped_with_q(capsys, args):
    op, obj = _real_output(capsys, *args)
    obj["P"], obj["Q"] = obj["Q"], obj["P"]
    assert checks.check(op, json.dumps(obj))


@pytest.mark.parametrize("algorithm", ["bst-left", "sylvester"])
@pytest.mark.parametrize("tree", ["P", "Q"])
def test_checks_catch_a_changed_tree_label(capsys, algorithm, tree):
    op, obj = _real_output(capsys, "insert", algorithm, "P8", "--format", "json")
    node = obj[tree]
    while node["right"] is not None:
        node = node["right"]
    node["label"] = 9
    assert checks.check(op, json.dumps(obj))


def _failed(args: tuple[str, ...], klass: str, code: int = 1,
            stderr: str = "Traceback (most recent call last):\nRecursionError: maximum recursion depth exceeded\n") -> bool:
    op = workloads.Op(args, label=" ".join(args[:2]) + " " + klass)
    return run.known_failure(op, run.Proc(1.0, code, 10.0, False, "", stderr))


def test_only_bst_recursion_on_deep_input_is_a_known_failure():
    assert _failed(("insert", "bst-left"), "identity")
    assert _failed(("insert", "sylvester"), "reverse")
    assert not _failed(("insert", "hypoplactic"), "identity")
    assert not _failed(("insert", "bst-left"), "random")
    assert not _failed(("growth", "tree"), "identity")
    assert not _failed(("insert", "bst-left"), "identity", code=2)
    assert not _failed(("insert", "bst-left"), "identity", stderr="invariant violated: bad square\n")


def test_tail_leaves_ten_samples_beyond():
    times = [float(k) for k in range(24)]
    assert run.tail(times) == (13.0, 58, 10)
    assert run.tail(times[:5]) == (4.0, 100, 0)


def test_self_time_subtracts_direct_children():
    trace = {
        "spans": [["cli.main", 0.0, 10.0, -1], ["growth.fill", 1.0, 5.0, 0], ["growth.convert", 2.0, 3.0, 1]],
        "aggregates": [["trees.render", 0, 4, 2.0]],
    }
    seconds, calls = self_times(trace)
    assert seconds == pytest.approx({"cli.main": 4.0, "growth.fill": 3.0, "growth.convert": 1.0, "trees.render": 2.0})
    assert calls["trees.render"] == 4


def _tiny_cycle(rng, share):
    p = workloads.permutation("random", 7, rng)
    text = ",".join(map(str, p))
    return [
        workloads.Op(("growth", "composition", text, "--check", "--format", "json"), p, "growth composition random"),
        workloads.Op(("growth", "tree", text, "--check", "--format", "json"), p, "growth tree random"),
        workloads.Op(("insert", "sylvester", text, "--format", "json"), p, "insert sylvester random"),
        workloads.Op(("verify", "paths", "--pair", "trees", "--n", "4"), label="verify paths --pair trees"),
    ]


@pytest.fixture
def tiny(monkeypatch):
    """A smoke configuration: the verify-suite name runs four small ops."""
    monkeypatch.setitem(workloads.WORKLOADS, "verify-suite", _tiny_cycle)


def _result(capsys, trace: int) -> dict:
    assert run.main(["--workload", "verify-suite", "--seed", "3", "--seconds", "1", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_smoke_run_prints_every_end_to_end_metric(tiny, capsys):
    result = _result(capsys, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % 4 == 0  # whole cycles
    assert {m["name"]: m["unit"] for m in spec()["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_run_reports_a_planted_wrong_output(tiny, capsys, monkeypatch):
    real = run.cli_argv

    def planted(op):
        if op.args[1] == "tree":
            wrong = op.args[:2] + (",".join(map(str, op.perm[::-1])),) + op.args[3:]
            return real(workloads.Op(wrong, op.perm, op.label))
        return real(op)

    monkeypatch.setattr(run, "cli_argv", planted)
    result = _result(capsys, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 4


def test_smoke_run_reports_a_mismatch_exit_as_incorrect(tiny, capsys, monkeypatch):
    """The CLI exits 1 when --check finds a mismatch; such an op is a
    failure that makes the run incorrect, not a tolerated exit."""
    real = run.cli_argv
    mismatch = "import json, sys; print(json.dumps({'check': 'MISMATCH'})); sys.exit(1)"

    def planted(op):
        return [sys.executable, "-c", mismatch] if op.args[1] == "tree" else real(op)

    monkeypatch.setattr(run, "cli_argv", planted)
    result = _result(capsys, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 4


def test_smoke_traced_run_prints_every_per_layer_metric(tiny, capsys):
    result = _result(capsys, 1)
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert declared == {k: v["unit"] for k, v in result["metrics"].items()}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["growth.fill_s"] > 0 and metrics["growth.rule_case_f_s"] > 0
    assert metrics["growth.case_a"] == pytest.approx(2 * 7 / 4)  # one mark per column, two fills of 4 ops
    assert metrics["graphs.enumerate_s.rank4"] > 0 and metrics["trees.bst_insert_s"] > 0
