"""
The command line's three-outcome contract: any argv the parser's grammar
can spell ends in a result (exit 0), or in exit 1 or 2 with one error
line closing stderr, after argparse's usage lines if any, and never in a
traceback, also when stdout cannot take the text or the user interrupts
the command.  Commands run in process, on sizes that keep each one
short, with an empty stdin for the permutation "-"; the interrupt, and
the commands that read a real stdin, go to a child process.
"""
import math
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import BytesIO, StringIO, TextIOWrapper
from pathlib import Path
from random import Random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from growthdiagrams import cli, treegrowth
from growthdiagrams.graphs import MAX_RANK
from growthdiagrams.jsontext import CHUNK_SIZE
from growthdiagrams.permutations import DUAL_PAIRS, GRAPH_NAMES, MAX_N

FAMILIES = ("composition", "tree")
ALGORITHMS = ("hypoplactic", "bst-left", "bst-right", "sylvester")
PAIR_FAMILY = {"compositions": "composition", "trees": "tree"}
GRAPH_FAMILY = {name: PAIR_FAMILY[pair] for pair, names in DUAL_PAIRS.items() for name in names}
# a path below a regular file, which no command can create
UNWRITABLE = str(Path(__file__)) + "/out"

ERROR_LINE = re.compile(r"(error: |invariant violated: |growthdiag( \w+)?: error: )")


def _text(p, commas: bool) -> str:
    return ",".join(map(str, p)) if commas or len(p) > 9 else "".join(map(str, p))


def _edit(args) -> str:
    """One edit of a valid permutation text at a drawn place."""
    text, at, piece, kind = args
    at %= len(text) + 1
    if kind == "insert":
        return text[:at] + piece + text[at:]
    if kind == "replace":
        return text[:at] + piece + text[at + 1 :]
    if kind == "delete":
        return text[:at] + text[at + 1 :]
    return text[:at] + text[at:] * 2  # repeat the tail


valid_texts = st.builds(
    _text, st.integers(0, 30).flatmap(lambda n: st.permutations(range(1, n + 1))), st.booleans()
)
near_valid_texts = st.tuples(
    valid_texts,
    st.integers(0, 200),
    st.sampled_from(["", "0", "1", ",", ",,", " ", "-", "+", "a", "²", "١", "１", "99", str(10**20), "_", "\n"]),
    st.sampled_from(["insert", "replace", "delete", "repeat"]),
).map(_edit)
permutations = valid_texts | near_valid_texts


def _bounds(low: int, high: int):
    """Small values, values at and past a guard, and texts that are no
    non-negative int."""
    return (
        st.integers(0, 3).map(str)
        | st.integers(low, high).map(str)
        | st.sampled_from(["-1", "x", "", "1.5", str(10**20)])
    )


def _option(name: str, values):
    return st.just([]) | values.map(lambda value: [name, value])


formats = st.sampled_from(["ascii", "json", "dot", "xml"])
outputs = _option("--out", st.just(UNWRITABLE))

insert = st.tuples(
    st.just(["insert"]),
    st.sampled_from([*ALGORITHMS, "plactic"]).map(lambda a: [a]),
    permutations.map(lambda p: [p]),
    _option("--format", formats),
    outputs,
)
growth = st.tuples(
    st.just(["growth"]),
    st.sampled_from([*FAMILIES, "forest"]).map(lambda f: [f]),
    permutations.map(lambda p: [p]),
    st.sampled_from([[], ["--check"]]),
    _option("--format", formats),
    outputs,
)
graph = st.sampled_from(GRAPH_NAMES).flatmap(
    lambda name: st.tuples(
        st.just(["graph", name]),
        _option("--max-rank", _bounds(MAX_RANK[GRAPH_FAMILY[name]] - 1, MAX_RANK[GRAPH_FAMILY[name]] + 2)),
        _option("--format", formats),
        outputs,
    )
)
# duality reads one rank past --max-rank, paths reads rank --n
duality = st.sampled_from(tuple(DUAL_PAIRS)).flatmap(
    lambda pair: st.tuples(
        st.just(["verify", "duality", "--pair", pair]),
        _option("--max-rank", _bounds(MAX_RANK[PAIR_FAMILY[pair]] - 2, MAX_RANK[PAIR_FAMILY[pair]] + 1)),
    )
)
paths = st.sampled_from(tuple(DUAL_PAIRS)).flatmap(
    lambda pair: st.tuples(
        st.just(["verify", "paths", "--pair", pair]),
        _option("--n", _bounds(MAX_RANK[PAIR_FAMILY[pair]] - 1, MAX_RANK[PAIR_FAMILY[pair]] + 2)),
    )
)
# exhaustive checks up to 5, or past the guard, which refuses before any work
max_n = st.integers(0, 5).map(str) | st.integers(MAX_N + 1, MAX_N + 3).map(str) | st.sampled_from(["-1", "x", str(10**20)])
exhaustive = st.tuples(
    st.sampled_from([["verify", "equivalence"], ["verify", "shadow"]]),
    _option("--family", st.sampled_from([*FAMILIES, "forest"])),
    _option("--max-n", max_n),
    outputs,
)
# arguments missing, left over or unknown
malformed = st.sampled_from(
    [[], ["insert"], ["growth", "tree"], ["graph"], ["verify"], ["verify", "proof"], ["insert", "bst-left", "1", "2"],
     ["growth", "tree", "1", "--bogus"], ["graph", "binword", "--max-rank"]]
)
argvs = st.one_of(insert, growth, graph, duality, paths, exhaustive).map(lambda parts: sum(parts, [])) | malformed


def _main(argv: list[str], out, err) -> int:
    stdin = TextIOWrapper(BytesIO())  # what "-" reads, whatever stdin the tests run with
    with redirect_stdout(out), redirect_stderr(err), pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "stdin", stdin)
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv
            return exc.code


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = StringIO(), StringIO()
    code = _main(argv, out, err)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(argvs)
def test_every_argv_ends_in_one_of_three_outcomes(argv):
    code, out, err = _run(argv)
    event(f"exit {code}")
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        return
    assert code in (1, 2)
    assert err.endswith("\n")
    *before, last = err[:-1].split("\n")
    assert ERROR_LINE.match(last), err
    # argparse's usage: a "usage:" line and its indented continuations
    assert all(line.startswith("usage: ") if k == 0 else line.startswith(" ") for k, line in enumerate(before)), err



@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@settings(max_examples=150, deadline=None)
@given(argvs)
def test_a_full_stdout_fails_only_the_commands_that_would_succeed(argv):
    # every success writes at least a line; a command that fails does so
    # before it writes, and as it would on a stdout that takes the text
    code, _, err = _run(argv)
    full_err = StringIO()
    with open("/dev/full", "w", encoding="utf-8") as full:
        full_code = _main(argv, full, full_err)
    event(f"exit {code} -> {full_code}")
    if code == 0:
        assert (full_code, full_err.getvalue()) == (2, "error: cannot write stdout: No space left on device\n")
    else:
        assert (full_code, full_err.getvalue()) == (code, err)


def test_a_cover_break_mid_grid_is_one_error_line(monkeypatch):
    # from rank 60 on, cases (e) and (f) insert at the root: every label
    # still fits, so only the text fill's check sees z miss x, and JSON has
    # written the rows below by then, more than one piece of them
    monkeypatch.setattr(
        treegrowth, "PAIR", treegrowth.PAIR._replace(join=lambda k, s, rank: (0, s) if rank >= 60 else (k, s))
    )
    p = list(range(1, 121))
    Random(120).shuffle(p)
    for fmt, written in (("json", '{\n  "n": 120,\n  "family": "tree",\n  "grid": [\n    [\n'), ("ascii", "")):
        code, out, err = _run(["growth", "tree", _text(p, commas=True), "--format", fmt])
        assert code == 1
        assert err.startswith("invariant violated: z=") and err.count("\n") == 1, err
        assert out.startswith(written) and '"marks"' not in out
        assert len(out) >= (CHUNK_SIZE if fmt == "json" else 0)


# the report of verify shadow --max-n 9, a line per size
SHADOW_LINES = [f"n={n}: {math.factorial(n)}/{math.factorial(n)} PASS\n" for n in range(10)]


def _shadow_child(closed: bool = False, out: str = "") -> subprocess.Popen:
    """A child running verify shadow --max-n 9, whose walk at n = 9 takes
    seconds, with stdout a pipe (block-buffered) or, when closed, fd 1
    closed at start; never unbuffered by the environment."""
    argv = ["verify", "shadow", "--max-n", "9", *(["--out", out] if out else [])]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen(
        ["sh", "-c", f'exec "$@" {">&-" if closed else ""}', "sh", sys.executable, "-m", "growthdiagrams.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


def test_verify_writes_each_line_as_its_size_is_checked():
    proc = _shadow_child()
    try:
        assert proc.stdout.readline() == SHADOW_LINES[0]
        assert proc.poll() is None
    finally:
        proc.kill()
        proc.communicate()


@pytest.mark.parametrize("closed", [False, True], ids=["stdout", "closed-stdout"])
def test_an_interrupt_is_one_error_line(tmp_path, closed):
    # interrupted in the walk at n = 9, the command has written the lines
    # of n <= 8 and no more; with fd 1 closed at start, they go to --out
    out_file = tmp_path / "out.txt"
    proc = _shadow_child(closed, str(out_file) if closed else "")
    written = ""
    if closed:
        deadline = time.monotonic() + 60
        while not written.endswith(SHADOW_LINES[8]) and time.monotonic() < deadline:
            time.sleep(0.01)
            written = out_file.read_text() if out_file.exists() else ""
    else:
        for line in proc.stdout:
            written += line
            if line == SHADOW_LINES[8]:
                break
    assert proc.poll() is None
    proc.send_signal(signal.SIGINT)
    out, err = proc.communicate(timeout=120)
    if closed:
        assert out == ""  # fd 1 is closed
        out = out_file.read_text()
    else:
        out = written + out
    assert (proc.returncode, out, err) == (130, "".join(SHADOW_LINES[:9]), "error: interrupted\n")


@pytest.mark.parametrize(
    "argv", [["growth", "tree", "1,x"], ["verify", "shadow", "--max-n", "99"]], ids=["parse", "guard"]
)
def test_a_usage_error_leaves_out_as_it_was(tmp_path, argv):
    # the writability check makes no file, and the command opens --out
    # only when its text begins
    new, existing = tmp_path / "new.txt", tmp_path / "existing.txt"
    existing.write_text("earlier output\n")
    for path in (new, existing):
        code, out, err = _run([*argv, "--out", str(path)])
        assert (code, out) == (2, "") and ERROR_LINE.match(err), err
    assert not new.exists()
    assert existing.read_text() == "earlier output\n"


# one command of each kind, format and mode
ONE_OF_EACH = [
    *(["insert", algorithm, "415362", "--format", fmt] for algorithm in ALGORITHMS for fmt in ("ascii", "json")),
    *(["growth", family, "351426", "--check", "--format", fmt] for family in FAMILIES for fmt in ("ascii", "json")),
    *(["graph", name, "--max-rank", "3", "--format", fmt] for name in GRAPH_NAMES for fmt in ("dot", "json")),
    *(["verify", mode, "--max-rank", "3"] for mode in ("duality", "paths")),
    *(["verify", mode, "--max-n", "3"] for mode in ("equivalence", "shadow")),
]


@pytest.mark.parametrize("argv", ONE_OF_EACH, ids=" ".join)
def test_every_text_ends_in_one_newline(tmp_path, argv):
    code, out, err = _run(argv)
    assert (code, err) == (0, "")
    assert out.endswith("\n") and not out.endswith("\n\n"), out[-20:]
    path = tmp_path / "out.txt"
    assert _run([*argv, "--out", str(path)]) == (0, "", "")
    assert path.read_text() == out


def test_an_empty_out_is_a_usage_error():
    code, out, err = _run(["insert", "sylvester", "21", "--out", ""])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write --out : ") and err.count("\n") == 1, err


def _cli(argv: list[str], stdin=None, closed_stdin: bool = False) -> subprocess.CompletedProcess:
    """A child running the command line, fed ``stdin`` (bytes), or with fd 0
    closed at start."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        ["sh", "-c", f'exec "$@" {"<&-" if closed_stdin else ""}', "sh", sys.executable, "-m", "growthdiagrams.cli", *argv],
        input=stdin, capture_output=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "argv", [["insert", algorithm] for algorithm in ALGORITHMS] + [["growth", family, "--check"] for family in FAMILIES],
    ids=" ".join,
)
def test_a_permutation_from_stdin_writes_what_the_argument_does(argv):
    p = list(range(1, 41))
    Random(40).shuffle(p)
    text = _text(p, commas=True)
    command, name, *options = argv
    expected = _cli([command, name, text, *options, "--format", "json"])
    assert (expected.returncode, expected.stderr) == (0, b"")
    # a trailing newline, as echo and seq write, is whitespace the parser strips
    got = _cli([command, name, "-", *options, "--format", "json"], stdin=text.encode() + b"\n")
    assert (got.returncode, got.stdout, got.stderr) == (0, expected.stdout, b"")


@pytest.mark.parametrize(
    "stdin, message",
    [
        (b"1,x", "error: invalid token 'x'\n"),
        (b"21\xff", "error: invalid character '\\udcff' (use commas for values > 9)\n"),
        (None, "error: cannot read stdin: Bad file descriptor\n"),
    ],
    ids=["bad-text", "invalid-utf-8", "closed-stdin"],
)
def test_a_bad_stdin_is_one_error_line(stdin, message):
    got = _cli(["insert", "bst-left", "-"], stdin=stdin, closed_stdin=stdin is None)
    assert (got.returncode, got.stdout, got.stderr.decode()) == (2, b"", message)
    if stdin is not None:  # the same bytes as an argument get the same message
        argument = _cli(["insert", "bst-left", os.fsdecode(stdin)])
        assert (argument.returncode, argument.stderr.decode()) == (2, message)
