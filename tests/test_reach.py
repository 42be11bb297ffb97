"""
Every function that ``src/`` defines is entered by some ``growthdiag``
command, or is on ``ALLOWED`` with the reason it stays.  One fresh child
process runs a fixed set of small commands in process under
``sys.setprofile``, every command, format and error path among them, and
reports each function whose code it entered; being fresh, it sees the
lazy imports and cold caches that a command line run sees.  A function
that no command enters and no reason keeps is dead code; an entry that a
command enters, or whose function is gone, has to leave the list.

Run as a script (``python tests/test_reach.py DIR``, with the package's
``src`` on PYTHONPATH), this file is that child: it writes ``--out`` files
into DIR and prints the entered functions as a JSON list.
"""
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import CodeType

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "growthdiagrams"

_PINNED = "perfbench replays every fill's squares through the local rules"
_CACHED = "perfbench snapshots its cache"
ALLOWED = {
    "growthcheck.local_rule_composition": _PINNED,
    "growthcheck.local_rule_tree": _PINNED,
    "growthcheck._complete_square": "the one case analysis of both local rules",
    "growthcheck._square": "loads a family's vertex code for the local rules",
    "compositions.is_lifted_cover": "the composition local rule's vertical cover check",
    "compositions.is_binword_cover": "the composition local rule's horizontal cover check",
    "compositions.word_value": "the word bits that is_binword_cover compares",
    "trees.is_reflected_bracket_cover": "the tree local rule's vertical cover check",
    "trees.is_lattice_cover": "the tree local rule's horizontal cover check",
    "trees.insert_rightmost": "how the tree local rule grows a vertex",
    "trees.right_spine_length": "where the tree local rule inserts its new node",
    "compositions.increment_last": "how the composition local rule grows a vertex",
    "growthcheck.local_rule_grid": "rebuilds a grid's vertices for GrowthGrid.vertices",
    "growth.GrowthGrid.vertices": "library API: the vertices themselves, which perfbench's case counts read",
    "compositions.lifted_covers": _CACHED,
    "compositions.binword_covers": _CACHED,
    "compositions.composition_to_word": "binword_covers decodes the words it spreads with it",
    "trees.lattice_covers": _CACHED,
    "trees.reflected_bracket_covers": _CACHED,
    "trees.delete_rightmost": _CACHED,
    "trees.labeled_tree_to_json_obj": "perfbench's tests compare a tree's JSON with it",
    "growthcheck.growth_insert": "judges verify equivalence's suspects, which a correct walk never reports",
    "ribbons.shadow_lines": "judges verify shadow's suspects, which a correct walk never reports",
    "trees.tree_to_bracketed_expression": "acceptance criterion 10 checks the paper's lemma with it",
    "trees.tree_to_bracketed_expression.<locals>.go": "the recursion of tree_to_bracketed_expression",
    "permutations.all_permutations": "library API: every permutation of a size",
    "ribbons.RibbonShapedTableau.reading": "library API: a tableau's reading word",
    "ribbons.RibbonShapedTableau.__repr__": "library API: a tableau is a value with a repr that rebuilds it",
    "ribbons.RibbonShapedTableau.__hash__": "library API: a tableau is a hashable value",
    "ribbons.RibbonShapedTableau.__setattr__": "library API: a tableau refuses assignment",
    "ribbons.RibbonShapedTableau.__delattr__": "library API: a tableau refuses deletion",
    "ribbons.RibbonShapedTableau.__reduce__": "library API: a tableau pickles and copies",
}


def commands(out_dir: str) -> list[tuple[list[str], int]]:
    """Each command with the exit code it must end with."""
    out = os.path.join(out_dir, "out.txt")
    runs = []
    for algorithm in ("hypoplactic", "bst-left", "bst-right", "sylvester"):
        for fmt in ("ascii", "json"):
            runs.append((["insert", algorithm, "415362", "--format", fmt], 0))
    for family in ("composition", "tree"):
        for fmt in ("ascii", "json"):
            runs.append((["growth", family, "351426", "--check", "--format", fmt], 0))
            runs.append((["growth", family, "2413", "--format", fmt, "--out", out], 0))
    for name in ("lifted-binary-tree", "binword", "tree-lattice", "reflected-bracket-tree"):
        for fmt in ("dot", "json"):
            runs.append((["graph", name, "--max-rank", "3", "--format", fmt], 0))
    for pair in ("compositions", "trees"):
        runs.append((["verify", "duality", "--pair", pair, "--max-rank", "4"], 0))
        runs.append((["verify", "paths", "--pair", pair, "--n", "4"], 0))
    for family in ("composition", "tree"):
        runs.append((["verify", "equivalence", "--family", family, "--max-n", "4"], 0))
    runs += [
        (["verify", "shadow", "--max-n", "4"], 0),
        (["insert", "hypoplactic", "4153"], 2),
        (["insert", "bst-left", "1,x"], 2),
        (["growth", "tree", "11"], 2),
        (["verify", "shadow", "--max-n", "99"], 2),
        (["verify", "duality", "--max-rank", "99"], 2),
        (["verify", "paths", "--n", "99"], 2),
        (["graph", "binword", "--max-rank", "99"], 2),
        (["insert", "sylvester", "21", "--out", os.path.join(out_dir, "missing", "out.txt")], 2),
        (["graph", "binword", "--max-rank", "-1"], 2),
        (["--help"], 0),
        (["verify", "--help"], 0),
    ]
    return runs


def defined() -> dict[tuple[str, int, str], str]:
    """The qualified name of each function that src/ defines, nested ones
    included, by the module, first line and name of its code; lambdas,
    comprehensions and class bodies are left out."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem)]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if isinstance(const, CodeType) and not const.co_name.startswith("<"):
                    name = f"{prefix}.{const.co_name}"
                    if const.co_flags & inspect.CO_NEWLOCALS:
                        found[path.stem, const.co_firstlineno, const.co_name] = name
                        stack.append((const, name + ".<locals>"))
                    else:
                        stack.append((const, name))
    return found


def entered(out_dir: str) -> set[tuple[str, int, str]]:
    """Run every command under a profiler; the module, first line and
    name of each package code entered."""
    seen = set()
    package = str(PACKAGE)

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(package):
            seen.add((Path(code.co_filename).stem, code.co_firstlineno, code.co_name))

    runs = commands(out_dir)
    codes = []
    sys.setprofile(profile)
    try:
        from growthdiagrams.cli import main

        for argv, _ in runs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    codes.append(main(argv))
                except SystemExit as exc:
                    codes.append(exc.code)
    finally:
        sys.setprofile(None)
    assert codes == [expected for _, expected in runs], list(zip(codes, runs))
    return seen


def test_every_function_is_entered_or_allowed(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, __file__, str(tmp_path)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    functions = defined()
    reached = {functions[tuple(key)] for key in json.loads(proc.stdout) if tuple(key) in functions}
    names = set(functions.values())
    assert set(ALLOWED) <= names, "allowed but no longer defined"
    assert names - reached - set(ALLOWED) == set(), "defined, entered by no command, and not allowed"
    assert reached & set(ALLOWED) == set(), "allowed, but a command enters it"


if __name__ == "__main__":
    print(json.dumps(sorted(entered(sys.argv[1]))))
