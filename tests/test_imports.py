"""What each command and the package import: every CLI run is a fresh
process, so the modules it loads are part of its cost."""
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import growthdiagrams

SRC = Path(__file__).resolve().parents[1] / "src"

# every name the package exported before it resolved them lazily, by a
# module that holds it (test-only oracles and one-line wrappers have since
# left the package)
EXPORTS = {
    "bst": ("bst_insert", "is_lattice_cover"),
    "compositions": (
        "binword_covers", "composition_to_word", "compositions_of", "is_binword_cover",
        "is_lifted_cover", "lifted_covers", "word_to_composition",
    ),
    "graphs": (
        "DUAL_PAIRS", "GRAPH_NAMES", "DualityReport", "GradedGraph", "check_duality",
        "export_dot", "export_json", "make_graph", "path_count_identity",
    ),
    "growth": ("GrowthGrid", "GrowthRuleError", "build_growth_diagram"),
    "growthcheck": ("growth_insert", "local_rule_composition", "local_rule_tree"),
    "permutations": (
        "Permutation", "PermutationParseError", "all_permutations", "inverse",
        "parse_permutation", "permutation_matrix",
    ),
    "ribbons": (
        "QuasiRibbonTableau", "RibbonTableau", "hypoplactic_insert", "shadow_lines",
    ),
    "trees": (
        "delete_rightmost", "is_reflected_bracket_cover", "lattice_covers",
        "reflected_bracket_covers", "tree_to_bracketed_expression", "trees_of",
    ),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def _imported(*args: str) -> set[str]:
    """Modules that `python -X importtime ARGS` reports loading."""
    proc = _python("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    return {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.fixture(scope="module")
def bare_interpreter() -> set[str]:
    return _imported("-c", "pass")


# the package's modules that each command loads besides permutations,
# which cli imports (cli itself runs as __main__); JSON output loads
# jsontext, which the checks never load
GRAPHS = {"graphs"}  # compositions or trees only to enumerate or name vertices
# a fill loads its own family's code only
TREE_GROWTH = {"growth", "treegrowth", "bst"}
COMPOSITION_GROWTH = {"growth", "compositiongrowth", "compositions", "ribbons"}
# the reference rules need every cover relation
EQUIVALENCE = {"growthcheck", "compositions", "trees", "bst"}
LOADS = {
    ("insert", "hypoplactic", "312"): {"ribbons"},
    ("insert", "hypoplactic", "312", "--format", "json"): {"ribbons", "jsontext"},
    ("insert", "bst-left", "312", "--format", "json"): {"bst", "jsontext"},
    ("insert", "bst-right", "312"): {"bst"},
    ("insert", "sylvester", "312"): {"bst"},
    ("growth", "composition", "312", "--check"): COMPOSITION_GROWTH,
    ("growth", "composition", "312", "--format", "json"): {*COMPOSITION_GROWTH, "jsontext"},
    ("growth", "tree", "312"): TREE_GROWTH,
    ("growth", "tree", "312", "--format", "json"): {*TREE_GROWTH, "jsontext"},
    ("growth", "tree", "312", "--check", "--format", "json"): {*TREE_GROWTH, "jsontext"},
    ("verify", "duality", "--max-rank", "3"): GRAPHS,
    ("verify", "duality", "--pair", "trees", "--max-rank", "3"): GRAPHS,
    ("verify", "equivalence", "--max-n", "3"): {*COMPOSITION_GROWTH, *EQUIVALENCE},
    ("verify", "equivalence", "--family", "tree", "--max-n", "3"): {*TREE_GROWTH, *EQUIVALENCE},
    ("verify", "shadow", "--max-n", "3"): {"ribbons"},
    ("verify", "paths", "--n", "3"): {*GRAPHS, "compositions"},
    ("verify", "paths", "--pair", "trees", "--n", "3"): {*GRAPHS, "trees"},
    ("graph", "binword", "--max-rank", "2"): {*GRAPHS, "compositions"},
    ("graph", "binword", "--max-rank", "2", "--format", "json"): {*GRAPHS, "compositions", "jsontext"},
    ("graph", "tree-lattice", "--max-rank", "2"): {*GRAPHS, "trees"},
}


@pytest.mark.parametrize("argv", list(LOADS), ids=" ".join)
def test_cold_start_imports(bare_interpreter, argv):
    loaded = _imported("-m", "growthdiagrams.cli", *argv) - bare_interpreter
    assert "growthdiagrams.permutations" in loaded  # the report sees the package's modules
    assert "dataclasses" not in loaded
    package = {name for name in loaded if name.startswith("growthdiagrams.")}
    assert package == {f"growthdiagrams.{name}" for name in {"permutations", *LOADS[argv]}}


# the pairs of modules that a lazy import joins, importer first
LAZY = [
    ("cli", "bst"), ("cli", "growthcheck"), ("graphs", "compositions"), ("graphs", "trees"),
    ("growth", "compositiongrowth"), ("growth", "treegrowth"), ("growthcheck", "compositiongrowth"),
]
MODULES = sorted(path.stem for path in (SRC / "growthdiagrams").glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize(
    "order", [(module,) for module in MODULES] + [pair[::step] for pair in LAZY for step in (1, -1)], ids=" ".join
)
def test_modules_import_in_any_order(order):
    # a circular import between two modules fails whichever loads first
    code = "".join(f"import growthdiagrams.{module}; " for module in order) + (
        "from growthdiagrams.cli import main; "
        "assert [main(['growth', family, '213', '--check']) for family in ('composition', 'tree')] == [0, 0]"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("MATCH") == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("insert", "bst-left", "312", "--format", "json"),
        ("insert", "hypoplactic", "312", "--format", "json"),
        ("growth", "composition", "312", "--format", "json"),
        ("graph", "tree-lattice", "--max-rank", "2", "--format", "json"),
    ],
    ids=" ".join,
)
def test_json_text_loads_no_json_decoder(bare_interpreter, argv):
    # jsontext needs only the C string escaper; the json package would
    # load its decoder and scanner as well
    loaded = _imported("-m", "growthdiagrams.cli", *argv) - bare_interpreter
    assert "growthdiagrams.jsontext" in loaded
    assert not {"json.decoder", "json.scanner"} & loaded


def test_bare_package_import_loads_no_submodule():
    proc = _python("-c", "import growthdiagrams, sys; print(sorted(m for m in sys.modules if m.startswith('growthdiagrams.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("module, name", NAMES)
def test_exports_resolve_to_the_defining_object(module, name):
    assert getattr(growthdiagrams, name) is getattr(import_module(f"growthdiagrams.{module}"), name)


def test_names_the_command_line_needs_are_defined_once():
    # in permutations, which every command loads; graphs and growth re-export them
    permutations, graphs, growth = (import_module(f"growthdiagrams.{m}") for m in ("permutations", "graphs", "growth"))
    for name in ("RankGuardError", "GrowthRuleError", "MAX_N", "GRAPH_NAMES", "DUAL_PAIRS"):
        assert getattr(graphs, name) is getattr(permutations, name)
    assert growth.GrowthRuleError is permutations.GrowthRuleError
    assert growthdiagrams.GRAPH_NAMES == ("lifted-binary-tree", "binword", "tree-lattice", "reflected-bracket-tree")


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from growthdiagrams import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(import_module(f"growthdiagrams.{module}"), name)


@pytest.mark.parametrize(
    "name",
    [
        "no_such_name", "shape", "binword_deletion_positions", "is_search_tree",
        "is_increasing_tree", "is_decreasing_tree", "tree_from_text", "labeled_tree_from_json_obj",
        "insert_letter", "restrict_prefix", "restrict_values", "node_count", "extend_right_spine",
        "push_down_rightmost", "vertex_label", "BoundaryChains", "chain_to_bst",
        "chain_to_increasing_tree", "chain_to_quasi_ribbon", "chain_to_ribbon", "convert_chains",
        "tree_to_text",
    ],
)
def test_unknown_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(growthdiagrams, name)
    assert not any(hasattr(getattr(growthdiagrams, module), name) for module in EXPORTS)
